"""End-to-end CLI contract: commands, exit codes, artifacts, determinism."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mvop import cli

KRAW44 = {
    "m": 2,
    "a": ["1"],
    "channels": [
        {"kind": "krawtchouk", "p": "1/2", "N": 4},
        {"kind": "krawtchouk", "p": "1/2", "N": 4},
    ],
}
BAD_HAHN = {
    "m": 2,
    "a": ["1"],
    "channels": [
        {"kind": "hahn", "alpha": "1", "beta": "1", "N": 3},
        {"kind": "hahn", "alpha": "1", "beta": "1", "N": 3},
    ],
}
# Hahn pairs below -N that pass every spec gate, with alpha + beta of the
# first channel at -(2N + 3) and -(2N + 4) (N = 2)
HAHN_2N3 = {
    "m": 2,
    "a": ["1"],
    "channels": [
        {"kind": "hahn", "alpha": "-3", "beta": "-4", "N": 2},
        {"kind": "hahn", "alpha": "-5", "beta": "-4", "N": 2},
    ],
}
HAHN_2N4 = {
    "m": 2,
    "a": ["1"],
    "channels": [
        {"kind": "hahn", "alpha": "-4", "beta": "-4", "N": 2},
        {"kind": "hahn", "alpha": "-5", "beta": "-5", "N": 2},
    ],
}
# the lead of Q_1 is singular at a = 1 (and at the probe a = -1): no
# recurrence can be matched at those couplings
HAHN_SINGULAR_LEAD = {
    "m": 2,
    "a": ["1"],
    "channels": [
        {"kind": "hahn", "alpha": "-7/2", "beta": "-11/2", "N": 3},
        {"kind": "hahn", "alpha": "3/2", "beta": "3/2", "N": 3},
    ],
}
KRAW3 = {
    "m": 2,
    "a": ["2"],
    "channels": [
        {"kind": "krawtchouk", "p": "1/3", "N": 3},
        {"kind": "krawtchouk", "p": "3/4", "N": 3},
    ],
}
CHARLIER_BC = {
    "m": 2,
    "a": ["1"],
    "channels": [{"kind": "charlier", "b": "1"}, {"kind": "charlier", "b": "2"}],
}
# every mass quotient rational, so neither command reads --tau
KRAW_MIXED = {
    "m": 2,
    "a": ["1"],
    "channels": [
        {"kind": "krawtchouk", "p": "1/3", "N": 5},
        {"kind": "krawtchouk", "p": "2/5", "N": 5},
    ],
}
HK_TRANSITION = {
    "name": "hahn->krawtchouk",
    "n": 1,
    "a": "1",
    "ladder": ["100", "1000"],
    "params": {"p": "1/2", "N": "4"},
}
KC_TRANSITION = {
    "name": "krawtchouk->charlier",
    "n": 2,
    "a": "1",
    "ladder": ["100", "1000", "10000"],
    "params": {"b": "2"},
}


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mvop.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def spec_files(tmp_path):
    paths = {}
    for name, payload in (
        ("kraw44", KRAW44),
        ("bad_hahn", BAD_HAHN),
        ("charlier_bc", CHARLIER_BC),
        ("kc", KC_TRANSITION),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


class TestFamily:
    def test_latex_five_polynomials(self, spec_files):
        res = run_cli("family", "--spec", spec_files["kraw44"], "--n", "4", "--format", "latex")
        assert res.returncode == 0
        assert res.stdout.count("\\begin{pmatrix}") >= 5
        assert "1 & -2" in res.stdout

    def test_json_artifact_keys(self, spec_files, tmp_path):
        out = tmp_path / "fam.json"
        res = run_cli(
            "family", "--spec", spec_files["charlier_bc"], "--n", "3",
            "--format", "json", "--out", str(out),
        )
        assert res.returncode == 0
        data = json.loads(out.read_text())
        assert set(["Q", "W", "D", "Lambda", "spec", "tau"]) <= set(data)
        assert len(data["Q"]) == 4
        assert data["Lambda"][2] == ["3", "2"]

    def test_bad_hahn_with_operator_exits_2(self, spec_files):
        res = run_cli("family", "--spec", spec_files["bad_hahn"], "--operator")
        assert res.returncode == 2
        assert "alpha_i + beta_i = alpha_j + beta_j + 2" in res.stderr

    def test_bad_hahn_without_operator_still_constructs(self, spec_files):
        res = run_cli("family", "--spec", spec_files["bad_hahn"], "--n", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["D"] is None and "note" in data

    @pytest.mark.parametrize("payload", [HAHN_2N3, HAHN_2N4])
    def test_hahn_closure_degeneracy_leaves_family_intact(self, tmp_path, payload):
        # Q_0..Q_N need b_n only up to n = N
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(payload))
        res = run_cli("family", "--spec", str(p))
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["Q"]) == 3

    def test_missing_file_exits_3(self, tmp_path):
        res = run_cli("family", "--spec", str(tmp_path / "absent.json"))
        assert res.returncode == 3

    def test_numeric_tau_recurrence_exits_2(self, spec_files):
        res = run_cli("family", "--spec", spec_files["charlier_bc"], "--n", "2", "--recurrence")
        assert res.returncode == 2
        assert "--tau" in res.stderr and "rational" in res.stderr

    def test_numeric_tau_coefficients_render_as_floats(self, spec_files):
        res = run_cli("family", "--spec", spec_files["charlier_bc"], "--n", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["tau"] == "numeric"
        coeffs = [c for Q in data["Q"] for row in Q["entries"] for e in row for c in e]
        floats = [c for c in coeffs if "." in c or "e" in c]
        assert floats and all(repr(float(c)) == c for c in floats)
        assert not any("/" in c for c in coeffs)

    def test_negative_n_exits_2(self, spec_files):
        res = run_cli("family", "--spec", spec_files["kraw44"], "--n", "-1")
        assert res.returncode == 2
        assert "--n" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("name, payload, tau, n_hi", [
        ("kraw44", KRAW44, None, 4),  # n = N closes through the closure companion
        ("charlier_bc", CHARLIER_BC, 2, 2),
    ])
    def test_recurrence_matches_extraction(self, spec_files, name, payload, tau, n_hi):
        from mvop.construction import family_spec_from_json
        from mvop.operators import extract_recurrence
        from mvop.rational import format_rational

        args = ("--n", str(n_hi)) + (() if tau is None else ("--tau", str(tau)))
        res = run_cli("family", "--spec", spec_files[name], "--recurrence", *args)
        assert res.returncode == 0
        triples = json.loads(res.stdout)["recurrence"]
        assert len(triples) == n_hi + 1
        spec = family_spec_from_json(payload)
        for n, got in enumerate(triples):
            t = extract_recurrence(spec, n, tau=tau)
            assert got == {
                key: [[format_rational(v) for v in row] for row in mat]
                for key, mat in (("A", t.A), ("B", t.B), ("C", t.C))
            }

    def test_numeric_tau_recurrence_writes_nothing(self, spec_files, tmp_path):
        out = tmp_path / "fam.json"
        res = run_cli(
            "family", "--spec", spec_files["charlier_bc"], "--n", "2",
            "--recurrence", "--out", str(out),
        )
        assert res.returncode == 2
        assert "--tau" in res.stderr
        assert not out.exists()

    def test_invalid_spec_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"m": 2, "a": ["0"], "channels": KRAW44["channels"]}))
        res = run_cli("family", "--spec", str(p))
        assert res.returncode == 2
        assert "nonzero" in res.stderr


def _with_channel(**changes):
    return {**KRAW44, "channels": [{**KRAW44["channels"][0], **changes}, KRAW44["channels"][1]]}


# (command, spec payload, extra arguments, text the message must hold)
BAD_INPUTS = {
    "float-p": ("family", _with_channel(p=0.5), (), "field 'p'"),
    "zero-denominator-a": ("family", {**KRAW44, "a": ["1/0"]}, (), "field 'a'"),
    "zero-denominator-probes": ("verify", KRAW44, ("--probes", "1/0"), "--probes"),
    "zero-probe": ("verify", KRAW44, ("--probes", "1,0"), "--probes"),
    "negative-n-max": ("verify", KRAW44, ("--n-max", "-1"), "--n-max"),
    # equal after parsing: 2/2 is 1
    "duplicate-probes": ("verify", KRAW44, ("--probes", "1,2/2"), "--probes"),
    "duplicate-tau-probes": (
        "verify", CHARLIER_BC, ("--tau-probes", "2,2", "--n-max", "1"), "--tau-probes"),
    "zero-denominator-tau-probes": (
        "verify", CHARLIER_BC, ("--tau-probes", "1/0"), "--tau-probes"),
    "zero-denominator-tau": ("family", CHARLIER_BC, ("--tau", "1/0"), "--tau"),
    "empty-probes": ("verify", KRAW44, ("--probes", ""), "--probes"),
    "empty-tau-probes": ("verify", CHARLIER_BC, ("--tau-probes", ""), "--tau-probes"),
    "top-level-list": ("family", [KRAW44], (), "family spec is not a JSON object"),
    "scalar-a": ("family", {**KRAW44, "a": 1}, (), "field 'a'"),
    "list-params": ("limits", {**KC_TRANSITION, "params": [["b", 1]]}, (), "'params'"),
    "float-N": ("family", _with_channel(N=4.7), (), "field 'N'"),
    "bool-N": ("family", _with_channel(N=True), (), "field 'N'"),
    "float-n": ("limits", {**KC_TRANSITION, "n": 1.5}, (), "field 'n'"),
    "family-tau-on-rational-masses": ("family", KRAW_MIXED, ("--tau", "1/0"), "--tau"),
    "export-tau-on-rational-masses": (
        "export", KRAW_MIXED, ("--what", "Q", "--tau", "abc"), "--tau"),
    "fractional-transition-N": (
        "limits", {**HK_TRANSITION, "params": {"p": "1/2", "N": "9/2"}}, (), "N = 9/2"),
    "unknown-transition-param": (
        "limits", {**KC_TRANSITION, "params": {"b": "2", "bogus": "7"}}, (), "'bogus'"),
    "missing-transition-param": ("limits", {**KC_TRANSITION, "params": {}}, (), "['b']"),
    "degree-above-ladder-N": (
        "limits", {**KC_TRANSITION, "n": 5, "ladder": ["3", "100"]}, (), "n = 5"),
    "zero-ladder-step": ("limits", {**KC_TRANSITION, "ladder": ["0", "100"]}, (), "N = 0"),
    # the default tolerance rejects this truncation (tail 2.357e-01)
    "infinite-tol": (
        "verify", {**CHARLIER_BC, "a": ["2"]}, ("--tol", "inf", "--x-max", "3", "--n-max", "2"),
        "--tol"),
    "nan-tol": ("verify", CHARLIER_BC, ("--tol", "nan", "--n-max", "2"), "--tol"),
    "negative-tol": ("verify", CHARLIER_BC, ("--tol", "-1", "--n-max", "2"), "--tol"),
    "zero-tol": ("verify", CHARLIER_BC, ("--tol", "0", "--n-max", "2"), "--tol"),
    # -(alpha + beta) = 2N + 3 and 2N + 4: b_(N+1) of the closure companion
    # divides by zero; only the commands that close the recurrence read it
    "hahn-closure-verify": ("verify", HAHN_2N3, (), "n = 3"),
    "hahn-closure-family": ("family", HAHN_2N4, ("--recurrence",), "n = 3"),
    "hahn-closure-export": (
        "export", HAHN_2N3, ("--what", "recurrence", "--n", "2"), "n = 3"),
    "zero-p-hermite": (
        "limits",
        {**KC_TRANSITION, "name": "krawtchouk->hermite", "params": {"p": "0"}},
        (),
        "p = 0",
    ),
    # tau = -1/2 makes the lead of Q_1 singular: no recurrence can be matched
    "singular-tau-probe": (
        "verify", CHARLIER_BC, ("--tau-probes", "-1/2"), "a = 1, --tau-probes value -1/2"),
    "singular-tau-family": (
        "family", CHARLIER_BC, ("--tau", "-1/2", "--recurrence"), "--tau value -1/2"),
    "singular-tau-export": (
        "export", CHARLIER_BC, ("--what", "recurrence", "--tau", "-1/2"), "--tau value -1/2"),
    "singular-coupling-verify": (
        "verify", HAHN_SINGULAR_LEAD, ("--n-max", "2"),
        "coupling probe a = 1 (--probes) makes the leading coefficient of Q_1 singular"),
    "singular-coupling-family": (
        "family", HAHN_SINGULAR_LEAD, ("--n", "2", "--recurrence"),
        "coupling a = 1 makes the leading coefficient of Q_1 singular"),
    "singular-coupling-export": (
        "export", HAHN_SINGULAR_LEAD, ("--what", "recurrence"),
        "coupling a = 1 makes the leading coefficient of Q_1 singular"),
    # LaTeX exists for Q and D only
    "latex-W": ("export", KRAW3, ("--what", "W", "--format", "latex"), "--format"),
    "latex-recurrence": (
        "export", KRAW3, ("--what", "recurrence", "--format", "latex"), "--format"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_and_names_the_field(tmp_path, case):
    command, payload, extra, named = BAD_INPUTS[case]
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(payload))
    res = run_cli(command, "--spec", str(p), *extra)
    assert res.returncode == 2
    assert res.stderr.startswith("invalid input: ")
    assert named in res.stderr
    assert "Fraction(" not in res.stderr  # values print with str
    assert res.stdout == ""


# The options of each command, written out apart from cli.COMMANDS:
# name -> (attribute, default); None marks a required option
OPTIONS = {
    "family": {"--spec": ("spec", None), "--n": ("n", 4), "--format": ("format", "json"),
               "--out": ("out", None), "--tau": ("tau", "numeric"),
               "--operator": ("operator", False), "--recurrence": ("recurrence", False)},
    "verify": {"--spec": ("spec", None), "--n-max": ("n_max", None), "--x-max": ("x_max", 400),
               "--tol": ("tol", 1e-9), "--probes": ("probes", None),
               "--tau-probes": ("tau_probes", None), "--truncated": ("truncated", False),
               "--perturb": ("perturb", False), "--out": ("out", None)},
    "limits": {"--spec": ("spec", None), "--format": ("format", "json"), "--out": ("out", None)},
    "export": {"--spec": ("spec", None), "--what": ("what", None), "--n": ("n", 2),
               "--format": ("format", "json"), "--tau": ("tau", "numeric"),
               "--out": ("out", None)},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_namespace_holds_every_option_with_its_default(command):
    given = {"--spec": "s.json", "--what": "Q"}
    argv = [command, *(t for name in OPTIONS[command] if name in given
                       for t in (name, given[name]))]
    expected = {attr: given.get(name, default)
                for name, (attr, default) in OPTIONS[command].items()}
    assert vars(cli.parse_args(argv)) == {"command": command, **expected}


def test_equals_form_last_occurrence_and_dash_values():
    args = cli.parse_args(["family", "--spec=a=b.json", "--n", "1", "--n=3",
                           "--tau", "-2", "--out", "--recurrence", "--recurrence"])
    assert (args.spec, args.n, args.tau, args.out, args.recurrence) == (
        "a=b.json", 3, "-2", "--recurrence", True)
    args = cli.parse_args(["verify", "--spec", "s", "--tol", "1e-3", "--n-max", "-1"])
    assert (args.tol, args.n_max) == (1e-3, -1)


# (arguments after "mvop", text the message must hold); {spec} is a valid spec
ARGUMENT_ERRORS = {
    "unknown-option": (("verify", "--spec", "{spec}", "--bogus"), "--bogus"),
    "missing-value": (("family", "--spec", "{spec}", "--n"), "--n"),
    "non-integer": (("family", "--spec", "{spec}", "--n", "abc"), "--n"),
    "non-float": (("verify", "--spec", "{spec}", "--tol", "tiny"), "--tol"),
    "bad-choice": (("export", "--spec", "{spec}", "--what", "Q", "--format", "csv"), "--format"),
    "missing-spec": (("family",), "--spec"),
    "missing-what": (("export", "--spec", "{spec}"), "--what"),
    "no-command": ((), "command"),
    "unknown-command": (("bogus", "--spec", "{spec}"), "bogus"),
    "flag-with-value": (("verify", "--spec", "{spec}", "--perturb=1"), "--perturb"),
    # a prefix of --n-max is no option
    "prefix-of-option": (("verify", "--spec", "{spec}", "--n", "3"), "'--n'"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_ERRORS))
def test_argument_error_exits_2_and_names_it(spec_files, capsys, case):
    argv, named = ARGUMENT_ERRORS[case]
    code = cli.main([a.replace("{spec}", spec_files["kraw44"]) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("invalid input: ")
    assert named in err
    assert out == ""


@pytest.mark.parametrize("argv, names", [
    (("--help",), tuple(OPTIONS)),
    *(((command, "--spec", "s.json", "-h"), tuple(OPTIONS[command])) for command in OPTIONS),
    (("verify", "--bogus", "--help"), tuple(OPTIONS["verify"])),
], ids=["mvop", *OPTIONS, "after-a-bad-option"])
def test_help_lists_every_name(capsys, argv, names):
    assert cli.main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: mvop") and err == ""
    assert all(name in out.split() for name in names)


def test_import_leaves_argparse_out():
    res = subprocess.run(
        [sys.executable, "-c", "import sys, mvop.cli; assert 'argparse' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr


def test_import_leaves_dataclasses_out():
    # the records are built without dataclasses, whose import loads the rest
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    res = subprocess.run(
        [sys.executable, "-c", f"import sys, mvop.cli; print(*sorted(set({heavy}) & set(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


class TestVerify:
    def test_pass_exits_0(self, spec_files, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--spec", spec_files["kraw44"], "--out", str(out))
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["probe_grid"]["a"] == ["1", "2", "3", "1/2", "-1"]
        kinds = {c["check"] for c in report["checks"]}
        assert kinds == {"orthogonality", "eigenfunction", "recurrence"}

    def test_checks_grouped_by_kind(self, spec_files, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--spec", spec_files["kraw44"], "--out", str(out))
        assert res.returncode == 0
        kinds = [c["check"] for c in json.loads(out.read_text())["checks"]]
        # 5 a-probes x 10 pairs, then 5 x 5 degrees for each of the others
        assert kinds == ["orthogonality"] * 50 + ["eigenfunction"] * 25 + ["recurrence"] * 25

    def test_negative_n_max_exits_2(self, spec_files):
        res = run_cli("verify", "--spec", spec_files["kraw44"], "--n-max", "-1")
        assert res.returncode == 2
        assert "n_max" in res.stderr

    def test_negative_x_max_exits_2(self, spec_files):
        res = run_cli(
            "verify", "--spec", spec_files["charlier_bc"], "--x-max", "-3", "--n-max", "2",
        )
        assert res.returncode == 2
        assert "--x-max" in res.stderr
        assert res.stdout == ""

    def test_truncation_failure_stderr(self, spec_files):
        res = run_cli("verify", "--spec", spec_files["charlier_bc"], "--truncated", "--x-max", "6")
        assert res.returncode == 1
        assert res.stderr == (
            "verification failed: truncated inner product tail 1.900e-01 exceeds "
            "tolerance 1.0e-09 at x_max = 6\n"
        )
        assert res.stdout == ""

    def test_perturbed_exits_1(self, spec_files):
        res = run_cli("verify", "--spec", spec_files["kraw44"], "--perturb", "--out", os.devnull)
        assert res.returncode == 1
        assert "verification failed" in res.stderr

    def test_truncated_suite(self, spec_files, tmp_path):
        out = tmp_path / "trunc.json"
        res = run_cli(
            "verify", "--spec", spec_files["charlier_bc"], "--n-max", "3", "--truncated",
            "--x-max", "400", "--tol", "1e-9", "--out", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True

    def test_truncated_finite_support_sums_whole_support(self, tmp_path):
        # --x-max used to cut the float sums of a finite support at x = 2 < N,
        # a false failure with "relative bound = 3.549e-01"
        spec = {"m": 2, "a": ["2"], "channels": [
            {"kind": "krawtchouk", "p": "1/3", "N": 3},
            {"kind": "krawtchouk", "p": "2/5", "N": 3},
        ]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        short, full = (
            run_cli("verify", "--spec", str(path), "--truncated", "--x-max", x_max)
            for x_max in ("2", "400")
        )
        assert (short.returncode, short.stderr) == (0, "")
        assert short.stdout == full.stdout
        assert json.loads(short.stdout)["pass"] is True

    def test_probe_override(self, spec_files, tmp_path):
        out = tmp_path / "probes.json"
        res = run_cli(
            "verify", "--spec", spec_files["kraw44"], "--probes", "1,2,-1/2",
            "--out", str(out),
        )
        assert res.returncode == 0
        assert json.loads(out.read_text())["probe_grid"]["a"] == ["1", "2", "-1/2"]

    @pytest.mark.parametrize("option, values, key", [
        ("--probes", "-1,2", "a"),
        ("--probes", "-1/2", "a"),
        ("--tau-probes", "-1/2", "tau"),
    ])
    def test_negative_probe_values(self, tmp_path, option, values, key):
        spec = {**CHARLIER_BC, "channels": [CHARLIER_BC["channels"][0],
                                            {"kind": "meixner", "beta": "1/2", "c": "1/2"}]}
        p, out = tmp_path / "spec.json", tmp_path / "report.json"
        p.write_text(json.dumps(spec))
        res = run_cli("verify", "--spec", str(p), option, values, "--n-max", "2",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert json.loads(out.read_text())["probe_grid"][key] == values.split(",")

    def test_worker_pool_env(self, spec_files, tmp_path):
        out = tmp_path / "pooled.json"
        res = run_cli(
            "verify", "--spec", spec_files["kraw44"], "--out", str(out),
            env_extra={"MVOP_THREADS": "4"},
        )
        assert res.returncode == 0
        assert json.loads(out.read_text())["pass"] is True


class TestLimits:
    def test_csv_output(self, spec_files):
        res = run_cli("limits", "--spec", spec_files["kc"], "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0].startswith("ladder,max_abs_error")
        assert len(lines) == 4

    def test_single_step_ladder_exits_2(self, tmp_path):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({**KC_TRANSITION, "ladder": ["100"]}))
        res = run_cli("limits", "--spec", str(p))
        assert res.returncode == 2

    def test_mu_column_present(self, tmp_path):
        p = tmp_path / "hk.json"
        p.write_text(
            json.dumps(
                {
                    "name": "hahn->krawtchouk",
                    "n": 1,
                    "a": "1",
                    "ladder": ["100", "1000"],
                    "params": {"p": "1/2", "N": "4"},
                }
            )
        )
        res = run_cli("limits", "--spec", str(p), "--format", "csv")
        assert res.returncode == 0
        assert "mu_n" in res.stdout.splitlines()[0]

    def test_non_monotone_report_exits_1(self, spec_files, capsys, monkeypatch):
        real = cli.run_transition

        def rising(t):
            report = real(t)
            steps = report.steps[::-1]  # the errors now rise
            return type(report)(report.name, report.n, report.a, steps, report.target)

        monkeypatch.setattr(cli, "run_transition", rising)
        code = cli.main(["limits", "--spec", spec_files["kc"]])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["monotone"] is False
        assert err == "ladder errors are not strictly decreasing for krawtchouk->charlier\n"

    # at degree 0 each step lands on the target: every error is exactly 0.0
    @pytest.mark.parametrize("name, params", [
        ("krawtchouk->charlier", {"b": "2"}),
        ("meixner->charlier", {"b": "2"}),
        ("charlier->hermite", {}),
        ("krawtchouk->hermite", {"p": "1/3"}),
    ])
    def test_degree_zero_ladder_exits_0(self, tmp_path, name, params):
        p = tmp_path / "t.json"
        ladder = ["1000", "100000"] if name == "charlier->hermite" else ["100", "1000"]
        p.write_text(json.dumps(
            {"name": name, "n": 0, "a": "2", "ladder": ladder, "params": params}))
        res = run_cli("limits", "--spec", str(p))
        assert (res.returncode, res.stderr) == (0, "")
        report = json.loads(res.stdout)
        assert report["monotone"] is True
        assert [s["max_abs_error"] for s in report["steps"]] == [0.0, 0.0]


class TestExport:
    def test_polynomial_latex(self, spec_files):
        res = run_cli("export", "--spec", spec_files["kraw44"], "--what", "Q", "--n", "1",
                      "--format", "latex")
        assert res.returncode == 0
        assert "x - 2" in res.stdout

    def test_operator_json(self, spec_files):
        res = run_cli("export", "--spec", spec_files["kraw44"], "--what", "D")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert set(["D", "Lambda"]) <= set(data)

    @pytest.mark.parametrize("n", ["-1", "9"])
    def test_operator_json_index_out_of_range_exits_2(self, spec_files, n):
        # kraw44 has degrees 0..4 only
        res = run_cli("export", "--spec", spec_files["kraw44"], "--what", "D", "--n", n)
        assert res.returncode == 2
        assert "--n" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("what", ["Q", "recurrence"])
    @pytest.mark.parametrize("n", ["-1", "9"])
    def test_index_out_of_range_names_n(self, spec_files, what, n):
        # kraw44 has degrees 0..4 only
        res = run_cli("export", "--spec", spec_files["kraw44"], "--what", what, "--n", n)
        assert res.returncode == 2
        assert f"--n must satisfy 0 <= n <= N = 4, got {n}" in res.stderr
        assert res.stdout == ""

    def test_operator_json_lists_every_degree(self, spec_files):
        res = run_cli("export", "--spec", spec_files["kraw44"], "--what", "D", "--n", "4")
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["Lambda"]) == 5

    def test_numeric_tau_recurrence_exits_2(self, spec_files):
        res = run_cli("export", "--spec", spec_files["charlier_bc"], "--what", "recurrence")
        assert res.returncode == 2
        assert "--tau" in res.stderr and "rational" in res.stderr

    def test_recurrence(self, spec_files):
        res = run_cli("export", "--spec", spec_files["kraw44"], "--what", "recurrence", "--n", "1")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["A"][0][0] == "1"


def test_byte_identical_reruns(spec_files):
    first = run_cli("family", "--spec", spec_files["kraw44"], "--n", "3")
    second = run_cli("family", "--spec", spec_files["kraw44"], "--n", "3")
    assert first.stdout == second.stdout
    lim1 = run_cli("limits", "--spec", spec_files["kc"], "--format", "csv")
    lim2 = run_cli("limits", "--spec", spec_files["kc"], "--format", "csv")
    assert lim1.stdout == lim2.stdout


# ---------------------------------------------------------------------------
# no traceback on any valid spec

FUZZ_COMMANDS = (
    ("verify", "--n-max", "2", "--x-max", "40"),
    ("family", "--n", "3", "--recurrence", "--tau", "2"),
    ("export", "--what", "recurrence", "--tau", "2"),
    ("export", "--what", "D"),
)
FUZZ_COUPLINGS = ("1", "-1", "2", "1/2", "-3/2", "5/3")
FUZZ_RATIONALS = ("1/4", "1/3", "2/5", "1/2", "3/4")


@st.composite
def hahn_channels(draw, N):
    """Hahn(alpha, beta, N) with alpha, beta > -1, or both below -N with
    alpha + beta at -(2N + 3) or -(2N + 4)."""
    if draw(st.booleans()):
        alpha, beta = (draw(st.sampled_from(("-1/3", "0", "1/2", "1", "3/2", "5/2")))
                       for _ in range(2))
        return {"kind": "hahn", "alpha": alpha, "beta": beta, "N": N}
    total = -(2 * N + draw(st.sampled_from((3, 4))))
    # alpha = -N - t and beta = total - alpha both lie below -N for 0 < t < -total - 2N
    alpha = -N - Fraction(draw(st.sampled_from(("1/2", "1", "3/2", "2", "5/2"))))
    return {"kind": "hahn", "alpha": str(alpha), "beta": str(total - alpha), "N": N}


@st.composite
def valid_specs(draw):
    m = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("krawtchouk", "hahn", "infinite")))
    N = draw(st.integers(1, 3))
    channels = []
    for _ in range(m):
        if kind == "krawtchouk":
            ch = {"kind": "krawtchouk", "p": draw(st.sampled_from(FUZZ_RATIONALS)), "N": N}
        elif kind == "hahn":
            ch = draw(hahn_channels(N))
        elif draw(st.booleans()):
            ch = {"kind": "charlier", "b": draw(st.sampled_from(("1/2", "1", "2", "3")))}
        else:
            ch = {"kind": "meixner", "beta": draw(st.sampled_from(("1/2", "1", "3/2"))),
                  "c": draw(st.sampled_from(FUZZ_RATIONALS))}
        channels.append(ch)
    a = [draw(st.sampled_from(FUZZ_COUPLINGS)) for _ in range(m - 1)]
    return {"m": m, "a": a, "channels": channels}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=valid_specs())
@example(spec=HAHN_2N3)
@example(spec=HAHN_2N4)
@example(spec=HAHN_SINGULAR_LEAD)
def test_no_command_raises_on_a_valid_spec(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        for argv in FUZZ_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([argv[0], "--spec", path, *argv[1:], "--out", out])
            assert code in (0, 1, 2), argv

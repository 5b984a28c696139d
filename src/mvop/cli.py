"""Command-line surface: construct families, verify, run limit studies, export.

Exit codes: 0 success / all checks passed; 1 a verification check failed or a
ladder was non-monotone (each step's error below the previous one's, or both
exactly 0.0); 2 invalid spec or arguments; 3 I/O failure.
"""
from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .construction import (
    FamilySpec,
    family_spec_from_json,
    integer_weights,
    orthogonal_polynomial,
    orthogonal_table,
    spec_tau,
)
from .errors import ProbeError, SpecError, TruncationError
from .limits import run_transition, transition_spec_from_json
from .operators import (
    canonical_operator,
    closed_recurrence,
    extract_recurrence,
)
from .rational import format_over, format_rational
from .serialize import (
    convergence_to_csv,
    convergence_to_json,
    json_dumps,
    matpoly_to_json,
    matpoly_to_latex,
    operator_to_json,
    operator_to_latex,
    table_to_json,
)
from .verification import run_verification

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise _IOFailure(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecError(f"{path} is not valid JSON: {err}") from err


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise _IOFailure(f"cannot write {out}: {err}") from err


class _IOFailure(RuntimeError):
    pass


def _split(text: str | None):
    """The values of a comma-separated option, None when it is not given;
    ``run_verification`` reads them."""
    if text is None:
        return None
    return tuple(text.split(",")) if text else ()


def _load_family(path: str) -> FamilySpec:
    return family_spec_from_json(_read_json(path))


def _weights_json(spec: FamilySpec, x_hi: int):
    """W(x) at x = 0..x_hi, keyed by x, each entry printed as its integer
    over the common denominator (``integer_weights``)."""
    return {str(x): [[format_over(v, den) for v in row] for row in W]
            for x, (W, den) in enumerate(integer_weights(spec, x_hi))}


def _eigenvalues_json(eig, n_hi: int):
    """The diagonals of Lambda_0..Lambda_n_hi."""
    return [[format_rational(v) for v in eig.diagonal(n)] for n in range(n_hi + 1)]


def _triple_json(t):
    """A scaled recurrence triple (``closed_recurrence``) as {"A", "B", "C"},
    each entry printed as its integer over the matrix's denominator."""
    return {key: [[format_over(v, d) for v in row] for row in mat]
            for key, (mat, d) in zip("ABC", t)}


def cmd_family(args) -> int:
    spec = _load_family(args.spec)
    tau = spec_tau(spec, args.tau, "--tau")
    if args.n < 0:
        raise SpecError(f"--n must be >= 0, got {args.n}")
    top = spec.support_N
    n_hi = args.n if top is None else min(args.n, top)
    if tau == "numeric":
        tables = None
        polys = [orthogonal_polynomial(spec, n, tau=tau) for n in range(n_hi + 1)]
    else:
        # one integer table per degree: the polynomials printed and, with
        # --recurrence, the chain matched, which reaches x = n_hi + 1; the
        # JSON prints the tables, and only LaTeX reads their Fraction view
        stop = n_hi + 1 if args.recurrence else -1
        tables = [orthogonal_table(spec, n, tau, stop) for n in range(n_hi + 1)]
        polys = [t.polynomial() for t in tables] if args.format == "latex" else None

    operator = None
    eig = None
    try:
        operator, eig = canonical_operator(spec)
    except SpecError as err:
        if args.operator:
            raise
        operator_note = str(err)
    if args.format == "latex":
        parts = [matpoly_to_latex(P) for P in polys]
        if operator is not None:
            parts.append(operator_to_latex(operator))
        _write_out("\n\n".join(parts) + "\n", args.out)
        return EXIT_OK

    x_hi = top if top is not None else 10
    artifact = {
        "spec": spec.to_json(),
        "tau": None if tau is None else str(tau),
        "Q": ([matpoly_to_json(P) for P in polys] if tables is None
              else [table_to_json(t) for t in tables]),
        "W": _weights_json(spec, x_hi),
    }
    if operator is not None:
        artifact["D"] = operator_to_json(operator)
        artifact["Lambda"] = _eigenvalues_json(eig, n_hi)
    else:
        artifact["D"] = None
        artifact["Lambda"] = None
        artifact["note"] = operator_note
    if args.recurrence:
        tau = spec_tau(spec, tau, "--tau", exact=True)
        chain = tables + [orthogonal_table(spec, n_hi + 1, tau, n_hi + 1)]
        artifact["recurrence"] = [
            _triple_json(t) for t in closed_recurrence(spec, chain, tau=tau).values()
        ]
    _write_out(json_dumps(artifact), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_family(args.spec)
    report = run_verification(
        spec,
        n_max=args.n_max,
        a_probes=_split(args.probes),
        tau_probes=_split(args.tau_probes),
        x_max=args.x_max,
        tol=args.tol,
        perturb=args.perturb,
        truncated=args.truncated,
    )
    payload = {"spec": spec.to_json(), **report.to_json()}
    _write_out(json_dumps(payload), args.out)
    if not report.all_passed:
        first = report.failures[0]
        sys.stderr.write(
            f"verification failed: {first.name} at n = {first.n}, "
            f"a = {first.probe_a}, tau = {first.probe_tau}: {first.detail}\n"
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_limits(args) -> int:
    t = transition_spec_from_json(_read_json(args.spec))
    report = run_transition(t)
    if args.format == "csv":
        _write_out(convergence_to_csv(report), args.out)
    else:
        _write_out(json_dumps(convergence_to_json(report)), args.out)
    if not report.monotone:
        sys.stderr.write(
            f"ladder errors are not strictly decreasing for {t.name}\n"
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _check_export_degree(spec: FamilySpec, n: int):
    """--n names a degree that exists: 0..N, or any n >= 0 on an infinite
    support."""
    top = spec.support_N
    if n < 0 or (top is not None and n > top):
        limit = "" if top is None else f" <= N = {top}"
        raise SpecError(f"--n must satisfy 0 <= n{limit}, got {n}")


def cmd_export(args) -> int:
    what = args.what
    if args.format == "latex" and what not in ("Q", "D"):
        raise SpecError(f"--format latex exists for --what Q and D only, got --what {what}")
    spec = _load_family(args.spec)
    tau = spec_tau(spec, args.tau, "--tau", exact=what == "recurrence")
    if what == "Q":
        _check_export_degree(spec, args.n)
        if args.format == "latex":
            text = matpoly_to_latex(orthogonal_polynomial(spec, args.n, tau=tau)) + "\n"
        elif tau == "numeric":
            text = json_dumps(matpoly_to_json(orthogonal_polynomial(spec, args.n, tau=tau)))
        else:
            text = json_dumps(table_to_json(orthogonal_table(spec, args.n, tau)))
    elif what == "W":
        text = json_dumps(_weights_json(spec, spec.support_N if spec.is_finite else 10))
    elif what == "D":
        D, eig = canonical_operator(spec)
        if args.format == "latex":
            text = operator_to_latex(D) + "\n"
        else:
            # the JSON lists Lambda_0..Lambda_n
            _check_export_degree(spec, args.n)
            text = json_dumps(
                {"D": operator_to_json(D), "Lambda": _eigenvalues_json(eig, args.n)}
            )
    elif what == "recurrence":
        _check_export_degree(spec, args.n)
        text = json_dumps(_triple_json(extract_recurrence(spec, args.n, tau=tau, scaled=True)))
    else:
        raise SpecError(f"unknown export artifact {what!r}")
    _write_out(text, args.out)
    return EXIT_OK


DESCRIPTION = (
    "Matrix-valued discrete orthogonal polynomials: exact construction, "
    "verification, and limit studies."
)
REQUIRED = object()  # the default of an option that must be given
_SPEC = (str, REQUIRED, None, "the spec JSON file")
_OUT = (str, None, None, "write the output to this file instead of stdout")
_TAU = (str, "numeric", None, "rational probe or 'numeric' for mass quotients")

# command -> (help, handler name, {option -> (type, default, choices, help)});
# a bool type marks a flag.  The handler is looked up by name when it is
# called, so that a wrapper set on the module attribute runs in its place.
COMMANDS = {
    "family": ("construct and export a family", "cmd_family", {
        "--spec": _SPEC,
        "--n": (int, 4, None, "highest degree, at most N on a finite support"),
        "--format": (str, "json", ("json", "latex"), "output format"),
        "--out": _OUT,
        "--tau": _TAU,
        "--operator": (bool, False, None, "fail (exit 2) if no canonical operator exists"),
        "--recurrence": (bool, False, None, "add the recurrence triples to the JSON"),
    }),
    "verify": ("run the verification suites", "cmd_verify", {
        "--spec": _SPEC,
        "--n-max": (int, None, None, "highest degree checked"),
        "--x-max": (int, 400, None, "last point of truncated sums"),
        "--tol": (float, 1e-9, None, "tolerance of the float orthogonality verdict"),
        "--probes": (str, None, None, "comma-separated coupling probes"),
        "--tau-probes": (str, None, None, "comma-separated mass-quotient probes"),
        "--truncated": (bool, False, None, "force truncated float sums for orthogonality"),
        "--perturb": (bool, False, None, "test fixture: corrupt the polynomials"),
        "--out": _OUT,
    }),
    "limits": ("run a limit-transition ladder", "cmd_limits", {
        "--spec": _SPEC,
        "--format": (str, "json", ("json", "csv"), "output format"),
        "--out": _OUT,
    }),
    "export": ("export one artifact", "cmd_export", {
        "--spec": _SPEC,
        "--what": (str, REQUIRED, ("Q", "W", "D", "recurrence"), "the artifact"),
        "--n": (int, 2, None, "degree of Q or of the recurrence; last Lambda of D"),
        "--format": (str, "json", ("json", "latex"), "output format"),
        "--tau": _TAU,
        "--out": _OUT,
    }),
}


def parse_args(argv):
    """The command and one attribute per option of it (``--n-max`` sets
    ``n_max``), from exact option names; the token after an option that takes
    a value is that value, whatever it starts with, and the last occurrence
    of an option wins.  A bad argument raises a SpecError naming it."""
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise SpecError(f"{got}; expected one of {', '.join(COMMANDS)}")
    command, options = argv[0], COMMANDS[argv[0]][2]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, has_value, value = token.partition("=")
        if name not in options:
            raise SpecError(f"unknown option {token!r} for {command}")
        if options[name][0] is bool:
            if has_value:
                raise SpecError(f"{name} takes no value, got {token!r}")
            value = True
        elif not has_value:
            value = next(tokens, None)
            if value is None:
                raise SpecError(f"{name} expects a value")
        given[name] = value
    args = SimpleNamespace(command=command)
    for name, (kind, default, choices, _) in options.items():
        value = given.get(name, default)
        if value is REQUIRED:
            raise SpecError(f"{name} is required for {command}")
        if name in given:
            try:
                value = kind(value)
            except ValueError:
                raise SpecError(f"{name}: invalid {kind.__name__} value {value!r}") from None
            if choices is not None and value not in choices:
                raise SpecError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        setattr(args, name[2:].replace("-", "_"), value)
    return args


def help_text(command=None) -> str:
    """The usage of one command, or of ``mvop`` when ``command`` names none."""
    if command not in COMMANDS:
        lines = ["usage: mvop <command> [options]", "", DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<8}{text}" for name, (text, _, _) in COMMANDS.items()]
        lines += ["", "mvop <command> --help lists the options of a command."]
        return "\n".join(lines) + "\n"
    text, _, options = COMMANDS[command]
    lines = [f"usage: mvop {command} [options]", "", text, "", "options:"]
    for name, (kind, default, choices, note) in options.items():
        if kind is not bool:
            name += " " + ("{" + ",".join(choices) + "}" if choices
                           else {int: "INT", float: "FLOAT"}.get(kind, "VALUE"))
        if default is REQUIRED:
            note += " (required)"
        elif default not in (None, False):
            note += f" (default {default})"
        lines.append(f"  {name:<28}{note}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(help_text(argv[0] if argv else None))
        return EXIT_OK
    try:
        args = parse_args(argv)
        return globals()[COMMANDS[args.command][1]](args)
    except (SpecError, ProbeError, ValueError) as err:
        sys.stderr.write(f"invalid input: {err}\n")
        return EXIT_BAD_INPUT
    except TruncationError as err:
        sys.stderr.write(f"verification failed: {err}\n")
        return EXIT_CHECK_FAILED
    except _IOFailure as err:
        sys.stderr.write(f"i/o failure: {err}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own parts: the checker rejects wrong outputs, the
tracer wraps and restores every binding, and the declared metrics match.

Run from the root of a checkout:  python3 -m unittest discover perfbench/tests
"""
import copy
import io
import json
import os
import re
import sys
import tempfile
import unittest
from contextlib import redirect_stderr

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import mvop.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

KRAW = {"m": 2, "a": ["2"], "channels": [{"kind": "krawtchouk", "p": "1/3", "N": 4},
                                         {"kind": "krawtchouk", "p": "1/2", "N": 4}]}
HAHN = {"m": 2, "a": ["1"], "channels": [{"kind": "hahn", "alpha": "3/2", "beta": "5/2", "N": 3},
                                         {"kind": "hahn", "alpha": "1/2", "beta": "3/2", "N": 3}]}
LADDER = {"name": "krawtchouk->charlier", "n": 2, "a": "1",
          "ladder": ["100", "1000", "10000"], "params": {"b": "2"}}


def cli(tmp, spec, *argv):
    """Run the CLI in-process; returns (exit code, output text, stderr text)."""
    spec_path = os.path.join(tmp, "spec.json")
    out_path = os.path.join(tmp, "out.txt")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    err = io.StringIO()
    with redirect_stderr(err):
        code = mvop.cli.main([argv[0], "--spec", spec_path, *argv[1:], "--out", out_path])
    with open(out_path) as fh:
        return code, fh.read(), err.getvalue()


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as tmp:
            cls.verify = cli(tmp, KRAW, "verify")
            cls.perturbed = cli(tmp, KRAW, "verify", "--perturb")
            cls.family = cli(tmp, KRAW, "family", "--n", "4", "--recurrence")
            cls.latex = cli(tmp, KRAW, "family", "--n", "4", "--format", "latex")
            cls.exports = {w: cli(tmp, KRAW, "export", "--what", w, "--n", "2")
                           for w in ("Q", "W", "D", "recurrence")}
            cls.d_latex = cli(tmp, HAHN, "export", "--what", "D", "--format", "latex")
            cls.limits_json = cli(tmp, LADDER, "limits")
            cls.limits_csv = cli(tmp, LADDER, "limits", "--format", "csv")
        cls.ops = {
            "verify": Op("v", (), KRAW, "verify", ctx={"n_max": 4, "perturb": False}),
            "perturbed": Op("p", (), KRAW, "verify", expect_exit=1,
                            ctx={"n_max": 4, "perturb": True}),
            "family": Op("f", (), KRAW, "family-json",
                         ctx={"n": 4, "tau": None, "recurrence": True}),
            "latex": Op("l", (), KRAW, "family-latex", ctx={"n": 4}),
            "d_latex": Op("d", (), HAHN, "export-D-latex"),
            "limits_json": Op("j", (), LADDER, "limits-json"),
            "limits_csv": Op("c", (), LADDER, "limits-csv"),
        }

    def accept(self, key, result, outputs=None):
        check.check_op(self.ops[key], *result, outputs or {})

    def reject(self, key, result, outputs=None):
        with self.assertRaises(check.CheckError):
            check.check_op(self.ops[key], *result, outputs or {})

    def export_op(self, what):
        return Op(f"e{what}", (), KRAW, f"export-{what}", ctx={"n": 2, "family": "f"})

    def test_accepts_genuine_outputs(self):
        for key in ("verify", "perturbed", "family", "latex", "d_latex", "limits_json",
                    "limits_csv"):
            self.accept(key, getattr(self, key))
        for what, result in self.exports.items():
            check.check_op(self.export_op(what), *result, {"f": self.family[1]})

    def test_rejects_changed_q_coefficient(self):
        code, text, err = self.family
        art = json.loads(text)
        art["Q"][2]["entries"][0][1][0] = "7/3"
        self.reject("family", (code, json.dumps(art), err))
        q = json.loads(self.exports["Q"][1])
        q["entries"][1][1][0] = "5"
        with self.assertRaises(check.CheckError):
            check.check_op(self.export_op("Q"), 0, json.dumps(q), "", {"f": self.family[1]})
        numerator = re.compile(r"\\frac\{(\d+)\}")
        self.reject("latex", (0, numerator.sub(r"\\frac{\g<1>1}", self.latex[1], count=1), ""))

    def test_rejects_wrong_d(self):
        code, text, err = self.family
        art = json.loads(text)
        art["D"]["K"]["entries"][0][0] = ["3"]
        self.reject("family", (code, json.dumps(art), err))
        d = json.loads(self.exports["D"][1])
        d["D"]["F"]["entries"][1][1] = ["1", "1"]
        with self.assertRaises(check.CheckError):
            check.check_op(self.export_op("D"), 0, json.dumps(d), "", {"f": self.family[1]})
        self.reject("d_latex", (0, self.d_latex[1].replace("x^{2}", "2 x^{2}", 1), ""))

    def test_rejects_wrong_recurrence(self):
        r = json.loads(self.exports["recurrence"][1])
        r["B"][0][0] = str(check.Fraction(r["B"][0][0]) + 1)
        with self.assertRaises(check.CheckError):
            check.check_op(self.export_op("recurrence"), 0, json.dumps(r), "",
                           {"f": self.family[1]})

    def test_rejects_flipped_verdict(self):
        code, text, err = self.verify
        report = json.loads(text)
        report["pass"] = False
        self.reject("verify", (code, json.dumps(report), err))
        report = json.loads(text)
        report["checks"][3]["pass"] = False
        self.reject("verify", (code, json.dumps(report), err))
        self.reject("verify", (1, text, err))
        self.reject("perturbed", (1, text, "verification failed: ...\n"))

    def test_rejects_missing_checks(self):
        code, text, err = self.verify
        report = json.loads(text)
        for drop in (
            lambda c: c["a"] == "1/2",
            lambda c: c["check"] == "orthogonality" and c["n"] == 3 and c["detail"] == "k = 1",
            lambda c: c["check"] == "eigenfunction" and c["n"] == 0 and c["a"] == "1",
            lambda c: c["check"] == "recurrence" and c["n"] == 4,
        ):
            thinned = copy.deepcopy(report)
            thinned["checks"] = [c for c in report["checks"] if not drop(c)]
            self.assertLess(len(thinned["checks"]), len(report["checks"]))
            self.reject("verify", (code, json.dumps(thinned), err))
        shrunk = copy.deepcopy(report)
        shrunk["probe_grid"]["a"].remove("-1")
        self.reject("verify", (code, json.dumps(shrunk), err))

    def test_rejects_ladder_that_does_not_decrease(self):
        code, text, err = self.limits_json
        rep = json.loads(text)
        rep["steps"][2]["max_abs_error"] = rep["steps"][1]["max_abs_error"]
        self.reject("limits_json", (code, json.dumps(rep), err))
        code, text, err = self.limits_csv
        lines = text.splitlines()
        last = lines[3].split(",")
        last[1] = lines[2].split(",")[1]
        lines[3] = ",".join(last)
        self.reject("limits_csv", (code, "\n".join(lines) + "\n", err))

    def test_rejects_ladder_off_its_order(self):
        code, text, err = self.limits_json
        rep = json.loads(text)
        for step, factor in zip(rep["steps"], (1.0, 0.5, 0.25)):
            step["max_abs_error"] = rep["steps"][0]["max_abs_error"] * factor
        self.reject("limits_json", (code, json.dumps(rep), err))


class TracerTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores_it(self):
        import mvop.construction
        import mvop.verification

        original = mvop.construction.orthogonal_polynomial
        tracer = spans.Tracer()
        tracer.install()
        try:
            for mod in (mvop, mvop.construction, mvop.verification, mvop.cli):
                self.assertIsNot(mod.orthogonal_polynomial, original)
            with tempfile.TemporaryDirectory() as tmp:
                cli(tmp, KRAW, "export", "--what", "recurrence", "--n", "2")
            summary = tracer.recorder.summary()
        finally:
            tracer.uninstall()
        for mod in (mvop, mvop.construction, mvop.verification, mvop.cli):
            self.assertIs(mod.orthogonal_polynomial, original)
        self.assertEqual(tracer.absent, [])
        self.assertEqual(summary["calls"]["cli.cmd_export"], 1)
        self.assertEqual(summary["calls"]["operators.extract_recurrence"], 1)
        # Q_1, Q_2 and Q_3, each built once
        self.assertEqual(summary["calls"]["construction.orthogonal_polynomial"], 3)
        self.assertEqual(summary["distinct"]["construction.orthogonal_polynomial"], 3)
        self.assertGreater(summary["calls"]["poly.MatrixPoly.matmul"], 0)

    def test_missing_function_is_absent(self):
        saved = spans.TARGETS
        spans.TARGETS = saved + (("nowhere.gone", "no_such_function"),)
        tracer = spans.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            spans.TARGETS = saved
        self.assertEqual(tracer.absent, ["nowhere.gone"])


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(run.PER_LAYER))
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], run.UNITS[m["name"].rsplit(".", 1)[1]])
            self.assertEqual(m["better"],
                             "higher" if m["name"].endswith("useful_ratio") else "lower")
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"})

    def test_seed_changes_values_not_shapes(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 1), workloads.build(name, 2)
            self.assertEqual(a, workloads.build(name, 1))
            self.assertNotEqual(a, b)
            self.assertEqual([op.name for op in a], [op.name for op in b])
            self.assertEqual([len(op.spec.get("channels", ())) for op in a],
                             [len(op.spec.get("channels", ())) for op in b])


if __name__ == "__main__":
    unittest.main()

"""Byte-identity guard: a dozen small CLI operations against recorded digests.

Each case runs ``python -m mvop.cli`` in a fresh interpreter and hashes its
exit code, stdout, stderr and ``--out`` file with sha256; the digests in
``golden_digests.json`` pin every byte the CLI writes, including float
renderings and the verify report's ``relative bound = ...`` text.  The file
uses only ``unittest``, so it runs under pytest and under
``python -m unittest tests.test_golden`` on any supported interpreter.

After a deliberate change of output, rewrite the digests with
``PYTHONPATH=src python -m tests.test_golden --record``.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "golden_digests.json")


def _family(a, *channels):
    return {"m": len(channels), "a": list(a), "channels": list(channels)}


KRAW = _family(["2"], {"kind": "krawtchouk", "p": "1/3", "N": 3},
               {"kind": "krawtchouk", "p": "3/4", "N": 3})
KRAW3 = _family(["-2", "1/3"], {"kind": "krawtchouk", "p": "1/3", "N": 3},
                {"kind": "krawtchouk", "p": "2/5", "N": 3},
                {"kind": "krawtchouk", "p": "3/4", "N": 3})
CHARLIER_MEIXNER = _family(["-1/2"], {"kind": "charlier", "b": "1"},
                           {"kind": "meixner", "beta": "1/2", "c": "1/3"})
CHARLIER_BC = _family(["1"], {"kind": "charlier", "b": "1"}, {"kind": "charlier", "b": "2"})
CHARLIER_10_20 = _family(["3"], {"kind": "charlier", "b": "10"},
                         {"kind": "charlier", "b": "20"})
CMC = _family(["2", "-1/3"], {"kind": "charlier", "b": "2"},
              {"kind": "meixner", "beta": "1/2", "c": "1/2"}, {"kind": "charlier", "b": "1"})
HAHN = _family(["1"], {"kind": "hahn", "alpha": "3/2", "beta": "5/2", "N": 4},
               {"kind": "hahn", "alpha": "1/2", "beta": "3/2", "N": 4})
# the alpha, beta < -N branch of the Hahn weight
HAHN_NEGATIVE = _family(["-2/3"], {"kind": "hahn", "alpha": "-11/2", "beta": "-13/2", "N": 3},
                        {"kind": "hahn", "alpha": "-9/2", "beta": "-11/2", "N": 3})
KRAW4 = _family(["2", "-1/3", "5"], {"kind": "krawtchouk", "p": "1/3", "N": 4},
                {"kind": "krawtchouk", "p": "3/5", "N": 4},
                {"kind": "krawtchouk", "p": "1/4", "N": 4},
                {"kind": "krawtchouk", "p": "4/5", "N": 4})
# m = 6: the leads' odd-channel blocks T are 3 x 3
KRAW6 = _family(["2", "1/3", "5", "1/4", "-7"],
                *({"kind": "krawtchouk", "p": p, "N": 4}
                  for p in ("1/3", "2/5", "1/4", "4/5", "5/7", "5/8")))
MEIXNER_PAIR = _family(["3/2"], {"kind": "meixner", "beta": "1/2", "c": "1/2"},
                       {"kind": "meixner", "beta": "1/2", "c": "1/3"})
KRAW_TO_HERMITE = {"name": "krawtchouk->hermite", "n": 2, "a": "1",
                   "ladder": ["100", "1000", "10000"], "params": {"p": "1/3"}}
KRAW_TO_CHARLIER = {"name": "krawtchouk->charlier", "n": 2, "a": "-3",
                    "ladder": ["100", "1000", "10000"], "params": {"b": "2"}}
CHARLIER_TO_HERMITE = {"name": "charlier->hermite", "n": 2, "a": "1/2",
                       "ladder": ["1000", "100000", "10000000"]}
MEIXNER_TO_LAGUERRE = {"name": "meixner->laguerre", "n": 2, "a": "2",
                       "ladder": ["9/10", "99/100", "999/1000"], "params": {"alpha": "1/2"}}
CHARLIER_TO_HERMITE_3 = {"name": "charlier->hermite", "n": 3, "a": "-3/2",
                         "ladder": ["1000", "100000", "10000000"]}
# p = 1/2 makes d = 2 N p (1 - p) = N / 2 the perfect squares 4, 9, 16
KRAW_TO_HERMITE_SQUARE = {"name": "krawtchouk->hermite", "n": 3, "a": "2/3",
                          "ladder": ["8", "18", "32"], "params": {"p": "1/2"}}
MEIXNER_TO_LAGUERRE_3 = {"name": "meixner->laguerre", "n": 3, "a": "-5/4",
                         "ladder": ["9/10", "99/100", "999/1000"], "params": {"alpha": "3"}}
HAHN_TO_MEIXNER = {"name": "hahn->meixner", "n": 1, "a": "1",
                   "ladder": ["125", "500", "2000"], "params": {"beta": "1", "c": "1/2"}}

INFINITE = ("--n-max", "2", "--x-max", "60")

# name -> (spec, argv after the spec); every case writes through --out
CASES = {
    "verify-krawtchouk": (KRAW, ("verify",)),
    "verify-krawtchouk-perturb": (KRAW, ("verify", "--perturb")),
    "verify-krawtchouk-m3": (KRAW3, ("verify", "--n-max", "2")),
    # the failure details multiply 3x3 matrix polynomials and apply D
    "verify-krawtchouk-m3-perturb": (KRAW3, ("verify", "--perturb")),
    "verify-charlier-meixner": (CHARLIER_MEIXNER, ("verify",) + INFINITE),
    "verify-charlier10-charlier20": (CHARLIER_10_20, ("verify",) + INFINITE),
    "verify-cmc": (CMC, ("verify",) + INFINITE),
    "verify-krawtchouk-truncated": (KRAW, ("verify", "--truncated")),
    # float Grams of m = 3 polynomials, whose rows 0 and 2 hold exact zeros
    "verify-cmc-truncated": (CMC, ("verify", "--truncated")),
    # quadratic Hahn eigenvalues in the eigenfunction failure details
    "verify-hahn-perturb": (HAHN, ("verify", "--perturb")),
    # eigenfunction failure details at tau probes, m = 3
    "verify-cmc-perturb": (CMC, ("verify", "--perturb", "--n-max", "3", "--x-max", "100")),
    "verify-charlier-meixner-x400": (CHARLIER_MEIXNER, ("verify", "--n-max", "2")),
    "family-charlier-numeric": (CHARLIER_BC, ("family", "--n", "2")),
    "family-cmc-recurrence": (CMC, ("family", "--n", "2", "--tau", "3/2", "--recurrence")),
    # N = 3, so the triple at n = N reads the closure companion
    "family-krawtchouk-m3-recurrence": (KRAW3, ("family", "--n", "3", "--recurrence")),
    "export-Q": (KRAW3, ("export", "--what", "Q", "--n", "2")),
    "export-W": (CHARLIER_MEIXNER, ("export", "--what", "W")),
    "export-D": (KRAW3, ("export", "--what", "D", "--n", "3")),
    "export-D-hahn-latex": (HAHN, ("export", "--what", "D", "--format", "latex")),
    "export-W-hahn-negative": (HAHN_NEGATIVE, ("export", "--what", "W")),
    # no canonical operator: the JSON prints its note
    "family-hahn-negative": (HAHN_NEGATIVE, ("family", "--n", "3")),
    "export-W-krawtchouk-m4": (KRAW4, ("export", "--what", "W")),
    "export-Q-cmc-tau": (CMC, ("export", "--what", "Q", "--n", "3", "--tau", "3/2")),
    "family-krawtchouk-m4-latex": (KRAW4, ("family", "--n", "2", "--format", "latex")),
    "export-recurrence": (CMC, ("export", "--what", "recurrence", "--n", "2", "--tau", "2")),
    # the triples at m = 6, n = N included, each lead's T a 3 x 3 block
    "family-krawtchouk-m6-recurrence": (KRAW6, ("family", "--n", "4", "--recurrence")),
    # n = N reads b_(N+1) of the Hahn channels, which degenerates on the
    # second (-(alpha + beta) = 2N + 4): exit 2 with the SpecError naming n = 4
    "export-recurrence-hahn-negative": (HAHN_NEGATIVE,
                                        ("export", "--what", "recurrence", "--n", "3")),
    "export-recurrence-hahn-negative-n2": (HAHN_NEGATIVE,
                                           ("export", "--what", "recurrence", "--n", "2")),
    # n = N on the positive branch, through the closure companion
    "export-recurrence-hahn": (HAHN, ("export", "--what", "recurrence", "--n", "4")),
    "family-meixner-recurrence": (MEIXNER_PAIR, ("family", "--n", "3", "--tau", "3/2",
                                                 "--recurrence")),
    "limits-json": (KRAW_TO_CHARLIER, ("limits", "--format", "json")),
    "limits-csv": (KRAW_TO_CHARLIER, ("limits", "--format", "csv")),
    "limits-krawtchouk-hermite-json": (KRAW_TO_HERMITE, ("limits", "--format", "json")),
    # sqrt(2b) powers of both parities in the Hermite source
    "limits-charlier-hermite-json": (CHARLIER_TO_HERMITE, ("limits", "--format", "json")),
    # coefficient k of the source scaled by (1 - c)^(n - k)
    "limits-meixner-laguerre-csv": (MEIXNER_TO_LAGUERRE, ("limits", "--format", "csv")),
    # odd powers of sqrt(2b)^(-n) in the source
    "limits-charlier-hermite-n3-csv": (CHARLIER_TO_HERMITE_3, ("limits", "--format", "csv")),
    "limits-krawtchouk-hermite-square-csv": (KRAW_TO_HERMITE_SQUARE,
                                             ("limits", "--format", "csv")),
    "limits-meixner-laguerre-n3-json": (MEIXNER_TO_LAGUERRE_3, ("limits", "--format", "json")),
    # the Hahn masses of the benchmark's ladder, binomials of N up to 2000
    "limits-hahn-meixner-json": (HAHN_TO_MEIXNER, ("limits", "--format", "json")),
}


def run_case(name: str) -> str:
    """The sha256 of one case's exit code, stdout, stderr and --out bytes."""
    spec, argv = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        out_path = os.path.join(tmp, "out")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        res = subprocess.run(
            [sys.executable, "-m", "mvop.cli", argv[0], "--spec", spec_path,
             *argv[1:], "--out", out_path],
            capture_output=True, env=env, cwd=tmp,
        )
        out = b""
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                out = fh.read()
    digest = hashlib.sha256()
    for part in (str(res.returncode).encode(), res.stdout, res.stderr, out):
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


class GoldenDigests(unittest.TestCase):
    def test_outputs_unchanged(self):
        with open(DIGESTS) as fh:
            expected = json.load(fh)
        self.assertEqual(sorted(expected), sorted(CASES))
        for name in CASES:
            with self.subTest(case=name):
                self.assertEqual(run_case(name), expected[name])


if __name__ == "__main__":
    if "--record" in sys.argv:
        with open(DIGESTS, "w") as fh:
            json.dump({name: run_case(name) for name in CASES}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        unittest.main()

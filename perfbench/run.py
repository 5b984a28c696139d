"""End-to-end and per-layer benchmark of the ``mvop`` command-line interface.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-finite --seed 1 --seconds 30 --trace 0

The harness imports ``mvop.cli`` once and forks every operation from that
state, so each operation starts like a fresh ``mvop`` process (no memo left
over from an earlier one) without paying interpreter start-up again.  That
start-up is measured on its own, in fresh interpreters, as ``setup_s``.
Operations run one at a time (a closed loop with one client) in whole rounds
of the workload until ``--seconds`` have passed; every output is checked by
``check.py``.  Each operation's fastest round counts, and every reported time
is scaled to the reference speed by a fixed kernel timed all through the run
(README.md, "Noise").  The last line of standard output is one JSON object.

``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics; the spans of the traced rounds are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

# setup_s is the median of SETUP_SAMPLES set-ups, each the fastest of
# SETUP_STARTS interpreter starts: the fastest of a few drops most of the
# noise that comes and goes within a second (README.md, "Noise").
SETUP_SAMPLES = 9
SETUP_STARTS = 3
# The fastest time of ``reference_kernel`` on the reference machine
# (README.md, "Noise"); every time of a run is scaled to this speed.
REFERENCE_KERNEL_S = 0.0080
OP_TIMEOUT_S = 150  # an operation still running then is killed
RUN_LIMIT_S = 140  # no round starts that could not end before this


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_kernel():
    """Fixed exact-rational work that uses nothing from ``mvop``.

    The harness times it after every operation and during set-up.  Its
    fastest time in a run says how fast the shared machine ran then, since
    the program cannot change it; it stands for the same mix of ``Fraction``
    products and allocations that ``mvop`` spends its time on.
    """
    m = [[Fraction(i * 7 + j + 1, j * 3 + i + 2) for j in range(5)] for i in range(5)]
    a = m
    for _ in range(5):
        a = [[sum(a[i][k] * m[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    rows = [[Fraction(i, j + 1) for i in range(40)] for j in range(200)]
    return a, rows


def time_kernel():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def measure_setup(src, kernel_times):
    """Median over set-ups of the time for a fresh interpreter to start and
    import mvop.cli; the reference kernel is timed between starts into
    ``kernel_times``."""
    env = dict(os.environ, PYTHONPATH=src)
    # Measured with bytecode caches, as an installed package has them,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", "import mvop.cli"]
    subprocess.run(cmd, env=env, check=True)  # writes the bytecode caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        times = []
        for _ in range(SETUP_STARTS):
            start = time.perf_counter()
            subprocess.run(cmd, env=env, check=True)
            times.append(time.perf_counter() - start)
            kernel_times.append(time_kernel())
        samples.append(min(times))
    return statistics.median(samples)


def run_op(cli_main, argv, out_path, err_path, tracer):
    """Fork one operation; returns (exit code, wall s, cpu s, peak rss KiB,
    trace summary or None)."""
    sys.stdout.flush()
    sys.stderr.flush()
    # The harness's own objects stay out of the operation's garbage
    # collections, as they would be absent from a fresh mvop process.
    gc.freeze()
    read_fd, write_fd = os.pipe() if tracer else (None, None)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # the operation
        code = 70
        try:
            signal.alarm(OP_TIMEOUT_S)
            err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(err, 2)
            if tracer:
                os.close(read_fd)
                tracer.recorder = type(tracer.recorder)()
            code = cli_main(list(argv))
            sys.stdout.flush()
            sys.stderr.flush()
            if tracer:
                rec = tracer.recorder
                payload = {"summary": rec.summary(), "spans": rec.spans}
                with os.fdopen(write_fd, "w") as pipe:
                    json.dump(payload, pipe)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:  # report anything, then leave without cleanup
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code if isinstance(code, int) else 70)
    payload = None
    if tracer:
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            data = pipe.read()
        payload = json.loads(data) if data else None
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss, payload


class Run:
    """The operations of one run, their files in ``workdir``, and what the
    rounds found."""

    def __init__(self, ops, workdir, cli_main, tracer):
        self.ops = ops
        self.cli_main = cli_main
        self.tracer = tracer
        self.digests = {}  # op name -> digest of its first checked output
        self.correct = True
        self.problems = []
        self.spans = []  # (round, op, span list) of traced rounds
        self.kernel = []  # reference kernel times, one after each operation
        self.argv = {}
        for i, op in enumerate(ops):
            spec_path = os.path.join(workdir, f"{i:02d}-spec.json")
            with open(spec_path, "w") as fh:
                json.dump(op.spec, fh)
            out_path = os.path.join(workdir, f"{i:02d}-out.txt")
            self.argv[op.name] = (
                tuple(a.replace("{spec}", spec_path).replace("{out}", out_path) for a in op.argv),
                out_path,
                os.path.join(workdir, f"{i:02d}-err.txt"),
            )

    def round(self, index, traced):
        """Run every operation once; returns the round's record."""
        if traced:
            self.tracer.install()
        try:
            rec = {"traced": traced, "wall": [], "cpu": [], "rss_kib": 0, "attempted": 0,
                   "failed": 0, "checks": 0, "bytes": 0, "layers": []}
            outputs = {}
            for op in self.ops:
                argv, out_path, err_path = self.argv[op.name]
                if os.path.exists(out_path):
                    os.remove(out_path)
                code, wall, cpu, rss, payload = run_op(
                    self.cli_main, argv, out_path, err_path, self.tracer if traced else None)
                rec["attempted"] += 1
                rec["wall"].append(wall)
                rec["cpu"].append(cpu)
                rec["rss_kib"] = max(rec["rss_kib"], rss)
                self.kernel.append(time_kernel())
                text = _read(out_path)
                err = _read(err_path)
                outputs[op.name] = text
                rec["bytes"] += len(text.encode())
                if payload is not None:
                    rec["layers"].append(payload["summary"])
                    self.spans.append((index, op.name, payload["spans"]))
                if code != op.expect_exit:
                    rec["failed"] += 1
                    if op.known_fault is None:
                        self.problems.append(f"{op.name}: exit {code}: {err.strip()[-300:]}")
                    continue
                rec["checks"] += self.check(op, code, text, err, outputs)
            return rec
        finally:
            if traced:
                self.tracer.uninstall()

    def check(self, op, code, text, err, outputs):
        """Check an output; a byte-identical repeat of a checked output passes."""
        digest = hashlib.sha256(f"{code}\0{text}\0{err}".encode()).hexdigest()
        known = self.digests.get(op.name)
        if known is not None and known[0] == digest:
            return known[1]
        try:
            checks = check.check_op(op, code, text, err, outputs)
        except check.CheckError as exc:
            self.correct = False
            self.problems.append(f"{op.name}: {exc}")
            return 0
        self.digests[op.name] = (digest, checks)
        return checks


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


# The per-layer metrics, in the order printed.  ``.calls`` and ``.distinct``
# are counts per round, ``.s`` inclusive seconds per round (median over the
# traced rounds), ``.useful_ratio`` distinct inputs over calls.
PER_LAYER = (
    "cli.cmd_verify.s", "cli.cmd_family.s", "cli.cmd_export.s", "cli.cmd_limits.s",
    "verification.verify_orthogonality.s", "verification.verify_recurrence.s",
    "verification.checks",
    "construction.inner_product.exact.calls", "construction.inner_product.exact.s",
    "construction.weight_matrix.calls", "construction.weight_matrix.distinct",
    "construction.weight_matrix.useful_ratio", "construction.weight_matrix.s",
    "construction.inner_product.truncated.calls", "construction.inner_product.truncated.s",
    "construction.relative_gram_bound.s",
    "construction.orthogonal_polynomial.calls", "construction.orthogonal_polynomial.distinct",
    "construction.orthogonal_polynomial.useful_ratio", "construction.orthogonal_polynomial.s",
    "construction.closure_polynomial.calls",
    "operators.verify_eigenfunction.s",
    "operators.extract_recurrence.calls", "operators.extract_recurrence.s",
    "operators.canonical_operator.calls", "operators.canonical_operator.s",
    "operators.DifferenceOperator.apply.s",
    "poly.MatrixPoly.matmul.calls", "poly.MatrixPoly.matmul.s",
    "poly.MatrixPoly.evaluate.calls", "poly.MatrixPoly.evaluate.s",
    "families.monic_polynomial.calls", "families.squared_norm.calls",
    "linalg.mat_mul.calls", "linalg.mat_inverse.calls",
    "limits.run_transition.s", "limits.coefficient_error.s", "limits.continuous_target.s",
    "quadext.QuadExt.mul.calls",
    "serialize.s", "serialize.bytes",
    "trace.overhead_s",
)
UNITS = {"s": "s", "calls": "count", "distinct": "count", "useful_ratio": "ratio",
         "checks": "count", "bytes": "bytes", "overhead_s": "s"}


def best_total(rounds, key):
    """Sum over the operations of each one's least time over the rounds.

    On a shared machine an operation is only ever slowed, by contention that
    comes and goes within a second; its fastest round is the sample least
    disturbed by it.  Slowing that lasts the whole run is left to the speed
    factor (README.md has the measurements).
    """
    return sum(min(times) for times in zip(*(r[key] for r in rounds)))


def layer_metrics(rounds):
    """Per-layer metrics from the traced rounds of a ``--trace 1`` run."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    per_round = []
    for r in traced:
        totals = {"calls": {}, "seconds": {}, "distinct": {}}
        for summary in r["layers"]:
            for kind, values in summary.items():
                for layer, v in values.items():
                    totals[kind][layer] = totals[kind].get(layer, 0) + v
        per_round.append(totals)
    if any((t["calls"], t["distinct"]) != (per_round[0]["calls"], per_round[0]["distinct"])
           for t in per_round):
        print("warning: call counts differ between traced rounds", file=sys.stderr)
    first = per_round[0]

    def value(name):
        layer, measure = name.rsplit(".", 1)
        if measure == "s":
            return statistics.median(t["seconds"].get(layer, 0.0) for t in per_round)
        if measure in ("calls", "distinct"):
            return first[measure].get(layer, 0)
        if measure == "useful_ratio":
            calls = first["calls"].get(layer, 0)
            return first["distinct"].get(layer, 0) / calls if calls else 0.0
        if name == "verification.checks":
            return traced[0]["checks"]
        if name == "serialize.bytes":
            return traced[0]["bytes"]
        if name == "trace.overhead_s":
            return best_total(traced, "wall") - best_total(untraced, "wall")
        raise KeyError(name)

    return {name: (value(name), UNITS[name.rsplit(".", 1)[1]]) for name in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mvop", "cli.py")):
        print(f"no mvop sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    setup_kernel = []
    setup_s = None if args.trace else measure_setup(src, setup_kernel)
    sys.path.insert(0, src)
    import mvop.cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    absent = []
    try:
        run = Run(workloads.build(args.workload, args.seed), workdir, mvop.cli.main, tracer)
        rounds = []
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run.round(len(rounds), traced))
            if traced:
                absent = tracer.absent
            if args.trace and len(rounds) < 2:
                continue  # one untraced and one traced round at least
            elapsed = time.perf_counter() - begin
            longest = max(sum(r["wall"]) for r in rounds)
            if elapsed >= args.seconds or elapsed + 1.2 * longest > RUN_LIMIT_S:
                break
        if args.trace:
            with open(os.path.join(out_root, f"spans-{args.workload}.jsonl"), "w") as fh:
                for index, op_name, op_spans in run.spans:
                    fh.write(json.dumps({"round": index, "op": op_name, "spans": op_spans}) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print("problem: " + problem, file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(rounds)
        if absent:
            print("absent from the program: " + ", ".join(absent), file=sys.stderr)
    else:
        # One factor per run scales every time to the reference speed, from
        # the kernel's fastest time over the whole run.
        speed = REFERENCE_KERNEL_S / min(setup_kernel + run.kernel)
        raw = {"setup_s": setup_s, "wall_s": best_total(rounds, "wall"),
               "cpu_s": best_total(rounds, "cpu")}
        print(f"speed factor {speed:.4f}; unscaled "
              + " ".join(f"{k} {v:.4f}" for k, v in raw.items()), file=sys.stderr)
        metrics = {
            "setup_s": (raw["setup_s"] * speed, "s"),
            "wall_s": (raw["wall_s"] * speed, "s"),
            "cpu_s": (raw["cpu_s"] * speed, "s"),
            "peak_rss_mb": (max(r["rss_kib"] for r in rounds) / 1024, "MiB"),
        }
    result = {
        "correct": run.correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("round wall totals (s, t = traced): "
          + " ".join(f"{sum(r['wall']):.3f}{'t' if r['traced'] else ''}" for r in rounds),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

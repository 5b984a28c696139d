"""Command-line surface: construct families, verify, run limit studies, export.

Exit codes: 0 success / all checks passed; 1 a verification check failed or a
ladder was non-monotone; 2 invalid spec or arguments; 3 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from .construction import (
    FamilySpec,
    family_spec_from_json,
    needs_mass_probe,
    orthogonal_polynomial,
    successor_polynomial,
    weight_matrix,
)
from .errors import ProbeError, SpecError, TruncationError
from .limits import run_transition, transition_spec_from_json
from .operators import (
    canonical_operator,
    closed_recurrence,
    exact_tau,
    extract_recurrence,
)
from .rational import format_rational, rational
from .serialize import (
    convergence_to_csv,
    convergence_to_json,
    json_dumps,
    matpoly_to_json,
    matpoly_to_latex,
    operator_to_json,
    operator_to_latex,
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


def _option_rational(text: str, option: str):
    """A rational command-line value, or a SpecError naming ``option``."""
    try:
        return rational(text)
    except ValueError as err:
        raise SpecError(f"{option}: {err}") from None


def _parse_probe_list(text: str, option: str):
    """Comma-separated rationals, each value once."""
    values = tuple(_option_rational(v, option) for v in text.split(","))
    if len(set(values)) < len(values):
        raise SpecError(f"{option}: each probe value must appear once, got {text}")
    return values


def _load_family(path: str) -> FamilySpec:
    return family_spec_from_json(_read_json(path))


def _tau_for(spec: FamilySpec, args) -> object:
    """--tau, parsed on every spec, for a spec with a transcendental mass
    quotient; None otherwise."""
    tau = args.tau if args.tau == "numeric" else _option_rational(args.tau, "--tau")
    return tau if needs_mass_probe(spec) else None


def _matrix_json(mat):
    return [[format_rational(v) for v in row] for row in mat]


def _weights_json(spec: FamilySpec, x_hi: int):
    """W(x) at x = 0..x_hi, keyed by x."""
    return {str(x): _matrix_json(weight_matrix(spec, x)) for x in range(x_hi + 1)}


def _eigenvalues_json(eig, n_hi: int):
    """The diagonals of Lambda_0..Lambda_n_hi."""
    return [[format_rational(v) for v in eig.diagonal(n)] for n in range(n_hi + 1)]


def _triple_json(t):
    """A recurrence triple as {"A", "B", "C"}."""
    return {key: _matrix_json(mat) for key, mat in (("A", t.A), ("B", t.B), ("C", t.C))}


def cmd_family(args) -> int:
    spec = _load_family(args.spec)
    tau = _tau_for(spec, args)
    if args.n < 0:
        raise SpecError(f"--n must be >= 0, got {args.n}")
    top = spec.support_N
    n_hi = args.n if top is None else min(args.n, top)
    polys = [orthogonal_polynomial(spec, n, tau=tau) for n in range(n_hi + 1)]

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
        "Q": [matpoly_to_json(P) for P in polys],
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
        chain = polys + [successor_polynomial(spec, n_hi, tau=exact_tau(spec, tau))]
        artifact["recurrence"] = [
            _triple_json(t) for t in closed_recurrence(spec, chain).values()
        ]
    _write_out(json_dumps(artifact), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_family(args.spec)
    a_probes = _parse_probe_list(args.probes, "--probes") if args.probes else None
    tau_probes = _parse_probe_list(args.tau_probes, "--tau-probes") if args.tau_probes else None
    report = run_verification(
        spec,
        n_max=args.n_max,
        a_probes=a_probes,
        tau_probes=tau_probes,
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
    spec = _load_family(args.spec)
    tau = _tau_for(spec, args)
    what = args.what
    if what == "Q":
        _check_export_degree(spec, args.n)
        P = orthogonal_polynomial(spec, args.n, tau=tau)
        text = (
            matpoly_to_latex(P) + "\n"
            if args.format == "latex"
            else json_dumps(matpoly_to_json(P))
        )
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
        t = extract_recurrence(spec, args.n, tau=tau)
        text = json_dumps(_triple_json(t))
    else:
        raise SpecError(f"unknown export artifact {what!r}")
    _write_out(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvop",
        description="Matrix-valued discrete orthogonal polynomials: exact "
        "construction, verification, and limit studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="construct and export a family")
    family.add_argument("--spec", required=True)
    family.add_argument("--n", type=int, default=4)
    family.add_argument("--format", choices=("json", "latex"), default="json")
    family.add_argument("--out")
    family.add_argument("--tau", default="numeric",
                        help="rational probe or 'numeric' for mass quotients")
    family.add_argument("--operator", action="store_true",
                        help="fail (exit 2) if no canonical operator exists")
    family.add_argument("--recurrence", action="store_true")
    family.set_defaults(fn=cmd_family)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--spec", required=True)
    verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    verify.add_argument("--x-max", type=int, default=400, dest="x_max")
    verify.add_argument("--tol", type=float, default=1e-9)
    verify.add_argument("--probes", help="comma-separated coupling probes")
    verify.add_argument("--tau-probes", dest="tau_probes",
                        help="comma-separated mass-quotient probes")
    verify.add_argument("--truncated", action="store_true",
                        help="force truncated float sums for orthogonality")
    verify.add_argument("--perturb", action="store_true",
                        help="test fixture: corrupt the polynomials")
    verify.add_argument("--out")
    verify.set_defaults(fn=cmd_verify)

    limits = sub.add_parser("limits", help="run a limit-transition ladder")
    limits.add_argument("--spec", required=True)
    limits.add_argument("--format", choices=("json", "csv"), default="json")
    limits.add_argument("--out")
    limits.set_defaults(fn=cmd_limits)

    export = sub.add_parser("export", help="export one artifact")
    export.add_argument("--spec", required=True)
    export.add_argument("--what", choices=("Q", "W", "D", "recurrence"), required=True)
    export.add_argument("--n", type=int, default=2)
    export.add_argument("--format", choices=("json", "latex"), default="json")
    export.add_argument("--tau", default="numeric")
    export.add_argument("--out")
    export.set_defaults(fn=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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

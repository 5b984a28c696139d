"""Verification suites: orthogonality, bispectrality, recurrence residual,
with their check results and reports.

``run_verification`` sweeps the probe grid (coupling values x mass-quotient
values) once.  Each probe builds Q_0..Q_top and the closing Q_(top+1) a single
time and runs the exact orthogonality, eigenfunction and recurrence checks on
that one list; each probe instance is itself an exact rational identity
check, and the grid oversamples the identities' degrees in the formal
parameters.  Infinite supports (and ``truncated=True``) check orthogonality
by truncated float sums on the spec's own couplings, with the true
transcendental quotients.  All work runs inline: it is pure-Python
``Fraction`` arithmetic, which threads do not speed up.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .construction import (
    A_PROBES,
    TAU_PROBES,
    FamilySpec,
    gram_ratio,
    gram_sum,
    inner_product,
    needs_mass_probe,
    orthogonal_polynomial,
    successor_polynomial,
    value_table,
    weight_table,
)
from .errors import SpecError
from .operators import canonical_operator, match_recurrence
from .poly import MatrixPoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    probe_a: object
    probe_tau: object
    passed: bool
    detail: str = ""

    def to_json(self):
        return {
            "check": self.name,
            "n": self.n,
            "a": None if self.probe_a is None else str(self.probe_a),
            "tau": None if self.probe_tau is None else str(self.probe_tau),
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    a_probes: tuple
    tau_probes: tuple
    notes: tuple = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self):
        return {
            "probe_grid": {
                "a": [str(v) for v in self.a_probes],
                "tau": [str(v) for v in self.tau_probes],
            },
            "pass": self.all_passed,
            "notes": list(self.notes),
            "checks": [c.to_json() for c in self.checks],
        }


def probe_grid(spec: FamilySpec, a_probes=None, tau_probes=None):
    """The (a, tau) pairs identity checks sweep.  tau collapses to (None,)
    when every mass quotient in the family is rational."""
    a_probes = A_PROBES if a_probes is None else tuple(a_probes)
    if needs_mass_probe(spec):
        taus = TAU_PROBES if tau_probes is None else tuple(tau_probes)
    else:
        taus = (None,)
    return a_probes, taus


def _perturbed(polys, perturb: bool):
    """The deliberate-perturbation fixture: with ``perturb``, a constant bump
    on entry (1,1) of every Q_n with n >= 1, so that verification must fail."""
    if not perturb or not polys:
        return polys
    m = polys[0].rows
    bump = MatrixPoly.from_scalar_matrix(
        tuple(tuple(Fraction(int((i, j) == (0, 0))) for j in range(m)) for i in range(m))
    )
    return [Q if n == 0 else Q + bump for n, Q in enumerate(polys)]


def _first_nonzero(P: MatrixPoly) -> str:
    for i, row in enumerate(P.entries):
        for j, e in enumerate(row):
            if not e.is_zero:
                return f"entry ({i + 1},{j + 1}) = {e!r}"
    return ""


def verify_orthogonality(spec: FamilySpec, polys, probe_a, probe_tau,
                         truncated: bool = False, x_max: int = 400,
                         tol: float = 1e-9) -> list:
    """<Q_n, Q_k> = 0 for every k < n among ``polys``, built for ``spec``:
    exactly over the finite support, from one value table per polynomial and
    one weight table, or with ``truncated`` by the relative bound of
    truncated float sums against ``tol``, with one self inner product per
    polynomial."""
    if truncated:
        def size(i, j):
            return inner_product(
                polys[i], polys[j], spec, mode="truncated", x_max=x_max, tol=tol
            ).max_abs()

        # each self inner product once, when a pair first needs it: the sums
        # run in the order relative_gram_bound runs them, so the first
        # TruncationError raised is the same
        self_sizes = {}
    else:
        weights = weight_table(spec)
        tables = [value_table(P, spec) for P in polys]
    checks = []
    for n in range(len(polys)):
        for k in range(n):
            if truncated:
                pair = size(n, k)
                for i in (n, k):
                    if i not in self_sizes:
                        self_sizes[i] = size(i, i)
                bound = gram_ratio(pair, self_sizes[n], self_sizes[k])
                passed = bound < tol
                detail = f"k = {k}; relative bound = {bound:.3e}"
            else:
                gram = gram_sum(tables[n], tables[k], weights)
                passed = linalg.is_zero_matrix(gram)
                detail = f"k = {k}" + ("" if passed else f"; gram = {gram}")
            checks.append(CheckResult(
                name="orthogonality", n=n, probe_a=probe_a, probe_tau=probe_tau,
                passed=passed, detail=detail,
            ))
    return checks


def _eigenfunction_checks(operator, polys, probe_a, probe_tau) -> list:
    """Q_n . D - Lambda_n Q_n = 0 identically, with the first nonzero entry
    of the residual recorded on failure."""
    D, eig = operator
    checks = []
    for n, Q in enumerate(polys):
        residual = D.apply(Q) - eig.matrix(n) @ Q
        ok = residual.is_zero
        checks.append(CheckResult(
            name="eigenfunction", n=n, probe_a=probe_a, probe_tau=probe_tau,
            passed=ok, detail="" if ok else _first_nonzero(residual),
        ))
    return checks


def verify_recurrence(spec: FamilySpec, polys, probe_a, probe_tau) -> list:
    """Exact closure of the three-term recurrence at every degree of
    ``polys`` but the last, which is the closing Q_(top+1)."""
    checks = []
    for n in range(len(polys) - 1):
        try:
            match_recurrence(spec, n, polys[n - 1] if n else None, polys[n], polys[n + 1])
            checks.append(CheckResult(
                name="recurrence", n=n, probe_a=probe_a, probe_tau=probe_tau, passed=True
            ))
        except AssertionError as err:
            checks.append(CheckResult(
                name="recurrence", n=n, probe_a=probe_a, probe_tau=probe_tau,
                passed=False, detail=str(err),
            ))
    return checks


def _probe(spec: FamilySpec, a_val) -> FamilySpec:
    return spec.with_a((a_val,) * (spec.m - 1))


def verify_eigenfunction(spec: FamilySpec, n_max: int, a_probes=None,
                         tau_probes=None, force: bool = False,
                         perturb: bool = False) -> VerificationReport:
    """Check Q_n . D - Lambda_n Q_n = 0 identically over the probe grid.

    The canonical operator is rebuilt for each probe value of the coupling
    constant (the operator depends on it).  Failures are recorded per
    (n, probe) with the first nonzero entry; nothing raises.
    """
    a_vals, tau_vals = probe_grid(spec, a_probes, tau_probes)
    checks = []
    for a_val in a_vals:
        probe = _probe(spec, a_val)
        operator = canonical_operator(probe, force=force)
        for tau in tau_vals:
            polys = [orthogonal_polynomial(probe, n, tau=tau) for n in range(n_max + 1)]
            checks.extend(_eigenfunction_checks(operator, _perturbed(polys, perturb), a_val, tau))
    return VerificationReport(checks=tuple(checks), a_probes=a_vals, tau_probes=tau_vals)


def run_verification(spec: FamilySpec, n_max: int | None = None, a_probes=None,
                     tau_probes=None, x_max: int = 400, tol: float = 1e-9,
                     perturb: bool = False, truncated: bool = False) -> VerificationReport:
    """The full suite: orthogonality, bispectrality (when the family carries
    a canonical operator), and recurrence residuals, reported in that order."""
    if n_max is None:
        n_max = spec.support_N if spec.is_finite else 5
    if n_max < 0:
        raise SpecError(f"n_max must be >= 0, got {n_max}")
    if x_max < 0:
        raise SpecError(f"x_max (--x-max) must be >= 0, got {x_max}")
    top = n_max if spec.support_N is None else min(n_max, spec.support_N)
    a_vals, tau_vals = probe_grid(spec, a_probes, tau_probes)
    exact_gram = spec.is_finite and not truncated
    orthogonality, eigenfunction, recurrence, notes = [], [], [], []
    if not exact_gram:
        # the float path: the spec's own couplings and float mass quotients
        tau = "numeric" if needs_mass_probe(spec) else None
        polys = [orthogonal_polynomial(spec, n, tau=tau) for n in range(top + 1)]
        orthogonality = verify_orthogonality(
            spec, _perturbed(polys, perturb), spec.a if len(spec.a) > 1 else spec.a[0],
            tau, truncated=True, x_max=x_max, tol=tol,
        )

    probes = [(a_val, _probe(spec, a_val)) for a_val in a_vals]
    try:
        operators = [canonical_operator(probe) for _, probe in probes]
    except SpecError as err:
        operators = [None] * len(probes)
        notes.append(f"bispectral suite skipped: {err}")

    for (a_val, probe), operator in zip(probes, operators):
        for tau in tau_vals:
            polys = [orthogonal_polynomial(probe, n, tau=tau) for n in range(top + 1)]
            closing = successor_polynomial(probe, top, tau=tau)
            checked = _perturbed(polys, perturb)
            if exact_gram:
                orthogonality.extend(verify_orthogonality(probe, checked, a_val, tau))
            if operator is not None:
                eigenfunction.extend(_eigenfunction_checks(operator, checked, a_val, tau))
            recurrence.extend(verify_recurrence(probe, polys + [closing], a_val, tau))

    return VerificationReport(
        checks=tuple(orthogonality + eigenfunction + recurrence),
        a_probes=a_vals,
        tau_probes=tau_vals,
        notes=tuple(notes),
    )

"""The polynomial-residual oracle for the exact verification suites.

These are the checks ``mvop.verification`` certified before it worked on
integer value tables: each residual is built as a ``Fraction`` matrix
polynomial and tested for being identically zero, and every Gram matrix is
the pointwise sum of P(x) W(x) Q(x)^T.  Tests compare the evaluation
certificate's verdicts and report bytes against them.
"""
from fractions import Fraction as F

from mvop import linalg
from mvop.construction import (
    needs_mass_probe,
    orthogonal_polynomial,
    successor_polynomial,
    weight_matrix,
)
from mvop.errors import SpecError
from mvop.operators import canonical_operator
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.verification import (
    CheckResult,
    VerificationReport,
    _first_nonzero,
    _perturbed,
    _probe,
    probe_grid,
    verify_orthogonality,
)


def brute_force_gram(P, Q, spec, diagonal=False):
    """sum_x P(x) W(x) Q(x)^T, with W(x) from ``weight_matrix`` (or the
    uncoupled diag(w_i(x)) with ``diagonal``)."""
    total = linalg.zeros(P.rows, Q.rows)
    for xv in range(spec.support_N + 1):
        if diagonal:
            W = tuple(
                tuple(ch.weight(xv) if i == j else F(0) for j, _ in enumerate(spec.channels))
                for i, ch in enumerate(spec.channels)
            )
        else:
            W = weight_matrix(spec, xv)
        term = linalg.mat_mul(
            linalg.mat_mul(P.evaluate(xv), W), linalg.transpose(Q.evaluate(xv))
        )
        total = linalg.mat_add(total, term)
    return total


def recurrence_residual(n, Q_prev, Q_n, Q_next):
    """x Q_n - A_n Q_(n+1) - B_n Q_n - C_n Q_(n-1) by coefficient matching
    on matrix polynomials, one inverse per use of a leading coefficient."""
    def const(rows):
        return MatrixPoly(rows)

    target = Q_n.scale(ScalarPoly.x())
    A_n = linalg.mat_mul(target.coefficient(n + 1), linalg.mat_inverse(Q_next.coefficient(n + 1)))
    rem = target - const(A_n) @ Q_next
    B_n = linalg.mat_mul(rem.coefficient(n), linalg.mat_inverse(Q_n.coefficient(n)))
    rem = rem - const(B_n) @ Q_n
    if n > 0:
        C_n = linalg.mat_mul(rem.coefficient(n - 1), linalg.mat_inverse(Q_prev.coefficient(n - 1)))
        rem = rem - const(C_n) @ Q_prev
    return rem


def eigenfunction_checks(operator, polys, a_val, tau):
    D, eig = operator
    checks = []
    for n, Q in enumerate(polys):
        residual = D.apply(Q) - eig.matrix(n) @ Q
        checks.append(CheckResult(
            name="eigenfunction", n=n, probe_a=a_val, probe_tau=tau,
            passed=residual.is_zero,
            detail="" if residual.is_zero else _first_nonzero(residual),
        ))
    return checks


def oracle_verification(spec, n_max=None, a_probes=None, tau_probes=None,
                        x_max=400, tol=1e-9, perturb=False, truncated=False):
    """``run_verification`` by polynomial residuals and pointwise Gram sums;
    the float truncated path is the program's own."""
    if n_max is None:
        n_max = spec.support_N if spec.is_finite else 5
    top = n_max if spec.support_N is None else min(n_max, spec.support_N)
    a_vals, tau_vals = probe_grid(spec, a_probes, tau_probes)
    exact_gram = spec.is_finite and not truncated
    orthogonality, eigenfunction, recurrence, notes = [], [], [], []
    if not exact_gram:
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
            # --perturb bumps the whole chain, the closing Q_(top+1) included
            chain = _perturbed(polys + [successor_polynomial(probe, top, tau=tau)], perturb)
            checked = chain[:-1]
            if exact_gram:
                for n in range(len(checked)):
                    for k in range(n):
                        gram = brute_force_gram(checked[n], checked[k], probe)
                        passed = linalg.is_zero_matrix(gram)
                        orthogonality.append(CheckResult(
                            name="orthogonality", n=n, probe_a=a_val, probe_tau=tau,
                            passed=passed,
                            detail=f"k = {k}" + ("" if passed else f"; gram = {gram}"),
                        ))
            if operator is not None:
                eigenfunction.extend(eigenfunction_checks(operator, checked, a_val, tau))
            for n in range(top + 1):
                rem = recurrence_residual(n, chain[n - 1] if n else None, chain[n], chain[n + 1])
                recurrence.append(CheckResult(
                    name="recurrence", n=n, probe_a=a_val, probe_tau=tau,
                    passed=rem.is_zero,
                    detail="" if rem.is_zero else (
                        f"three-term recurrence failed to close at n = {n} for {probe!r}"
                    ),
                ))
    return VerificationReport(
        checks=tuple(orthogonality + eigenfunction + recurrence),
        a_probes=a_vals, tau_probes=tau_vals, notes=tuple(notes),
    )


def oracle_eigenfunction(spec, n_max, a_probes=None, tau_probes=None, force=False,
                         perturb=False):
    """``verify_eigenfunction`` by polynomial residuals."""
    a_vals, tau_vals = probe_grid(spec, a_probes, tau_probes)
    checks = []
    for a_val in a_vals:
        probe = _probe(spec, a_val)
        operator = canonical_operator(probe, force=force)
        for tau in tau_vals:
            polys = [orthogonal_polynomial(probe, n, tau=tau) for n in range(n_max + 1)]
            checks.extend(eigenfunction_checks(operator, _perturbed(polys, perturb), a_val, tau))
    return VerificationReport(checks=tuple(checks), a_probes=a_vals, tau_probes=tau_vals)

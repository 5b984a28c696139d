"""The polynomial-residual oracle for the exact verification suites.

These are the checks ``mvop.verification`` certified before it worked on
integer tables: each residual is built as a ``Fraction`` matrix
polynomial and tested for being identically zero, a failing eigenfunction
check reporting the residual's first nonzero entry, and every Gram matrix is
the pointwise sum of P(x) W(x) Q(x)^T on a finite support and the
falling-factorial moment sum of ``moment_oracle`` on an infinite one.  ``match_recurrence`` is the
coefficient matcher of the three-term recurrence as it read the polynomials'
``Fraction`` coefficients and inverted each whole leading coefficient.
Tests compare the evaluation certificate's verdicts and report bytes, and
the integer matcher's triples, against them.
"""
import math
from fractions import Fraction
from operator import mul

from mvop import linalg
from mvop.construction import (
    A_PROBES,
    TAU_PROBES,
    needs_mass_probe,
    orthogonal_polynomial,
    weight_matrix,
)
from mvop.errors import SpecError
from mvop.operators import RecurrenceTriple, canonical_operator
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.rational import format_rational
from mvop.verification import (
    CheckResult,
    VerificationReport,
    _perturbed,
    _probe,
    verify_orthogonality,
)

from moment_oracle import moment_gram


def probe_grid(spec, a_probes=None, tau_probes=None):
    """The coupling and tau probe lists as given, or the default grids when
    None; the tau probes are (None,) when every mass quotient of the spec is
    rational.  Repeats and empty lists pass: the program rejects them."""
    a_vals = A_PROBES if a_probes is None else tuple(a_probes)
    if not needs_mass_probe(spec):
        return a_vals, (None,)
    return a_vals, TAU_PROBES if tau_probes is None else tuple(tau_probes)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def brute_force_gram(P, Q, spec, diagonal=False):
    """sum_x P(x) W(x) Q(x)^T, with W(x) from ``weight_matrix`` (or the
    uncoupled diag(w_i(x)) with ``diagonal``)."""
    total = linalg.zeros(P.rows, Q.rows)
    for xv in range(spec.support_N + 1):
        if diagonal:
            W = tuple(
                tuple(ch.weight(xv) if i == j else Fraction(0) for j, _ in enumerate(spec.channels))
                for i, ch in enumerate(spec.channels)
            )
        else:
            W = weight_matrix(spec, xv)
        term = linalg.mat_mul(
            linalg.mat_mul(P.evaluate(xv), W), linalg.transpose(Q.evaluate(xv))
        )
        total = mat_add(total, term)
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


def match_recurrence(chain, degrees=None, inverses=None) -> dict:
    """The recurrence matrices {n: RecurrenceTriple} at each n of ``degrees``
    (by default every n with a successor in ``chain``), where ``chain[k]``
    is Q_k, a list or a dict holding the degrees n - 1, n, n + 1.

    They come from the top three coefficients of the identity, unique
    because leading coefficients are invertible:

        A_n = [Q_n]_n L_(n+1)^(-1),
        B_n = ([Q_n]_(n-1) - A_n [Q_(n+1)]_n) L_n^(-1),
        C_n = ([Q_n]_(n-2) - A_n [Q_(n+1)]_(n-1) - B_n [Q_n]_(n-1)) L_(n-1)^(-1),

    with L_k = [Q_k]_k; each distinct L_k is inverted once, and once over
    several chains that share one ``inverses`` dict (lead -> inverse).
    Closure is not checked here; see ``recurrence_closes``.
    """
    if degrees is None:
        degrees = range(len(chain) - 1)
    if inverses is None:
        inverses = {}

    def lead_inverse(k):
        lead = chain[k].coefficient(k)
        if lead not in inverses:
            inverses[lead] = _scaled(linalg.mat_inverse(lead))
        return inverses[lead]

    def coefficient(k, j):
        return _scaled(chain[k].coefficient(j))

    triples = {}
    for n in degrees:
        # the algebra runs on (integer matrix, denominator) pairs, and each
        # entry is reduced to a Fraction once
        A_n = _mul(coefficient(n, n), lead_inverse(n + 1))
        top = _sub(coefficient(n, n - 1), _mul(A_n, coefficient(n + 1, n)))
        B_n = _mul(top, lead_inverse(n))
        if n == 0:
            C_n = linalg.zeros(len(A_n[0]))
        else:
            top = _sub(
                _sub(coefficient(n, n - 2), _mul(A_n, coefficient(n + 1, n - 1))),
                _mul(B_n, coefficient(n, n - 1)),
            )
            C_n = _fractions(_mul(top, lead_inverse(n - 1)))
        triples[n] = RecurrenceTriple(A=_fractions(A_n), B=_fractions(B_n), C=C_n)
    return triples


def _scaled(mat):
    """A rational matrix as (M, d): integers M over the least common
    denominator d of its entries."""
    d = math.lcm(*(v.denominator for row in mat for v in row))
    return tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in mat), d


def _mul(a, b):
    (ma, da), (mb, db) = a, b
    cols = tuple(zip(*mb))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in ma), da * db


def _sub(a, b):
    (ma, da), (mb, db) = a, b
    d = math.lcm(da, db)
    fa, fb = d // da, d // db
    return tuple(
        tuple(x * fa - y * fb for x, y in zip(ra, rb)) for ra, rb in zip(ma, mb)
    ), d


def _fractions(a):
    m, d = a
    return tuple(tuple(Fraction(v, d) for v in row) for row in m)


def eigenfunction_detail(D, eig, n, Q) -> str:
    """The failure detail of the eigenfunction check of Q as Q_n: the first
    nonzero entry, in row-major order, of the polynomial residual
    Q . D - Lambda_n Q; empty when it vanishes."""
    residual = D.apply(Q) - eig.matrix(n) @ Q
    for i, row in enumerate(residual.entries):
        for j, e in enumerate(row):
            if not e.is_zero:
                return f"entry ({i + 1},{j + 1}) = {e!r}"
    return ""


def eigenfunction_checks(operator, polys, a_val, tau):
    D, eig = operator
    checks = []
    for n, Q in enumerate(polys):
        detail = eigenfunction_detail(D, eig, n, Q)
        checks.append(CheckResult(
            name="eigenfunction", n=n, probe_a=a_val, probe_tau=tau,
            passed=not detail, detail=detail,
        ))
    return checks


def gram_checks(polys, gram_of, a_val, tau):
    """<Q_n, Q_k> = 0 for every k < n, each Gram from ``gram_of``."""
    checks = []
    for n in range(len(polys)):
        for k in range(n):
            gram = gram_of(polys[n], polys[k])
            passed = linalg.is_zero_matrix(gram)
            checks.append(CheckResult(
                name="orthogonality", n=n, probe_a=a_val, probe_tau=tau, passed=passed,
                detail=f"k = {k}" + ("" if passed else f"; gram = {gram}"),
            ))
    return checks


def oracle_verification(spec, n_max=None, a_probes=None, tau_probes=None,
                        x_max=400, tol=1e-9, perturb=False, truncated=False):
    """``run_verification`` by polynomial residuals, pointwise Gram sums on a
    finite support and falling-factorial moments on an infinite one
    (``moment_oracle``); the float truncated path is the program's own."""
    if n_max is None:
        n_max = spec.support_N if spec.is_finite else 5
    top = n_max if spec.support_N is None else min(n_max, spec.support_N)
    a_vals, tau_vals = probe_grid(spec, a_probes, tau_probes)
    exact_gram = spec.is_finite and not truncated
    own_a = spec.a[0] if spec.m == 2 else "(" + ", ".join(map(format_rational, spec.a)) + ")"
    orthogonality, eigenfunction, recurrence, notes = [], [], [], []
    if truncated:
        tau = "numeric" if needs_mass_probe(spec) else None
        polys = [orthogonal_polynomial(spec, n, tau=tau) for n in range(top + 1)]
        orthogonality = verify_orthogonality(
            spec, _perturbed(polys, perturb), own_a, tau, truncated=True, x_max=x_max, tol=tol,
        )
    elif not exact_gram:
        for tau in tau_vals:
            polys = _perturbed(
                [orthogonal_polynomial(spec, n, tau=tau) for n in range(top + 1)], perturb
            )
            orthogonality.extend(gram_checks(
                polys, lambda P, Q: moment_gram(P, Q, spec, tau), own_a, tau,
            ))
    probes = [(a_val, _probe(spec, a_val)) for a_val in a_vals]
    try:
        operators = [canonical_operator(probe) for _, probe in probes]
    except SpecError as err:
        operators = [None] * len(probes)
        notes.append(f"bispectral suite skipped: {err}")
    for (a_val, probe), operator in zip(probes, operators):
        for tau in tau_vals:
            # --perturb bumps the whole chain, the closing Q_(top+1) included
            chain = _perturbed(
                [orthogonal_polynomial(probe, n, tau=tau) for n in range(top + 2)], perturb
            )
            checked = chain[:-1]
            if exact_gram:
                orthogonality.extend(gram_checks(
                    checked, lambda P, Q: brute_force_gram(P, Q, probe), a_val, tau,
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
    """``verify_eigenfunction`` by polynomial residuals, n_max clamped to N
    on a finite support."""
    a_vals, tau_vals = probe_grid(spec, a_probes, tau_probes)
    top = n_max if spec.support_N is None else min(n_max, spec.support_N)
    checks = []
    for a_val in a_vals:
        probe = _probe(spec, a_val)
        operator = canonical_operator(probe, force=force)
        for tau in tau_vals:
            polys = [orthogonal_polynomial(probe, n, tau=tau) for n in range(top + 1)]
            checks.extend(eigenfunction_checks(operator, _perturbed(polys, perturb), a_val, tau))
    return VerificationReport(checks=tuple(checks), a_probes=a_vals, tau_probes=tau_vals)

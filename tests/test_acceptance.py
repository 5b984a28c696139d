"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""
import time
from fractions import Fraction as F

from mvop.construction import (
    A_PROBES,
    FamilySpec,
    inner_product,
    orthogonal_polynomial,
    relative_gram_bound,
)
from mvop.families import (
    Charlier,
    Hahn,
    Krawtchouk,
    Meixner,
    monic_polynomial,
)
from mvop.limits import TransitionSpec, run_transition
from mvop.operators import extract_recurrence
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.verification import verify_eigenfunction

from limit_oracle import hermite_limit_agreement, ode_residual
from reference_recurrences import (
    charlier_meixner_triple,
    charlier_triple,
    krawtchouk_triple,
    meixner_equal_c_triple,
)
from scalar_oracle import extended_polynomial, rodrigues_polynomial

x = ScalarPoly.x()


def announce(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} [{label}]: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({label}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def displayed_symmetric_binomial_family(a):
    """The five displayed degree-0..4 matrices for the symmetric two-channel
    binomial family on {0..4}, as exact polynomials in the coupling value."""
    half = F(1, 2)
    q0 = MatrixPoly(((1, -2 * a), (0, 1)))
    q1 = MatrixPoly(
        ((x - 2, (x * 2 - 3) * -a), (ScalarPoly.constant(-a), x * a**2 + x - 2))
    )
    q2 = MatrixPoly(
        (
            ((x - 1) * (x - 3), (x * x * 4 - x * 13 + 6) * (-a * half)),
            ((x - 2) * (-a * F(3, 2)), (x * x - x * 2) * (a**2 * F(3, 2)) + x * x - x * 4 + 3),
        )
    )
    q3 = MatrixPoly(
        (
            (
                (x * half - 1) * (x * x * 2 - x * 8 + 3),
                (x * x * x * 4 - x * x * 21 + x * 26 - 3) * (-a * half),
            ),
            (
                (x - 1) * (x - 3) * (-a * F(3, 2)),
                (x * x * x * F(3, 2) - x * x * 6 + x * F(9, 2)) * a**2
                + x * x * x - x * x * 6 + x * F(19, 2) - 3,
            ),
        )
    )
    q4 = MatrixPoly(
        (
            (
                ScalarPoly((F(3, 2), -16, 20, -8, 1)),
                x * (x * 2 - 5) * (x * x * 2 - x * 10 + 9) * (-a * half),
            ),
            (
                (x - 2) * (x * x * 2 - x * 8 + 3) * (-a * half),
                ScalarPoly((0, -3, F(19, 2), -6, 1)) * a**2 + ScalarPoly((F(3, 2), -16, 20, -8, 1)),
            ),
        )
    )
    return (q0, q1, q2, q3, q4)


def test_criterion_1_golden_polynomials():
    start = time.monotonic()
    ok = True
    for a in A_PROBES:
        spec = FamilySpec(
            a=(a,), channels=(Krawtchouk(p=F(1, 2), N=4), Krawtchouk(p=F(1, 2), N=4))
        )
        displayed = displayed_symmetric_binomial_family(a)
        for n in range(5):
            ok &= orthogonal_polynomial(spec, n) == displayed[n]
    announce(1, "golden polynomials", ok, time.monotonic() - start, 1.0)


ORTHOGONALITY_SPECS = (
    FamilySpec(a=(F(1),), channels=(Krawtchouk(p=F(1, 2), N=4), Krawtchouk(p=F(1, 2), N=4))),
    FamilySpec(a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=5), Krawtchouk(p=F(1, 4), N=5))),
    FamilySpec(
        a=(F(1), F(2)),
        channels=(
            Krawtchouk(p=F(1, 2), N=3),
            Krawtchouk(p=F(1, 3), N=3),
            Krawtchouk(p=F(1, 4), N=3),
        ),
    ),
    FamilySpec(a=(F(1),), channels=(Hahn(alpha=F(1), beta=F(1), N=3), Hahn(alpha=F(0), beta=F(0), N=3))),
    FamilySpec(
        a=(F(1, 2),),
        channels=(Hahn(alpha=F(1, 2), beta=F(3, 2), N=4), Hahn(alpha=F(1, 2), beta=F(-1, 2), N=4)),
    ),
    FamilySpec(
        a=(F(3),),
        channels=(Hahn(alpha=F(1, 2), beta=F(1, 2), N=3), Hahn(alpha=F(1, 2), beta=F(1, 2), N=3)),
    ),
)


def test_criterion_2_exact_orthogonality():
    start = time.monotonic()
    ok = True
    assert len(ORTHOGONALITY_SPECS) >= 6
    for spec in ORTHOGONALITY_SPECS:
        top = spec.support_N
        polys = [orthogonal_polynomial(spec, n) for n in range(top + 1)]
        for n in range(top + 1):
            for k in range(top + 1):
                if n != k:
                    ok &= inner_product(polys[n], polys[k], spec).is_zero
    announce(2, "exact orthogonality", ok, time.monotonic() - start, 10.0)


def test_criterion_3_truncated_orthogonality():
    start = time.monotonic()
    specs = (
        FamilySpec(a=(F(1),), channels=(Charlier(b=F(1)), Charlier(b=F(2)))),
        FamilySpec(
            a=(F(1),), channels=(Meixner(beta=F(1), c=F(1, 3)), Meixner(beta=F(2), c=F(1, 2)))
        ),
        FamilySpec(a=(F(1),), channels=(Charlier(b=F(2)), Meixner(beta=F(3), c=F(1, 2)))),
    )
    ok = True
    for spec in specs:
        polys = [orthogonal_polynomial(spec, n, tau="numeric") for n in range(6)]
        for n in range(6):
            for k in range(n):
                ok &= relative_gram_bound(polys[n], polys[k], spec, x_max=400) < 1e-9
    announce(3, "truncated orthogonality", ok, time.monotonic() - start, 10.0)


def test_criterion_4_bispectrality():
    start = time.monotonic()
    instances = (
        (FamilySpec(a=(F(1),), channels=(Krawtchouk(p=F(1, 2), N=4), Krawtchouk(p=F(1, 2), N=4))), 4),
        (FamilySpec(a=(F(1),), channels=(Krawtchouk(p=F(1, 3), N=5), Krawtchouk(p=F(1, 4), N=5))), 5),
        (FamilySpec(a=(F(1),), channels=(Hahn(alpha=F(1), beta=F(1), N=3), Hahn(alpha=F(0), beta=F(0), N=3))), 3),
        (FamilySpec(a=(F(1),), channels=(Charlier(b=F(1)), Charlier(b=F(2)))), 5),
        (FamilySpec(a=(F(1),), channels=(Meixner(beta=F(1), c=F(1, 3)), Meixner(beta=F(2), c=F(1, 2)))), 5),
        (FamilySpec(a=(F(1),), channels=(Charlier(b=F(2)), Meixner(beta=F(3), c=F(1, 2)))), 5),
    )
    ok = True
    for spec, n_max in instances:
        ok &= verify_eigenfunction(spec, n_max=n_max).all_passed
    # negative control: the parameter-sum gate violated, operator forced
    violated = FamilySpec(
        a=(F(1),), channels=(Hahn(alpha=F(1), beta=F(1), N=3), Hahn(alpha=F(1), beta=F(1), N=3))
    )
    control = verify_eigenfunction(violated, n_max=3, force=True)
    ok &= not control.all_passed
    ok &= any(not c.passed and c.n <= 3 for c in control.checks)
    announce(4, "bispectrality", ok, time.monotonic() - start, 10.0)


def test_criterion_5_recurrence_closed_forms():
    start = time.monotonic()
    ok = True
    taus = (F(1), F(2), F(3))
    p, s, N = F(1, 3), F(1, 4), 5
    for a in A_PROBES:
        spec = FamilySpec(a=(a,), channels=(Krawtchouk(p=p, N=N), Krawtchouk(p=s, N=N)))
        for n in range(1, 5):
            t = extract_recurrence(spec, n)
            ok &= (t.A, t.B, t.C) == krawtchouk_triple(n, p, s, N, a)
    b, c = F(1), F(2)
    for a in (F(1), F(2)):
        spec = FamilySpec(a=(a,), channels=(Charlier(b=b), Charlier(b=c)))
        for tau in taus:
            for n in range(1, 5):
                t = extract_recurrence(spec, n, tau=tau)
                ok &= (t.A, t.B, t.C) == charlier_triple(n, b, c, a, tau)
    beta, alpha, cc = F(1), F(5, 2), F(1, 3)
    for a in (F(1), F(2)):
        spec = FamilySpec(a=(a,), channels=(Meixner(beta=beta, c=cc), Meixner(beta=alpha, c=cc)))
        for tau in taus:
            for n in range(1, 5):
                t = extract_recurrence(spec, n, tau=tau)
                ok &= (t.A, t.B, t.C) == meixner_equal_c_triple(n, beta, alpha, cc, a, tau)
    ch_b, mx_beta, mx_c = F(2), F(3), F(1, 2)
    for a in (F(1), F(2)):
        spec = FamilySpec(a=(a,), channels=(Charlier(b=ch_b), Meixner(beta=mx_beta, c=mx_c)))
        for tau in taus:
            for n in range(1, 5):
                t = extract_recurrence(spec, n, tau=tau)
                ok &= (t.A, t.B, t.C) == charlier_meixner_triple(n, ch_b, mx_beta, mx_c, a, tau)
    announce(5, "recurrence closed forms", ok, time.monotonic() - start, 10.0)


def test_criterion_6_degree_closure():
    start = time.monotonic()
    ok = True
    for N in (2, 3, 4):
        product = ScalarPoly.one()
        for root in range(N + 1):
            product = product * ScalarPoly((-F(root), 1))
        for spec in (
            Krawtchouk(p=F(1, 3), N=N),
            Krawtchouk(p=F(1, 2), N=N),
            Hahn(alpha=F(1, 2), beta=F(3, 2), N=N),
            Hahn(alpha=F(0), beta=F(0), N=N),
        ):
            ok &= monic_polynomial(spec, N + 1) == product
            ok &= extended_polynomial(spec) == product
    announce(6, "degree-(N+1) closure", ok, time.monotonic() - start, 10.0)


def test_criterion_7_rodrigues_oracle():
    start = time.monotonic()
    ok = True
    for spec in (
        Charlier(b=F(2)),
        Meixner(beta=F(3, 2), c=F(2, 5)),
        Krawtchouk(p=F(2, 5), N=8),
        Hahn(alpha=F(1, 2), beta=F(3, 2), N=8),
    ):
        top = min(8, spec.support_N) if spec.support_N is not None else 8
        for n in range(top + 1):
            ok &= rodrigues_polynomial(spec, n) == monic_polynomial(spec, n)
    announce(7, "rodrigues-recurrence oracle", ok, time.monotonic() - start, 10.0)


def test_criterion_8_limit_transitions():
    start = time.monotonic()
    ladders = (
        TransitionSpec("krawtchouk->charlier", n=2, a=F(1), ladder=(100, 1000, 10000),
                       params=(("b", F(2)),)),
        TransitionSpec("krawtchouk->hermite", n=2, a=F(1), ladder=(100, 1000, 10000),
                       params=(("p", F(1, 3)),)),
        TransitionSpec("charlier->hermite", n=1, a=F(1), ladder=(1000, 100000, 10**7)),
        TransitionSpec("meixner->charlier", n=1, a=F(1), ladder=(100, 1000, 10000),
                       params=(("b", F(2)),)),
        TransitionSpec("meixner->laguerre", n=2, a=F(1),
                       ladder=(F(9, 10), F(99, 100), F(999, 1000)),
                       params=(("alpha", F(1, 2)),)),
        TransitionSpec("hahn->meixner", n=1, a=F(1), ladder=(125, 500, 2000),
                       params=(("beta", F(1)), ("c", F(1, 2)))),
        TransitionSpec("hahn->krawtchouk", n=1, a=F(1), ladder=(100, 1000, 10000),
                       params=(("p", F(1, 2)), ("N", F(4)))),
    )
    ok = True
    for t in ladders:
        report = run_transition(t)
        ok &= report.monotone
    agreement = hermite_limit_agreement(n=1, a=F(1))
    ok &= agreement.agreement < 1e-6
    agreement2 = hermite_limit_agreement(n=2, a=F(1))
    ok &= agreement2.agreement < 1e-6
    for n in range(4):
        ok &= ode_residual("hermite", n, F(1)).is_zero
        ok &= ode_residual("laguerre", n, F(1), alpha=F(1, 2)).is_zero
    announce(8, "limit transitions", ok, time.monotonic() - start, 60.0)

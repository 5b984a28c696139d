"""The entrywise construction layer against the matrix-product oracle.

Q_n, the closure companion, the conjugated operator D and the weight matrix
W are built entry by entry on the staggered pattern; ``construction_oracle``
keeps the general matrix-product forms they replaced.  The two must agree
coefficient by coefficient: same values, same scalar types, same signed
float zeros, and the same ``repr``.
"""
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvop import construction, families
from mvop.construction import (
    FamilySpec,
    _closed_form,
    closure_polynomial,
    integer_table,
    needs_mass_probe,
    orthogonal_polynomial,
    orthogonal_table,
    spec_tau,
    weight_matrix,
)
from mvop.errors import SpecError
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner, ScalarOperator
from mvop.operators import _channel_operators, canonical_operator, conjugated_operator
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.quadext import QuadExt
from mvop.verification import _perturbed, _perturbed_tables

import construction_oracle as oracle

COUPLINGS = (F(1), F(2), F(-1), F(1, 2), F(-3, 2), F(5, 3), F(-2, 7), F(3), F(-4, 5))
KRAW_P = (F(1, 3), F(2, 5), F(1, 4), F(3, 4), F(1, 2))
HAHN_AB = ((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)), (F(2), F(2)), (F(1), F(1, 3)))
CHARLIER_B = (F(1), F(2), F(3, 2), F(5))
MEIXNER_BC = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(1), F(1, 4)))


def coefficient_key(c):
    """A coefficient's type and exact value, a float by its repr so that
    -0.0 and 0.0 differ."""
    if isinstance(c, QuadExt):
        return ("QuadExt", c.u, c.v, c.d)
    return (type(c).__name__, repr(c))


def assert_same(new, old):
    assert type(new) is type(old)
    assert repr(new) == repr(old)
    assert [[[coefficient_key(c) for c in e.coeffs] for e in row] for row in new.entries] == [
        [[coefficient_key(c) for c in e.coeffs] for e in row] for row in old.entries
    ]


def distinct_couplings(m):
    return st.lists(st.sampled_from(COUPLINGS), min_size=m - 1, max_size=m - 1, unique=True)


@st.composite
def finite_specs(draw, max_m=6):
    m = draw(st.integers(2, max_m))
    N = draw(st.integers(1, 4))
    if draw(st.booleans()):
        channels = [Krawtchouk(p=draw(st.sampled_from(KRAW_P)), N=N) for _ in range(m)]
    else:
        channels = [Hahn(*draw(st.sampled_from(HAHN_AB)), N=N) for _ in range(m)]
    return FamilySpec(a=tuple(draw(distinct_couplings(m))), channels=tuple(channels))


@st.composite
def infinite_specs(draw, max_m=6):
    m = draw(st.integers(2, max_m))
    channels = [
        Charlier(b=draw(st.sampled_from(CHARLIER_B))) if draw(st.booleans())
        else Meixner(*draw(st.sampled_from(MEIXNER_BC)))
        for _ in range(m)
    ]
    return FamilySpec(a=tuple(draw(distinct_couplings(m))), channels=tuple(channels))


def degrees(spec, draw):
    """n = 0, an interior n and the top degree (N on a finite support)."""
    top = spec.support_N if spec.is_finite else 4
    return sorted({0, draw(st.integers(0, top)), top})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), finite=st.booleans(), tau=st.sampled_from((None, F(2), F(3, 2), "numeric")))
def test_orthogonal_polynomial_equals_matrix_products(data, finite, tau):
    spec = data.draw(finite_specs() if finite else infinite_specs())
    if tau is None and needs_mass_probe(spec):
        tau = F(1)
    for n in degrees(spec, data.draw):
        assert_same(orthogonal_polynomial(spec, n, tau=tau),
                    oracle.orthogonal_polynomial(spec, n, tau=tau))
    if finite:
        assert_same(closure_polynomial(spec), oracle.closure_polynomial(spec))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), finite=st.booleans(), perturb=st.booleans(),
       tau=st.sampled_from((F(1), F(2), F(3, 2), F(-1), F(-5, 2), F(-1, 3))))
def test_integer_tables_equal_the_scalar_poly_path(data, finite, perturb, tau):
    """The integer construction against the ScalarPoly ``_assemble`` path it
    replaced for rational couplings: equal integer tables at every degree,
    the closure companion included, plain and perturbed, and the Fraction
    view equal, types and all, to that path's polynomial."""
    spec = data.draw(finite_specs() if finite else infinite_specs())
    probe = spec_tau(spec, tau)
    top = spec.support_N + 1 if finite else 4
    tables = [orthogonal_table(spec, n, tau) for n in range(top + 1)]
    polys = [_closed_form(spec, n, None if finite and n == top else probe)
             for n in range(top + 1)]
    assert _perturbed_tables(tables, perturb) == [
        integer_table(Q) for Q in _perturbed(polys, perturb)]
    for n, (table, Q) in enumerate(zip(tables, polys)):
        assert_same(table.polynomial(), Q)
        assert_same(orthogonal_polynomial(spec, n, tau=tau), Q)


def test_numeric_tau_reaches_float_coefficients():
    # the float theta case above is not vacuous
    spec = FamilySpec(a=(F(2),), channels=(Charlier(b=F(1)), Meixner(F(1, 2), F(1, 3))))
    Q = orthogonal_polynomial(spec, 2, tau="numeric")
    assert any(isinstance(c, float) for row in Q.entries for e in row for c in e.coeffs)


@st.composite
def limit_specs(draw):
    """Limit-path couplings: a / sqrt(d) carried in the quadratic extension
    (``FamilySpec`` refuses float couplings)."""
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        N = draw(st.integers(2, 5))
        channels = [Krawtchouk(p=draw(st.sampled_from(KRAW_P)), N=N) for _ in range(m)]
    else:
        channels = [Charlier(b=draw(st.sampled_from(CHARLIER_B))) for _ in range(m)]
    d = draw(st.sampled_from((F(2), F(6), F(9, 2), F(10))))
    root = QuadExt.root(d)
    a = tuple(c * root / d for c in draw(distinct_couplings(m)))
    return FamilySpec(a=a, channels=tuple(channels))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_limit_path_couplings_equal_matrix_products(data):
    spec = data.draw(limit_specs())
    tau = F(2) if needs_mass_probe(spec) else None
    for n in degrees(spec, data.draw):
        assert_same(orthogonal_polynomial(spec, n, tau=tau),
                    oracle.orthogonal_polynomial(spec, n, tau=tau))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_canonical_operator_equals_matrix_products(data):
    spec = data.draw(finite_specs() | infinite_specs())
    D, _ = canonical_operator(spec, force=True)
    ops = _channel_operators(spec, True)
    F_hat, K_hat, G_hat = oracle.conjugated_operator(
        oracle.nilpotent_matrix(spec),
        *(MatrixPoly.diagonal(tuple(getattr(op, name) for op in ops)) for name in "fkg"),
    )
    assert_same(D.F, F_hat)
    assert_same(D.K, K_hat)
    assert_same(D.G, G_hat)


NORMALIZED_SPECS = {
    "charlier": (Charlier(F(3, 2)), Charlier(F(7))),
    "meixner": (Meixner(F(1, 2), F(1, 3)), Meixner(F(5, 2), F(7, 9))),
    "krawtchouk": (Krawtchouk(F(2, 5), 6), Krawtchouk(F(1, 3), 6), Krawtchouk(F(2, 5), 6)),
    "charlier-meixner": (Charlier(F(3, 2)), Meixner(F(5, 2), F(7, 9)), Charlier(F(7))),
    "meixner-charlier": (Meixner(F(1, 2), F(1, 3)), Charlier(F(7)),
                         Meixner(F(5, 2), F(7, 9)), Charlier(F(3, 2))),
}


@pytest.mark.parametrize("family", sorted(NORMALIZED_SPECS))
def test_canonical_operator_equals_hand_normalization(family):
    channels = NORMALIZED_SPECS[family]
    spec = FamilySpec(a=COUPLINGS[:len(channels) - 1], channels=channels)
    ops = [oracle.normalized_channel(ch, pos + 1) for pos, ch in enumerate(channels)]
    D, eig = canonical_operator(spec)
    want = conjugated_operator(spec.a, ops)
    for new, old in zip((D.F, D.K, D.G), (want.F, want.K, want.G)):
        assert_same(new, old)
    for n in range(6):
        assert eig.diagonal(n) == tuple(op.eigenvalue(n) for op in ops)


# int coefficients too, which a sum or product started from Fraction(0) lifts
polys = st.lists(st.sampled_from((0, 2, F(0), F(1), F(-2), F(1, 3), F(5, 2))),
                 max_size=3).map(ScalarPoly)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(2, 6))
def test_conjugated_operator_on_any_diagonals(data, m):
    # zero and nonzero f_i, k_i, g_i of every degree up to 2
    spec = FamilySpec(a=tuple(data.draw(distinct_couplings(m))),
                      channels=(Charlier(b=F(1)),) * m)
    ops = [ScalarOperator(f=data.draw(polys), k=data.draw(polys), g=data.draw(polys),
                          eigenvalue=None) for _ in range(m)]
    D = conjugated_operator(spec.a, ops)
    F_, K_, G_ = (MatrixPoly.diagonal(tuple(getattr(op, name) for op in ops)) for name in "fkg")
    want = oracle.conjugated_operator(oracle.nilpotent_matrix(spec), F_, K_, G_)
    for new, old in zip((D.F, D.K, D.G), want):
        assert_same(new, old)


@settings(max_examples=30, deadline=None)
@given(spec=finite_specs() | infinite_specs())
def test_weight_matrix_equals_matrix_products(spec):
    top = spec.support_N if spec.is_finite else 6
    for x in range(top + 1):
        new, old = weight_matrix(spec, x), oracle.weight_matrix(spec, x)
        assert new == old
        assert all(type(v) is F for row in new for v in row)


@pytest.mark.parametrize("spec, top", [
    (FamilySpec(a=(F(2), F(-1, 3)), channels=(
        Krawtchouk(p=F(2, 9), N=4), Krawtchouk(p=F(5, 9), N=4), Krawtchouk(p=F(7, 9), N=4))), 4),
    (FamilySpec(a=(F(3),), channels=(
        Hahn(F(7, 3), F(5, 3), N=4), Hahn(F(4, 3), F(2, 3), N=4))), 4),
    (FamilySpec(a=(F(-5, 2),), channels=(Charlier(b=F(7, 4)), Meixner(F(5, 7), F(2, 9)))), 5),
], ids=["krawtchouk m=3", "hahn m=2", "charlier/meixner"])
def test_recurrence_coefficients_evaluated_once(monkeypatch, spec, top):
    calls = Counter()
    for cls in {type(ch) for ch in spec.channels}:
        real = cls.recurrence_bc

        def counting(self, k, real=real):
            calls[self, k] += 1
            return real(self, k)

        monkeypatch.setattr(cls, "recurrence_bc", counting)
    families.ladder.cache_clear()
    construction.chain_context.cache_clear()
    try:
        tau = F(2) if needs_mass_probe(spec) else None
        if spec.is_finite:
            top += 1  # the closure companion takes (b, c) at N + 1 once more
        for n in range(top + 1):
            orthogonal_polynomial(spec, n, tau=tau)
    finally:
        families.ladder.cache_clear()
        construction.chain_context.cache_clear()
    assert set(calls) == {(ch, k) for ch in spec.channels for k in range(top + 1)}
    assert set(calls.values()) == {1}


def old_hahn_gate(alpha, beta, N):
    """The message of the loop that gated Hahn parameters before, or None."""
    if not ((alpha > -1 and beta > -1) or (alpha < -N and beta < -N)):
        return (
            "hahn weight needs alpha, beta > -1 or alpha, beta < -N, got "
            f"alpha = {alpha}, beta = {beta}, N = {N}"
        )
    sigma = alpha + beta
    for n in range(0, N + 1):
        if 2 * n + sigma + 1 == 0 or 2 * n + sigma + 2 == 0:
            return (f"hahn recurrence degenerates at n = {n}: "
                    f"2n + alpha + beta + 1 or + 2 vanishes")
        if n >= 1 and 2 * n + sigma == 0:
            return f"hahn recurrence degenerates at n = {n}: 2n + alpha + beta vanishes"
    return None


def test_hahn_gate_matches_the_old_loop():
    checked = Counter()
    for N in range(1, 61):
        for target in (-1, -2 * N - 2):
            for den in (1, 2, 3):
                for k in range(-7, 8):
                    sigma = target + F(k, den)
                    for alpha in (sigma / 2, sigma / 2 + F(1, 7)):
                        beta = sigma - alpha
                        try:
                            Hahn(alpha, beta, N=N)
                            got = None
                        except SpecError as err:
                            got = str(err)
                        want = old_hahn_gate(alpha, beta, N)
                        assert got == want, (alpha, beta, N)
                        checked["degenerate" if want and "degenerates" in want else str(bool(want))] += 1
    # both verdicts of the degeneracy gate are exercised, not only the range check
    assert checked["degenerate"] > 100 and checked["False"] > 100

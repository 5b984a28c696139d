"""The chain kernel and the lead determinant.

``construction.orthogonal_tables`` builds Q_n for a run of degrees in one
pass; its tables must equal the one-degree builds and the ``ScalarPoly``
closed form, and a bad input must raise the same error at the same degree.
``operators.continuant`` gives det T of a lead's tridiagonal block, which is
how the recurrence certificate tells a singular lead without inverting it."""
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from mvop import construction, families, verification
from mvop.construction import (
    FamilySpec,
    _chain_tau,
    _closed_form,
    integer_table,
    orthogonal_table,
    orthogonal_tables,
)
from mvop.errors import ProbeError, SpecError
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner
from mvop.operators import continuant, integer_inverse, lead_block, lead_inverse

COUPLINGS = (F(1), F(2), F(-1), F(1, 2), F(-3, 2), F(5, 3), F(-2, 7))
KRAW_P = (F(1, 3), F(2, 5), F(1, 4), F(3, 4), F(1, 5))
# tau probes, the last two making some leads singular, which the
# construction does not read
TAUS = (F(1), F(2), F(3, 2), F(-1, 2), F(-1, 6))


def hahn(draw, N, negative):
    """A Hahn channel on one branch: alpha, beta > -1, or alpha, beta < -N
    away from the values -(alpha + beta) = 2N + 3, 2N + 4 where b_(N+1)
    divides by zero."""
    if not negative:
        return Hahn(draw(st.sampled_from((F(1, 2), F(3, 2), F(2), F(-1, 2)))),
                    draw(st.sampled_from((F(1, 2), F(5, 2), F(1), F(-1, 3)))), N)
    return Hahn(-N - draw(st.sampled_from((F(1, 2), F(1, 3), F(7, 4)))),
                -N - draw(st.sampled_from((F(1, 5), F(3, 7), F(9, 5)))), N)


@st.composite
def chains(draw):
    """(spec, tau, degrees): m = 2..6 on Krawtchouk, Hahn of either branch,
    or Charlier and Meixner channels at a tau probe; a finite run of
    degrees reaches the closure companion N + 1 at most."""
    m = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("krawtchouk", "hahn", "hahn negative", "charlier/meixner")))
    if kind == "charlier/meixner":
        channels = [draw(st.sampled_from((Charlier(F(1)), Charlier(F(2)), Charlier(F(3, 2)),
                                          Meixner(F(1, 2), F(1, 2)), Meixner(F(1, 2), F(1, 3)))))
                    for _ in range(m)]
        top, tau = 4, draw(st.sampled_from(TAUS))
    else:
        top, tau = draw(st.integers(1, 4)), None
        channels = [Krawtchouk(draw(st.sampled_from(KRAW_P)), top) if kind == "krawtchouk"
                    else hahn(draw, top, kind == "hahn negative") for _ in range(m)]
        top += 1
    a = tuple(draw(st.sampled_from(COUPLINGS)) for _ in range(m - 1))
    low = draw(st.integers(0, top))
    degrees = range(low, draw(st.integers(low, top)) + 1)
    return FamilySpec(a=a, channels=tuple(channels)), tau, degrees


def shape(table):
    return table.degree, table.scale, table.coefficients


@settings(max_examples=60, deadline=None)
@given(chains())
def test_chain_equals_per_degree_builds(case):
    """Each table of a chain equals the one-degree build and the integer
    table of the ``ScalarPoly`` closed form, and carries no values."""
    spec, tau, degrees = case
    chain = list(orthogonal_tables(spec, degrees, tau))
    assert len(chain) == len(degrees)
    for n, table in zip(degrees, chain):
        assert not hasattr(table, "values")
        assert table == orthogonal_table(spec, n, tau)
        closed = _closed_form(spec, n, _chain_tau(spec, n, tau, exact=True))
        assert shape(table) == shape(integer_table(closed))


def outcome(build):
    """The tables ``build`` yields before it raises, and what it raises, as
    (count, error class, message); the ladders and norm quotients are grown
    anew, so that each build meets every error itself."""
    families.ladder.cache_clear()
    construction._norm_quotient.cache_clear()
    construction.chain_context.cache_clear()
    built = 0
    try:
        for _ in build():
            built += 1
    except (ProbeError, SpecError, ZeroDivisionError) as err:
        return built, type(err), str(err)
    return built, None, None


HAHN_2N3 = FamilySpec(a=(F(1),), channels=(Hahn(F(-3), F(-4), 2), Hahn(F(-5), F(-4), 2)))
CHARLIER_MEIXNER = FamilySpec(a=(F(2),), channels=(Charlier(F(1)), Meixner(F(1, 2), F(1, 2))))
KRAW = FamilySpec(a=(F(2), F(-1, 3)), channels=tuple(Krawtchouk(p, 2) for p in KRAW_P[:3]))


@pytest.mark.parametrize("spec, tau, degrees, raised", [
    # -(alpha + beta) = 2N + 3: the closure companion reads b_(N+1), which
    # divides by zero
    (HAHN_2N3, None, range(0, 4), (3, SpecError)),
    # past the closure companion
    (KRAW, None, range(1, 6), (3, SpecError)),
    (KRAW, None, range(-1, 2), (0, SpecError)),
    # a transcendental mass quotient with no tau is read first at n = 1
    (CHARLIER_MEIXNER, None, range(0, 3), (1, ProbeError)),
    (CHARLIER_MEIXNER, "numeric", range(0, 3), (0, ProbeError)),
    (CHARLIER_MEIXNER, "1/0", range(0, 3), (0, SpecError)),
], ids=["hahn b_(N+1)", "past N + 1", "negative degree", "no tau", "numeric tau",
        "bad tau"])
def test_bad_input_raises_at_the_same_degree(spec, tau, degrees, raised):
    """A chain raises what a build degree by degree raises, after as many
    tables."""
    def by_degree():
        for n in degrees:
            yield _closed_form(spec, n, _chain_tau(spec, n, tau, exact=True))

    got = outcome(lambda: orthogonal_tables(spec, degrees, tau))
    assert got == outcome(by_degree)
    assert got[:2] == raised


def leibniz(T):
    """det T by the permutation expansion."""
    total = 0
    for perm in permutations(range(len(T))):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term *= T[i][j]
        total += term
    return total


@st.composite
def tridiagonal(draw):
    k = draw(st.integers(1, 5))
    entry = st.integers(-6, 6)
    return [[draw(entry) if abs(i - j) <= 1 else 0 for j in range(k)] for i in range(k)]


@settings(max_examples=200, deadline=None)
@given(tridiagonal())
def test_continuant_is_the_determinant(T):
    """det T with its sign, and zero exactly when ``integer_inverse``
    finds T singular; otherwise |det T| is its denominator d."""
    det = continuant(T)
    assert det == leibniz(T)
    try:
        _, d = integer_inverse(T)
    except ZeroDivisionError:
        assert det == 0
    else:
        assert abs(det) == abs(d) != 0


def test_continuant_off_diagonal_singularity():
    """A block whose diagonal is nonzero and whose determinant vanishes
    through its off-diagonal product alone."""
    for T in ([[6, -3], [-8, 4]], [[2, 3, 0], [4, 6, 1], [0, 5, 7]]):
        assert all(T[i][i] for i in range(len(T)))
        assert continuant(T) == leibniz(T)
    assert continuant([[6, -3], [-8, 4]]) == 0
    with pytest.raises(ZeroDivisionError):
        integer_inverse([[6, -3], [-8, 4]])


# m = 4, Charlier channels: at a = 1 and tau = -1/6, the lead of Q_1 has the
# block T = [[6, -3], [-8, 4]], singular only through its off-diagonal
# product (det T = (1 + 2 b_2 s)(1 + b_4 s) - b_2 b_4 s^2 with s = a^2 tau)
CHARLIER_M4 = FamilySpec(a=(F(1),) * 3, channels=tuple(
    Charlier(b) for b in (F(1), F(3, 2), F(2), F(4))))


def test_off_diagonal_singular_lead_named_on_both_paths(monkeypatch):
    """The certificate finds the m = 4 lead singular by its continuant, at
    the same k and with the same ProbeError as the dense path's inverse."""
    tables = list(orthogonal_tables(CHARLIER_M4, range(4), F(-1, 6)))
    T = lead_block(tables[1].coefficient(1), tables[1].scale)
    assert T == [[6, -3], [-8, 4]]
    assert continuant(T) == 0
    with pytest.raises(ZeroDivisionError):
        lead_inverse(tables[1].coefficient(1), tables[1].scale)
    message = ("at coupling probe a = 1, --tau-probes value -1/6 makes the leading "
               "coefficient of Q_1 singular")

    def run():
        verification.run_verification(CHARLIER_M4, n_max=2, a_probes=["1"],
                                      tau_probes=["-1/6"])

    with pytest.raises(ProbeError, match=message):
        run()
    monkeypatch.setattr(verification, "_recurrence_certified", lambda *args: False)
    with pytest.raises(ProbeError, match=message):
        run()

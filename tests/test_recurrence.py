"""The three-term recurrence matched in integers from the integer tables,
against the Fraction coefficient matcher of ``residual_oracle`` and the
closed form of ``reference_recurrences.triple_from_recurrences``; and the
block inverse of the leading coefficients, [[I, N], [0, T]]."""
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvop import linalg, operators
from mvop.construction import (
    FamilySpec,
    integer_table,
    orthogonal_polynomial,
    orthogonal_table,
)
from mvop.errors import ProbeError, SpecError
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner
from mvop.operators import (
    RecurrenceTriple,
    closed_recurrence,
    coefficients_close,
    lead_inverse,
    match_recurrence,
)
from mvop.verification import _perturbed

import residual_oracle
from reference_recurrences import triple_from_recurrences
from residual_oracle import recurrence_residual

RATIONALS = (F(1), F(2), F(-1), F(1, 2), F(-3, 2), F(5, 3), F(-2, 7), F(3))
KRAW_P = (F(1, 3), F(2, 5), F(1, 4), F(3, 4))
HAHN = ((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)), (F(2), F(2)), (F(1, 2), F(1, 2)))
# the alpha, beta < -N branch, as offsets below -N
HAHN_NEGATIVE = ((F(-5, 2), F(-7, 2)), (F(-7, 3), F(-5, 2)), (F(-4, 3), F(-9, 4)))
MEIXNER = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(1), F(1, 4)))
TAUS = (F(1), F(2), F(1, 3), F(5, 2))

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def couplings(m):
    """m - 1 distinct nonzero couplings."""
    return st.lists(st.sampled_from(RATIONALS), min_size=m - 1, max_size=m - 1,
                    unique=True).map(tuple)


@st.composite
def finite_chains(draw):
    """Q_0..Q_N and the closure companion of a finite spec, so the last
    degree matched is n = N."""
    m = draw(st.integers(2, 6))
    N = draw(st.integers(1, 3))
    if draw(st.booleans()):
        channels = [Krawtchouk(p=draw(st.sampled_from(KRAW_P)), N=N) for _ in range(m)]
    else:
        channels = [Hahn(*draw(st.sampled_from(HAHN)), N=N) for _ in range(m)]
    spec = FamilySpec(a=draw(couplings(m)), channels=tuple(channels))
    return spec, [orthogonal_polynomial(spec, n) for n in range(N + 2)]


@st.composite
def infinite_chains(draw):
    """Q_0..Q_(top+1) of an infinite spec at a rational tau."""
    m = draw(st.integers(2, 6))
    channels = []
    for _ in range(m):
        if draw(st.booleans()):
            channels.append(Charlier(b=draw(st.sampled_from((F(1), F(2), F(3, 2))))))
        else:
            channels.append(Meixner(*draw(st.sampled_from(MEIXNER))))
    spec = FamilySpec(a=draw(couplings(m)), channels=tuple(channels))
    tau = draw(st.sampled_from(TAUS))
    top = draw(st.integers(0, 3))
    return spec, [orthogonal_polynomial(spec, n, tau=tau) for n in range(top + 2)]


CHAINS = finite_chains() | infinite_chains()


def fractions(pair):
    mat, d = pair
    return tuple(tuple(F(v, d) for v in row) for row in mat)


def triples_of(scaled):
    """{n: RecurrenceTriple} of Fractions from ``closed_recurrence``'s
    (integer matrix, denominator) pairs."""
    return {n: RecurrenceTriple(*map(fractions, t)) for n, t in scaled.items()}


def tables_of(chain):
    return [integer_table(Q) for Q in chain]


@SETTINGS
@given(case=CHAINS, perturb=st.booleans())
def test_integer_triples_equal_the_fraction_matcher(case, perturb):
    _, chain = case
    chain = _perturbed(chain, perturb)
    tables = tables_of(chain)
    got = match_recurrence(tables)
    want = residual_oracle.match_recurrence(chain)
    assert list(got) == list(want) == list(range(len(chain) - 1))
    for n, t in got.items():
        assert RecurrenceTriple(*map(fractions, t)) == want[n]
        # and the integer certificate agrees with the polynomial residual
        rem = recurrence_residual(n, chain[n - 1] if n else None, chain[n], chain[n + 1])
        assert coefficients_close(t, n, tables) == rem.is_zero


@SETTINGS
@given(case=CHAINS)
def test_closed_recurrence_reduces_to_the_oracle_fractions(case):
    spec, chain = case
    tables = tables_of(chain)
    got = closed_recurrence(spec, tables)
    assert triples_of(got) == residual_oracle.match_recurrence(chain)
    # one degree through a dict chain, as extract_recurrence passes it
    n = len(chain) - 2
    part = {k: tables[k] for k in range(max(n - 1, 0), n + 2)}
    assert closed_recurrence(spec, part, (n,)) == {n: got[n]}


@st.composite
def recurrence_specs(draw):
    """A spec of m = 2..6 channels with distinct couplings, on a finite
    support (Krawtchouk and Hahn of both branches) or an infinite one
    (Charlier and Meixner), a tau and the top degree matched: N on a finite
    support, so the closure companion is read."""
    m = draw(st.integers(2, 6))
    if draw(st.booleans()):
        N = draw(st.integers(1, 4))
        kind = draw(st.sampled_from(("krawtchouk", "hahn", "hahn negative")))
        if kind == "krawtchouk":
            channels = [Krawtchouk(p=draw(st.sampled_from(KRAW_P)), N=N) for _ in range(m)]
        elif kind == "hahn":
            channels = [Hahn(*draw(st.sampled_from(HAHN)), N=N) for _ in range(m)]
        else:
            channels = [Hahn(*(v - N for v in draw(st.sampled_from(HAHN_NEGATIVE))), N=N)
                        for _ in range(m)]
        top = N
    else:
        channels = [Charlier(b=draw(st.sampled_from((F(1), F(2), F(3, 2)))))
                    if draw(st.booleans()) else Meixner(*draw(st.sampled_from(MEIXNER)))
                    for _ in range(m)]
        top = draw(st.integers(0, 3))
    spec = FamilySpec(a=draw(couplings(m)), channels=tuple(channels))
    return spec, draw(st.sampled_from(TAUS)), top


@SETTINGS
@given(recurrence_specs())
def test_triples_equal_the_closed_form(case):
    spec, tau, top = case
    tau = None if spec.is_finite else tau
    tables = [orthogonal_table(spec, k, tau) for k in range(top + 2)]
    try:
        got = closed_recurrence(spec, tables, tau=tau)
    except (ProbeError, SpecError) as err:
        # a lead the couplings or the tau probe make singular
        assert "singular" in str(err)
        return
    assert list(got) == list(range(top + 1))
    for n, t in got.items():
        assert tuple(map(fractions, t)) == triple_from_recurrences(spec, n, tau), n


@SETTINGS
@given(case=CHAINS)
def test_block_inverse_is_the_inverse(case):
    _, chain = case
    for k, table in enumerate(tables_of(chain)):
        lead = table.coefficient(k)
        inverse = lead_inverse(lead, table.scale)
        exact = fractions((lead, table.scale))
        assert linalg.mat_mul(exact, fractions(inverse)) == linalg.identity(len(lead))
        assert fractions(inverse) == linalg.mat_inverse(exact)


def off_pattern(m):
    """Positions a lead [[I, N], [0, T]] (even channels first, T
    tridiagonal) must hold at 0, or, on the even diagonal, at the scale."""
    return [
        (i, j) for i in range(m) for j in range(m)
        if not (i % 2 == 0 and j % 2 == 1)
        and not (i % 2 == 1 and j % 2 == 1 and abs(i - j) <= 2)
    ]


@SETTINGS
@given(case=CHAINS, data=st.data())
def test_lead_off_the_block_pattern_is_rejected(case, data):
    _, chain = case
    k = data.draw(st.integers(0, len(chain) - 1))
    table = integer_table(chain[k])
    lead = [list(row) for row in table.coefficient(k)]
    i, j = data.draw(st.sampled_from(off_pattern(len(lead))))
    lead[i][j] += data.draw(st.sampled_from((1, -3)))
    with pytest.raises(AssertionError, match=r"not \[\[I, N\], \[0, T\]\]"):
        lead_inverse(tuple(map(tuple, lead)), table.scale)



def test_identity_block_is_not_inverted(monkeypatch):
    # m = 4: Q_0 and the closure companion have T = I, Q_1 and Q_2 do not
    spec = FamilySpec(a=(F(2), F(-1, 3), F(1, 2)),
                      channels=tuple(Krawtchouk(p, 2) for p in KRAW_P))
    chain = [orthogonal_polynomial(spec, n) for n in range(4)]
    want = residual_oracle.match_recurrence(chain)
    exact = {k: fractions((t.coefficient(k), t.scale)) for k, t in enumerate(tables_of(chain))}
    inverses = {k: linalg.mat_inverse(lead) for k, lead in exact.items()}
    inverted = []
    real = operators.integer_inverse

    def counting(a):
        inverted.append(a)
        return real(a)

    tables = tables_of(chain)
    monkeypatch.setattr(operators, "integer_inverse", counting)
    assert triples_of(closed_recurrence(spec, tables)) == want
    assert len(inverted) == 2
    for k, table in enumerate(tables_of(chain)):
        inverted.clear()
        assert fractions(lead_inverse(table.coefficient(k), table.scale)) == inverses[k]
        assert len(inverted) == (0 if k in (0, 3) else 1)

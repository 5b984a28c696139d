"""The scalar layer in integers: each channel kind's recurrence
coefficients b_n, c_n against the ``Fraction`` formulas of
``scalar_oracle.recurrence_bc``, the Hahn degeneracy gates included; and
the fraction-free inverse of the leads' odd-channel blocks
(``operators.integer_inverse``) against ``linalg.mat_inverse``."""
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mvop import linalg
from mvop.errors import SpecError
from mvop.families import Charlier, Hahn, Hermite, Krawtchouk, Laguerre, Meixner
from mvop.operators import integer_inverse

import scalar_oracle

SETTINGS = settings(max_examples=200, deadline=None)


def open_interval(low, high):
    return st.fractions(min_value=low, max_value=high, max_denominator=40).filter(
        lambda v: low < v < high)


@st.composite
def hahn_specs(draw):
    """Hahn weights of both branches; on the alpha, beta < -N branch
    -(alpha + beta) is often 2N + 3 or 2N + 4, where b_(N+1) degenerates."""
    N = draw(st.integers(1, 6))
    if draw(st.booleans()):
        alpha, beta = draw(open_interval(-1, 6)), draw(open_interval(-1, 6))
    else:
        alpha = -N - draw(open_interval(0, 3))
        if draw(st.booleans()):
            beta = -(2 * N + draw(st.sampled_from((3, 4)))) - alpha
        else:
            beta = -N - draw(open_interval(0, 6))
    try:
        return Hahn(alpha=alpha, beta=beta, N=N)
    except SpecError:
        assume(False)


SPECS = st.one_of(
    st.builds(Charlier, b=open_interval(0, 30)),
    st.builds(Meixner, beta=open_interval(0, 10), c=open_interval(0, 1)),
    st.builds(Krawtchouk, p=open_interval(0, 1), N=st.integers(1, 8)),
    hahn_specs(),
    st.just(Hermite()),
    st.builds(Laguerre, alpha=open_interval(-1, 10)),
)


@SETTINGS
@given(SPECS)
@example(Hahn(alpha=F(-9, 2), beta=F(-11, 2), N=3))    # -(alpha + beta) = 2N + 4
@example(Hahn(alpha=F(-13, 3), beta=F(-14, 3), N=3))   # 2N + 3
@example(Hahn(alpha=F(1, 2), beta=F(-1, 2), N=2))      # alpha + beta = 0
@example(Meixner(beta=F(1, 2), c=F(1, 3)))
def test_recurrence_coefficients_are_the_fraction_formulas(spec):
    top = 8 if spec.support_N is None else spec.support_N + 1
    for n in range(top + 1):
        try:
            want = scalar_oracle.recurrence_bc(spec, n)
        except SpecError as err:
            # the Hahn gate: the same error at the same n
            with pytest.raises(SpecError) as got:
                spec.recurrence_bc(n)
            assert str(got.value) == str(err)
            continue
        got = spec.recurrence_bc(n)
        assert got == want, n
        assert all(type(v) is F for v in got), n


def test_hahn_gate_names_the_degree():
    spec = Hahn(alpha=F(-9, 2), beta=F(-11, 2), N=3)
    assert spec.recurrence_bc(3) == scalar_oracle.recurrence_bc(spec, 3)
    with pytest.raises(SpecError, match=r"^hahn recurrence degenerates at n = 4: "):
        spec.recurrence_bc(4)


def tridiagonal(k):
    entries = st.integers(-6, 6)
    return st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k).map(
        lambda rows: tuple(tuple(v if abs(i - j) <= 1 else 0 for j, v in enumerate(row))
                           for i, row in enumerate(rows)))


def scaled_singular(k):
    """A block whose last row is a multiple of the first."""
    return st.tuples(tridiagonal(k), st.integers(-3, 3)).map(
        lambda t: t[0][:-1] + (tuple(t[1] * v for v in t[0][0]),))


BLOCKS = st.integers(1, 5).flatmap(lambda k: tridiagonal(k) | scaled_singular(k))


@settings(max_examples=400, deadline=None)
@given(BLOCKS)
@example(((0, 1), (1, 0)))             # a zero pivot: rows swapped
@example(((0, 0), (0, 3)))
@example(((2, 1, 0), (1, 2, 1), (0, 1, 2)))
def test_integer_inverse_is_the_fraction_inverse(T):
    try:
        want = linalg.mat_inverse(T)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            integer_inverse(T)
        return
    Y, d = integer_inverse(T)
    assert all(type(v) is int for row in Y for v in row) and type(d) is int
    assert tuple(tuple(F(v, d) for v in row) for row in Y) == want

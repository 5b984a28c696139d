"""The polynomial kernel against the schoolbook loops it replaces.

Each reference below is the plain loop: coefficient-wise sums with missing
coefficients read as Fraction(0), products accumulated from Fraction(0),
shifts by Horner composition, matrix products summed entry by entry.  The
kernel must return the same coefficients of the same types; a float is
compared by ``repr``, so an interior 0.0 that became Fraction(0) (which
``format_rational`` would print as "0") or -0.0 fails.
"""
import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from mvop.poly import MatrixPoly, ScalarPoly
from mvop.quadext import QuadExt
from mvop.rational import pochhammer

ZERO = F(0)


def coef(cs, i):
    return cs[i] if i < len(cs) else ZERO


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    return trim(coef(a, i) + coef(b, i) for i in range(max(len(a), len(b))))


def ref_sub(a, b):
    return ref_add(a, tuple(-c for c in b))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def ref_shift(a, k):
    out = ()
    for c in reversed(a):
        out = ref_add(ref_mul(out, (k, 1)), (c,))
    return out


def ref_matmul(P, Q):
    out = []
    for i in range(len(P)):
        row = []
        for j in range(len(Q[0])):
            acc = ()
            for k in range(len(Q)):
                acc = ref_add(acc, ref_mul(P[i][k], Q[k][j]))
            row.append(acc)
        out.append(row)
    return out


def key(c):
    """A coefficient's type and exact value; floats by repr."""
    if isinstance(c, QuadExt):
        return ("QuadExt", c.u, c.v, c.d)
    return (type(c).__name__, repr(c) if isinstance(c, float) else c)


def same(got, want):
    assert [key(c) for c in got] == [key(c) for c in want]


fractions = st.builds(
    F, st.integers(-6, 6), st.integers(1, 4)
) | st.just(F(0)) | st.integers(-3, 3)
floats = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(
    -1e3, 1e3, allow_nan=False, allow_infinity=False
)
quads = st.builds(
    lambda u, v: QuadExt(u, v, 2), fractions, st.sampled_from([F(0), F(1), F(-1, 3)])
)


def coeff_lists(scalars, max_size=5):
    return st.lists(scalars, max_size=max_size).map(tuple)


same_kind = st.sampled_from([fractions, floats, quads]).flatmap(
    lambda s: st.tuples(coeff_lists(s), coeff_lists(s))
)
exact_kind = st.sampled_from([fractions, quads]).flatmap(coeff_lists)


class TestScalarArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(same_kind)
    def test_add_sub_mul(self, pair):
        a, b = pair
        p, q = ScalarPoly(a), ScalarPoly(b)
        ta, tb = trim(a), trim(b)
        same((p + q).coeffs, ref_add(ta, tb))
        same((p - q).coeffs, ref_sub(ta, tb))
        same((p * q).coeffs, ref_mul(ta, tb))

    @settings(max_examples=200, deadline=None)
    @given(exact_kind, st.sampled_from([1, -1, 2, F(1, 2), F(-3, 2)]))
    def test_shift_matches_composition(self, a, k):
        p = ScalarPoly(a)
        same(p.shift(k).coeffs, ref_shift(trim(a), k))
        same(p.compose(ScalarPoly((k, 1))).coeffs, ref_shift(trim(a), k))

    def test_float_interior_zero_stays_float(self):
        p = ScalarPoly((1.5, 0.0, 2.0)) * ScalarPoly((F(2), F(0), F(1)))
        same(p.coeffs, (3.0, 0.0, 5.5, 0.0, 2.0))
        same((ScalarPoly((F(1),)) + ScalarPoly((F(1), -0.0, 1.0))).coeffs, (F(2), 0.0, 1.0))


def sparse_entries(scalars):
    return st.one_of(st.just(()), st.just(()), coeff_lists(scalars, max_size=4))


class TestMatrixProduct:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data()
    )
    def test_matches_triple_loop(self, rows, inner, cols, data):
        entries = sparse_entries(data.draw(st.sampled_from([fractions, floats])))
        P = [[data.draw(entries) for _ in range(inner)] for _ in range(rows)]
        Q = [[data.draw(entries) for _ in range(cols)] for _ in range(inner)]
        got = MatrixPoly(tuple(tuple(ScalarPoly(e) for e in row) for row in P)) @ MatrixPoly(
            tuple(tuple(ScalarPoly(e) for e in row) for row in Q)
        )
        want = ref_matmul(
            [[trim(e) for e in row] for row in P], [[trim(e) for e in row] for row in Q]
        )
        for got_row, want_row in zip(got.entries, want):
            for g, w in zip(got_row, want_row):
                same(g.coeffs, w)

    def test_float_entries_keep_summation_order(self):
        # each product is summed before it meets the running entry:
        # 1.0 + (-1e16 + 1e16) = 1.0, where (1.0 - 1e16) + 1e16 = 0.0
        P = MatrixPoly(((ScalarPoly((1.0,)), ScalarPoly((1.0, 1.0))),))
        Q = MatrixPoly(((ScalarPoly((0.0, 1.0)),), (ScalarPoly((1e16, -1e16)),)))
        want = ref_matmul([[(1.0,), (1.0, 1.0)]], [[(0.0, 1.0)], [(1e16, -1e16)]])
        same((P @ Q).entries[0][0].coeffs, want[0][0])
        assert want[0][0][1] == 1.0


def old_pochhammer(a, n):
    out = F(1)
    term = F(a)
    for _ in range(n):
        out *= term
        term += 1
    return out


class TestPochhammer:
    @given(
        st.builds(F, st.integers(-30, 30), st.integers(1, 12)) | st.integers(-10, 10),
        st.integers(0, 25),
    )
    def test_matches_loop(self, a, n):
        got = pochhammer(a, n)
        assert type(got) is F
        assert got == old_pochhammer(a, n)

    def test_n_zero_and_integer_values(self):
        assert pochhammer(F(-7, 3), 0) == 1
        assert pochhammer(1, 6) == math.factorial(6)
        assert pochhammer(-3, 5) == 0

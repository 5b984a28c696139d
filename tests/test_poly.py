"""Polynomial and matrix-polynomial algebra, difference calculus."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvop.poly import MatrixPoly, ScalarPoly
from mvop.quadext import QuadExt

from scalar_oracle import lagrange_interpolate


def poly(*coeffs):
    return ScalarPoly(tuple(F(c) for c in coeffs))


x = ScalarPoly.x()


class TestShift:
    def test_square_shift_one(self):
        assert (x * x).shift(1) == poly(1, 2, 1)

    def test_constant_fixed(self):
        assert poly(5).shift(7) == poly(5)

    def test_cubic_shift_one(self):
        # oracle: expand (x+1) x (x-1) by brute-force coefficient arithmetic
        p = x * x * x - x * x * 3 + x * 2  # = x(x-1)(x-2)
        oracle = ScalarPoly((1, 1)) * x * ScalarPoly((-1, 1))
        assert p.shift(1) == oracle
        assert p.shift(1) == poly(0, -1, 0, 1)

    def test_rational_shift(self):
        assert x.shift(F(1, 2)) == poly(F(1, 2), 1)


class TestDifferences:
    def test_delta_square(self):
        assert (x * x).delta() == poly(1, 2)

    def test_nabla_square(self):
        assert (x * x).nabla() == poly(-1, 2)

    def test_delta_twice_cubic(self):
        # oracle: apply the forward difference twice through shifts
        cube = x * x * x
        once = cube.shift(1) - cube
        twice = once.shift(1) - once
        assert (cube.delta()).delta() == twice
        assert twice == poly(6, 6)

    def test_degree_drop(self):
        for p in (x * x * x - x * 7 + 1, x * 5, poly(2, 0, 0, 1)):
            assert p.delta().degree == p.degree - 1
        assert poly(3).delta().is_zero

    def test_matrix_difference_entrywise(self):
        P = MatrixPoly(((x * x, x), (1, x * x * x)))
        assert P.delta().entry(0, 0) == poly(1, 2)
        assert P.nabla().entry(0, 0) == poly(-1, 2)


class TestAffine:
    """Composition with an affine inner polynomial beta + alpha x."""

    def test_square(self):
        assert (x * x).compose(poly(1, 2)) == poly(1, 4, 4)

    def test_centering(self):
        b = F(3)
        assert x.compose(poly(-b, 1)) == poly(-3, 1)

    def test_shift_by_two(self):
        # oracle: expand (x+2)^2 - 4(x+2) + 3
        p = x * x - x * 4 + 3
        assert p.compose(poly(2, 1)) == poly(-1, 0, 1)


class TestMatrixOps:
    def test_identity_product(self):
        Q = MatrixPoly(((x, 1), (x * x, x - 1)))
        assert MatrixPoly.identity(2) @ Q == Q
        assert Q @ MatrixPoly.identity(2) == Q

    def test_nilpotent_square(self):
        A = MatrixPoly(((0, F(3)), (0, 0)))
        assert (A @ A).is_zero

    def test_eval_by_substitution(self):
        # oracle: substitute x = 2 entrywise
        P = MatrixPoly(((x - 2, -(x * 2 - 3)), (-1, x * 2 - 2)))
        assert P.evaluate(2) == ((F(0), F(-1)), (F(-1), F(2)))

    def test_noncommutative_order(self):
        A = MatrixPoly(((0, 1), (0, 0)))
        B = MatrixPoly(((0, 0), (1, 0)))
        assert A @ B != B @ A

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MatrixPoly.identity(2) @ MatrixPoly.identity(3)

    def test_leading_coefficient(self):
        P = MatrixPoly(((x * x, x), (1, x * x * 3)))
        assert P.degree == 2
        assert P.leading_coefficient() == ((F(1), F(0)), (F(0), F(3)))


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
polys = st.lists(rationals, min_size=0, max_size=6).map(
    lambda cs: ScalarPoly(tuple(cs))
)


class TestInvariants:
    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_shift_roundtrip(self, p):
        for k in (1, 3, F(-2), F(1, 2)):
            assert p.shift(k).shift(-k) == p

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_second_central_difference(self, p):
        # Delta(Nabla p) = Nabla(Delta p) = Delta p - Nabla p
        assert p.nabla().delta() == p.delta().nabla()
        assert p.nabla().delta() == p.delta() - p.nabla()

    def test_second_central_difference_matrix(self):
        P = MatrixPoly(((x * x * x, x - 2), (x * 5, 1)))
        assert P.nabla().delta() == P.delta().nabla() == P.delta() - P.nabla()

    def test_eval_product_homomorphism(self):
        rng = random.Random(20240817)
        P = MatrixPoly(((x * x, x + 1), (x * 3 - 2, 1)))
        Q = MatrixPoly(((x, x * x - 1), (0, x + 5)))
        PQ = P @ Q
        for _ in range(100):
            x0 = F(rng.randint(-40, 40), rng.randint(1, 9))
            lhs = PQ.evaluate(x0)
            pv, qv = P.evaluate(x0), Q.evaluate(x0)
            rhs = tuple(
                tuple(sum(pv[i][k] * qv[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
            assert lhs == rhs

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_product_degree(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree


def coefficient_bits(p):
    """Each coefficient's type, repr and extension: repr alone shows a
    QuadExt with v = 0 as its rational part."""
    return [(type(c), repr(c), getattr(c, "d", None)) for c in p.coeffs]


small = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@pytest.mark.parametrize("kind", ["fraction", "float", "quadext"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_times_x_equals_product_with_x(kind, data):
    if kind == "fraction":
        coeffs = data.draw(st.lists(small, max_size=6))
    elif kind == "float":
        # interior -0.0 and 0.0 both read as 0.0 in a product
        coeffs = data.draw(st.lists(st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False)),
            max_size=6))
    else:
        d = data.draw(st.sampled_from([2, 3, F(8, 3)]))
        coeffs = [QuadExt(u, v, d) for u, v in data.draw(st.lists(st.tuples(small, small),
                                                                   max_size=6))]
    p = ScalarPoly(coeffs)
    assert coefficient_bits(p.times_x()) == coefficient_bits(p * ScalarPoly.x())


def test_lagrange_interpolation_roundtrip():
    p = poly(F(1, 3), -2, 0, F(5, 7))
    pts = [(F(k), p.evaluate(F(k))) for k in range(5)]
    assert lagrange_interpolate(pts) == p


def test_canonical_form_structural_equality():
    assert ScalarPoly((F(1), F(2), F(0), F(0))) == ScalarPoly((1, 2))
    assert ScalarPoly(()).degree == -1
    assert hash(ScalarPoly((F(2),))) == hash(ScalarPoly((2,)))

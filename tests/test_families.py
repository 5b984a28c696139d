"""Scalar weights: values, recurrences, norms, Rodrigues oracle, operators."""
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvop.errors import SpecError
from mvop.families import (
    Charlier,
    Hahn,
    Krawtchouk,
    Mass,
    Meixner,
    monic_polynomial,
    squared_norm,
    weight_sequence,
    weight_spec_from_json,
)
from mvop.poly import ScalarPoly
from mvop.rational import binomial

from scalar_oracle import extended_polynomial, pochhammer_binomial, rodrigues_polynomial

x = ScalarPoly.x()


def brute_force_mass(spec) -> F:
    """Total mass by direct summation; the oracle for the closed forms."""
    return sum((spec.weight(x) for x in range(spec.support_N + 1)), F(0))


FAMILIES = (
    Charlier(b=F(2)),
    Charlier(b=F(1, 2)),
    Meixner(beta=F(1), c=F(1, 2)),
    Meixner(beta=F(5, 2), c=F(1, 3)),
    Krawtchouk(p=F(1, 2), N=4),
    Krawtchouk(p=F(1, 3), N=6),
    Hahn(alpha=F(0), beta=F(0), N=4),
    Hahn(alpha=F(1, 2), beta=F(3, 2), N=5),
)


class TestWeights:
    def test_charlier_value(self):
        assert Charlier(b=F(2)).weight(3) == F(4, 3)

    def test_krawtchouk_value(self):
        assert Krawtchouk(p=F(1, 2), N=4).weight(2) == F(3, 8)

    def test_meixner_value(self):
        assert Meixner(beta=F(1), c=F(1, 2)).weight(2) == F(1, 4)

    def test_off_support(self):
        assert Charlier(b=F(2)).weight(-1) == 0
        assert Krawtchouk(p=F(1, 2), N=4).weight(5) == 0

    @pytest.mark.parametrize("spec", [f for f in FAMILIES if f.support_N is not None])
    def test_closed_form_mass(self, spec):
        assert spec.total_mass().coefficient == brute_force_mass(spec)

    def test_parameter_validation(self):
        with pytest.raises(SpecError):
            Charlier(b=F(-1))
        with pytest.raises(SpecError):
            Meixner(beta=F(1), c=F(3, 2))
        with pytest.raises(SpecError):
            Krawtchouk(p=F(0), N=4)
        with pytest.raises(SpecError):
            Hahn(alpha=F(-2), beta=F(0), N=3)

    @pytest.mark.parametrize("spec", FAMILIES + (
        Charlier(b=F(7, 3)),
        Meixner(beta=F(3, 2), c=F(2, 3)),
        Hahn(alpha=F(-19, 2), beta=F(-23, 2), N=7),  # alpha, beta < -N
        Hahn(alpha=F(-9), beta=F(-11), N=7),
    ))
    def test_grown_weights_equal_closed_form(self, spec):
        stop = 60 if spec.support_N is None else spec.support_N
        assert weight_sequence(spec, stop) == [spec.weight(x) for x in range(stop + 1)]

    def test_hahn_degenerate_denominator_named(self):
        # alpha + beta = -6 makes 2n + alpha + beta + 2 vanish at n = 2
        with pytest.raises(SpecError, match="n = 2"):
            Hahn(alpha=F(-7, 2), beta=F(-5, 2), N=2)


class TestMonicPolynomials:
    def test_charlier_degree_one(self):
        assert monic_polynomial(Charlier(b=F(2)), 1) == x - 2

    def test_krawtchouk_degree_two(self):
        got = monic_polynomial(Krawtchouk(p=F(1, 2), N=4), 2)
        assert got == (x - 1) * (x - 3)

    def test_hahn_degree_one(self):
        assert monic_polynomial(Hahn(alpha=F(0), beta=F(0), N=2), 1) == x - 1

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_monic_and_degree(self, spec):
        top = spec.support_N + 1 if spec.support_N is not None else 8
        for n in range(top + 1):
            p = monic_polynomial(spec, n)
            assert p.degree == n and p.leading == 1

    def test_degree_beyond_extension_rejected(self):
        with pytest.raises(SpecError, match="only 5 orthogonal polynomials"):
            monic_polynomial(Krawtchouk(p=F(1, 2), N=4), 6)


class TestOrthogonalityOracle:
    @pytest.mark.parametrize("spec", [f for f in FAMILIES if f.support_N is not None])
    def test_brute_force_inner_products(self, spec):
        N = spec.support_N
        polys = [monic_polynomial(spec, n) for n in range(N + 1)]
        for n in range(N + 1):
            for k in range(N + 1):
                total = sum(
                    (polys[n].evaluate(xv) * polys[k].evaluate(xv) * spec.weight(xv)
                     for xv in range(N + 1)),
                    F(0),
                )
                if n != k:
                    assert total == 0, (spec, n, k)
                else:
                    assert total == squared_norm(spec, n).rational_value()

    @pytest.mark.parametrize("spec", [f for f in FAMILIES if f.support_N is None])
    def test_truncated_inner_products(self, spec):
        polys = [monic_polynomial(spec, n) for n in range(5)]
        for n in range(5):
            for k in range(n):
                total = sum(
                    float(polys[n].evaluate(xv)) * float(polys[k].evaluate(xv)) * float(spec.weight(xv))
                    for xv in range(120)
                )
                norm = squared_norm(spec, n).float_value()
                assert abs(total) / norm < 1e-9, (spec, n, k)

    @pytest.mark.parametrize("spec", [f for f in FAMILIES if f.support_N is not None][:3])
    def test_gram_schmidt_oracle(self, spec):
        # exact Gram-Schmidt of monomials against the recurrence path
        N = spec.support_N
        basis = []
        for j in range(min(N, 6) + 1):
            cand = ScalarPoly.monomial(j)
            for r in basis:
                num = sum((cand.evaluate(xv) * r.evaluate(xv) * spec.weight(xv) for xv in range(N + 1)), F(0))
                den = sum((r.evaluate(xv) ** 2 * spec.weight(xv) for xv in range(N + 1)), F(0))
                cand = cand - r * (num / den)
            basis.append(cand)
            assert cand == monic_polynomial(spec, j)


class TestNorms:
    def test_krawtchouk_norm_one(self):
        nv = squared_norm(Krawtchouk(p=F(1, 2), N=4), 1)
        assert nv.rational_value() == 1

    def test_charlier_norm_tag(self):
        nv = squared_norm(Charlier(b=F(1)), 2)
        assert nv.coefficient == 2
        assert nv.mass == Mass.exponential(F(1))

    def test_vanishing_extension_norm(self):
        # the ladder's c_(N+1) = 0
        for spec in (Krawtchouk(p=F(1, 2), N=4), Hahn(F(3, 2), F(5, 2), 4)):
            assert squared_norm(spec, 5).coefficient == 0

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_positivity(self, spec):
        top = spec.support_N if spec.support_N is not None else 8
        for n in range(top + 1):
            assert squared_norm(spec, n).coefficient > 0

    def test_meixner_mass_quotient_rationality(self):
        m1 = Meixner(beta=F(1), c=F(1, 3)).total_mass().mass
        m2 = Meixner(beta=F(3), c=F(1, 3)).total_mass().mass
        assert (m2 / m1).is_rational
        assert (m2 / m1).rational_value() == F(9, 4)
        m3 = Meixner(beta=F(3, 2), c=F(1, 3)).total_mass().mass
        assert not (m3 / m1).is_rational

    def test_charlier_mass_quotient_float(self):
        import math

        q = Charlier(b=F(2)).total_mass().mass / Charlier(b=F(1)).total_mass().mass
        assert not q.is_rational
        assert q.float_value() == pytest.approx(math.e)


class TestExtension:
    def test_smallest(self):
        assert extended_polynomial(Hahn(alpha=F(0), beta=F(0), N=1)) == x * x - x

    def test_degree_five(self):
        got = extended_polynomial(Krawtchouk(p=F(1, 2), N=4))
        want = ScalarPoly((0, 24, -50, 35, -10, 1))
        assert got == want

    def test_recurrence_coefficients_from_inner_products(self):
        # appendix oracle: the top recurrence coefficients computed from
        # exact inner products close onto the falling-factorial product
        spec = Krawtchouk(p=F(1, 3), N=3)
        N = spec.support_N
        p_N = monic_polynomial(spec, N)
        p_Nm1 = monic_polynomial(spec, N - 1)

        def ip(u, v):
            return sum((u.evaluate(xv) * v.evaluate(xv) * spec.weight(xv) for xv in range(N + 1)), F(0))

        b_N = ip(p_N * x, p_N) / ip(p_N, p_N)
        c_N = ip(p_N * x, p_Nm1) / ip(p_Nm1, p_Nm1)
        built = p_N * x - p_N * b_N - p_Nm1 * c_N
        assert built == extended_polynomial(spec)

    def test_infinite_support_rejected(self):
        with pytest.raises(SpecError):
            extended_polynomial(Charlier(b=F(1)))


class TestRodrigues:
    def test_charlier_degree_one(self):
        assert rodrigues_polynomial(Charlier(b=F(1)), 1) == x - 1

    def test_degree_zero(self):
        assert rodrigues_polynomial(Krawtchouk(p=F(2, 7), N=5), 0) == ScalarPoly.one()

    def test_hahn_degree_one(self):
        spec = Hahn(alpha=F(0), beta=F(0), N=2)
        assert rodrigues_polynomial(spec, 1) == monic_polynomial(spec, 1) == x - 1

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_agrees_with_recurrence(self, spec):
        top = min(8, spec.support_N) if spec.support_N is not None else 8
        for n in range(top + 1):
            assert rodrigues_polynomial(spec, n) == monic_polynomial(spec, n), (spec, n)


class TestOperators:
    def test_charlier_action(self):
        op = Charlier(b=F(3)).operator()
        p = x - 3
        assert op.apply(p) == -p
        assert op.eigenvalue(1) == -1

    def test_meixner_eigenvalue(self):
        op = Meixner(beta=F(1), c=F(1, 2)).operator()
        assert op.eigenvalue(2) == 2 * (F(1, 2) - 1) == -1

    def test_krawtchouk_extension_eigenvalue(self):
        spec = Krawtchouk(p=F(1, 2), N=4)
        op = spec.operator()
        ext = extended_polynomial(spec)
        assert op.apply(ext) == ext * F(-5)
        assert op.eigenvalue(5) == -5

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_eigen_relation_all_degrees(self, spec):
        op = spec.operator()
        top = spec.support_N + 1 if spec.support_N is not None else 8
        for n in range(top + 1):
            p = monic_polynomial(spec, n)
            assert op.apply(p) == p * op.eigenvalue(n), (spec, n)


class TestJson:
    @pytest.mark.parametrize("spec", FAMILIES)
    def test_roundtrip(self, spec):
        assert weight_spec_from_json(spec.to_json()) == spec

    def test_wire_format(self):
        assert Charlier(b=F(2)).to_json() == {"kind": "charlier", "b": "2"}
        assert Hahn(alpha=F(-1, 2), beta=F(3, 2), N=6).to_json() == {
            "kind": "hahn",
            "alpha": "-1/2",
            "beta": "3/2",
            "N": 6,
        }

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            weight_spec_from_json({"kind": "jacobi"})


@settings(max_examples=300, deadline=None)
@given(top=st.integers(-30, 60) | st.fractions(min_value=-30, max_value=60, max_denominator=9),
       k=st.integers(-2, 70))
@example(top=3, k=4)
@example(top=0, k=70)
@example(top=-30, k=70)
@example(top=F(7, 2), k=3)
@example(top=60, k=-1)
def test_binomial_equals_the_pochhammer_form(top, k):
    """``binomial`` against its Pochhammer form: a nonnegative integer top
    takes ``math.comb`` (0 for k > top), a negative integer or non-integer
    rational top the Pochhammer product, and k < 0 gives 0."""
    value = binomial(top, k)
    assert type(value) is F
    assert value == pochhammer_binomial(top, k)

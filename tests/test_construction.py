"""Weight matrices, the closed-form orthogonal sequence, inner products."""
import random
from fractions import Fraction as F

import pytest

from mvop import linalg
from mvop.construction import (
    A_PROBES,
    FamilySpec,
    closure_polynomial,
    converged,
    family_spec_from_json,
    inner_product,
    needs_mass_probe,
    norm_ratio,
    orthogonal_polynomial,
    relative_gram_bound,
    spec_tau,
    staggered_positions,
    weight_matrix,
)
from mvop.errors import ProbeError, SpecError, TruncationError
from mvop.families import Charlier, Hahn, Krawtchouk, monic_polynomial, squared_norm
from mvop.record import replace
from mvop.operators import extract_recurrence
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.quadext import QuadExt

from construction_oracle import (
    diagonal_polynomial,
    gram_schmidt_oracle,
    is_staggered,
    nilpotent_matrix,
    norm_ratio_matrix,
    unipotent_factor,
)
from residual_oracle import brute_force_gram

x = ScalarPoly.x()


def kraw_pair(p=F(1, 2), s=F(1, 2), N=4, a=F(1)):
    return FamilySpec(a=(a,), channels=(Krawtchouk(p=p, N=N), Krawtchouk(p=s, N=N)))


FINITE_SPECS = (
    kraw_pair(),
    kraw_pair(p=F(1, 3), s=F(1, 4), N=5, a=F(2)),
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


class TestSpecValidation:
    def test_zero_coupling_rejected(self):
        with pytest.raises(SpecError, match="nonzero"):
            FamilySpec(a=(0,), channels=(Charlier(b=F(1)), Charlier(b=F(2))))

    def test_mixed_support_rejected(self):
        with pytest.raises(SpecError, match="share one support"):
            FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Krawtchouk(p=F(1, 2), N=4)))

    def test_mismatched_finite_supports_rejected(self):
        with pytest.raises(SpecError):
            FamilySpec(a=(1,), channels=(Krawtchouk(p=F(1, 2), N=4), Krawtchouk(p=F(1, 2), N=5)))

    def test_single_channel_rejected(self):
        with pytest.raises(SpecError):
            FamilySpec(a=(), channels=(Charlier(b=F(1)),))

    def test_json_roundtrip(self):
        spec = kraw_pair()
        data = spec.to_json()
        assert data == {
            "m": 2,
            "a": ["1"],
            "channels": [
                {"kind": "krawtchouk", "p": "1/2", "N": 4},
                {"kind": "krawtchouk", "p": "1/2", "N": 4},
            ],
        }
        assert family_spec_from_json(data) == spec


class TestNilpotentPattern:
    def test_two_by_two(self):
        A = nilpotent_matrix(kraw_pair(a=F(5)))
        assert A.entries[0][1] == ScalarPoly.constant(F(5))
        assert all(
            A.entries[i][j].is_zero for i in range(2) for j in range(2) if (i, j) != (0, 1)
        )

    def test_three_by_three(self):
        A = nilpotent_matrix(FINITE_SPECS[2])
        assert A.entry(0, 1) == ScalarPoly.constant(F(1))
        assert A.entry(2, 1) == ScalarPoly.constant(F(2))
        assert sum(1 for i in range(3) for j in range(3) if not A.entry(i, j).is_zero) == 2

    @pytest.mark.parametrize("m", range(2, 7))
    def test_two_step_nilpotency(self, m):
        rng = random.Random(m)
        channels = tuple(Charlier(b=F(rng.randint(1, 9))) for _ in range(m))
        spec = FamilySpec(
            a=tuple(F(rng.randint(1, 5)) for _ in range(m - 1)), channels=channels
        )
        A = nilpotent_matrix(spec)
        assert (A @ A).is_zero

    @pytest.mark.parametrize("m", range(2, 7))
    def test_staggered_algebra(self, m):
        rng = random.Random(100 + m)

        def random_staggered():
            rows = [[F(0)] * m for _ in range(m)]
            for (i, j) in staggered_positions(m):
                rows[i][j] = F(rng.randint(-5, 5))
            return tuple(tuple(r) for r in rows)

        M1, M2 = random_staggered(), random_staggered()
        assert linalg.is_zero_matrix(linalg.mat_mul(M1, M2))
        assert linalg.is_zero_matrix(linalg.mat_mul(M2, M1))
        D = tuple(
            tuple(F(rng.randint(1, 9)) if i == j else F(0) for j in range(m))
            for i in range(m)
        )
        assert is_staggered(linalg.mat_mul(D, M1))
        assert is_staggered(linalg.mat_mul(M1, D))


class TestWeightMatrix:
    def test_symmetric_binomial_point(self):
        W1 = weight_matrix(kraw_pair(), 1)
        assert W1 == ((F(1, 2), F(1, 4)), (F(1, 4), F(1, 4)))

    def test_off_support_zero(self):
        assert linalg.is_zero_matrix(weight_matrix(kraw_pair(), -3))
        assert linalg.is_zero_matrix(weight_matrix(kraw_pair(), 5))

    def test_three_channel_corner_entry(self):
        spec = FINITE_SPECS[2]
        for xv in range(4):
            W = weight_matrix(spec, xv)
            w2 = spec.channels[1].weight(xv)
            assert W[0][2] == w2 * F(1) * F(2) * xv * xv

    def test_needs_rational_couplings(self):
        # a float coupling is refused where the spec is built
        with pytest.raises(SpecError, match="coupling constants a"):
            FamilySpec(a=(0.5,), channels=kraw_pair().channels)
        # W(x) is summed in integers over the couplings' common denominator,
        # so a coupling in the quadratic extension is refused there
        spec = FamilySpec(a=(QuadExt.root(2),), channels=kraw_pair().channels)
        with pytest.raises(SpecError, match="rational couplings"):
            weight_matrix(spec, 1)

    @pytest.mark.parametrize("spec", FINITE_SPECS[:4])
    def test_positive_definite_on_support(self, spec):
        for xv in range(spec.support_N + 1):
            assert linalg.is_positive_definite(weight_matrix(spec, xv))


class TestConstruction:
    def test_degree_and_invertible_leading(self):
        spec = kraw_pair(p=F(1, 3), s=F(1, 4), N=5, a=F(2))
        for n in range(6):
            Q = orthogonal_polynomial(spec, n)
            assert Q.degree == n
            assert linalg.determinant(Q.leading_coefficient()) != 0

    def test_degree_zero_shape(self):
        Q0 = orthogonal_polynomial(kraw_pair(a=F(3)), 0)
        assert Q0 == MatrixPoly(((1, -6), (0, 1)))

    def test_charlier_coupling_entry(self):
        # lower-left entry: -a n tau c^n / b^(n-1) times the lower-degree
        # first-channel polynomial
        b, c, a = F(1), F(2), F(1)
        spec = FamilySpec(a=(a,), channels=(Charlier(b=b), Charlier(b=c)))
        for tau in (F(1), F(3)):
            for n in range(1, 4):
                Q = orthogonal_polynomial(spec, n, tau=tau)
                want = monic_polynomial(Charlier(b=b), n - 1) * (
                    -a * n * tau * c**n / b ** (n - 1)
                )
                assert Q.entry(1, 0) == want

    def test_unipotent_identity(self):
        # Q_n (I + A x) agrees with the three-term core built from the
        # diagonal scalar polynomials and the norm-ratio matrix
        spec = kraw_pair(p=F(1, 3), s=F(1, 4), N=5, a=F(2))
        for n in range(1, 6):
            Q = orthogonal_polynomial(spec, n)
            lhs = Q @ unipotent_factor(spec)
            theta = MatrixPoly(norm_ratio_matrix(spec, n))
            A = nilpotent_matrix(spec)
            rhs = (
                diagonal_polynomial(spec, n)
                + A @ diagonal_polynomial(spec, n + 1)
                - theta @ diagonal_polynomial(spec, n - 1)
            )
            assert lhs == rhs

    def test_index_bounds(self):
        # N = 4: degree N + 1 is the closure companion, N + 2 does not exist
        spec = kraw_pair()
        assert orthogonal_polynomial(spec, 5) == closure_polynomial(spec)
        with pytest.raises(SpecError, match="<= 5"):
            orthogonal_polynomial(spec, 6)
        with pytest.raises(SpecError):
            orthogonal_polynomial(spec, -1)

    def test_missing_probe_raises(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Charlier(b=F(2))))
        assert needs_mass_probe(spec)
        with pytest.raises(ProbeError):
            orthogonal_polynomial(spec, 2)

    def test_probe_not_needed_for_equal_channels(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(2)), Charlier(b=F(2))))
        assert not needs_mass_probe(spec)
        orthogonal_polynomial(spec, 3)


class TestOrthogonality:
    @pytest.mark.parametrize("spec", FINITE_SPECS)
    def test_exact_orthogonality_over_probes(self, spec):
        for a_val in A_PROBES:
            probe = spec.with_a((a_val,) * (spec.m - 1))
            top = probe.support_N
            polys = [orthogonal_polynomial(probe, n) for n in range(top + 1)]
            for n in range(top + 1):
                for k in range(n):
                    assert inner_product(polys[n], polys[k], probe).is_zero, (spec, a_val, n, k)

    def test_asymmetric_coupling_three_channels(self):
        spec = FINITE_SPECS[2]
        for a_pair in ((F(1), F(2)), (F(2), F(1)), (F(1, 2), F(3)), (F(-1), F(1))):
            probe = spec.with_a(a_pair)
            polys = [orthogonal_polynomial(probe, n) for n in range(4)]
            for n in range(4):
                for k in range(n):
                    assert inner_product(polys[n], polys[k], probe).is_zero

    @pytest.mark.parametrize("spec", FINITE_SPECS[:2])
    def test_gram_positive_definite(self, spec):
        for n in range(spec.support_N + 1):
            Q = orthogonal_polynomial(spec, n)
            g = inner_product(Q, Q, spec)
            assert linalg.is_positive_definite(g.entries)

    def test_diagonal_inner_product_is_norm_matrix(self):
        spec = kraw_pair(p=F(1, 3), s=F(1, 4), N=5)
        for n in range(5):
            P = diagonal_polynomial(spec, n)
            g = brute_force_gram(P, P, spec, diagonal=True)
            for i in range(2):
                for j in range(2):
                    want = squared_norm(spec.channels[i], n).rational_value() if i == j else 0
                    assert g[i][j] == want


class TestGramSchmidtOracle:
    def test_degree_zero(self):
        assert gram_schmidt_oracle(kraw_pair(), 0) == MatrixPoly.identity(2)

    def test_matches_normalized_construction(self):
        for spec in FINITE_SPECS:
            for n in range(spec.support_N + 1):
                Q = orthogonal_polynomial(spec, n)
                R = gram_schmidt_oracle(spec, n)
                lead_inv = linalg.mat_inverse(Q.leading_coefficient())
                assert MatrixPoly(lead_inv) @ Q == R, (spec, n)

    def test_hahn_span_agreement(self):
        spec = FamilySpec(
            a=(F(1),),
            channels=(Hahn(alpha=F(1), beta=F(1), N=3), Hahn(alpha=F(0), beta=F(0), N=3)),
        )
        oracles = [gram_schmidt_oracle(spec, k) for k in range(4)]
        for n in range(4):
            Q = orthogonal_polynomial(spec, n)
            assert Q.degree == n
            for k in range(n):
                assert inner_product(Q, oracles[k], spec).is_zero

    def test_infinite_support_rejected(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Charlier(b=F(1))))
        with pytest.raises(SpecError):
            gram_schmidt_oracle(spec, 1)


class TestTruncatedInnerProducts:
    def test_charlier_cross_terms_small(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Charlier(b=F(2))))
        Q1 = orthogonal_polynomial(spec, 1, tau="numeric")
        Q3 = orthogonal_polynomial(spec, 3, tau="numeric")
        assert relative_gram_bound(Q1, Q3, spec, x_max=400) < 1e-9

    def test_tail_estimate_reported(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Charlier(b=F(2))))
        Q1 = orthogonal_polynomial(spec, 1, tau="numeric")
        g = inner_product(Q1, Q1, spec, mode="truncated", x_max=400)
        assert g.mode == "truncated" and g.tail is not None and g.tail < 1e-12

    def test_nonconverging_tail_raises(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(9)), Charlier(b=F(9))))
        Q2 = orthogonal_polynomial(spec, 2)
        with pytest.raises(TruncationError):
            inner_product(Q2, Q2, spec, mode="truncated", x_max=6)

    # nan and inf tolerances never reject a tail; without the gate these
    # three returned a Gram with tail 0.236 and a bound of 0.133 silently
    BAD_TOLS = [float("nan"), float("inf"), -1e-9, 0.0]

    @staticmethod
    def short_charlier():
        spec = FamilySpec(a=(2,), channels=(Charlier(b=F(1)), Charlier(b=F(2))))
        return spec, [orthogonal_polynomial(spec, n, tau="numeric") for n in (1, 2)]

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_inner_product_rejects_tol(self, tol):
        spec, (Q1, Q2) = self.short_charlier()
        with pytest.raises(SpecError, match="tol"):
            inner_product(Q1, Q2, spec, mode="truncated", x_max=3, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_relative_gram_bound_rejects_tol(self, tol):
        spec, (Q1, Q2) = self.short_charlier()
        with pytest.raises(SpecError, match="tol"):
            relative_gram_bound(Q1, Q2, spec, x_max=3, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_converged_rejects_tol(self, tol):
        spec, (Q1, Q2) = self.short_charlier()
        gram = inner_product(Q1, Q2, spec, mode="truncated", x_max=400)
        with pytest.raises(SpecError, match="tol"):
            converged(replace(gram, tol=tol), spec)

    def test_finite_support_is_never_truncated(self):
        # x_max = 1 < N = 3 used to drop the support points 2 and 3
        spec = FamilySpec(a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=3),
                                               Krawtchouk(p=F(2, 5), N=3)))
        Q0, Q1 = (orthogonal_polynomial(spec, n) for n in (0, 1))
        short, full = (inner_product(Q1, Q0, spec, mode="truncated", x_max=x) for x in (1, 400))
        assert short.entries == full.entries
        assert relative_gram_bound(Q1, Q0, spec, x_max=1) == relative_gram_bound(Q1, Q0, spec)
        assert relative_gram_bound(Q1, Q0, spec, x_max=1) < 1e-9

    def test_exact_mode_needs_finite_support(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Charlier(b=F(1))))
        Q1 = orthogonal_polynomial(spec, 1)
        # the exact infinite-support Gram reads a tau probe; the message names verify
        with pytest.raises(SpecError, match="finite support; .*`mvop verify`"):
            inner_product(Q1, Q1, spec, mode="exact")


class TestNormRatio:
    def test_within_family_rational(self):
        spec = kraw_pair(p=F(1, 3), s=F(1, 4), N=5)
        r = norm_ratio(spec, 1, 2, 0, 1)
        n2 = squared_norm(spec.channels[1], 2).rational_value()
        n1 = squared_norm(spec.channels[0], 1).rational_value()
        assert r == n2 / n1

    def test_cross_family_needs_probe(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Charlier(b=F(2))))
        with pytest.raises(ProbeError):
            norm_ratio(spec, 1, 2, 0, 1)
        assert norm_ratio(spec, 1, 2, 0, 1, tau=F(2)) == F(2) * 2 * 4  # 2 c^2/b^1 tau

    def test_degrees_outside_the_ladder_raise(self):
        spec = kraw_pair(N=3)
        assert norm_ratio(spec, 1, 4, 0, 3) == 0  # |p_(N+1)|^2 = 0
        for degrees in ((1, 5, 0, 4), (1, 2, 0, -1)):
            with pytest.raises(SpecError, match="degree"):
                norm_ratio(spec, *degrees)


# Charlier(1)/Charlier(2) reads a tau; a float one used to end in an
# AttributeError or to give float coefficients silently
CHARLIER_PAIR = FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Charlier(b=F(2))))


@pytest.mark.parametrize("call", [
    lambda tau: orthogonal_polynomial(CHARLIER_PAIR, 1, tau=tau),
    lambda tau: norm_ratio(CHARLIER_PAIR, 1, 1, 0, 0, tau=tau),
    lambda tau: extract_recurrence(CHARLIER_PAIR, 1, tau=tau),
], ids=["orthogonal_polynomial", "norm_ratio", "extract_recurrence"])
def test_float_tau_is_rejected(call):
    with pytest.raises(SpecError, match="^tau: "):
        call(0.5)
    assert call("2") == call(F(2))


def test_spec_tau():
    kraw = kraw_pair(N=3)
    assert spec_tau(CHARLIER_PAIR, "3/2") == F(3, 2)
    assert spec_tau(CHARLIER_PAIR, "numeric") == "numeric"
    assert spec_tau(CHARLIER_PAIR, None) is None
    # every mass quotient rational: no tau is read, yet the value is checked
    assert spec_tau(kraw, "numeric", exact=True) is None and spec_tau(kraw, 2) is None
    with pytest.raises(SpecError, match="^--tau: "):
        spec_tau(kraw, "1/0", "--tau")
    with pytest.raises(ProbeError, match="pass --tau a rational"):
        spec_tau(CHARLIER_PAIR, "numeric", "--tau", exact=True)

"""Difference operators, bispectral verification, recurrence extraction."""
from fractions import Fraction as F

import pytest

from mvop import linalg
from mvop.construction import FamilySpec, orthogonal_polynomial
from mvop.errors import SpecError
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner, ScalarOperator
from mvop.operators import (
    DifferenceOperator,
    canonical_operator,
    _channel_operators,
    conjugated_operator,
    extract_recurrence,
)
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.verification import verify_eigenfunction

from construction_oracle import unipotent_factor
from reference_recurrences import (
    charlier_meixner_triple,
    charlier_triple,
    hahn_norm_ratio,
    krawtchouk_triple,
    meixner_equal_c_triple,
    pair_triple_from_recurrences,
)

x = ScalarPoly.x()


def diagonal_operator(spec, force=False):
    """The uncoupled diag(delta_i) companion of ``canonical_operator``,
    in the same normalization (eigenvalues interlaced)."""
    ops = _channel_operators(spec, force)
    return DifferenceOperator(
        F=MatrixPoly.diagonal(tuple(op.f for op in ops)),
        K=MatrixPoly.diagonal(tuple(op.k for op in ops)),
        G=MatrixPoly.diagonal(tuple(-op.g for op in ops)),
    )


def kraw_pair(p=F(1, 2), s=F(1, 2), N=4, a=F(1)):
    return FamilySpec(a=(a,), channels=(Krawtchouk(p=p, N=N), Krawtchouk(p=s, N=N)))


class TestApply:
    def test_identity_input_returns_k_part(self):
        D = DifferenceOperator(
            F=MatrixPoly(((x, 0), (0, x))),
            K=MatrixPoly(((1, x), (0, 2))),
            G=MatrixPoly(((x * x, 0), (0, 1))),
        )
        assert D.apply(MatrixPoly.identity(2)) == D.K

    def test_scalar_channel_action(self):
        op = Charlier(b=F(3)).operator()
        p = x - 3
        assert p.delta() * op.f + p * op.k - p.nabla() * op.g == -p

    def test_krawtchouk_eigen_pair(self):
        spec = kraw_pair()
        D, eig = canonical_operator(spec)
        Q1 = orthogonal_polynomial(spec, 1)
        assert D.apply(Q1) == eig.matrix(1) @ Q1
        assert eig.diagonal(1) == (F(2), F(1))

    def test_dimension_mismatch(self):
        D, _ = canonical_operator(kraw_pair())
        with pytest.raises(ValueError):
            D.apply(MatrixPoly.identity(3))


class TestConjugatedOperator:
    def test_zero_f_g_commutator_form(self):
        A = MatrixPoly(((0, F(2)), (0, 0)))
        k = (ScalarPoly.constant(F(1)), ScalarPoly.constant(F(4)))
        K = MatrixPoly.diagonal(k)
        zero = ScalarPoly()
        D = conjugated_operator(
            (F(2),), [ScalarOperator(f=zero, k=c, g=zero, eigenvalue=None) for c in k])
        assert D.F.is_zero and D.G.is_zero
        assert D.K == K + (A @ K - K @ A).scale(x)

    def test_charlier_forward_part(self):
        b, c, a = F(1), F(2), F(1)
        spec = FamilySpec(a=(a,), channels=(Charlier(b=b), Charlier(b=c)))
        D, _ = canonical_operator(spec)
        want = MatrixPoly(
            (
                (ScalarPoly.constant(-b), ScalarPoly((-a * c, -a * (c - b)))),
                (0, ScalarPoly.constant(-c)),
            )
        )
        assert D.F == want

    def test_krawtchouk_k_part(self):
        p, s, N, a = F(1, 3), F(1, 4), 5, F(2)
        D, _ = canonical_operator(kraw_pair(p=p, s=s, N=N, a=a))
        assert D.K == MatrixPoly(((1, -a * N * s), (0, 0)))

    def test_krawtchouk_full_display(self):
        p, s, N, a = F(1, 3), F(1, 4), 5, F(2)
        D, _ = canonical_operator(kraw_pair(p=p, s=s, N=N, a=a))
        F_want = MatrixPoly(
            (
                (ScalarPoly((-p * N, p)), (ScalarPoly((-s, p - s)) * a) * ScalarPoly((N, -1))),
                (0, ScalarPoly((-s * N, s))),
            )
        )
        # backward part displayed as -x(1-p) etc; stored with opposite sign
        G_want = -MatrixPoly(
            (
                (ScalarPoly((0, -(1 - p))), ScalarPoly((0, s - 1, p - s)) * (-a)),
                (0, ScalarPoly((0, -(1 - s)))),
            )
        )
        assert D.F == F_want
        assert D.G == G_want

    def test_hahn_k_part_under_condition(self):
        al, be, al2, be2, N, a = F(1), F(1), F(0), F(0), 3, F(2)
        spec = FamilySpec(
            a=(a,), channels=(Hahn(alpha=al, beta=be, N=N), Hahn(alpha=al2, beta=be2, N=N))
        )
        D, _ = canonical_operator(spec)
        want_12 = ScalarPoly.constant(-a * N * (al2 + 1)) + ScalarPoly(
            (0, -a * (al - al2 + be - be2 - 2))
        )
        assert D.K.entry(0, 1) == want_12
        assert D.K.entry(1, 1) == ScalarPoly.constant(-(al + be))

    def test_conjugation_consistency(self):
        # applying the diagonal operator to Q U matches applying the
        # conjugated operator to Q, entry for entry
        for spec in (
            kraw_pair(p=F(1, 3), s=F(1, 4), N=5, a=F(2)),
            FamilySpec(a=(F(1),), channels=(Meixner(beta=F(1), c=F(1, 3)), Meixner(beta=F(2), c=F(1, 2)))),
        ):
            D, eig = canonical_operator(spec)
            D_diag = diagonal_operator(spec)
            U = unipotent_factor(spec)
            top = spec.support_N if spec.support_N is not None else 6
            for n in range(min(top, 6) + 1):
                Q = orthogonal_polynomial(spec, n, tau=F(2))
                lhs = D_diag.apply(Q @ U)
                rhs = eig.matrix(n) @ (Q @ U)
                assert lhs == rhs
                assert D.apply(Q) == eig.matrix(n) @ Q


class TestCanonicalOperator:
    def test_interlacing_eigen_condition(self):
        specs = (
            kraw_pair(p=F(1, 3), s=F(1, 4), N=12),
            FamilySpec(a=(1,), channels=(Charlier(b=F(2)), Meixner(beta=F(3), c=F(1, 2)))),
            FamilySpec(a=(1,), channels=(Hahn(alpha=F(1), beta=F(1), N=10), Hahn(alpha=F(0), beta=F(0), N=10))),
        )
        for spec in specs:
            _, eig = canonical_operator(spec)
            for n in range(11):
                diag = eig.diagonal(n)
                diag_next = eig.diagonal(n + 1)
                for i in range(0, spec.m, 2):  # odd channels, 1-based
                    for j in range(1, spec.m, 2):
                        assert diag[i] == diag_next[j]

    def test_charlier_meixner_eigenvalues(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(2)), Meixner(beta=F(3), c=F(1, 2))))
        _, eig = canonical_operator(spec)
        assert all(eig.diagonal(n) == (F(n + 1), F(n)) for n in range(8))

    def test_hahn_eigenvalues(self):
        spec = FamilySpec(
            a=(1,), channels=(Hahn(alpha=F(1), beta=F(1), N=3), Hahn(alpha=F(0), beta=F(0), N=3))
        )
        _, eig = canonical_operator(spec)
        for n in range(4):
            assert eig.diagonal(n) == (F(n) * (n + 3), F(n - 1) * (n + 2))

    def test_hahn_condition_gate_names_channels(self):
        spec = FamilySpec(
            a=(1,), channels=(Hahn(alpha=F(1), beta=F(1), N=3), Hahn(alpha=F(1), beta=F(1), N=3))
        )
        with pytest.raises(SpecError, match=r"channels \(1, 2\)"):
            canonical_operator(spec)

    def test_mixed_hahn_rejected(self):
        spec = FamilySpec(a=(1,), channels=(Hahn(alpha=F(1), beta=F(1), N=3), Krawtchouk(p=F(1, 2), N=3)))
        with pytest.raises(SpecError, match="mixed"):
            canonical_operator(spec)


class TestVerifyEigenfunction:
    def test_krawtchouk_passes(self):
        report = verify_eigenfunction(kraw_pair(), n_max=4)
        assert report.all_passed
        assert len(report.checks) == 25  # 5 coupling probes x 5 degrees

    def test_meixner_with_probes_passes(self):
        spec = FamilySpec(
            a=(1,), channels=(Meixner(beta=F(1), c=F(1, 3)), Meixner(beta=F(5, 2), c=F(1, 2)))
        )
        report = verify_eigenfunction(spec, n_max=6)
        assert report.all_passed
        assert len(report.tau_probes) == 3

    def test_violated_hahn_fails_as_negative_control(self):
        spec = FamilySpec(
            a=(1,), channels=(Hahn(alpha=F(1), beta=F(1), N=3), Hahn(alpha=F(1), beta=F(1), N=3))
        )
        report = verify_eigenfunction(spec, n_max=3, force=True)
        assert not report.all_passed
        assert any(c.n >= 1 and not c.passed for c in report.checks)
        assert all(c.detail for c in report.failures)

    def test_perturbed_polynomials_fail(self):
        report = verify_eigenfunction(kraw_pair(), n_max=2, perturb=True)
        assert not report.all_passed


class TestRecurrenceExtraction:
    def test_scalar_charlier_coefficients(self):
        b = F(2)
        b1, c1 = Charlier(b=b).recurrence_bc(1)
        assert (b1, c1) == (3, 2)
        # same numbers surface on the diagonal of the uncoupled limit of the
        # matrix triple: check the closed-form display at the true quotient
        spec = FamilySpec(a=(1,), channels=(Charlier(b=b), Charlier(b=b)))
        t = extract_recurrence(spec, 1)
        A, B, C = charlier_triple(1, b, b, F(1), F(1))
        assert (t.A, t.B, t.C) == (A, B, C)

    def test_residual_closure_all_degrees_including_top(self):
        spec = kraw_pair(p=F(1, 3), s=F(1, 4), N=5, a=F(2))
        for n in range(6):
            t = extract_recurrence(spec, n)
            assert t.A[0][0] == 1 or n == 5

    def test_krawtchouk_a_entry_one(self):
        spec = kraw_pair(p=F(1, 3), s=F(1, 4), N=6)
        for n in range(6):
            t = extract_recurrence(spec, n)
            assert t.A[0][0] == 1

    def test_charlier_c_entry(self):
        spec = FamilySpec(a=(1,), channels=(Charlier(b=F(1)), Charlier(b=F(2))))
        for n in range(1, 5):
            t = extract_recurrence(spec, n, tau=F(3))
            assert t.C[1][1] == 2 * n

    def test_degree_zero_has_zero_c(self):
        t = extract_recurrence(kraw_pair(), 0)
        assert linalg.is_zero_matrix(t.C)

    def test_residual_is_checked(self):
        spec = kraw_pair()
        for n in range(5):
            t = extract_recurrence(spec, n)
            Q_n = orthogonal_polynomial(spec, n)
            Q_prev = orthogonal_polynomial(spec, n - 1) if n else MatrixPoly.zeros(2)
            if n < 4:
                Q_next = orthogonal_polynomial(spec, n + 1)
            else:
                from mvop.construction import closure_polynomial

                Q_next = closure_polynomial(spec)
            reco = (
                MatrixPoly(t.A) @ Q_next
                + MatrixPoly(t.B) @ Q_n
                + MatrixPoly(t.C) @ Q_prev
            )
            assert reco == Q_n.scale(x)


class TestClosedFormTriples:
    def test_krawtchouk(self):
        p, s, N = F(1, 3), F(1, 4), 5
        for a in (F(1), F(2), F(1, 2), F(-1)):
            spec = kraw_pair(p=p, s=s, N=N, a=a)
            for n in range(1, 5):
                t = extract_recurrence(spec, n)
                assert (t.A, t.B, t.C) == krawtchouk_triple(n, p, s, N, a)

    def test_charlier(self):
        b, c = F(1), F(2)
        for a in (F(1), F(2), F(-1)):
            spec = FamilySpec(a=(a,), channels=(Charlier(b=b), Charlier(b=c)))
            for tau in (F(1), F(2), F(3)):
                for n in range(1, 5):
                    t = extract_recurrence(spec, n, tau=tau)
                    assert (t.A, t.B, t.C) == charlier_triple(n, b, c, a, tau)

    def test_meixner_equal_c_formal_probe(self):
        beta, alpha, c = F(1), F(5, 2), F(1, 3)
        for a in (F(1), F(2)):
            spec = FamilySpec(a=(a,), channels=(Meixner(beta=beta, c=c), Meixner(beta=alpha, c=c)))
            for tau in (F(1), F(2), F(3)):
                for n in range(1, 5):
                    t = extract_recurrence(spec, n, tau=tau)
                    assert (t.A, t.B, t.C) == meixner_equal_c_triple(n, beta, alpha, c, a, tau)

    def test_meixner_equal_c_forced_rational_quotient(self):
        beta, alpha, c = F(1), F(2), F(1, 3)
        tau_true = (1 - c) ** int(beta - alpha)
        spec = FamilySpec(a=(1,), channels=(Meixner(beta=beta, c=c), Meixner(beta=alpha, c=c)))
        for n in range(1, 5):
            t = extract_recurrence(spec, n)
            assert (t.A, t.B, t.C) == meixner_equal_c_triple(n, beta, alpha, c, F(1), tau_true)

    def test_charlier_meixner(self):
        c, beta, b = F(2), F(3), F(1, 2)
        for a in (F(1), F(2)):
            spec = FamilySpec(a=(a,), channels=(Charlier(b=c), Meixner(beta=beta, c=b)))
            for tau in (F(1), F(2), F(3)):
                for n in range(1, 5):
                    t = extract_recurrence(spec, n, tau=tau)
                    assert (t.A, t.B, t.C) == charlier_meixner_triple(n, c, beta, b, a, tau)

    def test_hahn_coupling_ratio_display(self):
        from mvop.construction import norm_ratio

        for (al, be, al2, be2, N) in (
            (F(1), F(1), F(0), F(0), 3),
            (F(1, 2), F(3, 2), F(1, 2), F(-1, 2), 4),
        ):
            spec = FamilySpec(
                a=(1,), channels=(Hahn(alpha=al, beta=be, N=N), Hahn(alpha=al2, beta=be2, N=N))
            )
            for n in range(1, N + 1):
                assert norm_ratio(spec, 1, n, 0, n - 1) == hahn_norm_ratio(n, al, be, al2, be2, N)

    def test_general_triple_oracle_all_families(self):
        # the hand-solved coefficient-matching closed form is an independent
        # oracle for the extraction path, for every pair family
        from mvop.construction import norm_ratio

        cases = (
            (kraw_pair(p=F(1, 3), s=F(1, 4), N=6, a=F(2)), None),
            (FamilySpec(a=(F(2),), channels=(Charlier(b=F(1)), Charlier(b=F(2)))), F(3)),
            (FamilySpec(a=(F(1),), channels=(Meixner(beta=F(1), c=F(1, 3)), Meixner(beta=F(5, 2), c=F(1, 2)))), F(2)),
            (FamilySpec(a=(F(1),), channels=(Charlier(b=F(2)), Meixner(beta=F(3), c=F(1, 2)))), F(2)),
            (FamilySpec(a=(F(3),), channels=(Hahn(alpha=F(1), beta=F(1), N=5), Hahn(alpha=F(1, 2), beta=F(1, 2), N=5))), None),
        )
        for spec, tau in cases:
            a = spec.a[0]

            def theta(k, spec=spec, tau=tau):
                if k == 0:
                    return F(0)
                return norm_ratio(spec, 1, k, 0, k - 1, tau=tau)

            for n in range(1, 5):
                t = extract_recurrence(spec, n, tau=tau)
                want = pair_triple_from_recurrences(
                    n, spec.channels[0].recurrence_bc, spec.channels[1].recurrence_bc, theta, a
                )
                assert (t.A, t.B, t.C) == want, (spec, n)

"""Limit transitions, continuous targets, and their differential equations."""
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvop.errors import SpecError
from mvop.families import Hermite, Laguerre, monic_polynomial
from mvop.limits import (
    ConvergenceReport,
    TransitionSpec,
    TransitionStep,
    continuous_target,
    run_transition,
    transition_spec_from_json,
)
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.serialize import json_dumps, matpoly_to_json

import construction_oracle as oracle
from limit_oracle import hermite_limit_agreement, ode_residual, transition_errors

x = ScalarPoly.x()

COUPLINGS = (F(1), F(-2), F(1, 3), F(7, 5))
ALPHAS = (F(0), F(1, 2), F(3), F(-1, 3))


def coefficient_types(P):
    return [[[type(c) for c in e.coeffs] for e in row] for row in P.entries]


class TestContinuousTargets:
    def test_hermite_ladder(self):
        assert monic_polynomial(Hermite(), 0) == ScalarPoly.one()
        assert monic_polynomial(Hermite(), 1) == x
        assert monic_polynomial(Hermite(), 2) == x * x - F(1, 2)
        assert monic_polynomial(Hermite(), 3) == x * x * x - x * F(3, 2)

    def test_laguerre_ladder(self):
        a = F(1, 2)
        assert monic_polynomial(Laguerre(a), 1) == x - (a + 1)
        l2 = monic_polynomial(Laguerre(a), 2)
        assert l2.degree == 2 and l2.leading == 1

    @pytest.mark.parametrize("n", range(8))
    def test_monic_ladders_equal_the_recurrence_loops(self, n):
        pairs = [(monic_polynomial(Hermite(), n), oracle.monic_hermite(n))]
        pairs += [(monic_polynomial(Laguerre(al), n), oracle.monic_laguerre(al, n)) for al in ALPHAS]
        for new, old in pairs:
            assert repr(new) == repr(old)
            assert [type(c) for c in new.coeffs] == [type(c) for c in old.coeffs]

    @pytest.mark.parametrize("n", range(8))
    @pytest.mark.parametrize("a", COUPLINGS)
    def test_targets_equal_the_hand_written_forms(self, n, a):
        cases = [("hermite", None)] + [("laguerre", alpha) for alpha in ALPHAS]
        for kind, alpha in cases:
            new = continuous_target(kind, n, a, alpha=alpha)
            old = oracle.continuous_target(kind, n, a, alpha=alpha)
            assert repr(new) == repr(old)
            assert coefficient_types(new) == coefficient_types(old)
            assert json_dumps(matpoly_to_json(new)) == json_dumps(matpoly_to_json(old))

    def test_laguerre_needs_alpha_above_minus_one(self):
        with pytest.raises(SpecError, match="alpha > -1"):
            continuous_target("laguerre", 1, F(1), alpha=F(-1))

    def test_hermite_degree_zero_is_identity(self):
        assert continuous_target("hermite", 0, F(1)) == MatrixPoly.identity(2)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("a", (F(1), F(2), F(-1), F(1, 2)))
    def test_hermite_ode_residual_zero(self, n, a):
        assert ode_residual("hermite", n, a).is_zero

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("alpha", (F(1, 2), F(2), F(0)))
    def test_laguerre_ode_residual_zero(self, n, alpha):
        assert ode_residual("laguerre", n, F(1), alpha=alpha).is_zero

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            continuous_target("jacobi", 1, F(1))


def spec_of(name, n, params, ladder, a=F(1)):
    return TransitionSpec(name=name, n=n, a=a, ladder=ladder, params=tuple(params.items()))


LADDERS = {
    "krawtchouk->charlier": spec_of("krawtchouk->charlier", 2, {"b": F(2)}, (100, 1000, 10000)),
    "krawtchouk->hermite": spec_of("krawtchouk->hermite", 2, {"p": F(1, 3)}, (100, 1000, 10000)),
    "charlier->hermite": spec_of("charlier->hermite", 1, {}, (1000, 100000, 10**7)),
    "meixner->charlier": spec_of("meixner->charlier", 1, {"b": F(2)}, (100, 1000, 10000)),
    "meixner->laguerre": spec_of(
        "meixner->laguerre", 2, {"alpha": F(1, 2)}, (F(9, 10), F(99, 100), F(999, 1000))
    ),
    "hahn->meixner": spec_of("hahn->meixner", 1, {"beta": F(1), "c": F(1, 2)}, (125, 500, 2000)),
    "hahn->krawtchouk": spec_of("hahn->krawtchouk", 1, {"p": F(1, 2), "N": F(4)}, (100, 1000, 10000)),
}


class TestTransitions:
    @pytest.mark.parametrize("name", sorted(LADDERS))
    def test_strictly_decreasing(self, name):
        report = run_transition(LADDERS[name])
        errs = [s.max_abs_error for s in report.steps]
        assert all(b < a for a, b in zip(errs, errs[1:])), (name, errs)

    def test_krawtchouk_to_charlier_final_error(self):
        report = run_transition(LADDERS["krawtchouk->charlier"])
        assert report.final_rel_error < 1e-2

    def test_meixner_to_charlier_target_shape(self):
        t = LADDERS["meixner->charlier"]
        report = run_transition(t)
        # target diagonal entries are the degree-one centered polynomial x - b
        assert report.target.entry(0, 0) == x - 2
        assert report.final_rel_error < 1e-2

    def test_hahn_to_krawtchouk_coupling_ratio_limit(self):
        report = run_transition(LADDERS["hahn->krawtchouk"])
        mus = [dict(s.extras)["mu_n"] for s in report.steps]
        limit = dict(report.steps[0].extras)["mu_limit"]
        assert limit == 1.0  # n (N+1-n) p (1-p) at n=1, N=4, p=1/2
        gaps = [abs(mu - limit) for mu in mus]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 2e-3

    def test_hermite_routes_share_target(self):
        ag = hermite_limit_agreement(n=1, a=F(1))
        assert ag.agreement < 1e-6
        assert ag.consistent
        ag2 = hermite_limit_agreement(n=2, a=F(1))
        assert ag2.agreement < 1e-6

    def test_symmetric_degree_one_route_is_exact(self):
        # p = 1/2, n = 1 lands on the target at every ladder value
        t = spec_of("krawtchouk->hermite", 1, {"p": F(1, 2)}, (100, 1000))
        report = run_transition(t)
        assert all(s.max_abs_error < 1e-12 for s in report.steps)

    def test_degree_zero_routes_immediately_accurate(self):
        for t in (
            spec_of("krawtchouk->hermite", 0, {"p": F(1, 3)}, (100, 1000)),
            spec_of("charlier->hermite", 0, {}, (1000, 100000)),
        ):
            report = run_transition(t)
            assert report.steps[0].max_abs_error < 1e-6


class TestLadderValidation:
    def test_single_step_rejected(self):
        with pytest.raises(SpecError, match="at least two steps"):
            spec_of("krawtchouk->charlier", 2, {"b": F(2)}, (100,))

    def test_non_monotone_rejected(self):
        with pytest.raises(SpecError, match="strictly increasing"):
            spec_of("krawtchouk->charlier", 2, {"b": F(2)}, (1000, 100))

    def test_inadmissible_step_rejected(self):
        with pytest.raises(SpecError, match="inadmissible"):
            spec_of("krawtchouk->charlier", 1, {"b": F(200)}, (100, 1000))

    def test_laguerre_ladder_range(self):
        with pytest.raises(SpecError, match="0 < c < 1"):
            spec_of("meixner->laguerre", 1, {"alpha": F(1)}, (F(9, 10), F(3, 2)))

    def test_hahn_ladder_cap(self):
        with pytest.raises(SpecError, match="capped"):
            spec_of("hahn->meixner", 1, {"beta": F(1), "c": F(1, 2)}, (500, 5000))

    def test_fractional_N_rejected(self):
        with pytest.raises(SpecError, match=r"N = 9/2 in params must be an integer"):
            spec_of("hahn->krawtchouk", 1, {"p": F(1, 2), "N": F(9, 2)}, (100, 1000))

    def test_missing_param_rejected(self):
        with pytest.raises(SpecError, match=r"takes params \['beta', 'c'\], got \['beta'\]"):
            spec_of("hahn->meixner", 1, {"beta": F(1)}, (125, 500))

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError, match=r"takes params \['b'\], got \['b', 'bogus'\]"):
            spec_of("krawtchouk->charlier", 2, {"b": F(2), "bogus": F(7)}, (100, 1000))

    @pytest.mark.parametrize("name, params, ladder", [
        ("krawtchouk->charlier", {"b": F(2)}, (3, 100)),
        ("hahn->krawtchouk", {"p": F(1, 2), "N": F(3)}, (100, 1000)),
    ])
    def test_degree_above_source_N_names_n(self, name, params, ladder):
        with pytest.raises(SpecError, match=r"degree n = 5 exceeds .*N = 3"):
            spec_of(name, 5, params, ladder)

    def test_unknown_name(self):
        with pytest.raises(SpecError, match="unknown transition"):
            spec_of("hermite->laguerre", 1, {}, (1, 2))


def test_transition_json_roundtrip():
    t = LADDERS["hahn->krawtchouk"]
    data = t.to_json()
    assert transition_spec_from_json(data) == t
    assert data["params"] == {"N": "4", "p": "1/2"}


def report_of(errors):
    steps = tuple(TransitionStep(ladder_value=F(10 ** k), max_abs_error=e, rel_error=e)
                  for k, e in enumerate(errors, 1))
    return ConvergenceReport(name="krawtchouk->charlier", n=0, a=F(1), steps=steps,
                             target=MatrixPoly.identity(2))


@pytest.mark.parametrize("errors, monotone", [
    ((1e-3, 1e-5, 1e-7), True),
    ((1e-3, 1e-2, 1e-7), False),  # rising
    ((1e-3, 1e-3, 1e-7), False),  # equal and nonzero
    ((2.2e-16, 4.4e-16), False),  # float noise on an exact route still rises
    ((0.0, 0.0, 0.0), True),  # on the target at every step
    ((1e-3, 0.0, 0.0), True),
    ((0.0, 1e-16), False),
])
def test_monotone(errors, monotone):
    assert report_of(errors).monotone is monotone


# at degree 0 these routes land on the target at every step, error 0.0
DEGREE_ZERO = {
    "krawtchouk->charlier": {"b": F(2)},
    "meixner->charlier": {"b": F(2)},
    "charlier->hermite": {},
    "krawtchouk->hermite": {"p": F(1, 3)},
}


@pytest.mark.parametrize("name", sorted(DEGREE_ZERO))
def test_degree_zero_ladder_is_monotone(name):
    ladder = LADDERS[name].ladder
    report = run_transition(spec_of(name, 0, DEGREE_ZERO[name], ladder, a=F(2)))
    assert [s.max_abs_error for s in report.steps] == [0.0] * len(ladder)
    assert report.monotone


def _rationals(lo, hi, max_den=12):
    """Rationals in the open interval (lo, hi)."""
    return st.fractions(min_value=lo, max_value=hi, max_denominator=max_den).filter(
        lambda v: lo < v < hi)


@st.composite
def rescaled_transitions(draw):
    """A krawtchouk->hermite, charlier->hermite or meixner->laguerre study
    at degree 0..4 and a signed rational coupling.  The Hermite ladders
    take a step with a perfect-square d (d = 2 N p (1 - p), resp. 2 b), the
    Krawtchouk one also N = n + 1 when drawn."""
    name = draw(st.sampled_from(("krawtchouk->hermite", "charlier->hermite",
                                 "meixner->laguerre")))
    n = draw(st.integers(0, 4))
    a = draw(_rationals(F(-7), F(7)).filter(bool))
    steps = draw(st.integers(1, 3))
    if name == "krawtchouk->hermite":
        u = draw(st.integers(1, 6))
        p = F(u, draw(st.integers(u + 1, 9)))
        # N = 2 u (v - u) k^2 makes d = (2 u (v - u) k / v)^2 for p = u / v
        square = 2 * p.numerator * (p.denominator - p.numerator) * draw(st.integers(2, 4)) ** 2
        ladder = {square} | set(draw(st.lists(st.integers(n + 1, 5000), min_size=steps,
                                              max_size=steps)))
        if draw(st.booleans()):
            ladder.add(n + 1)
        ladder = sorted(ladder)  # square >= 8 > n
        if len(ladder) < 2:
            ladder.append(ladder[-1] + 7)
        return spec_of(name, n, {"p": p}, tuple(ladder), a=a)
    if name == "charlier->hermite":
        root = draw(_rationals(F(0), F(50)))
        ladder = {root * root / 2} | set(draw(st.lists(_rationals(F(0), F(10**6), 7),
                                                       min_size=steps, max_size=steps)))
        return spec_of(name, n, {}, tuple(sorted(ladder)) + (F(10**7),), a=a)
    alpha = draw(_rationals(F(-1), F(6)))
    ladder = set(draw(st.lists(_rationals(F(0), F(1), 1000), min_size=steps + 1,
                               max_size=steps + 1, unique=True)))
    return spec_of(name, n, {"alpha": alpha}, tuple(sorted(ladder)), a=a)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(t=rescaled_transitions())
def test_rescaled_sources_equal_the_polynomial_algebra(t):
    """Every step's errors are the floats the polynomial algebra in the
    quadratic extension gives (``limit_oracle.transition_errors``), bit for
    bit."""
    report = run_transition(t)
    expected = transition_errors(t)
    assert [(s.max_abs_error, s.rel_error) for s in report.steps] == expected
    assert repr([(s.max_abs_error, s.rel_error) for s in report.steps]) == repr(expected)

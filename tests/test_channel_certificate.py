"""The channel certificate of ``verify``: each Q_n U read as one multiple of
one ladder polynomial per entry, the three suites read off those terms, the
trust identities they rest on, and the dense path a chain falls back to.

The dense path is reached by making ``verification.channel_terms`` decline
every chain, so that each suite expands its Grams on the ladder bases,
computes its residuals on the tables' coefficients and matches and closes
its recurrences, as before the certificate."""
import contextlib
import functools
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings, strategies as st

from mvop import construction, linalg, operators, verification
from mvop.construction import (
    FamilySpec,
    channel_terms,
    integer_table,
    norm_ratio,
    orthogonal_polynomial,
    orthogonal_table,
    staggered_positions,
)
from mvop.errors import ProbeError, SpecError
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner
from mvop.operators import (
    DifferenceOperator,
    canonical_operator,
    certify_operator,
    coefficients_close,
    match_recurrence,
)
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.serialize import json_dumps

RATIONALS = (F(1), F(2), F(-1), F(1, 2), F(-3, 2), F(5, 3), F(-2, 7), F(3), F(-1, 4))
KRAW_P = (F(1, 3), F(2, 5), F(1, 4), F(3, 4), F(5, 7))
# alpha + beta = 4 on odd channels and 2 on even ones: the Hahn gate holds
HAHN_ODD = ((F(3, 2), F(5, 2)), (F(2), F(2)), (F(1), F(3)))
HAHN_EVEN = ((F(1, 2), F(3, 2)), (F(1), F(1)))
# the alpha, beta < -N branch as offsets below -N, sums two apart and never
# an integer, so no recurrence denominator vanishes
HAHN_NEGATIVE_ODD = ((F(-4, 3), F(-7, 3)), (F(-5, 3), F(-2)))
HAHN_NEGATIVE_EVEN = ((F(-7, 3), F(-10, 3)), (F(-8, 3), F(-3)))
CHARLIER_B = (F(1), F(2), F(3, 2))
MEIXNER = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(1), F(1, 4)))

# the functions only the dense path calls
DENSE = ("_eigenfunction_residual", "channel_table", "_ladder_columns",
         "match_recurrence", "coefficients_close")
TAUS = (F(1), F(2), F(1, 3), F(5, 2), F(-1, 2))


@st.composite
def specs(draw):
    """m = 2..6 channels with distinct couplings: Krawtchouk, Hahn on either
    branch, or Charlier and Meixner."""
    m = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("krawtchouk", "hahn", "hahn negative", "charlier/meixner")))
    N = draw(st.integers(1, 3))
    if kind == "krawtchouk":
        channels = [Krawtchouk(draw(st.sampled_from(KRAW_P)), N) for _ in range(m)]
    elif kind == "hahn":
        channels = [Hahn(*draw(st.sampled_from(HAHN_ODD if i % 2 == 0 else HAHN_EVEN)), N=N)
                    for i in range(m)]
    elif kind == "hahn negative":
        channels = [Hahn(*(v - N for v in draw(st.sampled_from(
            HAHN_NEGATIVE_ODD if i % 2 == 0 else HAHN_NEGATIVE_EVEN))), N=N) for i in range(m)]
    else:
        channels = [Charlier(draw(st.sampled_from(CHARLIER_B))) if draw(st.booleans())
                    else Meixner(*draw(st.sampled_from(MEIXNER))) for _ in range(m)]
    a = draw(st.lists(st.sampled_from(RATIONALS), min_size=m - 1, max_size=m - 1, unique=True))
    return FamilySpec(a=tuple(a), channels=tuple(channels))


def probe_lists(values, most):
    return st.none() | st.lists(st.sampled_from(values), min_size=1, max_size=most, unique=True)


@contextlib.contextmanager
def counting_dense():
    """Count the calls of the dense path's functions, wherever bound."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in DENSE:
            for module in (construction, operators, verification):
                if hasattr(module, name):
                    real = getattr(module, name)
                    mp.setattr(module, name,
                               lambda *a, _real=real, _name=name, **k: calls.append(_name)
                               or _real(*a, **k))
        yield calls


@contextlib.contextmanager
def dense_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "channel_terms", lambda spec, tables: None)
        yield


def outcome(run):
    """The report's JSON bytes, or the error the run raised."""
    try:
        return json_dumps(run().to_json())
    except (ProbeError, SpecError) as err:
        return type(err), str(err)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), n_max=st.integers(0, 3), a_probes=probe_lists(RATIONALS, 3),
       tau_probes=probe_lists((F(1), F(2), F(1, 3), F(5, 2)), 2), perturb=st.booleans())
def test_certificate_report_equals_dense_report(spec, n_max, a_probes, tau_probes, perturb):
    """The report from the channel certificate is byte for byte the dense
    path's, plain and perturbed; a plain spec takes no dense step."""
    def run():
        return verification.run_verification(spec, n_max=n_max, a_probes=a_probes,
                                             tau_probes=tau_probes, perturb=perturb)

    with counting_dense() as calls:
        got = outcome(run)
    with dense_path():
        want = outcome(run)
    assert got == want
    if not perturb and isinstance(got, str):
        assert calls == []


PASSING = {
    "krawtchouk m=2": FamilySpec(a=(F(2),), channels=(Krawtchouk(F(1, 3), 3),
                                                     Krawtchouk(F(3, 4), 3))),
    "krawtchouk m=6": FamilySpec(a=(F(2), F(1, 3), F(5), F(1, 4), F(-7)), channels=tuple(
        Krawtchouk(p, 4) for p in (F(1, 3), F(2, 5), F(1, 4), F(4, 5), F(5, 7), F(5, 8)))),
    "hahn m=3": FamilySpec(a=(F(2), F(-1, 3)), channels=(
        Hahn(F(3, 2), F(5, 2), 5), Hahn(F(1, 2), F(3, 2), 5), Hahn(F(5, 2), F(3, 2), 5))),
    "charlier/meixner/charlier": FamilySpec(a=(F(2), F(-1, 3)), channels=(
        Charlier(F(2)), Meixner(F(1, 2), F(1, 2)), Charlier(F(1)))),
}


@pytest.mark.parametrize("name", sorted(PASSING))
def test_passing_spec_takes_no_dense_step(name):
    """No expansion on the ladder bases, no residual, and no recurrence
    matched or closed: each chain is certified from its channel terms, so a
    trust identity, an eigenvalue, a gamma or a theta read wrongly shows
    here even where the dense verdict repairs the report."""
    with counting_dense() as calls:
        report = verification.run_verification(PASSING[name], n_max=3)
    assert report.all_passed
    assert calls == []


def test_orthogonality_forms_the_terms_it_is_not_given():
    """``verify_orthogonality`` called without channel terms forms them
    itself: the chain alone chooses the path."""
    spec = PASSING["krawtchouk m=2"]
    tables = [orthogonal_table(spec, n) for n in range(4)]
    with counting_dense() as calls:
        checks = verification.verify_orthogonality(
            spec, tables, spec.a[0], None, basis=construction.gram_basis(spec, 4))
    assert len(checks) == 6 and all(c.passed for c in checks)
    assert calls == []


def test_broken_trust_identity_takes_dense_path(monkeypatch):
    """A failed trust identity sends every chain's eigenfunction suite to
    the dense path, whose verdict is reported."""
    spec = PASSING["krawtchouk m=2"]
    want = json_dumps(verification.run_verification(spec).to_json())
    for name in ("_conjugates", "_ladder_eigen"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, name, lambda *args: False)
            with counting_dense() as calls:
                got = json_dumps(verification.run_verification(spec).to_json())
        assert got == want
        assert "_eigenfunction_residual" in calls


@pytest.mark.parametrize("name", sorted(PASSING))
def test_trust_identities_hold_and_detect_a_change(name):
    spec = verification._probe(PASSING[name], 1)
    D, eig = canonical_operator(spec)
    top = spec.support_N if spec.is_finite else 3
    lam = [[fn(j) for j in range(top + 2)] for fn in eig.channel_eigenvalues]
    assert certify_operator(spec, *operators.integer_parts(D), lam)
    # one eigenvalue off
    wrong = [row[:-1] + [row[-1] + 1] for row in lam]
    assert not certify_operator(spec, *operators.integer_parts(D), wrong)
    # an x added to one pattern entry of F, or one entry off the pattern
    i, j = construction.staggered_positions(spec.m)[-1]
    for position in ((i, j), (j, i)):
        F_ = [list(row) for row in D.F.entries]
        F_[position[0]][position[1]] = F_[position[0]][position[1]] + ScalarPoly.x()
        bent = DifferenceOperator(F=MatrixPoly(F_), K=D.K, G=D.G)
        assert not operators._conjugates(operators.integer_parts(bent)[0])
        assert not certify_operator(spec, *operators.integer_parts(bent), lam)


def test_terms_are_single_ladder_multiples():
    """Every nonzero entry of Q_n U is c p_j^(r) with j in n - 1..n + 1, and
    a perturbed Q_n has none."""
    spec = PASSING["hahn m=3"]
    tables = [orthogonal_table(spec, n) for n in range(spec.support_N + 1)]
    terms = channel_terms(spec, tables)
    assert terms is not None
    for n, rows in enumerate(terms.chain):
        degrees = {term[0] for row in rows for term in row if term is not None}
        assert degrees <= {n - 1, n, n + 1}
    bumped = verification._perturbed_tables(tables, True)
    assert channel_terms(spec, bumped[:1]) is not None
    assert channel_terms(spec, bumped) is None


def test_wrong_norm_ratio_fails_orthogonality_like_the_dense_path(monkeypatch):
    """Q_n built with theta doubled is still a chain of single ladder
    multiples, but its Grams do not vanish: the certificate must fail the
    chain, and the report is the dense path's."""
    real = construction._norm_quotient.__wrapped__

    def doubled(num, n_num, den, n_den):
        coefficient, quotient = real(num, n_num, den, n_den)
        return 2 * coefficient, quotient

    construction._norm_quotient.cache_clear()
    monkeypatch.setattr(construction, "_norm_quotient", doubled)
    monkeypatch.setattr(construction, "chain_context", fresh_contexts())
    for spec in (PASSING["krawtchouk m=2"], PASSING["charlier/meixner/charlier"]):
        tables = [orthogonal_table(spec, n, 2) for n in range(3)]
        assert channel_terms(spec, tables) is not None
        got = outcome(lambda: verification.run_verification(spec, n_max=2))
        with dense_path():
            want = outcome(lambda: verification.run_verification(spec, n_max=2))
        assert got == want
        assert '"check": "orthogonality"' in got and '"pass": false' in got


def fresh_contexts():
    """A ``construction.chain_context`` of its own, which grows its norm
    ratios through whatever ``construction._norm_quotient`` is patched in,
    and which the real one's cache never sees."""
    return functools.lru_cache(maxsize=None)(construction.ChainContext)


@contextlib.contextmanager
def theta_one_degree_off():
    """Every Q_n built with theta_n read one degree up, theta_(n+1) in place
    of theta_n in ``_integer_form``: each Q_n U is still
    P_n + A P_(n+1) - theta P_(n-1), so the chain conforms, but its ratios
    theta_n / theta_(n-1) are gamma_(n+1) / gamma_n, not gamma_n / gamma_(n-1)."""
    real = construction._norm_quotient

    def shifted(num, n_num, den, n_den):
        if n_num == n_den + 1:
            return real(num, n_num + 1, den, n_den + 1)
        return real(num, n_num, den, n_den)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "_norm_quotient", shifted)
        mp.setattr(construction, "chain_context", fresh_contexts())
        yield


def singular_at(k):
    return ProbeError(f"the lead of Q_{k} is singular")


def raised(run):
    """What ``run`` returns, or the message of the ProbeError it raises."""
    try:
        return run()
    except ProbeError as err:
        return str(err)


def rational_matrix(m, entries):
    out = [[F(0)] * m for _ in range(m)]
    for (i, j), v in entries:
        out[i][j] = v
    return out


def plus(*mats):
    return [[sum(vs, F(0)) for vs in zip(*rows)] for rows in zip(*mats)]


@pytest.mark.parametrize("bent", [False, True], ids=["plain", "theta one degree off"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), top=st.integers(0, 3), tau=st.sampled_from(TAUS))
# leads made singular by the tau probe (Q_1) and by the coupling (Q_1)
@example(spec=FamilySpec(a=(F(1),), channels=(Charlier(F(1)), Charlier(F(2)))),
         top=2, tau=F(-1, 2))
@example(spec=FamilySpec(a=(F(1),), channels=(Hahn(F(-7, 2), F(-11, 2), 3),
                                              Hahn(F(3, 2), F(3, 2), 3))),
         top=2, tau=F(1))
def test_recurrence_certificate_equals_matching_and_closure(spec, top, tau, bent):
    """On every chain in construction form, plain or with theta read one
    degree off, the certificate passes exactly where
    ``match_recurrence`` + ``coefficients_close`` close every degree, and a
    singular lead raises at the same Q_k on both.  On the plain chains,
    theta read from the terms is R_n = diag(h_n) A^T diag(h_(n-1))^(-1), and
    det M_n = det T_n det T_(n+1) for M_n = I + A R_(n+1) + R_n A and T_k
    the odd block of Q_k's lead."""
    if spec.is_finite:
        # a bent theta reads |p_(top+2)|^2, which a finite ladder lacks
        top = min(top, spec.support_N - bent)
        assume(top >= 0)
    with theta_one_degree_off() if bent else contextlib.nullcontext():
        tables = [orthogonal_table(spec, n, tau) for n in range(top + 2)]
    terms = channel_terms(spec, tables)
    assert terms is not None

    def dense():
        matched = match_recurrence(tables, singular=singular_at)
        return all(coefficients_close(t, n, tables) for n, t in matched.items())

    closes = raised(dense)
    event({True: "closes", False: "fails"}.get(closes, "singular lead"))
    assert raised(lambda: verification._recurrence_certified(
        spec, tables, terms, singular_at)) == closes
    if bent:
        return
    assert closes is True or "singular" in closes
    m, positions = spec.m, staggered_positions(spec.m)
    A = rational_matrix(m, zip(positions, spec.a))
    (_,), q = construction.over_lcm((spec.a,))

    def R(k):
        if k == 0:
            return rational_matrix(m, ())
        return rational_matrix(m, (((j, i), a * norm_ratio(spec, j, k, i, k - 1, tau))
                                   for (i, j), a in zip(positions, spec.a)))

    def det_T(k):
        lead, odd = tables[k].coefficient(k), range(1, m, 2)
        return linalg.determinant([[F(lead[i][j], tables[k].scale) for j in odd] for i in odd])

    for k, rows in enumerate(terms.chain):
        theta = rational_matrix(m, (((j, i), -F(rows[j][i][1], q * tables[k].scale))
                                    for i, j in positions if rows[j][i] is not None))
        assert theta == R(k)
    for n in range(top + 1):
        M = plus(linalg.identity(m), linalg.mat_mul(A, R(n + 1)), linalg.mat_mul(R(n), A))
        assert linalg.determinant(M) == det_T(n) * det_T(n + 1)


def test_theta_one_degree_off_reports_like_the_dense_path():
    """A chain whose theta is read one degree off conforms, fails the
    certificate's ratio identity, and is reported from the dense path byte
    for byte, its failing recurrences included."""
    certified = []
    real = verification._recurrence_certified

    def recording(*args):
        certified.append(real(*args))
        return certified[-1]

    for spec in (PASSING["krawtchouk m=2"], PASSING["charlier/meixner/charlier"]):
        with theta_one_degree_off():
            assert channel_terms(spec, [orthogonal_table(spec, n, 2) for n in range(4)])

            def run():
                return verification.run_verification(spec, n_max=2)

            certified.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verification, "_recurrence_certified", recording)
                got = outcome(run)
            with dense_path():
                want = outcome(run)
        assert got == want
        assert False in certified
        assert '"check": "recurrence"' in got and "failed to close" in got


def test_closing_polynomial_out_of_form_is_matched():
    """The closing Q_(top+1) is held to construction form too: one whose
    Q U has single ladder terms but the pattern entries of another coupling
    has no recurrence at n = top, and the certificate leaves it to the dense
    path's verdict."""
    spec = PASSING["krawtchouk m=2"]
    (a,), other = spec.a, spec.a[0] + 1
    x = ScalarPoly.x()
    # Q'_3 U_a = Q_3(a') U_(a'): single ladder multiples, a' on the pattern
    closing = orthogonal_polynomial(spec.with_a((other,)), 3) @ MatrixPoly(
        ((ScalarPoly.constant(1), x * ScalarPoly.constant(other - a)),
         (0, ScalarPoly.constant(1))))
    tables = [orthogonal_table(spec, n) for n in range(3)] + [integer_table(closing)]
    terms = channel_terms(spec, tables)
    assert terms is not None
    got = verification.verify_recurrence(spec, tables, a, None, terms=terms)
    assert got == verification.verify_recurrence(spec, tables, a, None)
    assert [c.passed for c in got] == [True, True, False]

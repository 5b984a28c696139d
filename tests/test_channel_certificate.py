"""The channel certificate of ``verify``: each Q_n U read as one multiple of
one ladder polynomial per entry, the three suites read off those terms, the
trust identities they rest on, and the dense path a chain falls back to.

The dense path is reached by making ``verification.channel_terms`` decline
every chain, so that each suite expands its Grams on the ladder bases and
computes its residuals from value tables, as before the certificate."""
import contextlib
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvop import construction, operators, verification
from mvop.construction import FamilySpec, channel_terms, orthogonal_table
from mvop.errors import ProbeError, SpecError
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner
from mvop.operators import DifferenceOperator, canonical_operator, certify_operator
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
DENSE = ("_eigenfunction_residual", "channel_table", "_ladder_columns")


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
        tabulated = construction._tabulated

        def values(entries, scale, stop, *known):
            if stop > -1:
                calls.append("_tabulated")
            return tabulated(entries, scale, stop, *known)

        mp.setattr(construction, "_tabulated", values)
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
    """No value table beyond x = -1, no expansion on the ladder bases and no
    residual: each chain is certified from its channel terms, so a trust
    identity or an eigenvalue read wrongly shows here even where the dense
    verdict repairs the report."""
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
    assert certify_operator(spec, D, lam)
    # one eigenvalue off
    wrong = [row[:-1] + [row[-1] + 1] for row in lam]
    assert not certify_operator(spec, D, wrong)
    # an x added to one pattern entry of F, or one entry off the pattern
    i, j = construction.staggered_positions(spec.m)[-1]
    for position in ((i, j), (j, i)):
        F_ = [list(row) for row in D.F.entries]
        F_[position[0]][position[1]] = F_[position[0]][position[1]] + ScalarPoly.x()
        bent = DifferenceOperator(F=MatrixPoly(F_), K=D.K, G=D.G)
        assert not operators._conjugates(bent)
        assert not certify_operator(spec, bent, lam)


def test_terms_are_single_ladder_multiples():
    """Every nonzero entry of Q_n U is c p_j^(r) with j in n - 1..n + 1, and
    a perturbed Q_n has none."""
    spec = PASSING["hahn m=3"]
    tables = [orthogonal_table(spec, n) for n in range(spec.support_N + 1)]
    chain = channel_terms(spec, tables)
    assert chain is not None
    for n, rows in enumerate(chain):
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
    for spec in (PASSING["krawtchouk m=2"], PASSING["charlier/meixner/charlier"]):
        tables = [orthogonal_table(spec, n, 2) for n in range(3)]
        assert channel_terms(spec, tables) is not None
        got = outcome(lambda: verification.run_verification(spec, n_max=2))
        with dense_path():
            want = outcome(lambda: verification.run_verification(spec, n_max=2))
        assert got == want
        assert '"check": "orthogonality"' in got and '"pass": false' in got

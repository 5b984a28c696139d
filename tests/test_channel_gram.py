"""The exact Gram in the channel basis: against the support sum
(``gram_oracle``) on finite specs, against the falling-factorial moments on
infinite ones, and as the orthogonality verdict of ``verify`` on an
infinite support."""
import json
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvop import cli, verification
from mvop.construction import (
    FamilySpec,
    channel_gram,
    channel_masses,
    channel_table,
    gram_basis,
    integer_table,
    orthogonal_polynomial,
)
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.rational import over

from gram_oracle import gram_sum, value_table, weight_table
from moment_oracle import moment_gram

KRAW_P = (F(1, 3), F(2, 5), F(1, 4), F(3, 4), F(1, 2))
# alpha + beta = 4 on odd channels and 2 on even ones meets the Hahn gate
HAHN_ODD = ((F(3, 2), F(5, 2)), (F(2), F(2)), (F(1), F(3)))
HAHN_EVEN = ((F(1, 2), F(3, 2)), (F(1), F(1)), (F(1, 2), F(1, 2)))
RATIONALS = (F(1), F(2), F(-1), F(1, 2), F(-3, 2), F(5, 3), F(-2, 7))
INFINITE_CHANNELS = (Charlier(F(1)), Charlier(F(2)), Charlier(F(3, 2)),
                     Meixner(F(1, 2), F(1, 2)), Meixner(F(1, 2), F(1, 3)), Meixner(F(3, 2), F(2, 3)),
                     Meixner(F(2), F(1, 4)))

# exactly orthogonal, rejected by the float verdict at the default x_max and
# tol: bound 1.415e-9 at n = 2, and 6.772e-9 at n = 5
CHARLIER_10_20 = FamilySpec(a=(F(3),), channels=(Charlier(F(10)), Charlier(F(20))))
CMC_NEAR_MISS = FamilySpec(a=(F(1, 2), F(2)), channels=(
    Charlier(F(3, 2)), Meixner(F(3, 2), F(2, 3)), Charlier(F(1, 2))))
# the construction reads M_2 / M_1 = tau and M_2 / M_3 = tau here
CMC = FamilySpec(a=(F(2), F(-1, 3)), channels=(
    Charlier(F(1)), Meixner(F(1, 2), F(1, 3)), Charlier(F(2))))


def grams(polys, spec, tau=None):
    """The program's channel Gram of every pair of ``polys``, from one
    basis, keyed by the pair of indices."""
    basis = gram_basis(spec, max(P.degree for P in polys) + 1, tau)
    tables = [channel_table(integer_table(P), spec, basis) for P in polys]
    return {(n, k): over(*channel_gram(p, q, basis))
            for n, p in enumerate(tables) for k, q in enumerate(tables)}


def chain(spec, top, tau=None, perturb=False):
    return verification._perturbed(
        [orthogonal_polynomial(spec, n, tau=tau) for n in range(top + 1)], perturb
    )


@st.composite
def finite_specs(draw):
    m = draw(st.integers(2, 6))
    N = draw(st.integers(1, 3))
    if draw(st.booleans()):
        channels = [Krawtchouk(p=draw(st.sampled_from(KRAW_P)), N=N) for _ in range(m)]
    else:
        channels = [Hahn(*draw(st.sampled_from(HAHN_ODD if i % 2 == 0 else HAHN_EVEN)), N=N)
                    for i in range(m)]
    return FamilySpec(a=tuple(draw(st.sampled_from(RATIONALS)) for _ in range(m - 1)),
                      channels=tuple(channels))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=finite_specs(), perturb=st.booleans(), dense=st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(1, 5), st.integers(1, 5)))
def test_channel_gram_equals_support_sum(spec, perturb, dense):
    """The channel Gram of every pair of the chain Q_0..Q_N and of two
    dense polynomials of degree <= N + 1 is the integer support sum, entry
    for entry."""
    N = spec.support_N
    degrees, seeds = dense[:2], dense[2:]
    polys = chain(spec, N, perturb=perturb) + [
        dense_poly(spec.m, min(d, N + 1), seed) for d, seed in zip(degrees, seeds)]
    weights = weight_table(spec)
    values = [value_table(integer_table(P), spec) for P in polys]
    for (n, k), gram in grams(polys, spec).items():
        assert gram == gram_sum(values[n], values[k], weights)


def dense_poly(m, degree, seed):
    """An m x m polynomial with no structural zero, so that every channel
    of P U carries several basis terms."""
    return MatrixPoly(tuple(
        tuple(ScalarPoly(F(seed + i - j + d, 1 + i + j + d) for d in range(degree + 1))
              for j in range(m))
        for i in range(m)
    ))


@settings(max_examples=30, deadline=None)
@given(
    channels=st.lists(st.sampled_from(INFINITE_CHANNELS), min_size=2, max_size=4),
    couplings=st.lists(st.sampled_from(RATIONALS), min_size=3, max_size=3),
    tau=st.sampled_from((F(1), F(2), F(1, 3))),
    degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_channel_gram_equals_moment_sum(channels, couplings, tau, degrees):
    """On an infinite support the channel Gram of any two polynomials is the
    falling-factorial moment sum, in units of channel 1's |p_0|^2."""
    m = len(channels)
    spec = FamilySpec(a=tuple(couplings[:m - 1]), channels=tuple(channels))
    P, Q = (dense_poly(m, d, seed) for d, seed in zip(degrees, (1, 4)))
    assert grams([P, Q], spec, tau)[0, 1] == moment_gram(P, Q, spec, tau)


def test_masses_follow_the_pattern_path():
    # M_2 / M_1 = tau at (1, 2) and M_2 / M_3 = tau at (3, 2), 1-based
    assert channel_masses(CMC, F(2)) == (1, 2, 1)
    # m = 4 adds (3, 4): M_4 / M_3 = tau
    spec = FamilySpec(a=(F(1), F(2), F(3)), channels=CMC.channels + (Meixner(F(1, 2), F(1, 2)),))
    assert channel_masses(spec, F(3)) == (1, 3, 1, 3)
    # a rational quotient keeps its value: e^1 / e^1 = 1, then tau
    spec = FamilySpec(a=(F(1), F(1)), channels=(Charlier(F(1)), Charlier(F(1)), Charlier(F(2))))
    assert channel_masses(spec, F(5)) == (1, 1, F(1, 5))


@pytest.mark.parametrize("spec", [CHARLIER_10_20, CMC_NEAR_MISS, CMC],
                         ids=["charlier10-charlier20", "cmc-near-miss", "cmc"])
def test_exactly_orthogonal_infinite_specs_pass(spec):
    report = verification.run_verification(spec)
    assert report.all_passed, report.failures[:1]
    orthogonality = [c for c in report.checks if c.name == "orthogonality"]
    # the 15 pairs of Q_0..Q_5 at the spec's own couplings, per tau probe
    assert len(orthogonality) == 15 * len(report.tau_probes)
    assert {c.probe_tau for c in orthogonality} == set(report.tau_probes)
    assert all(re.fullmatch(r"k = \d", c.detail) for c in orthogonality)


def test_perturbed_infinite_spec_fails_exactly():
    report = verification.run_verification(CMC, n_max=2, perturb=True)
    failed = [c for c in report.failures if c.name == "orthogonality"]
    assert [(c.n, c.detail.split(";")[0], c.probe_tau) for c in failed] == [
        (n, f"k = {k}", tau) for tau in (1, 2, 3) for n in (1, 2) for k in range(n)
    ]
    for check in failed:
        assert check.probe_a == "(2, -1/3)"
        k, shown = re.fullmatch(r"k = (\d); gram = (\(\(Fraction\(.*)", check.detail).groups()
        polys = chain(CMC, check.n, check.probe_tau, perturb=True)
        assert eval(shown, {"Fraction": F}) == \
            moment_gram(polys[check.n], polys[int(k)], CMC, check.probe_tau)


def test_each_infinite_chain_built_once(monkeypatch):
    """The own-coupling chains are the sweep's when a probe has the spec's
    couplings, and no float chain is built."""
    built = Counter()
    real = verification.orthogonal_tables

    def counting(spec, degrees, tau=None):
        for n, table in zip(degrees, real(spec, degrees, tau)):
            built[(spec.a, tau, n)] += 1
            assert not hasattr(table, "values")
            yield table

    monkeypatch.setattr(verification, "orthogonal_tables", counting)
    spec = FamilySpec(a=(F(2),), channels=(Charlier(F(1)), Meixner(F(1, 2), F(1, 2))))
    assert verification.run_verification(spec, n_max=2).all_passed
    # Q_0..Q_2 and the closing Q_3 for each of 5 coupling probes x 3 taus
    assert len(built) == 5 * 3 * 4
    assert set(built.values()) == {1}


def test_cli_prints_the_coupling_tuple_as_rationals(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"m": 3, "a": ["2", "-1/3"], "channels": [
        {"kind": "charlier", "b": "1"}, {"kind": "meixner", "beta": "1/2", "c": "1/3"},
        {"kind": "charlier", "b": "2"}]}))
    for extra, tau in (((), "1"), (("--truncated",), "numeric")):
        code = cli.main(["verify", "--spec", str(path), "--n-max", "1", "--perturb", *extra])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith(f"verification failed: orthogonality at n = 1, a = (2, -1/3), "
                              f"tau = {tau}: k = 0; ")
        report = json.loads(out)
        assert {c["a"] for c in report["checks"] if c["check"] == "orthogonality"} == {"(2, -1/3)"}

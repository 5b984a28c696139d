"""The exact Gram on a finite support: the program's channel-basis Gram
(``inner_product``) and the support-sum oracle (``gram_oracle``), against
the pointwise sum of P(x) W(x) Q(x)^T."""
from fractions import Fraction as F

import pytest

from mvop import construction, linalg, verification
from mvop.construction import FamilySpec, inner_product, integer_table, orthogonal_polynomial
from mvop.families import Hahn, Krawtchouk
from mvop.poly import MatrixPoly, ScalarPoly

from construction_oracle import gram_schmidt_oracle
from gram_oracle import gram_sum, value_table, weight_table
from residual_oracle import brute_force_gram


def kraw(m, couplings, N=3):
    ps = (F(1, 3), F(2, 5), F(1, 4), F(3, 8))
    return FamilySpec(a=couplings, channels=tuple(Krawtchouk(p=ps[i], N=N) for i in range(m)))


SPECS = {
    "krawtchouk m=2": kraw(2, (F(-3, 2),), N=4),
    "krawtchouk m=3": kraw(3, (F(2), F(-1, 3))),
    "krawtchouk m=4": kraw(4, (F(2), F(-1, 3), F(5))),
    "hahn m=2": FamilySpec(
        a=(F(1, 2),),
        channels=(Hahn(alpha=F(3, 2), beta=F(5, 2), N=4), Hahn(alpha=F(1, 2), beta=F(3, 2), N=4)),
    ),
}


def generic_poly(m, seed):
    """A dense m x m polynomial with distinct rational coefficients, so that
    no Gram entry vanishes by orthogonality."""
    return MatrixPoly(tuple(
        tuple(
            ScalarPoly((F(seed + i - j, 1 + i + j), F(i * m + j + 1, seed + 2), F(j - i, 3)))
            for j in range(m)
        )
        for i in range(m)
    ))


def sample_polys(spec):
    return [
        generic_poly(spec.m, 1),
        generic_poly(spec.m, 4),
        orthogonal_polynomial(spec, 1),
        orthogonal_polynomial(spec, 2),
    ]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_engine_matches_brute_force(name):
    spec = SPECS[name]
    polys = sample_polys(spec)
    weights = weight_table(spec)
    tables = [value_table(integer_table(P), spec) for P in polys]
    for P, p_table in zip(polys, tables):
        for Q, q_table in zip(polys, tables):
            want = brute_force_gram(P, Q, spec)
            assert gram_sum(p_table, q_table, weights) == want
            assert inner_product(P, Q, spec).entries == want


def test_entries_stay_fractions_for_integer_values():
    spec = SPECS["krawtchouk m=3"]
    zero = MatrixPoly.zeros(spec.m)
    one = MatrixPoly.identity(spec.m)
    for P in (zero, one):
        entries = inner_product(P, one, spec).entries
        assert all(type(v) is F for row in entries for v in row)


def test_gram_schmidt_oracle_distinct_couplings():
    spec = SPECS["krawtchouk m=3"]
    for n in range(spec.support_N + 1):
        Q = orthogonal_polynomial(spec, n)
        lead_inv = linalg.mat_inverse(Q.leading_coefficient())
        assert gram_schmidt_oracle(spec, n) == MatrixPoly(lead_inv) @ Q


def test_verification_builds_each_value_once(monkeypatch):
    weight_calls = []
    evaluated = []
    tables = []
    real_weight_matrix = construction.weight_matrix
    real_evaluate = MatrixPoly.evaluate
    real_orthogonal_tables = verification.orthogonal_tables

    def counting_weight_matrix(spec, xv):
        weight_calls.append(xv)
        return real_weight_matrix(spec, xv)

    def counting_evaluate(self, x0):
        evaluated.append(x0)
        return real_evaluate(self, x0)

    def counting_orthogonal_tables(spec, degrees, tau=None):
        for n, table in zip(degrees, real_orthogonal_tables(spec, degrees, tau)):
            tables.append(((spec.a, tau, n), hasattr(table, "values")))
            yield table

    monkeypatch.setattr(construction, "weight_matrix", counting_weight_matrix)
    monkeypatch.setattr(MatrixPoly, "evaluate", counting_evaluate)
    monkeypatch.setattr(verification, "orthogonal_tables", counting_orthogonal_tables)
    spec = SPECS["krawtchouk m=3"]
    report = verification.run_verification(spec)
    assert report.all_passed
    assert weight_calls == []
    assert evaluated == []
    # 5 coupling probes x Q_0..Q_3 and the closing Q_4, each built by the
    # chain kernel as its integer table once; tables carry no values: every
    # suite of a passing chain reads the coefficients alone
    probes, degrees = len(report.a_probes), 5
    assert len(tables) == probes * degrees
    assert len({key for key, _ in tables}) == probes * degrees
    assert {values for _, values in tables} == {False}


def test_perturbed_gram_detail_shows_fractions():
    spec = SPECS["hahn m=2"]
    report = verification.run_verification(spec, n_max=2, perturb=True)
    failed = [c for c in report.failures if c.name == "orthogonality"]
    assert failed
    check = failed[0]
    assert check.detail.startswith("k = 0; gram = ((Fraction(")
    shown = eval(check.detail.split("gram = ", 1)[1], {"Fraction": F})
    probe = spec.with_a((check.probe_a,))
    polys = verification._perturbed(
        [orthogonal_polynomial(probe, n) for n in range(check.n + 1)], True
    )
    assert shown == brute_force_gram(polys[check.n], polys[0], probe)

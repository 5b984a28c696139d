"""The evaluation certificate of the exact suites: integer value tables, the
degree bounds that fix how many points are checked, the per-probe operator
stencils, and agreement with the polynomial-residual oracle in verdicts and
report bytes."""
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvop import cli, operators, verification
from mvop.construction import FamilySpec, integer_table
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner
from mvop.operators import (
    DifferenceOperator,
    EigenvalueMap,
    canonical_operator,
    closed_recurrence,
    recurrence_closes,
)
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.serialize import json_dumps

from residual_oracle import (
    eigenfunction_detail,
    oracle_eigenfunction,
    oracle_verification,
    recurrence_residual,
)

RATIONALS = (F(1), F(2), F(-1), F(1, 2), F(-3, 2), F(5, 3), F(-2, 7))
KRAW_P = (F(1, 3), F(2, 5), F(1, 4), F(3, 4))
# (alpha, beta) with alpha + beta = 4 on odd channels and 2 on even ones meet
# the Hahn gate; the last even pair breaks it
HAHN_ODD = ((F(3, 2), F(5, 2)), (F(2), F(2)), (F(1), F(3)))
HAHN_EVEN = ((F(1, 2), F(3, 2)), (F(1), F(1)), (F(1, 2), F(1, 2)))
MEIXNER = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(1), F(1, 4)))


@st.composite
def finite_specs(draw):
    m = draw(st.integers(2, 3))
    N = draw(st.integers(1, 3))
    if draw(st.booleans()):
        channels = [Krawtchouk(p=draw(st.sampled_from(KRAW_P)), N=N) for _ in range(m)]
    else:
        channels = [
            Hahn(*draw(st.sampled_from(HAHN_ODD if i % 2 == 0 else HAHN_EVEN)), N=N)
            for i in range(m)
        ]
    return FamilySpec(a=tuple(draw(st.sampled_from(RATIONALS)) for _ in range(m - 1)),
                      channels=tuple(channels))


@st.composite
def infinite_specs(draw):
    m = draw(st.integers(2, 3))
    channels = []
    for _ in range(m):
        if draw(st.booleans()):
            channels.append(Charlier(b=draw(st.sampled_from((F(1), F(2), F(3, 2))))))
        else:
            channels.append(Meixner(*draw(st.sampled_from(MEIXNER))))
    return FamilySpec(a=tuple(draw(st.sampled_from(RATIONALS)) for _ in range(m - 1)),
                      channels=tuple(channels))


def probe_lists(values, most):
    return st.none() | st.lists(st.sampled_from(values), min_size=1, max_size=most, unique=True)


def same_report(new, old):
    assert [c.passed for c in new.checks] == [c.passed for c in old.checks]
    assert json_dumps(new.to_json()) == json_dumps(old.to_json())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=finite_specs() | infinite_specs(),
    n_max=st.integers(0, 3),
    a_probes=probe_lists(RATIONALS, 2),
    tau_probes=probe_lists((F(1), F(2), F(1, 3)), 2),
    perturb=st.booleans(),
)
def test_report_equals_polynomial_residual_oracle(spec, n_max, a_probes, tau_probes, perturb):
    kwargs = dict(n_max=n_max, a_probes=a_probes, tau_probes=tau_probes,
                  x_max=80, perturb=perturb)
    same_report(verification.run_verification(spec, **kwargs),
                oracle_verification(spec, **kwargs))


@settings(max_examples=10, deadline=None)
@given(
    odd=st.sampled_from(HAHN_ODD),
    even=st.sampled_from(HAHN_EVEN + HAHN_ODD),
    N=st.integers(2, 3),
    n_max=st.integers(1, 2),
    a_probes=probe_lists(RATIONALS, 2),
    perturb=st.booleans(),
)
def test_forced_hahn_control_equals_oracle(odd, even, N, n_max, a_probes, perturb):
    spec = FamilySpec(a=(F(1),), channels=(Hahn(*odd, N=N), Hahn(*even, N=N)))
    kwargs = dict(a_probes=a_probes, force=True, perturb=perturb)
    new = verification.verify_eigenfunction(spec, n_max, **kwargs)
    same_report(new, oracle_eigenfunction(spec, n_max, **kwargs))


def test_forced_hahn_control_fails():
    spec = FamilySpec(a=(F(1),), channels=(Hahn(F(1, 2), F(1, 2), N=3), Hahn(F(1, 2), F(3, 2), N=3)))
    report = verification.verify_eigenfunction(spec, 3, force=True)
    assert not report.all_passed
    assert all(c.detail.startswith("entry (") for c in report.failures)


def falling(d):
    """x (x - 1) ... (x - d + 1): zero at x = 0..d-1, d! at x = d."""
    p = ScalarPoly.one()
    for j in range(d):
        p = p * ScalarPoly((F(-j), F(1)))
    return p


@pytest.mark.parametrize("d", [1, 3])
def test_eigenfunction_bump_at_last_point_fails(d):
    # Q = I and D = K with K = falling(d) E_11: the residual Q . D is the bump
    # itself, zero at every point of x = 0..d but the last
    bump = falling(d)
    zero = MatrixPoly.zeros(2)
    D = DifferenceOperator(F=zero, K=MatrixPoly(((bump, 0), (0, 0))), G=zero)
    eig = EigenvalueMap((lambda n: F(0),) * 2)
    Q = MatrixPoly.identity(2)
    assert D.extra_degree == d
    stop = Q.degree + D.extra_degree + 1
    checks = verification._eigenfunction_checks(
        verification._eigenvalue_integers(eig, 0), D.stencil(stop - 1),
        [integer_table(Q, stop)], None, None
    )
    assert not checks[0].passed
    assert checks[0].detail == f"entry (1,1) = {bump!r}"


FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def residual_cases(draw):
    """An arbitrary Q of degree <= 4, arbitrary diagonal F, K and G, and
    arbitrary eigenvalues, for m = 2..6."""
    m = draw(st.integers(2, 6))
    degree = draw(st.integers(0, 4))

    def poly(most):
        return ScalarPoly(draw(st.lists(FRACTIONS, max_size=most + 1)))

    def diagonal(most):
        return MatrixPoly.diagonal(tuple(poly(most) for _ in range(m)))

    Q = MatrixPoly(tuple(tuple(poly(degree) for _ in range(m)) for _ in range(m)))
    D = DifferenceOperator(F=diagonal(2), K=diagonal(1), G=diagonal(2))
    eigenvalues = tuple(draw(FRACTIONS) for _ in range(m))
    return Q, D, EigenvalueMap(tuple(lambda n, v=v: v for v in eigenvalues))


@settings(max_examples=60, deadline=None)
@given(residual_cases())
def test_detail_equals_polynomial_residual(case):
    # the detail is interpolated from the residual's values at x = 0..d
    Q, D, eig = case
    stop = Q.degree + D.extra_degree + 1
    (check,) = verification._eigenfunction_checks(
        verification._eigenvalue_integers(eig, 0), D.stencil(stop - 1),
        [integer_table(Q, stop)], None, None
    )
    expected = eigenfunction_detail(D, eig, 0, Q)
    assert (check.passed, check.detail) == (not expected, expected)


@st.composite
def operator_probes(draw):
    """A spec of m = 2..6 channels of one of the four kinds (Hahn with the
    gate met, or broken and forced), and a nonzero coupling probe."""
    m = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("krawtchouk", "hahn", "forced hahn", "charlier/meixner")))
    N = draw(st.integers(1, 3))
    if kind == "krawtchouk":
        channels = [Krawtchouk(p=draw(st.sampled_from(KRAW_P)), N=N) for _ in range(m)]
    elif kind == "charlier/meixner":
        channels = [draw(st.sampled_from((Charlier(F(1)), Charlier(F(3, 2)))))
                    if draw(st.booleans()) else Meixner(*draw(st.sampled_from(MEIXNER)))
                    for _ in range(m)]
    else:
        even = HAHN_EVEN + HAHN_ODD if kind == "forced hahn" else HAHN_EVEN[:-1]
        channels = [Hahn(*draw(st.sampled_from(HAHN_ODD if i % 2 == 0 else even)), N=N)
                    for i in range(m)]
    spec = FamilySpec(a=(F(1),) * (m - 1), channels=tuple(channels))
    return spec, draw(st.sampled_from(RATIONALS)), kind == "forced hahn"


@settings(max_examples=40, deadline=None)
@given(case=operator_probes(), stop=st.integers(0, 6))
def test_probe_stencil_equals_probe_operator(case, stop):
    # q s D(a) = q S_0 + p S_1 for a = p/q, from D(1)'s stencil s D(1)
    spec, a, force = case
    base, _ = canonical_operator(verification._probe(spec, 1), force=force)
    got = verification._probe_stencil(base.stencil(stop), a)
    want = canonical_operator(verification._probe(spec, a), force=force)[0].stencil(stop)
    factor, rest = divmod(got.scale, want.scale)
    assert rest == 0
    assert got.extra_degree == want.extra_degree
    assert got.points == tuple(
        tuple(tuple(tuple((k, v * factor) for k, v in col) for col in part) for part in point)
        for point in want.points
    )


def test_recurrence_bump_at_last_point_fails():
    # x Q_1 - Q_2 with Q_1 = x I, Q_2 = x^2 I - x (x - 1) E_11: the residual
    # x (x - 1) E_11 has degree 2 = deg Q_2 and vanishes at x = 0, 1 only
    x = ScalarPoly.x()
    one = MatrixPoly.identity(2)
    Q1 = one.scale(x)
    Q2 = one.scale(x * x) - MatrixPoly(((falling(2), 0), (0, 0)))
    # the scaled triple A_n = I, B_n = C_n = 0 as (integer matrix, denominator)
    zero = ((0, 0), (0, 0))
    t = (((1, 0), (0, 1)), 1), (zero, 1), (zero, 1)
    tables = [integer_table(Q, 2) for Q in (one, Q1, Q2)]
    assert not recurrence_closes(t, 1, tables)
    tables[2] = integer_table(one.scale(x * x), 2)
    assert recurrence_closes(t, 1, tables)


def test_recurrence_failure_reported_like_oracle():
    # Q_3 = x^3 I + E_11: the top three coefficients give A_2 = I, B_2 = C_2 = 0
    # and leave the residual -E_11 at n = 2 only
    x = ScalarPoly.x()
    one = MatrixPoly.identity(2)
    chain = [one, one.scale(x), one.scale(x * x),
             one.scale(x * x * x) + MatrixPoly(((1, 0), (0, 0)))]
    spec = PASSING["krawtchouk m=3"][0]
    tables = [integer_table(Q, 3) for Q in chain]
    checks = verification.verify_recurrence(spec, tables, None, None)
    assert [c.passed for c in checks] == [
        recurrence_residual(n, chain[n - 1] if n else None, chain[n], chain[n + 1]).is_zero
        for n in range(3)
    ] == [True, True, False]
    assert checks[2].detail == f"three-term recurrence failed to close at n = 2 for {spec!r}"
    with pytest.raises(AssertionError, match="close at n = 2 "):
        closed_recurrence(spec, tables)


PASSING = {
    "krawtchouk m=3": (FamilySpec(a=(F(2), F(-1, 3)), channels=(
        Krawtchouk(F(1, 3), 3), Krawtchouk(F(2, 5), 3), Krawtchouk(F(1, 4), 3))), None),
    "hahn m=2": (FamilySpec(a=(F(1, 2),), channels=(
        Hahn(F(3, 2), F(5, 2), 3), Hahn(F(1, 2), F(3, 2), 3))), None),
    "charlier/meixner": (FamilySpec(a=(F(2),), channels=(
        Charlier(F(1)), Meixner(F(1, 2), F(1, 2)))), 2),
}


@pytest.mark.parametrize("name, perturb", [
    *(pytest.param(name, False, id=name) for name in sorted(PASSING)),
    *(pytest.param(name, True, id=f"{name} perturbed") for name in sorted(PASSING)),
])
def test_checks_build_no_polynomial_products(monkeypatch, name, perturb):
    """Outside the construction of Q_n and of D, run_verification neither
    applies D to a polynomial nor multiplies matrix polynomials, and a
    failing eigenfunction check reads its detail off the tables too."""
    building = [0]
    calls = []

    def construction_step(fn):
        def wrapped(*args, **kwargs):
            building[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                building[0] -= 1
        return wrapped

    def outside_construction(label, fn):
        def wrapped(*args, **kwargs):
            if not building[0]:
                calls.append(label)
            return fn(*args, **kwargs)
        return wrapped

    for fn in ("orthogonal_table", "canonical_operator"):
        monkeypatch.setattr(verification, fn, construction_step(getattr(verification, fn)))
    monkeypatch.setattr(MatrixPoly, "__matmul__",
                        outside_construction("matmul", MatrixPoly.__matmul__))
    monkeypatch.setattr(DifferenceOperator, "apply",
                        outside_construction("apply", DifferenceOperator.apply))
    spec, n_max = PASSING[name]
    report = verification.run_verification(spec, n_max=n_max, x_max=80, perturb=perturb)
    assert report.all_passed is not perturb
    assert any(c.name == "eigenfunction" for c in report.failures) is perturb
    assert calls == []


def counted_inverses(monkeypatch):
    inverted = []
    real = operators.integer_inverse

    def counting(a):
        inverted.append(a)
        return real(a)

    monkeypatch.setattr(operators, "integer_inverse", counting)
    return inverted


# m = 4: the leads' odd-channel blocks T are 2 x 2
KRAW_M4 = FamilySpec(a=(F(2), F(-1, 3), F(1, 2)), channels=tuple(
    Krawtchouk(p, 2) for p in (F(1, 3), F(2, 5), F(1, 4), F(3, 4))))
INVERTING = {**PASSING, "krawtchouk m=4": (KRAW_M4, None)}


def assert_block_inverses(inverted, m, chains, leads_per_chain):
    """No m x m inversion: none at all for m <= 3, where T is a scalar, and
    otherwise at most one floor(m/2)-square T block per lead per chain."""
    if m <= 3:
        assert inverted == []
    else:
        assert all(len(T) == len(T[0]) == m // 2 for T in inverted)
        assert 0 < len(inverted) <= chains * leads_per_chain


@pytest.mark.parametrize("name", sorted(INVERTING))
def test_each_lead_inverted_once(monkeypatch, name):
    spec, n_max = INVERTING[name]
    inverted = counted_inverses(monkeypatch)
    report = verification.run_verification(spec, n_max=n_max, x_max=80)
    assert report.all_passed
    top = spec.support_N if n_max is None else n_max
    # the leads of Q_0..Q_top and the closing polynomial of every (a, tau) probe
    chains = len(report.a_probes) * len(report.tau_probes)
    assert_block_inverses(inverted, spec.m, chains, top + 2)


def test_family_recurrence_inverts_each_lead_once(monkeypatch, tmp_path, capsys):
    for spec in (PASSING["krawtchouk m=3"][0], KRAW_M4):
        path = tmp_path / "spec.json"
        path.write_text(json_dumps(spec.to_json()))
        inverted = counted_inverses(monkeypatch)
        assert cli.main(["family", "--spec", str(path), "--n", "3", "--recurrence"]) == 0
        # Q_0..Q_N and the closure companion, in one chain
        assert_block_inverses(inverted, spec.m, 1, spec.support_N + 2)
    capsys.readouterr()


def test_integer_table_is_scaled_values():
    P = MatrixPoly(((ScalarPoly((F(1, 2), F(-2, 3))), ScalarPoly((F(3),))),
                    (0, ScalarPoly((F(0), F(0), F(5, 4))))))
    table = integer_table(P, 3)
    assert (table.degree, table.scale) == (2, 12)
    for x in range(-1, 4):
        got = table.values[x + 1]
        assert all(type(v) is int for row in got for v in row)
        assert got == tuple(tuple(12 * v for v in row) for row in P.evaluate(x))


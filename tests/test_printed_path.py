"""The printed path of ``family`` and ``export``: integers to the string.

Q_n is printed straight from its integer table, W(x) from its integer
entries and the recurrence triples from the integer pairs the matcher
forms, each value through ``rational.format_over``; the channel ladders are
grown in integers.  Each is checked here against the ``Fraction`` route it
replaced: ``format_rational`` of the ``Fraction``, a ``Fraction``
recurrence written out below, ``matpoly_to_json`` of
``orthogonal_polynomial``, the rendering of ``weight_matrix`` and that of
the ``RecurrenceTriple`` of ``extract_recurrence``.
"""
import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import mvop
from mvop import cli, construction, families, linalg, operators
from mvop.construction import FamilySpec, IntegerTable, orthogonal_polynomial, weight_matrix
from mvop.errors import ProbeError, SpecError
from mvop.families import Charlier, Hahn, Hermite, Krawtchouk, Laguerre, Meixner
from mvop.rational import format_over, format_rational, over_lcm
from mvop.serialize import matpoly_to_json

import scalar_oracle

BIG = 10**40


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(0), st.integers(-BIG, BIG)),
       st.integers(-BIG, BIG).filter(bool))
@example(0, -7)
@example(6, -4)
@example(-BIG, -2 * BIG)
def test_format_over_is_format_rational(v, d):
    assert format_over(v, d) == format_rational(F(v, d))


# --------------------------------------------------------------------------
# the integer ladder


def fraction_ladder(spec, top):
    """p_0..p_top as Fraction coefficient lists, by the monic recurrence
    x p_k = p_(k+1) + b_k p_k + c_k p_(k-1), its coefficients in Fraction
    arithmetic (``scalar_oracle.recurrence_bc``)."""
    polys = [[F(1)]]
    for k in range(top):
        b, c = scalar_oracle.recurrence_bc(spec, k)
        here = polys[k]
        prev = polys[k - 1] if k else []
        nxt = [F(0)] + here  # x p_k
        for i, h in enumerate(here):
            nxt[i] -= b * h
        for i, v in enumerate(prev):
            nxt[i] -= c * v
        polys.append(nxt)
    return polys


LADDER_SPECS = (
    Charlier(b=F(3, 2)),
    Charlier(b=F(7)),
    Meixner(beta=F(5, 2), c=F(1, 3)),
    Meixner(beta=F(1, 2), c=F(4, 7)),
    Krawtchouk(p=F(2, 7), N=6),
    Krawtchouk(p=F(1, 2), N=5),
    Hahn(alpha=F(3, 2), beta=F(5, 2), N=5),
    Hahn(alpha=F(-1, 3), beta=F(2, 5), N=4),
    Hahn(alpha=F(-11, 2), beta=F(-13, 2), N=3),
    Hahn(alpha=F(-23, 3), beta=F(-17, 2), N=5),
    Hermite(),
    Laguerre(alpha=F(1, 2)),
    Laguerre(alpha=F(-2, 3)),
)


@pytest.mark.parametrize("spec", LADDER_SPECS, ids=repr)
def test_integer_ladder_is_the_fraction_recurrence(spec):
    top = 7 if spec.support_N is None else spec.support_N + 1
    lad = families._Ladder(spec)
    for n, coeffs in enumerate(fraction_ladder(spec, top)):
        # over the least common denominator, so the gcd is taken
        (row,), d = over_lcm((coeffs,))
        assert lad.integer(n) == (row, d), n
        assert lad.polynomial(n).coeffs == tuple(coeffs), n
    if spec.support_N is not None:
        # p_(N+1) is the closure x (x - 1) ... (x - N)
        closure = [1]
        for root in range(spec.support_N + 1):
            closure = [0] + closure
            for i in range(len(closure) - 1):
                closure[i] -= root * closure[i + 1]
        assert lad.integer(top) == (tuple(closure), 1)


# --------------------------------------------------------------------------
# the printed JSON against the Fraction route


def run_cli(argv, spec):
    """cli.main on ``spec`` written to a file: (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec.to_json(), fh)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([argv[0], "--spec", path, *argv[1:]])
    return code, out.getvalue()


def fraction_weights(spec, x_hi):
    return {str(x): [[format_rational(v) for v in row] for row in weight_matrix(spec, x)]
            for x in range(x_hi + 1)}


COUPLINGS = (F(2), F(-1), F(1, 2), F(-3, 2), F(5, 3), F(-2, 7), F(3))
TAUS = (F(3, 2), F(-3, 2), F(-2, 5), F(2))


@st.composite
def printed_cases(draw):
    """A family of m = 2..6 channels on a finite support (Krawtchouk and
    Hahn of both branches, mixed) or an infinite one (Charlier and
    Meixner), and a rational tau, negative ones included."""
    m = draw(st.integers(2, 6))
    a = tuple(draw(st.lists(st.sampled_from(COUPLINGS), min_size=m - 1, max_size=m - 1)))
    if draw(st.booleans()):
        N = draw(st.integers(1, 4))
        kinds = st.sampled_from((
            Krawtchouk(p=F(1, 3), N=N), Krawtchouk(p=F(3, 5), N=N), Krawtchouk(p=F(4, 5), N=N),
            Hahn(alpha=F(3, 2), beta=F(1, 3), N=N),
            Hahn(alpha=F(-11, 2) - N, beta=F(-13, 3) - N, N=N)))
        n = N
    else:
        kinds = st.sampled_from((Charlier(b=F(2)), Charlier(b=F(1, 2)),
                                 Meixner(beta=F(1, 2), c=F(1, 3)),
                                 Meixner(beta=F(5, 2), c=F(2, 3))))
        n = draw(st.integers(0, 4))
    channels = tuple(draw(kinds) for _ in range(m))
    return FamilySpec(a=a, channels=channels), n, draw(st.sampled_from(TAUS))


@settings(max_examples=25, deadline=None)
@given(printed_cases())
def test_printed_json_is_the_fraction_rendering(case):
    spec, n, tau = case
    x_hi = spec.support_N if spec.is_finite else 10
    used = construction.spec_tau(spec, tau)
    code, text = run_cli(("family", "--n", str(n), "--tau", str(tau)), spec)
    assert code == 0
    artifact = json.loads(text)
    assert artifact["Q"] == [matpoly_to_json(orthogonal_polynomial(spec, k, tau=used))
                             for k in range(n + 1)]
    assert artifact["W"] == fraction_weights(spec, x_hi)
    code, text = run_cli(("export", "--what", "Q", "--n", str(n), "--tau", str(tau)), spec)
    assert code == 0
    assert json.loads(text) == matpoly_to_json(orthogonal_polynomial(spec, n, tau=used))
    code, text = run_cli(("export", "--what", "W"), spec)
    assert code == 0
    assert json.loads(text) == fraction_weights(spec, x_hi)


def triple_strings(t):
    return {key: [[format_rational(v) for v in row] for row in mat]
            for key, mat in (("A", t.A), ("B", t.B), ("C", t.C))}


@settings(max_examples=25, deadline=None)
@given(printed_cases())
def test_printed_recurrence_is_the_fraction_rendering(case):
    spec, n, tau = case
    used = construction.spec_tau(spec, tau)
    try:
        want = [triple_strings(operators.extract_recurrence(spec, k, tau=used))
                for k in range(n + 1)]
    except (ProbeError, SpecError) as err:
        # a lead the couplings or tau make singular: both commands exit 2
        assert "singular" in str(err)
        want = None
    code, text = run_cli(("family", "--n", str(n), "--tau", str(tau), "--recurrence"), spec)
    assert code == (2 if want is None else 0)
    if want is not None:
        assert json.loads(text)["recurrence"] == want
    code, text = run_cli(("export", "--what", "recurrence", "--n", str(n), "--tau", str(tau)),
                         spec)
    if want is not None:
        assert code == 0
        assert json.loads(text) == want[n]


# --------------------------------------------------------------------------
# no Fraction view on the printed path


def refuse(*args, **kwargs):
    raise AssertionError("the printed path built a Fraction view")


# parameters no other test reads, so that no memo of an earlier test
# stands in for the work
UNSEEN_FINITE = FamilySpec(a=(F(-5, 4), F(7, 9)), channels=(
    Krawtchouk(p=F(2, 9), N=6), Krawtchouk(p=F(5, 11), N=6), Krawtchouk(p=F(3, 13), N=6)))
UNSEEN_INFINITE = FamilySpec(a=(F(4, 7), F(-9, 5)), channels=(
    Charlier(b=F(9, 4)), Meixner(beta=F(7, 3), c=F(2, 9)), Charlier(b=F(11, 3))))


@pytest.mark.parametrize("spec, tau", [(UNSEEN_FINITE, "numeric"), (UNSEEN_INFINITE, "5/3")],
                         ids=["finite", "infinite"])
def test_printed_path_builds_no_fraction_view(monkeypatch, spec, tau):
    monkeypatch.setattr(IntegerTable, "polynomial", refuse)
    monkeypatch.setattr(families._Ladder, "polynomial", refuse)
    for module in (mvop, construction, cli):
        if getattr(module, "weight_matrix", None) is weight_matrix:
            monkeypatch.setattr(module, "weight_matrix", refuse)
    for argv in (("family", "--n", "6", "--recurrence"),
                 ("export", "--what", "Q", "--n", "4"),
                 ("export", "--what", "W")):
        code, text = run_cli(argv + ("--tau", tau), spec)
        assert code == 0, argv
        assert text, argv


def refuse_fractions(*args, **kwargs):
    raise AssertionError("the printed path built a Fraction triple or inverse")


# m = 5 and 4: the leads' odd-channel blocks T are 2 x 2
UNSEEN_FINITE_M5 = FamilySpec(a=(F(-5, 4), F(7, 9), F(3, 5), F(-11, 6)), channels=tuple(
    Krawtchouk(p=p, N=4) for p in (F(2, 9), F(5, 11), F(3, 13), F(7, 10), F(4, 7))))
UNSEEN_INFINITE_M4 = FamilySpec(a=(F(4, 7), F(-9, 5), F(5, 6)), channels=(
    Charlier(b=F(9, 4)), Meixner(beta=F(7, 3), c=F(2, 9)), Charlier(b=F(11, 3)),
    Meixner(beta=F(5, 3), c=F(3, 7))))


@pytest.mark.parametrize("spec, tau", [(UNSEEN_FINITE_M5, "numeric"), (UNSEEN_INFINITE_M4, "5/3")],
                         ids=["finite", "infinite"])
def test_printed_recurrence_builds_no_fraction(monkeypatch, spec, tau):
    monkeypatch.setattr(operators, "_fractions", refuse_fractions)
    monkeypatch.setattr(linalg, "mat_inverse", refuse_fractions)
    top = spec.support_N if spec.is_finite else 3
    for argv in (("family", "--n", str(top), "--recurrence"),
                 ("export", "--what", "recurrence", "--n", str(top))):
        code, text = run_cli(argv + ("--tau", tau), spec)
        assert code == 0, argv
        assert json.loads(text), argv

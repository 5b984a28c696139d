"""Wire formats: JSON round trips, LaTeX rendering, CSV, determinism."""
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mvop.construction import FamilySpec, family_spec_from_json, orthogonal_polynomial
from mvop.errors import SpecError
from mvop.families import Charlier, Krawtchouk
from mvop.limits import TransitionSpec, run_transition
from mvop.operators import DifferenceOperator, canonical_operator
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.rational import rational
from mvop.serialize import (
    convergence_to_csv,
    convergence_to_json,
    json_dumps,
    matpoly_to_json,
    matpoly_to_latex,
    operator_to_json,
    operator_to_latex,
    poly_to_json,
    poly_to_latex,
)

x = ScalarPoly.x()


# The parsers that read the wire format back: the program only writes it,
# and a round trip to an equal object checks that nothing is lost.


def poly_from_json(data) -> ScalarPoly:
    return ScalarPoly(tuple(rational(c) for c in data))


def matpoly_from_json(data) -> MatrixPoly:
    entries = tuple(
        tuple(poly_from_json(e) for e in row) for row in data["entries"]
    )
    P = MatrixPoly(entries)
    if P.rows != data["rows"] or P.cols != data["cols"]:
        raise SpecError("matrix polynomial shape does not match its declaration")
    return P


def operator_from_json(data) -> DifferenceOperator:
    return DifferenceOperator(
        F=matpoly_from_json(data["F"]),
        K=matpoly_from_json(data["K"]),
        G=matpoly_from_json(data["G"]),
    )


def kraw_pair():
    return FamilySpec(a=(1,), channels=(Krawtchouk(p=F(1, 2), N=4), Krawtchouk(p=F(1, 2), N=4)))


def test_poly_json_roundtrip():
    p = x * x * F(5, 3) - x * 2 + F(1, 7)
    assert poly_from_json(poly_to_json(p)) == p
    assert poly_to_json(p) == ["1/7", "-2", "5/3"]


def test_matpoly_json_roundtrip():
    Q = orthogonal_polynomial(kraw_pair(), 2)
    data = matpoly_to_json(Q)
    assert matpoly_from_json(data) == Q
    assert data["rows"] == data["cols"] == 2


def test_poly_latex():
    assert poly_to_latex(x * x - x * 4 + 3) == "x^{2} - 4 x + 3"
    assert poly_to_latex(ScalarPoly((F(-1, 2), F(0), F(2)))) == "2 x^{2} - \\frac{1}{2}"
    assert poly_to_latex(ScalarPoly.zero()) == "0"


def test_poly_latex_prints_floats_by_repr():
    # the coefficients of a float mass quotient (tau "numeric") read as the
    # JSON prints them, not as the binary fractions they hold
    p = ScalarPoly((-2.0, 22.74625462767236))
    assert poly_to_latex(p) == "22.74625462767236 x - 2.0"
    assert poly_to_latex(ScalarPoly((-10.87312731383618,))) == "-10.87312731383618"
    assert poly_to_latex(ScalarPoly((0.5, -1.0, 1.0))) == "x^{2} - x + 0.5"


def test_matpoly_latex_shape():
    Q0 = orthogonal_polynomial(kraw_pair(), 0)
    tex = matpoly_to_latex(Q0)
    assert tex.startswith("\\begin{pmatrix}")
    assert "1 & -2" in tex


def test_operator_roundtrip_and_latex():
    D, _ = canonical_operator(kraw_pair())
    data = operator_to_json(D)
    assert operator_from_json(data) == D
    tex = operator_to_latex(D)
    assert "\\Delta" in tex and "\\nabla" in tex
    # the backward part renders in the displayed minus convention
    assert "- \\nabla" in tex


def test_family_spec_roundtrip_charlier():
    spec = FamilySpec(a=(F(1, 2),), channels=(Charlier(b=F(1)), Charlier(b=F(2))))
    assert family_spec_from_json(spec.to_json()) == spec


def test_convergence_report_formats():
    t = TransitionSpec(
        name="hahn->krawtchouk",
        n=1,
        a=F(1),
        ladder=(100, 1000),
        params=(("p", F(1, 2)), ("N", F(4))),
    )
    report = run_transition(t)
    csv = convergence_to_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0] == "ladder,max_abs_error,rel_error,mu_limit,mu_n"
    assert len(lines) == 3
    data = convergence_to_json(report)
    assert data["transition"] == "hahn->krawtchouk"
    assert len(data["steps"]) == 2


def test_deterministic_output():
    spec = kraw_pair()
    Q = orthogonal_polynomial(spec, 3)
    assert json_dumps(matpoly_to_json(Q)) == json_dumps(matpoly_to_json(Q))
    t = TransitionSpec(
        name="krawtchouk->charlier", n=1, a=F(1), ladder=(100, 1000), params=(("b", F(2)),)
    )
    first = convergence_to_csv(run_transition(t))
    second = convergence_to_csv(run_transition(t))
    assert first == second


# JSON values of every kind json.dumps writes: nested dicts, lists and
# tuples, empty containers, non-ASCII and control characters, big ints,
# -0.0, 1e300, nan and +-inf, bool and None
SCALARS = (st.none() | st.booleans() | st.text() | st.integers()
           | st.integers(min_value=10 ** 30, max_value=10 ** 60)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from((-0.0, 1e300, -1e300, math.nan, math.inf, -math.inf, 5e-324)))
KEYS = st.text() | st.sampled_from(("", "\u00e9", "\n", "\x00", "\u2603", '"', "\\"))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=4) | st.lists(st.text(), max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_json_dumps_is_json_indent_2(value):
    assert json_dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], {"a": {}}, {"\u00e9\x01": ["\u2603", "\t"]}, [-0.0, 1e300, math.nan],
    {1: "int", 2.5: "float", True: "bool", None: "none"}, 10 ** 100, [True, False, None],
])
def test_json_dumps_edge_values(value):
    assert json_dumps(value) == json.dumps(value, indent=2) + "\n"


def test_json_dumps_rejects_what_json_rejects():
    for value in ({(1, 2): 3}, {"a": object()}, F(1, 2)):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            json_dumps(value)

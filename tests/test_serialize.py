"""Wire formats: JSON round trips, LaTeX rendering, CSV, determinism."""
from fractions import Fraction as F

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

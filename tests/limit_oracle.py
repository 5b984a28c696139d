"""Exact and numeric checks of ``mvop.limits`` from outside the program.

``ode_residual`` writes out the second-order differential equations of the
2x2 continuous Hermite and Laguerre targets and applies them to the
program's own ``continuous_target``; ``hermite_limit_agreement`` pushes the
Krawtchouk and Charlier routes to Hermite to one large parameter and
compares them with each other and with the common target.
"""
from dataclasses import dataclass
from fractions import Fraction

from mvop.limits import TRANSITIONS, TransitionSpec, coefficient_error, continuous_target
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.rational import rational


def derivative(P: MatrixPoly) -> MatrixPoly:
    """d/dx of every entry."""
    return P.map(lambda e: ScalarPoly(tuple(i * c for i, c in enumerate(e.coeffs) if i > 0)))


def ode_residual(kind: str, n: int, a, alpha=None) -> MatrixPoly:
    """Exact residual of the target's second-order differential equation;
    identically zero when the displayed equation holds.  ``continuous_target``
    rejects any kind but "hermite" and "laguerre"."""
    a = rational(a)
    P = continuous_target(kind, n, a, alpha=alpha)
    dP = derivative(P)
    x = ScalarPoly.x()
    if kind == "hermite":
        coeff1 = MatrixPoly(((x * (-2), ScalarPoly.constant(2 * a)), (0, x * (-2))))
        coeff0 = MatrixPoly(((0, 0), (0, 2)))
        eigen = MatrixPoly.diagonal((Fraction(-2 * n), Fraction(-2 * n + 2)))
        return derivative(dP) + dP @ coeff1 + P @ coeff0 - eigen @ P
    alpha = rational(alpha)
    linear = ScalarPoly((alpha + 1, -1))
    coeff1 = MatrixPoly(((linear, x * (2 * a)), (0, linear)))
    coeff0 = MatrixPoly(((0, ScalarPoly.constant(a * (alpha + 1))), (0, 1)))
    eigen = MatrixPoly.diagonal((Fraction(-n), Fraction(-n + 1)))
    return derivative(dP).scale(x) + dP @ coeff1 + P @ coeff0 - eigen @ P


@dataclass(frozen=True)
class AgreementReport:
    """Cross-check that the two Hermite routes land on one target."""

    n: int
    a: Fraction
    krawtchouk_error: float
    charlier_error: float
    agreement: float  # max coefficient gap between the two transformed sources

    @property
    def consistent(self) -> bool:
        return self.agreement <= self.krawtchouk_error + self.charlier_error


def hermite_limit_agreement(n: int, a, p=Fraction(1, 2), scale: int = 10**14) -> AgreementReport:
    """Push both Hermite routes to a matched large parameter and compare the
    transformed sources against each other and the common target."""
    a = rational(a)

    def route(source, params):
        t = TransitionSpec(f"{source}->hermite", n, a, (scale // 10, scale), params)
        return TRANSITIONS[t.name].step(t, Fraction(scale))[0]

    # the Krawtchouk route scales its source in floats; the Charlier route
    # carries its rescaling exactly
    src_k = route("krawtchouk", (("p", p),))
    src_c = route("charlier", ())
    target = continuous_target("hermite", n, a)
    err_k, _ = coefficient_error(src_k, target)
    err_c, _ = coefficient_error(src_c, target)
    gap, _ = coefficient_error(src_k, src_c)
    return AgreementReport(
        n=n, a=a, krawtchouk_error=err_k, charlier_error=err_c, agreement=gap
    )

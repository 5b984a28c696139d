"""Exact and numeric checks of ``mvop.limits`` from outside the program.

``ode_residual`` writes out the second-order differential equations of the
2x2 continuous Hermite and Laguerre targets and applies them to the
program's own ``continuous_target``; ``hermite_limit_agreement`` pushes the
Krawtchouk and Charlier routes to Hermite to one large parameter and
compares them with each other and with the common target.

``transition_errors`` rebuilds the sources of the three rescaled
transitions by polynomial algebra: Q_n at the coupling a / sqrt(d) in the
quadratic extension (``QuadExt``), composed with sqrt(d) x + center
(``ScalarPoly.compose``) and multiplied on the right by the matrix product;
Meixner -> Laguerre by composing with x / (1 - c).  Every float it reports
is the one ``coefficient_error`` reads off the exact source, so the
program's integer route must match it to the last bit.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

from mvop.construction import FamilySpec, orthogonal_polynomial
from mvop.families import Charlier, Krawtchouk, Meixner
from mvop.limits import TRANSITIONS, TransitionSpec, coefficient_error, continuous_target
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.quadext import QuadExt
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


def hermite_source(t: TransitionSpec, ch, d, center) -> MatrixPoly:
    """Q_n on (ch, ch) at coupling a / sqrt(d), in the variable
    sqrt(d) x + center, times [[1, a center / sqrt(d)], [0, 1]] on the
    right; sqrt(d) is carried exactly in the quadratic extension."""
    root = QuadExt.root(d)
    a_tilde = t.a * root / d  # a / sqrt(d), exactly
    Q = orthogonal_polynomial(FamilySpec(a=(a_tilde,), channels=(ch, ch)), t.n)
    inner = ScalarPoly((center, root))
    return Q.map(lambda e: e.compose(inner)) @ MatrixPoly(((1, a_tilde * center), (0, 1)))


def _krawtchouk_source(t: TransitionSpec, N):
    p = t.param("p")
    N = int(N)
    source = hermite_source(t, Krawtchouk(p=p, N=N), 2 * N * p * (1 - p), p * N)
    # (N!/(N-n)! (2p(1-p))^n)^(-1/2), in floats
    scale = math.exp(-0.5 * (sum(math.log(j) for j in range(N - t.n + 1, N + 1))
                             + t.n * math.log(float(2 * p * (1 - p)))))
    return source.map(lambda e: ScalarPoly(tuple(float(c) * scale for c in e.coeffs)))


def _charlier_source(t: TransitionSpec, b):
    d = 2 * b
    root = QuadExt.root(d)
    inv_root_pow = QuadExt(1, 0, d)  # (2b)^(-n/2) = (root / d)^n, exactly
    for _ in range(t.n):
        inv_root_pow = inv_root_pow * root / d
    return hermite_source(t, Charlier(b=b), d, b).scale(inv_root_pow)


def _laguerre_source(t: TransitionSpec, c):
    ch = Meixner(beta=t.param("alpha") + 1, c=c)
    Q = orthogonal_polynomial(FamilySpec(a=(t.a * (1 - c),), channels=(ch, ch)), t.n)
    inner = ScalarPoly((0, Fraction(1) / (1 - c)))
    return Q.map(lambda e: e.compose(inner)).scale((1 - c) ** t.n)


SOURCES = {
    "krawtchouk->hermite": _krawtchouk_source,
    "charlier->hermite": _charlier_source,
    "meixner->laguerre": _laguerre_source,
}


def transition_errors(t: TransitionSpec):
    """(max absolute, max relative) coefficient error at each ladder step,
    from the polynomial-algebra source of ``SOURCES`` and the program's
    target."""
    target = orthogonal_polynomial(
        FamilySpec(a=(t.a,), channels=TRANSITIONS[t.name].target(t)), t.n)
    return [coefficient_error(SOURCES[t.name](t, v), target) for v in t.ladder]

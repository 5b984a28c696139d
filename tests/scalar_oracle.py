"""Independent oracles for the scalar ladder of ``mvop.families``.

The monic polynomials come from the three-term recurrence alone.  These
oracles reach them another way: each family's Rodrigues formula
(Koekoek, Lesky and Swarttouw, Hypergeometric Orthogonal Polynomials and
Their q-Analogues, Springer 2010, ch. 9), evaluated pointwise at
x = 0..n and interpolated exactly, and on a finite support the
degree-(N+1) closure x(x-1)...(x-N) that the recurrence must produce.
"""
import math
from fractions import Fraction

from mvop.errors import SpecError
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner, monic_polynomial
from mvop.poly import ScalarPoly
from mvop.rational import binomial, pochhammer


def pochhammer_binomial(top, k: int) -> Fraction:
    """The generalized binomial coefficient by its Pochhammer form,
    (top - k + 1)_k / k! for k >= 0 and 0 for k < 0, on every rational top."""
    if k < 0:
        return Fraction(0)
    return pochhammer(Fraction(top) - k + 1, k) / math.factorial(k)


def iterated_nabla(fn, n: int, x: int) -> Fraction:
    """nabla^n applied to a pointwise function, evaluated at integer x."""
    return sum(
        (
            (-1) ** j * binomial(n, j) * fn(x - j)
            for j in range(n + 1)
        ),
        Fraction(0),
    )


def _charlier(spec, n, x):
    nabla_n = iterated_nabla(spec.weight, n, x)
    return (-spec.b) ** n * math.factorial(x) / spec.b**x * nabla_n


def _meixner(spec, n, x):
    beta, c = spec.beta, spec.c

    def bracket(y: int) -> Fraction:
        if y < 0:
            return Fraction(0)
        return pochhammer(beta + n, y) * c**y / math.factorial(y)

    nabla_n = iterated_nabla(bracket, n, x)
    prefactor = (
        pochhammer(beta, n)
        * c**n
        / (c - 1) ** n
        * math.factorial(x)
        / (pochhammer(beta, x) * c**x)
    )
    return prefactor * nabla_n


def _krawtchouk(spec, n, x):
    p, N = spec.p, spec.N
    ratio = p / (1 - p)

    def bracket(y: int) -> Fraction:
        if y < 0:
            return Fraction(0)
        return binomial(N - n, y) * ratio**y

    nabla_n = iterated_nabla(bracket, n, x)
    prefactor = pochhammer(Fraction(-N), n) * p**n / (binomial(N, x) * ratio**x)
    return prefactor * nabla_n


def _hahn(spec, n, x):
    alpha, beta, N = spec.alpha, spec.beta, spec.N

    def bracket(y: int) -> Fraction:
        return binomial(alpha + n + y, y) * binomial(beta + N - y, N - n - y)

    nabla_n = iterated_nabla(bracket, n, x)
    denom = pochhammer(n + alpha + beta + 1, n)
    if denom == 0:
        raise SpecError(f"hahn rodrigues prefactor degenerates at n = {n}")
    prefactor = (
        (-1) ** n
        * pochhammer(alpha + 1, n)
        * pochhammer(beta + 1, n)
        / denom
        / spec.weight(x)
    )
    return prefactor * nabla_n


_RODRIGUES = {Charlier: _charlier, Meixner: _meixner, Krawtchouk: _krawtchouk, Hahn: _hahn}


def rodrigues_value(spec, n: int, x: int) -> Fraction:
    """The degree-n monic polynomial of ``spec`` at integer x, from the
    family's Rodrigues formula."""
    return _RODRIGUES[type(spec)](spec, n, x)


def lagrange_interpolate(points) -> ScalarPoly:
    """Exact interpolation through (x_i, y_i) with distinct rational nodes."""
    points = list(points)
    out = ScalarPoly()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = ScalarPoly.constant(Fraction(1))
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = basis * ScalarPoly((-xj, 1))
            denom *= Fraction(xi) - Fraction(xj)
        out = out + basis * (Fraction(yi) / denom)
    return out


def rodrigues_polynomial(spec, n: int) -> ScalarPoly:
    """Evaluate the Rodrigues formula at x = 0..n and recover the polynomial
    by exact Lagrange interpolation."""
    if n < 0:
        raise SpecError(f"polynomial degree must be >= 0, got {n}")
    top = spec.support_N
    if top is not None and n > top:
        raise SpecError(f"rodrigues formula applies for n <= N = {top}, got n = {n}")
    points = [(Fraction(x), rodrigues_value(spec, n, x)) for x in range(n + 1)]
    return lagrange_interpolate(points)


def extended_polynomial(spec) -> ScalarPoly:
    """The degree-(N+1) closure polynomial x(x-1)...(x-N) on finite support.

    Asserts that the recurrence-built polynomial of degree N+1 agrees with
    the falling-factorial product exactly.
    """
    top = spec.support_N
    if top is None:
        raise SpecError("the degree-(N+1) extension needs a finite support")
    product = ScalarPoly.one()
    for root in range(top + 1):
        product = product * ScalarPoly((-Fraction(root), 1))
    via_recurrence = monic_polynomial(spec, top + 1)
    if via_recurrence != product:
        raise AssertionError(
            "recurrence-built degree-(N+1) polynomial does not close on "
            f"x(x-1)...(x-N) for {spec!r}"
        )
    return product

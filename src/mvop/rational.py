"""Exact rational scalar helpers.

Every exact computation in the package runs on ``fractions.Fraction``
(arbitrary-precision, always reduced, positive denominator).  Floats enter
only through truncated infinite sums and irrational rescalings in limit
studies; those paths are explicitly marked at their call sites.
"""
from __future__ import annotations

import math
from fractions import Fraction


def rational(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rational(q) -> str:
    """Render as "p" for integers, "p/q" otherwise (the wire format).  A float
    (a value computed from a float mass quotient) renders by repr, so that it
    reads as a float rather than as an exact binary fraction."""
    if isinstance(q, float):
        return repr(q)
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    # (p/q)_n = p (p + q) ... (p + (n-1) q) / q^n: one integer product
    return Fraction(math.prod(range(p, p + n * q, q)), q**n)


def binomial(top, k: int) -> Fraction:
    """Generalized binomial coefficient with integer lower index.

    For rational ``top`` and integer ``k >= 0`` this is
    (top - k + 1)_k / k!; it vanishes for k < 0 and agrees with the
    combinatorial coefficient when ``top`` is a nonnegative integer.
    """
    if k < 0:
        return Fraction(0)
    return pochhammer(Fraction(top) - k + 1, k) / math.factorial(k)

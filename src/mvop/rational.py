"""Exact rational scalar helpers.

Every exact computation in the package runs on ``fractions.Fraction``
(arbitrary-precision, always reduced, positive denominator).  Floats enter
only through truncated infinite sums and irrational rescalings in limit
studies; those paths are explicitly marked at their call sites.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import SpecError


def rational(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact Fraction; any
    other value (a bool or a float included) is a TypeError, and a string
    that is no rational (a zero denominator included) a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    raise TypeError(f"cannot interpret {value!r} as a rational")


def over_lcm(rows):
    """Rows of rationals as (integer rows, d): each entry times d, the least
    common denominator of them all."""
    d = math.lcm(*(v.denominator for row in rows for v in row))
    return tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in rows), d


def over(rows, d: int) -> tuple:
    """Rows of integers divided by d, as Fractions: the inverse of
    ``over_lcm``."""
    return tuple(tuple(Fraction(v, d) for v in row) for row in rows)


def named_rational(value, name: str) -> Fraction:
    """``rational(value)``, or a SpecError naming ``name``, the parameter or
    option the value was given for."""
    try:
        return rational(value)
    except (TypeError, ValueError) as err:
        raise SpecError(f"{name}: {err}") from None


def json_typed(value, kind: type):
    """``value`` if JSON gave it as a ``kind`` (a bool is no int), else a
    TypeError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def json_int(value) -> int:
    return json_typed(value, int)


def json_list(value, convert=rational) -> tuple:
    return tuple(convert(v) for v in json_typed(value, list))


def spec_field(data, key: str, convert, owner: str):
    """``convert(data[key])`` for the JSON object ``owner`` names.  Data that
    is no object, a missing key, or a value ``convert`` rejects with a
    TypeError or ValueError is a SpecError that names it; a SpecError passes
    unchanged."""
    if not isinstance(data, dict):
        raise SpecError(f"{owner} is not a JSON object")
    if key not in data:
        raise SpecError(f"{owner} lacks field {key!r}")
    try:
        return convert(data[key])
    except SpecError:
        raise
    except (TypeError, ValueError) as err:
        raise SpecError(f"{owner} field {key!r}: {err}") from None


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


def format_over(v: int, d: int) -> str:
    """``format_rational(Fraction(v, d))`` for integers v and d != 0, with
    no ``Fraction`` built: one gcd, its sign taken from d."""
    g = math.gcd(v, d)
    if d < 0:
        g = -g
    v, d = v // g, d // g
    return str(v) if d == 1 else f"{v}/{d}"


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
    combinatorial coefficient when ``top`` is a nonnegative integer, which
    ``math.comb`` gives with no rational product (0 for k > top).
    """
    if k < 0:
        return Fraction(0)
    top = Fraction(top)
    if top.denominator == 1 and top >= 0:
        return Fraction(math.comb(top.numerator, k))
    return pochhammer(top - k + 1, k) / math.factorial(k)

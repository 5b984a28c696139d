"""Dense univariate polynomials and matrix polynomials with exact coefficients.

``ScalarPoly`` stores coefficients in ascending powers of x, canonically
trimmed so structural equality is mathematical equality.  ``MatrixPoly`` is a
rectangular grid of scalar polynomials with noncommutative products.  Both are
immutable; all operations return fresh values.  Coefficients are Fractions on
exact paths but any field scalar (float) works through the same code.

Only the operations the construction repeats get kernels of their own: the
scalar product (``_convolve``), the sum and difference, and ``times_x``,
which build the channel ladders, and Q_n where its coefficients are not
rational (the float mass quotients, and couplings in the quadratic
extension, which the public API and the tests' oracles still take).
Everything else is written in terms of them: a matrix product is a plain
sum of scalar products per entry, and a shift is a Horner composition,
since only ``operators.DifferenceOperator.apply`` (a test oracle), the
tests' other oracles and the rational shifts of the limit sources reach
them.

The kernels keep three invariants:

* Canonical trimming: every result drops its trailing zero coefficients, so
  the zero polynomial has no coefficients at all.
* Zero operands are skipped: a scalar product with a zero factor returns
  the zero polynomial without a convolution.
* Coefficient types are preserved: a result holds exactly the values the
  schoolbook loops produce from a ``Fraction(0)`` start, summed in the same
  order.  Each coefficient of a product, and of the longer operand's tail in
  a sum, passes through ``Fraction(0) + c``: an int becomes a Fraction, a
  float stays a float (interior zeros included, with -0.0 read as 0.0) and
  a ``QuadExt`` stays a ``QuadExt``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul, neg, sub

from .quadext import QuadExt

_SCALARS = (int, Fraction, float, QuadExt)
_ZERO = Fraction(0)


def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _lift(coeffs):
    """Each value as a sum started from Fraction(0) would leave it."""
    return [c if type(c) is Fraction else _ZERO + c for c in coeffs]


def _convolve(a, b):
    """The coefficients of the product of two nonempty coefficient tuples,
    each a sum of a[i] * b[d - i] taken in increasing i, lifted, untrimmed."""
    n, m = len(a), len(b)
    if n == 1:
        c = a[0]
        return _lift([c * y for y in b])
    if m == 1:
        c = b[0]
        return _lift([x * c for x in a])
    rb = b[::-1]  # b[d - i] = rb[m - 1 - d + i]
    out = []
    for d in range(n + m - 1):
        lo, hi = max(0, d - m + 1), min(d, n - 1)
        out.append(reduce(add, map(mul, a[lo:hi + 1], rb[m - 1 - d + lo:m - d + hi])))
    return _lift(out)


def _poly(coeffs) -> "ScalarPoly":
    """A ScalarPoly from a fresh list of coefficients, trimmed in place."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    p = ScalarPoly.__new__(ScalarPoly)
    p.coeffs = tuple(coeffs)
    return p


class ScalarPoly:
    """A dense polynomial in one variable x.

    The zero polynomial has an empty coefficient tuple and degree -1
    (a sentinel, not a mathematical degree).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(tuple(coeffs))

    @classmethod
    def constant(cls, c) -> "ScalarPoly":
        return cls((c,))

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ScalarPoly":
        return cls((Fraction(1),))

    @classmethod
    def x(cls) -> "ScalarPoly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def monomial(cls, k: int, c=Fraction(1)) -> "ScalarPoly":
        return cls((Fraction(0),) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(map(add, a, b))
        out += _lift((a if len(a) > len(b) else b)[len(out):])
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return ScalarPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(map(sub, a, b))
        if len(a) > len(b):
            out += _lift(a[len(b):])
        else:
            out += _lift(map(neg, b[len(a):]))
        return _poly(out)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, ScalarPoly):
            if self.is_zero or other.is_zero:
                return ScalarPoly()
            return _poly(_convolve(self.coeffs, other.coeffs))
        if isinstance(other, _SCALARS):
            return ScalarPoly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def times_x(self) -> "ScalarPoly":
        """x p, with no convolution: the coefficients move up one degree,
        each lifted, under a lifted c_0 * 0.  For coefficients of one type
        (Fraction, finite float, QuadExt) these are the values
        ``self * ScalarPoly.x()`` gives, each c_k * 1 + c_(k+1) * 0."""
        c = self.coeffs
        if not c:
            return self
        return _poly(_lift([c[0] * _ZERO, *c]))

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, x0):
        """Horner evaluation; exact for Fraction input."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * x0 + c
        return out

    def compose(self, inner: "ScalarPoly") -> "ScalarPoly":
        """self(inner(x)), by Horner over polynomial arithmetic."""
        out = ScalarPoly()
        for c in reversed(self.coeffs):
            out = out * inner + ScalarPoly.constant(c)
        return out

    def shift(self, k) -> "ScalarPoly":
        """p(x + k), the composition with x + k."""
        return self.compose(ScalarPoly((k, 1)))

    def delta(self) -> "ScalarPoly":
        """Forward difference p(x+1) - p(x)."""
        return self.shift(1) - self

    def nabla(self) -> "ScalarPoly":
        """Backward difference p(x) - p(x-1)."""
        return self - self.shift(-1)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts)


def _as_poly(value):
    if isinstance(value, ScalarPoly):
        return value
    if isinstance(value, _SCALARS):
        return ScalarPoly((value,))
    return NotImplemented


class MatrixPoly:
    """An m x m (or rectangular) matrix of scalar polynomials."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(_coerce_entry(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix polynomial needs at least one entry")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix polynomial")
        self.entries = rows

    @classmethod
    def identity(cls, m: int) -> "MatrixPoly":
        one = ScalarPoly.one()
        zero = ScalarPoly.zero()
        return cls(tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m)))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "MatrixPoly":
        cols = rows if cols is None else cols
        zero = ScalarPoly.zero()
        return cls(((zero,) * cols,) * rows)

    @classmethod
    def diagonal(cls, polys) -> "MatrixPoly":
        polys = tuple(_coerce_entry(p) for p in polys)
        m = len(polys)
        zero = ScalarPoly.zero()
        return cls(tuple(tuple(polys[i] if i == j else zero for j in range(m)) for i in range(m)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def degree(self) -> int:
        return max(e.degree for row in self.entries for e in row)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def entry(self, i: int, j: int) -> ScalarPoly:
        return self.entries[i][j]

    def map(self, fn) -> "MatrixPoly":
        return MatrixPoly(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def __add__(self, other):
        self._check_same_shape(other)
        return MatrixPoly(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return MatrixPoly(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self):
        return self.map(lambda e: -e)

    def __matmul__(self, other: "MatrixPoly") -> "MatrixPoly":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch in matrix product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        columns = tuple(zip(*other.entries))
        return MatrixPoly(tuple(
            tuple(reduce(add, map(mul, row, col), ScalarPoly()) for col in columns)
            for row in self.entries
        ))

    def scale(self, s) -> "MatrixPoly":
        """Multiply every entry by a scalar or scalar polynomial (x commutes)."""
        return self.map(lambda e: e * s)

    def __eq__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def evaluate(self, x0):
        """Entrywise evaluation; returns a tuple-of-tuples scalar matrix."""
        return tuple(tuple(e.evaluate(x0) for e in row) for row in self.entries)

    def coefficient(self, k: int):
        """The k-th coefficient as a constant scalar matrix."""
        return tuple(tuple(e.coefficient(k) for e in row) for row in self.entries)

    def leading_coefficient(self):
        return self.coefficient(self.degree)

    def transpose(self) -> "MatrixPoly":
        return MatrixPoly(tuple(zip(*self.entries)))

    def shift(self, k) -> "MatrixPoly":
        return self.map(lambda e: e.shift(k))

    def delta(self) -> "MatrixPoly":
        return self.map(lambda e: e.delta())

    def nabla(self) -> "MatrixPoly":
        return self.map(lambda e: e.nabla())

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries
        )
        return f"MatrixPoly({body})"

    def _check_same_shape(self, other):
        if not isinstance(other, MatrixPoly):
            raise TypeError(f"expected MatrixPoly, got {type(other).__name__}")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _coerce_entry(e):
    if isinstance(e, ScalarPoly):
        return e
    if isinstance(e, _SCALARS):
        return ScalarPoly((e,))
    raise TypeError(f"cannot use {e!r} as a matrix polynomial entry")

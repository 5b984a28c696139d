"""Exact arithmetic in a real quadratic extension Q(sqrt(d)).

Limit studies rescale variables by a single square root (e.g. sqrt(2b)).
Carrying that root exactly as u + v*sqrt(d) keeps a rescaled construction
cancellation-free; one float rounding, ``float(u) + float(v) * sqrt(d)``,
happens only when coefficients are finally compared against a target.  The
limit sources of ``mvop.limits`` form each u and v from an integer table
and round them the same way; ``QuadExt`` couplings remain public API and
carry the tests' polynomial-algebra oracle of those sources.
"""
from __future__ import annotations

import math
from fractions import Fraction


class QuadExt:
    """u + v * sqrt(d) with exact rational u, v and fixed positive d."""

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v, d):
        self.u = Fraction(u)
        self.v = Fraction(v)
        self.d = Fraction(d)

    @classmethod
    def root(cls, d) -> "QuadExt":
        return cls(0, 1, d)

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d and other.v != 0 and self.v != 0:
                raise ValueError(f"mixed extensions sqrt({self.d}) and sqrt({other.d})")
            return QuadExt(other.u, other.v, self.d)
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.u + o.u, self.v + o.v, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.u, -self.v, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.u - o.u, self.v - o.v, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.u * o.u + self.v * o.v * self.d,
            self.u * o.v + self.v * o.u,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.u * o.u - o.v * o.v * o.d
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        conj = QuadExt(o.u / norm, -o.v / norm, self.d)
        return self * conj

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.u == o.u and self.v == o.v

    def __hash__(self):
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.d))

    def __float__(self):
        return float(self.u) + float(self.v) * math.sqrt(float(self.d))

    def __repr__(self):
        if self.v == 0:
            return str(self.u)
        return f"({self.u} + {self.v}*sqrt({self.d}))"

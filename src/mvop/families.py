"""The four classical discrete scalar weights and their orthogonal polynomials.

Each weight spec knows its pointwise value and its exact ratio
w(x + 1) / w(x), its three-term recurrence coefficients (the one
construction path for the monic polynomials), its total mass, and its
second-order difference operator and eigenvalues.  The independent oracles
that check the ladder, the Rodrigues formulas with Lagrange interpolation
and the degree-(N+1) closure x(x-1)...(x-N), live in the tests
(``tests/scalar_oracle.py``).  The continuous Hermite and Laguerre channels
carry only the recurrence and the total mass, which is all the ladder
reads: the limit targets are the same closed form built on them.

Squared norms are carried as an exact rational coefficient times a symbolic
mass factor, so that ratios of norms inside one family are exact rationals
and cross-family ratios isolate the one transcendental constant.

A ladder on a finite support is certified orthogonal for its weight, with
its norms, once per process (``certify_ladder``): the exact Gram in the
channel basis trusts the ladders.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import SpecError
from .poly import ScalarPoly
from .rational import (binomial, format_rational, json_int, over_lcm, pochhammer, rational,
                       spec_field)
from .record import frozen


@frozen
class Mass:
    """A total mass written as e**exp_arg * prod(base**exponent).

    Rational masses are folded into norm coefficients and carry the trivial
    Mass.  Quotients of masses with the same transcendental content cancel to
    exact rationals; anything left is the symbolic part that identity checks
    replace by a rational probe and numeric checks evaluate as a float.
    """

    exp_arg: Fraction = Fraction(0)
    powers: tuple = ()  # sorted ((base, exponent), ...), exponents nonzero

    @classmethod
    def one(cls) -> "Mass":
        return cls()

    @classmethod
    def exponential(cls, arg) -> "Mass":
        return cls(exp_arg=Fraction(arg))

    @classmethod
    def power(cls, base, exponent) -> "Mass":
        return cls()._combine(Mass(powers=(((Fraction(base)), Fraction(exponent)),)), 1)

    def _combine(self, other: "Mass", sign: int) -> "Mass":
        exp_arg = self.exp_arg + sign * other.exp_arg
        acc = dict(self.powers)
        for base, exponent in other.powers:
            acc[base] = acc.get(base, Fraction(0)) + sign * exponent
        powers = tuple(sorted((b, e) for b, e in acc.items() if e != 0))
        return Mass(exp_arg=exp_arg, powers=powers)

    def __mul__(self, other: "Mass") -> "Mass":
        return self._combine(other, 1)

    def __truediv__(self, other: "Mass") -> "Mass":
        return self._combine(other, -1)

    @property
    def is_rational(self) -> bool:
        return self.exp_arg == 0 and all(
            e.denominator == 1 for _, e in self.powers
        )

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"mass {self} is not rational")
        out = Fraction(1)
        for base, exponent in self.powers:
            out *= Fraction(base) ** int(exponent)
        return out

    def float_value(self) -> float:
        out = math.exp(float(self.exp_arg))
        for base, exponent in self.powers:
            out *= float(base) ** float(exponent)
        return out

    def __repr__(self):
        parts = []
        if self.exp_arg != 0:
            parts.append(f"e^({self.exp_arg})")
        parts.extend(f"({b})^({e})" for b, e in self.powers)
        return " * ".join(parts) if parts else "1"


@frozen
class NormValue:
    """A squared norm: exact rational coefficient times a mass factor."""

    coefficient: Fraction
    mass: Mass = Mass.one()

    def scaled(self, factor) -> "NormValue":
        return NormValue(self.coefficient * factor, self.mass)

    @property
    def is_rational(self) -> bool:
        return self.mass.is_rational

    def rational_value(self) -> Fraction:
        return self.coefficient * self.mass.rational_value()

    def float_value(self) -> float:
        return float(self.coefficient) * self.mass.float_value()


@frozen
class ScalarOperator:
    """A second-order difference operator delta = Delta f + k - nabla g.

    Acting on the right of a polynomial p:
        p . delta = Delta(p) * f + p * k - nabla(p) * g,
    with eigenvalue(n) the exact eigenvalue on the family's degree-n monic
    polynomial.
    """

    f: ScalarPoly
    k: ScalarPoly
    g: ScalarPoly
    eigenvalue: object  # Callable[[int], Fraction]

    def apply(self, p: ScalarPoly) -> ScalarPoly:
        return p.delta() * self.f + p * self.k - p.nabla() * self.g


# --------------------------------------------------------------------------
# weight specs


@frozen
class Charlier:
    """Weight b^x / x! on the nonnegative integers, b > 0."""

    b: Fraction
    kind = "charlier"

    def __post_init__(self):
        object.__setattr__(self, "b", rational(self.b))
        if self.b <= 0:
            raise SpecError(f"charlier weight needs b > 0, got b = {self.b}")

    support_N = None

    def weight(self, x: int) -> Fraction:
        if x < 0:
            return Fraction(0)
        return self.b**x / math.factorial(x)

    def weight_ratio(self, x: int) -> Fraction:
        """w(x + 1) / w(x)."""
        return self.b / (x + 1)

    def recurrence_bc(self, n: int):
        return Fraction(n) + self.b, Fraction(n) * self.b

    def total_mass(self) -> NormValue:
        return NormValue(Fraction(1), Mass.exponential(self.b))

    def operator(self) -> ScalarOperator:
        return ScalarOperator(
            f=ScalarPoly.constant(self.b),
            k=ScalarPoly.zero(),
            g=ScalarPoly.x(),
            eigenvalue=lambda n: Fraction(-n),
        )

    def to_json(self):
        return {"kind": "charlier", "b": format_rational(self.b)}


@frozen
class Meixner:
    """Weight (beta)_x c^x / x! on the nonnegative integers."""

    beta: Fraction
    c: Fraction
    kind = "meixner"

    def __post_init__(self):
        object.__setattr__(self, "beta", rational(self.beta))
        object.__setattr__(self, "c", rational(self.c))
        if self.beta <= 0:
            raise SpecError(f"meixner weight needs beta > 0, got {self.beta}")
        if not 0 < self.c < 1:
            raise SpecError(f"meixner weight needs 0 < c < 1, got c = {self.c}")

    support_N = None

    def weight(self, x: int) -> Fraction:
        if x < 0:
            return Fraction(0)
        return pochhammer(self.beta, x) * self.c**x / math.factorial(x)

    def weight_ratio(self, x: int) -> Fraction:
        """w(x + 1) / w(x)."""
        return (self.beta + x) * self.c / (x + 1)

    def recurrence_bc(self, n: int):
        beta, c = self.beta, self.c
        b_n = (n + (n + beta) * c) / (1 - c)
        c_n = n * (n + beta - 1) * c / (1 - c) ** 2
        return b_n, c_n

    def total_mass(self) -> NormValue:
        return NormValue(Fraction(1), Mass.power(1 - self.c, -self.beta))

    def operator(self) -> ScalarOperator:
        beta, c = self.beta, self.c
        return ScalarOperator(
            f=ScalarPoly((c * beta, c)),
            k=ScalarPoly.zero(),
            g=ScalarPoly.x(),
            eigenvalue=lambda n: Fraction(n) * (c - 1),
        )

    def to_json(self):
        return {
            "kind": "meixner",
            "beta": format_rational(self.beta),
            "c": format_rational(self.c),
        }


@frozen
class Krawtchouk:
    """Weight binom(N, x) p^x (1-p)^(N-x) on {0, ..., N}."""

    p: Fraction
    N: int
    kind = "krawtchouk"

    def __post_init__(self):
        object.__setattr__(self, "p", rational(self.p))
        if not 0 < self.p < 1:
            raise SpecError(f"krawtchouk weight needs 0 < p < 1, got p = {self.p}")
        if not (isinstance(self.N, int) and self.N >= 1):
            raise SpecError(f"krawtchouk weight needs integer N >= 1, got N = {self.N}")

    @property
    def support_N(self) -> int:
        return self.N

    def weight(self, x: int) -> Fraction:
        if x < 0 or x > self.N:
            return Fraction(0)
        return binomial(self.N, x) * self.p**x * (1 - self.p) ** (self.N - x)

    def weight_ratio(self, x: int) -> Fraction:
        """w(x + 1) / w(x), for 0 <= x < N."""
        return (self.N - x) * self.p / ((x + 1) * (1 - self.p))

    def recurrence_bc(self, n: int):
        p, N = self.p, self.N
        b_n = p * (N - n) + n * (1 - p)
        c_n = Fraction(n) * p * (1 - p) * (N + 1 - n)
        return b_n, c_n

    def total_mass(self) -> NormValue:
        # binomial theorem: sum_x binom(N,x) p^x (1-p)^(N-x) = 1
        return NormValue(Fraction(1), Mass.one())

    def operator(self) -> ScalarOperator:
        p, N = self.p, self.N
        return ScalarOperator(
            f=ScalarPoly((p * N, -p)),
            k=ScalarPoly.zero(),
            g=ScalarPoly((Fraction(0), 1 - p)),
            eigenvalue=lambda n: Fraction(-n),
        )

    def to_json(self):
        return {"kind": "krawtchouk", "p": format_rational(self.p), "N": self.N}


@frozen
class Hahn:
    """Weight binom(alpha+x, x) binom(beta+N-x, N-x) on {0, ..., N}.

    Parameters must satisfy alpha, beta > -1 or alpha, beta < -N.  Rational
    parameters can make the recurrence denominators (2n + alpha + beta),
    (2n + alpha + beta + 1), (2n + alpha + beta + 2) vanish for some needed
    n; such specs are rejected at construction with the offending n named.
    The gate is one test, not a loop over n: the denominators vanish for
    some n = 0..N exactly when -(alpha + beta) is an integer in 1..2N+2.
    ``recurrence_bc`` raises the same SpecError for b_(N+1), which only the
    closure companion reads, at -(alpha + beta) in {2N+3, 2N+4}.
    """

    alpha: Fraction
    beta: Fraction
    N: int
    kind = "hahn"

    def __post_init__(self):
        object.__setattr__(self, "alpha", rational(self.alpha))
        object.__setattr__(self, "beta", rational(self.beta))
        if not (isinstance(self.N, int) and self.N >= 1):
            raise SpecError(f"hahn weight needs integer N >= 1, got N = {self.N}")
        ok = (self.alpha > -1 and self.beta > -1) or (
            self.alpha < -self.N and self.beta < -self.N
        )
        if not ok:
            raise SpecError(
                "hahn weight needs alpha, beta > -1 or alpha, beta < -N, got "
                f"alpha = {self.alpha}, beta = {self.beta}, N = {self.N}"
            )
        # 2n + s + 1 or 2n + s + 2 (s = alpha + beta) vanishes for some
        # n = 0..N exactly when -s is an integer in 1..2N+2, first at
        # n = (-s - 1) // 2; 2n + s = 0 at n >= 1 is 2(n-1) + s + 2 = 0,
        # met one degree earlier
        s = -(self.alpha + self.beta)
        if s.denominator == 1 and 1 <= s <= 2 * self.N + 2:
            raise SpecError(
                f"hahn recurrence degenerates at n = {(s.numerator - 1) // 2}: "
                f"2n + alpha + beta + 1 or + 2 vanishes"
            )

    @property
    def support_N(self) -> int:
        return self.N

    def weight(self, x: int) -> Fraction:
        if x < 0 or x > self.N:
            return Fraction(0)
        return binomial(self.alpha + x, x) * binomial(self.beta + self.N - x, self.N - x)

    def weight_ratio(self, x: int) -> Fraction:
        """w(x + 1) / w(x), for 0 <= x < N; no factor vanishes under the
        parameter gate."""
        return (self.alpha + x + 1) * (self.N - x) / ((x + 1) * (self.beta + self.N - x))

    def _t(self, n: int) -> Fraction:
        alpha, beta, N = self.alpha, self.beta, self.N
        s = alpha + beta
        return (
            (n + s + 1)
            * (n + alpha + 1)
            * (N - n)
            / ((2 * n + s + 1) * (2 * n + s + 2))
        )

    def _s(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        alpha, beta, N = self.alpha, self.beta, self.N
        s = alpha + beta
        return n * (n + s + N + 1) * (n + beta) / ((2 * n + s) * (2 * n + s + 1))

    def recurrence_bc(self, n: int):
        # c_0 = t_(-1) s_0 and c_(N+1) = t_N s_(N+1) (t_N = 0) are 0, which
        # avoids 0/0 at alpha + beta in {0, -1} and 0 (1/0) at -(2N + 3)
        c_n = Fraction(0) if n in (0, self.N + 1) else self._t(n - 1) * self._s(n)
        try:
            return self._t(n) + self._s(n), c_n
        except ZeroDivisionError:
            raise SpecError(
                f"hahn recurrence degenerates at n = {n}: "
                f"2n + alpha + beta + 1 or + 2 vanishes"
            ) from None

    def total_mass(self) -> NormValue:
        # Vandermonde: sum_x binom(alpha+x,x) binom(beta+N-x,N-x)
        #            = binom(alpha+beta+N+1, N), a polynomial identity.
        return NormValue(
            binomial(self.alpha + self.beta + self.N + 1, self.N), Mass.one()
        )

    def operator(self) -> ScalarOperator:
        alpha, beta, N = self.alpha, self.beta, self.N
        f = ScalarPoly((alpha + 1, 1)) * ScalarPoly((-N, 1))
        g = ScalarPoly.x() * ScalarPoly((-beta - N - 1, 1))
        return ScalarOperator(
            f=f,
            k=ScalarPoly.zero(),
            g=g,
            eigenvalue=lambda n: Fraction(n) * (n + alpha + beta + 1),
        )

    def to_json(self):
        return {
            "kind": "hahn",
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "N": self.N,
        }


# --------------------------------------------------------------------------
# continuous channels: only what the ladder reads, for the limit targets


@frozen
class Hermite:
    """Weight e^(-x^2) on the real line, normalized to total mass 1."""

    support_N = None

    def recurrence_bc(self, n: int):
        return Fraction(0), Fraction(n, 2)

    def total_mass(self) -> NormValue:
        return NormValue(Fraction(1), Mass.one())


@frozen
class Laguerre:
    """Weight x^alpha e^(-x) on x > 0, alpha > -1, normalized to total mass 1."""

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", rational(self.alpha))
        if self.alpha <= -1:
            raise SpecError(f"laguerre weight needs alpha > -1, got alpha = {self.alpha}")

    support_N = None

    def recurrence_bc(self, n: int):
        return 2 * n + self.alpha + 1, n * (n + self.alpha)

    def total_mass(self) -> NormValue:
        return NormValue(Fraction(1), Mass.one())


# --------------------------------------------------------------------------
# family-level operations


def check_degree(spec, n: int):
    """A SpecError unless the channel has a degree-n ladder step: 0 <= n,
    and n <= N + 1 on a finite support."""
    if n < 0:
        raise SpecError(f"polynomial degree must be >= 0, got {n}")
    top = spec.support_N
    if top is not None and n > top + 1:
        raise SpecError(
            f"only {top + 1} orthogonal polynomials exist on a support of size "
            f"{top + 1}; degree {n} exceeds the degree-{top + 1} extension"
        )


class _Ladder:
    """One channel's monic polynomials and squared norms, grown by the
    three-term recurrence x p_k = p_(k+1) + b_k p_k + c_k p_(k-1) (Koekoek,
    Lesky & Swarttouw, Springer 2010, ch. 9) as far as any caller has asked:
    each coefficient pair (b_k, c_k) is evaluated once, and
    |p_k|^2 = c_k |p_(k-1)|^2 from the total mass.

    Each p_k is held as integer coefficients over their least common
    denominator d_k (``integer``).  With b_k and c_k as reduced fractions,
    D = lcm(d_k den(b_k), d_(k-1) den(c_k)) puts D p_(k+1) in integers, and
    one gcd per degree reduces it: p_(k+1) is monic, so its leading
    coefficient D is among the integers the gcd reads, and what is left is
    over d_(k+1).  The ``ScalarPoly`` view (``polynomial``) is built from
    the integers, once per degree, only where it is read."""

    def __init__(self, spec):
        self.spec = spec
        self.bc = []
        self.ints = [((1,), 1)]
        self.views = {}
        self.norms = []

    def coefficients(self, k: int):
        """recurrence_bc(k), once."""
        while len(self.bc) <= k:
            self.bc.append(self.spec.recurrence_bc(len(self.bc)))
        return self.bc[k]

    def integer(self, n: int):
        """p_n as (d p_n's integer coefficients, lowest degree first, d), d
        the least common denominator of p_n's coefficients."""
        ints = self.ints
        while len(ints) <= n:
            k = len(ints) - 1
            b, c = self.coefficients(k)
            here, d = ints[k]
            prev, e = ints[k - 1] if k else ((), 1)
            D = math.lcm(d * b.denominator, e * c.denominator)
            fb = b.numerator * (D // (d * b.denominator))
            fc = c.numerator * (D // (e * c.denominator))
            nxt = [0] + [D // d * h for h in here]
            for i, h in enumerate(here):
                nxt[i] -= fb * h
            for i, v in enumerate(prev):
                nxt[i] -= fc * v
            g = math.gcd(*nxt)
            ints.append((tuple(v // g for v in nxt), D // g))
        return ints[n]

    def polynomial(self, n: int) -> ScalarPoly:
        """p_n with ``Fraction`` coefficients."""
        view = self.views.get(n)
        if view is None:
            coeffs, d = self.integer(n)
            view = self.views[n] = ScalarPoly(Fraction(c, d) for c in coeffs)
        return view

    def norm(self, n: int) -> NormValue:
        norms = self.norms
        if not norms:
            norms.append(self.spec.total_mass())
        while len(norms) <= n:
            norms.append(norms[-1].scaled(self.coefficients(len(norms))[1]))
        return norms[n]


@lru_cache(maxsize=None)
def certify_ladder(lad) -> str:
    """Once per ladder, "" when a channel's ladder is orthogonal for its
    weight with the ladder's norms, else the identity that fails.  On a
    finite support {0..N}, by Favard's theorem three facts suffice:
    sum_x w(x) is the ladder's mass |p_0|^2, sum_x w(x) p_j(x) = 0 for
    1 <= j <= N, and p_(N+1) vanishes at x = 0..N.  The support sum of any
    polynomial is then |p_0|^2 times its p_0 coefficient modulo p_(N+1), so
    sum_x w(x) p_j(x) p_k(x) is |p_j|^2 = c_1 ... c_j |p_0|^2 for j = k and
    0 otherwise, for j, k <= N.  Checked in integers, in O(N^2): with D the
    common denominator of b_0..b_N and c_0..c_N, D^j p_j(x) is the integer
    grown by D^(j+1) p_(j+1) = (D x - D b_j) D^j p_j - D^2 c_j D^(j-1) p_(j-1),
    and the weights (``weight_sequence``) are put over one denominator.  An
    infinite support has no finite sum: its ladder's trust base is the
    classical theorem (Koekoek, Lesky & Swarttouw, Springer 2010, ch. 9),
    and it returns ""."""
    top = lad.spec.support_N
    if top is None:
        return ""
    (w,), scale = over_lcm((weight_sequence(lad.spec, top),))
    mass, total = lad.norm(0).rational_value(), Fraction(sum(w), scale)
    if total != mass:
        return f"sum_x w(x) = {total}, not the ladder's mass {mass}"
    bc, D = over_lcm([lad.coefficients(j) for j in range(top + 1)])
    prev, here = [0] * (top + 1), [1] * (top + 1)
    for j, (b, c) in enumerate(bc):
        prev, here = here, [(D * x - b) * h - D * c * p for x, (h, p) in enumerate(zip(here, prev))]
        total = sum(map(mul, w, here))
        if j < top and total:
            return f"sum_x w(x) p_{j + 1}(x) = {Fraction(total, scale * D ** (j + 1))}, not 0"
    return next((f"p_{top + 1}({x}) = {Fraction(v, D ** (top + 1))}, not 0"
                 for x, v in enumerate(here) if v), "")


@lru_cache(maxsize=None)
def ladder(spec) -> _Ladder:
    """The channel's one growing ladder."""
    return _Ladder(spec)


def monic_polynomial(spec, n: int) -> ScalarPoly:
    """The degree-n monic orthogonal polynomial, built from the recurrence.

    On a finite support {0..N} the value n = N+1 returns the natural
    extension x(x-1)...(x-N), which the recurrence itself produces.
    """
    check_degree(spec, n)
    return ladder(spec).polynomial(n)


def weight_sequence(spec, stop: int) -> list:
    """w(0), ..., w(stop) of a discrete weight, each grown from the last by
    the exact ratio w(x + 1) / w(x): O(1) rational operations per point,
    where ``weight(x)`` rebuilds powers, factorials and Pochhammer symbols.
    ``stop`` must not pass a finite support's N."""
    out = [spec.weight(0)]
    for x in range(stop):
        out.append(out[-1] * spec.weight_ratio(x))
    return out


def squared_norm(spec, n: int) -> NormValue:
    """Squared norm of the degree-n monic polynomial.

    Computed by the exact ladder |p_n|^2 = c_n |p_(n-1)|^2 anchored at the
    total mass.  On finite support c_(N+1) = 0, so the degree-(N+1)
    extension has norm zero.
    """
    check_degree(spec, n)
    return ladder(spec).norm(n)


# --------------------------------------------------------------------------
# JSON wire format

_KINDS = {"charlier", "meixner", "krawtchouk", "hahn"}


def weight_spec_from_json(data: dict):
    def field(key, convert=rational):
        return spec_field(data, key, convert, f"scalar weight spec {data!r}")

    kind = field("kind", str)
    if kind not in _KINDS:
        raise SpecError(f"unknown scalar weight kind: {kind!r}")
    if kind == "charlier":
        return Charlier(b=field("b"))
    if kind == "meixner":
        return Meixner(beta=field("beta"), c=field("c"))
    if kind == "krawtchouk":
        return Krawtchouk(p=field("p"), N=field("N", json_int))
    return Hahn(alpha=field("alpha"), beta=field("beta"), N=field("N", json_int))

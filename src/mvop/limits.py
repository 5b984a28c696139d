"""Limit transitions between the matrix families, and continuous targets.

Seven parameter limits carry one family into another after the variable
changes, normalizations and right multipliers fixed per transition below.
Convergence is measured coefficientwise: each ladder step reports the max
absolute difference between the transformed source polynomial and the target.

Every target is the closed-form construction on its channel pair, discrete
or continuous.  The tests check the continuous Hermite/Laguerre targets
exactly against their second-order differential equations, and the two
Hermite routes against each other (``tests/limit_oracle.py``).
``TRANSITIONS`` holds each transition's parameter names, ladder checks,
source step and target channels.

The sources that rescale the variable need no polynomial algebra.  The two
Hermite sources are read off one integer table of Q_n on their channel pair
at coupling 1 (``_hermite_source``): the coupling a / sqrt(d), the shift to
sqrt(d) x + center and the right factor leave each coefficient an exact
rational times a power of sqrt(d), so it is rounded to float once, as the
exact quadratic extension Q(sqrt(d)) would round it, and reported errors
reflect the mathematical limit, not float noise.  The Meixner -> Laguerre
source scales coefficient k of Q_n by (1 - c)^(n - k).  The polynomial
algebra in the quadratic extension that these replace is the tests' oracle
(``tests/limit_oracle.py``), and every reported float must equal the one
it gives.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .construction import FamilySpec, norm_ratio, orthogonal_polynomial, orthogonal_table
from .errors import SpecError
from .families import Charlier, Hahn, Hermite, Krawtchouk, Laguerre, Meixner
from .poly import MatrixPoly, ScalarPoly
from .rational import format_rational, json_int, json_list, json_typed, rational, spec_field
from .record import frozen

# Exact arithmetic keeps large-N Hahn ladders well conditioned, but their
# recurrence coefficients grow with N; cap the ladder at desk scale.
HAHN_LADDER_CAP = 2000


@frozen
class TransitionSpec:
    """One limit study: transition name, degree, coupling, fixed parameters,
    and a strictly increasing ladder of limit-parameter values."""

    name: str
    n: int
    a: Fraction
    ladder: tuple
    params: tuple = ()  # sorted ((key, value), ...)

    def __post_init__(self):
        if self.name not in TRANSITIONS:
            raise SpecError(
                f"unknown transition {self.name!r}; expected one of {tuple(TRANSITIONS)}"
            )
        object.__setattr__(self, "a", rational(self.a))
        if self.a == 0:
            raise SpecError("transition needs a nonzero coupling value")
        if self.n < 0:
            raise SpecError(f"transition degree must be >= 0, got {self.n}")
        ladder = tuple(rational(v) for v in self.ladder)
        object.__setattr__(self, "ladder", ladder)
        if len(ladder) < 2:
            raise SpecError(
                "a ladder needs at least two steps; monotonicity of a single "
                "step is undefined"
            )
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise SpecError("ladder values must be strictly increasing")
        params = tuple(sorted((str(k), rational(v)) for k, v in self.params))
        object.__setattr__(self, "params", params)
        transition = TRANSITIONS[self.name]
        if tuple(k for k, _ in params) != transition.params:
            raise SpecError(
                f"transition {self.name!r} takes params {list(transition.params)}, "
                f"got {[k for k, _ in params]}"
            )
        for value in ladder:
            for ok, message in transition.checks:
                if not ok(self, value):
                    fields = dict(params, v=value, n=self.n, name=self.name)
                    raise SpecError(message.format(**fields))

    def param(self, key: str) -> Fraction:
        return dict(self.params)[key]

    def to_json(self):
        return {
            "name": self.name,
            "n": self.n,
            "a": format_rational(self.a),
            "ladder": [format_rational(v) for v in self.ladder],
            "params": {k: format_rational(v) for k, v in self.params},
        }


def transition_spec_from_json(data: dict) -> TransitionSpec:
    def field(key, convert):
        return spec_field(data, key, convert, "transition spec")

    def params(value):
        return tuple((k, rational(v)) for k, v in json_typed(value, dict).items())

    return TransitionSpec(
        name=field("name", str),
        n=field("n", json_int),
        a=field("a", rational),
        ladder=field("ladder", json_list),
        params=field("params", params) if "params" in data else (),
    )


# --------------------------------------------------------------------------
# continuous targets


def continuous_target(kind: str, n: int, a, alpha=None) -> MatrixPoly:
    """The 2x2 continuous Hermite or Laguerre matrix polynomial of degree n:
    the closed form of ``orthogonal_polynomial`` on two equal continuous
    channels."""
    if kind == "hermite":
        ch = Hermite()
    elif kind == "laguerre":
        if alpha is None:
            raise SpecError("laguerre target needs the parameter alpha")
        ch = Laguerre(alpha)
    else:
        raise SpecError(f"unknown continuous target kind {kind!r}")
    return orthogonal_polynomial(_pair_spec(rational(a), ch, ch), n)


# --------------------------------------------------------------------------
# coefficient comparison


def coefficient_error(src: MatrixPoly, tgt: MatrixPoly):
    """(max absolute, max relative) coefficient difference between two
    matrix polynomials."""
    deg = max(src.degree, tgt.degree, 0)
    abs_err = 0.0
    tgt_max = 0.0
    for i in range(src.rows):
        for j in range(src.cols):
            for k in range(deg + 1):
                s = float(src.entry(i, j).coefficient(k))
                t = float(tgt.entry(i, j).coefficient(k))
                abs_err = max(abs_err, abs(s - t))
                tgt_max = max(tgt_max, abs(t))
    rel = abs_err / tgt_max if tgt_max > 0 else abs_err
    return abs_err, rel


# --------------------------------------------------------------------------
# transition pipelines


def _pair_spec(a, ch1, ch2) -> FamilySpec:
    return FamilySpec(a=(a,), channels=(ch1, ch2))


def _same(ch):
    return ch, ch


def _discrete(pair, extras=lambda t, spec: ()):
    """The step of a transition whose source is the family on the channel
    pair ``pair(t, value)`` at the transition's own coupling, unscaled."""

    def step(t: TransitionSpec, value):
        spec = _pair_spec(t.a, *pair(t, value))
        return orthogonal_polynomial(spec, t.n), extras(t, spec)

    return step


def _hermite_source(t: TransitionSpec, ch, d, center, power=0, scale=1.0) -> MatrixPoly:
    """Q_n on (ch, ch) at coupling a / s, s = sqrt(d), in the variable
    s x + center, times [[1, a center / s], [0, 1]] on the right and s^power,
    read off one integer table; each coefficient is rounded to float and
    then multiplied by the float ``scale``.

    At coupling c the pair has Q_n = [[p_n, c T_01], [c T_10, p_n + c^2 S]]
    with T_01 = p_(n+1) - x p_n, T_10 = -nu_n p_(n-1), S = nu_n x p_(n-1)
    and nu_n = |p_n|^2 / |p_(n-1)|^2; ``orthogonal_table`` at c = 1 holds
    p_n, T_01, T_10 and p_n + S.  Shifted by center, their coefficients are
    rational, and with a / s = (a / d) s and the s^k of x^k, the coefficient
    of x^k in entry (i, j) is an exact rational times s^e,
    e = k + [i != j] + power.  As s^e = d^(e // 2) s^(e % 2), that is
    u + v s with u = 0 for odd e and v = 0 for even e: the u and v the
    quadratic extension would hold, rounded as it rounds them."""
    table = orthogonal_table(_pair_spec(Fraction(1), ch, ch), t.n)

    def shifted(cs):  # to degree n, the degree of p_n; the others are at most n
        out = ScalarPoly(Fraction(c, table.scale) for c in cs).shift(center).coeffs
        return out + (0,) * (t.n + 1 - len(out))

    (p, t01), (t10, t11) = ([shifted(cs) for cs in row] for row in table.coefficients)
    # a / s = (a / d) s and (a / s)^2 = a^2 / d
    c1, c2 = t.a / d, t.a * t.a / d
    entries = (
        (p, [c1 * (center * u + v) for u, v in zip(p, t01)]),
        ([c1 * v for v in t10],
         [u + c2 * (center * v + w - u) for u, v, w in zip(p, t10, t11)]),
    )
    root = math.sqrt(float(d))

    def rounded(value, e):
        u, v = (0, value) if e % 2 else (value, 0)
        return float(u) + float(v) * root

    return MatrixPoly(tuple(tuple(
        ScalarPoly(tuple(rounded(value * d ** (e // 2), e) * scale
                         for e, value in enumerate(cs, (i != j) + power)))
        for j, cs in enumerate(row)) for i, row in enumerate(entries)))


def _kraw_to_hermite(t: TransitionSpec, value):
    """The source times the float (N!/(N-n)! (2p(1-p))^n)^(-1/2)."""
    p = t.param("p")
    N = int(value)
    ch = Krawtchouk(p=p, N=N)  # its gates name p and N before any float is taken
    scale = math.exp(-0.5 * (sum(math.log(j) for j in range(N - t.n + 1, N + 1))
                             + t.n * math.log(float(2 * p * (1 - p)))))
    return _hermite_source(t, ch, 2 * N * p * (1 - p), p * N, scale=scale), ()


def _charlier_to_hermite(t: TransitionSpec, b):
    """The source times (2b)^(-n/2), exactly."""
    return _hermite_source(t, Charlier(b=b), 2 * b, b, power=-t.n), ()


def _meixner_to_laguerre(t: TransitionSpec, c):
    """Q_n at coupling a (1 - c) in the variable x / (1 - c), times
    (1 - c)^n: coefficient k times (1 - c)^(n - k)."""
    ch = Meixner(beta=t.param("alpha") + 1, c=c)
    Q = orthogonal_polynomial(_pair_spec(t.a * (1 - c), ch, ch), t.n)
    return Q.map(lambda e: ScalarPoly(tuple(
        v * (1 - c) ** (t.n - k) for k, v in enumerate(e.coeffs)))), ()


def _meixner_to_charlier(t: TransitionSpec, beta):
    b = t.param("b")
    return _same(Meixner(beta=beta, c=b / (b + beta)))


def _hahn_to_meixner(t: TransitionSpec, N):
    beta, lam = t.param("beta"), N * (1 - t.param("c")) / t.param("c")
    return Hahn(alpha=beta + 1, beta=lam, N=int(N)), Hahn(alpha=beta - 1, beta=lam, N=int(N))


def _hahn_to_krawtchouk(t: TransitionSpec, tt):
    p, N = t.param("p"), int(t.param("N"))
    return (
        Hahn(alpha=p * tt, beta=(1 - p) * tt, N=N),
        Hahn(alpha=p * (tt + 2), beta=(1 - p) * (tt + 2), N=N),
    )


def _coupling_ratio(t: TransitionSpec, spec: FamilySpec):
    """mu_n = |p_n^(w_2)|^2 / |p_(n-1)^(w_1)|^2 and its Krawtchouk limit."""
    if t.n == 0:
        return ()
    p, N = t.param("p"), t.param("N")
    mu = norm_ratio(spec, 1, t.n, 0, t.n - 1)
    mu_limit = Fraction(t.n) * (N + 1 - t.n) * p * (1 - p)
    return (("mu_n", float(mu)), ("mu_limit", float(mu_limit)))


@frozen
class Transition:
    """One limit transition.  A ladder step v is admissible when ``ok(t, v)``
    holds for every (ok, message) check; the first that fails raises its
    message, formatted with v, the degree n, the name and the params."""

    params: tuple  # the names of the fixed parameters, sorted
    checks: tuple
    step: Callable  # (t, v) -> (source at step v, extras)
    target: Callable  # t -> the target's channel pair


_N_ABOVE_n = (
    lambda t, N: N.denominator == 1 and N > t.n,
    "ladder step N = {v} is inadmissible: needs integer N > n",
)


def _positive(symbol):
    return (lambda t, v: v > 0, f"ladder step {symbol} = {{v}} must be positive")


TRANSITIONS = {
    "krawtchouk->charlier": Transition(
        ("b",),
        (
            (lambda t, N: N.denominator == 1 and N > t.param("b"),
             "ladder step N = {v} is inadmissible: needs integer N > b = {b}"),
            (lambda t, N: N >= t.n, "degree n = {n} exceeds ladder step N = {v}: needs n <= N"),
        ),
        _discrete(lambda t, N: _same(Krawtchouk(p=t.param("b") / N, N=int(N)))),
        lambda t: _same(Charlier(b=t.param("b"))),
    ),
    "krawtchouk->hermite": Transition(
        ("p",), (_N_ABOVE_n,), _kraw_to_hermite, lambda t: _same(Hermite())
    ),
    "charlier->hermite": Transition(
        (), (_positive("b"),), _charlier_to_hermite, lambda t: _same(Hermite())
    ),
    "meixner->charlier": Transition(
        ("b",),
        (_positive("beta"),),
        _discrete(_meixner_to_charlier),
        lambda t: _same(Charlier(b=t.param("b"))),
    ),
    "meixner->laguerre": Transition(
        ("alpha",),
        ((lambda t, c: 0 < c < 1, "ladder step c = {v} is inadmissible: needs 0 < c < 1"),),
        _meixner_to_laguerre,
        lambda t: _same(Laguerre(t.param("alpha"))),
    ),
    "hahn->meixner": Transition(
        ("beta", "c"),
        (
            (lambda t, N: t.ladder[-1] <= HAHN_LADDER_CAP,
             f"{{name}} ladder is capped at N = {HAHN_LADDER_CAP}"),
            _N_ABOVE_n,
        ),
        _discrete(_hahn_to_meixner),
        lambda t: (Meixner(beta=t.param("beta") + 2, c=t.param("c")),
                   Meixner(beta=t.param("beta"), c=t.param("c"))),
    ),
    "hahn->krawtchouk": Transition(
        ("N", "p"),
        (
            (lambda t, v: t.param("N").denominator == 1 and t.param("N") >= 1,
             "parameter N = {N} in params must be an integer >= 1"),
            (lambda t, v: t.n <= t.param("N"),
             "degree n = {n} exceeds parameter N = {N}: needs n <= N"),
            _positive("t"),
        ),
        _discrete(_hahn_to_krawtchouk, _coupling_ratio),
        lambda t: _same(Krawtchouk(p=t.param("p"), N=int(t.param("N")))),
    ),
}


@frozen
class TransitionStep:
    ladder_value: Fraction
    max_abs_error: float
    rel_error: float
    extras: tuple = ()

    def to_json(self):
        out = {
            "ladder": format_rational(self.ladder_value),
            "max_abs_error": self.max_abs_error,
            "rel_error": self.rel_error,
        }
        out.update({k: v for k, v in self.extras})
        return out


@frozen
class ConvergenceReport:
    name: str
    n: int
    a: Fraction
    steps: tuple
    target: MatrixPoly

    @property
    def monotone(self) -> bool:
        """Whether each step's error is below the previous one's, or both are
        exactly 0.0: a route that lands on its target at every step (as at
        degree 0) has nothing left to decrease."""
        errs = [s.max_abs_error for s in self.steps]
        return all(b < a or a == b == 0.0 for a, b in zip(errs, errs[1:]))

    @property
    def final_rel_error(self) -> float:
        return self.steps[-1].rel_error


def run_transition(t: TransitionSpec) -> ConvergenceReport:
    """Evaluate the transition along its ladder and report per-step errors."""
    transition = TRANSITIONS[t.name]
    target = orthogonal_polynomial(_pair_spec(t.a, *transition.target(t)), t.n)
    steps = []
    for value in t.ladder:
        src, extras = transition.step(t, value)
        abs_err, rel_err = coefficient_error(src, target)
        steps.append(
            TransitionStep(
                ladder_value=value,
                max_abs_error=abs_err,
                rel_error=rel_err,
                extras=extras,
            )
        )
    return ConvergenceReport(name=t.name, n=t.n, a=t.a, steps=tuple(steps), target=target)

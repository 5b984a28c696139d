"""Limit transitions between the matrix families, and continuous targets.

Seven parameter limits carry one family into another after the variable
changes, normalizations and right multipliers fixed per transition below.
Convergence is measured coefficientwise: each ladder step reports the max
absolute difference between the transformed source polynomial and the target.

Discrete targets are the exact constructed polynomials of the target family.
The continuous Hermite/Laguerre targets are built from the monic scalar
recurrences and verified exactly against their second-order differential
equations.  Rescalings by a single square root are carried in the exact
quadratic extension, so reported errors reflect the mathematical limit, not
float noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .construction import FamilySpec, norm_ratio, orthogonal_polynomial
from .errors import SpecError
from .families import Charlier, Hahn, Krawtchouk, Meixner
from .poly import MatrixPoly, ScalarPoly
from .quadext import QuadExt
from .rational import format_rational, json_int, json_list, json_typed, rational, spec_field

TRANSITION_NAMES = (
    "krawtchouk->charlier",
    "krawtchouk->hermite",
    "charlier->hermite",
    "meixner->charlier",
    "meixner->laguerre",
    "hahn->meixner",
    "hahn->krawtchouk",
)

# Exact arithmetic keeps large-N Hahn ladders well conditioned, but their
# recurrence coefficients grow with N; cap the ladder at desk scale.
HAHN_LADDER_CAP = 2000


@dataclass(frozen=True)
class TransitionSpec:
    """One limit study: transition name, degree, coupling, fixed parameters,
    and a strictly increasing ladder of limit-parameter values."""

    name: str
    n: int
    a: Fraction
    ladder: tuple
    params: tuple = ()  # sorted ((key, value), ...)

    def __post_init__(self):
        if self.name not in TRANSITION_NAMES:
            raise SpecError(
                f"unknown transition {self.name!r}; expected one of {TRANSITION_NAMES}"
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
        if self.name == "hahn->meixner" and any(v > HAHN_LADDER_CAP for v in ladder):
            raise SpecError(
                f"hahn->meixner ladder is capped at N = {HAHN_LADDER_CAP}"
            )
        for value in ladder:
            self._check_step(value)

    def param(self, key: str) -> Fraction:
        for k, v in self.params:
            if k == key:
                return v
        raise SpecError(f"transition {self.name!r} needs parameter {key!r}")

    def _check_step(self, value):
        if self.name == "krawtchouk->charlier":
            b = self.param("b")
            if value.denominator != 1 or b / value >= 1:
                raise SpecError(
                    f"ladder step N = {value} is inadmissible: needs integer N > b = {b}"
                )
        elif self.name in ("krawtchouk->hermite", "hahn->meixner"):
            if value.denominator != 1 or value < self.n + 1:
                raise SpecError(
                    f"ladder step N = {value} is inadmissible: needs integer N > n"
                )
        elif self.name == "charlier->hermite":
            if value <= 0:
                raise SpecError(f"ladder step b = {value} must be positive")
        elif self.name == "meixner->charlier":
            if value <= 0:
                raise SpecError(f"ladder step beta = {value} must be positive")
        elif self.name == "meixner->laguerre":
            if not 0 < value < 1:
                raise SpecError(
                    f"ladder step c = {value} is inadmissible: needs 0 < c < 1"
                )
        elif self.name == "hahn->krawtchouk":
            if value <= 0:
                raise SpecError(f"ladder step t = {value} must be positive")

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


def monic_hermite(n: int) -> ScalarPoly:
    """Monic Hermite ladder: x h_k = h_(k+1) + (k/2) h_(k-1)."""
    polys = [ScalarPoly.one()]
    x = ScalarPoly.x()
    for k in range(n):
        nxt = polys[k] * x
        if k >= 1:
            nxt = nxt - polys[k - 1] * Fraction(k, 2)
        polys.append(nxt)
    return polys[n]


def monic_laguerre(alpha, n: int) -> ScalarPoly:
    """Monic Laguerre ladder: x l_k = l_(k+1) + (2k+alpha+1) l_k + k(k+alpha) l_(k-1)."""
    alpha = rational(alpha)
    polys = [ScalarPoly.one()]
    x = ScalarPoly.x()
    for k in range(n):
        nxt = polys[k] * x - polys[k] * (2 * k + alpha + 1)
        if k >= 1:
            nxt = nxt - polys[k - 1] * (k * (k + alpha))
        polys.append(nxt)
    return polys[n]


def continuous_target(kind: str, n: int, a, alpha=None) -> MatrixPoly:
    """The 2x2 continuous Hermite or Laguerre matrix polynomial of degree n."""
    a = rational(a)
    x = ScalarPoly.x()
    if kind == "hermite":
        h_prev = monic_hermite(n - 1) if n >= 1 else ScalarPoly.zero()
        h_n = monic_hermite(n)
        h_next = monic_hermite(n + 1)
        ratio = Fraction(n, 2)
        return MatrixPoly(
            (
                (h_n, (h_next - h_n * x) * a),
                ((h_prev * ratio) * (-a), (h_prev * ratio * x) * a**2 + h_n),
            )
        )
    if kind == "laguerre":
        if alpha is None:
            raise SpecError("laguerre target needs the parameter alpha")
        alpha = rational(alpha)
        l_prev = monic_laguerre(alpha, n - 1) if n >= 1 else ScalarPoly.zero()
        l_n = monic_laguerre(alpha, n)
        l_next = monic_laguerre(alpha, n + 1)
        ratio = Fraction(n) * (n + alpha)
        return MatrixPoly(
            (
                (l_n, (l_next - l_n * x) * a),
                ((l_prev * ratio) * (-a), (l_prev * ratio * x) * a**2 + l_n),
            )
        )
    raise SpecError(f"unknown continuous target kind {kind!r}")


def ode_residual(kind: str, n: int, a, alpha=None) -> MatrixPoly:
    """Exact residual of the target's second-order differential equation;
    identically zero when the displayed equation holds."""
    a = rational(a)
    P = continuous_target(kind, n, a, alpha=alpha)
    x = ScalarPoly.x()
    if kind == "hermite":
        coeff1 = MatrixPoly(((x * (-2), ScalarPoly.constant(2 * a)), (0, x * (-2))))
        coeff0 = MatrixPoly(((0, 0), (0, 2)))
        eigen = MatrixPoly.diagonal(
            (ScalarPoly.constant(Fraction(-2 * n)), ScalarPoly.constant(Fraction(-2 * n + 2)))
        )
        return P.derivative().derivative() + P.derivative() @ coeff1 + P @ coeff0 - eigen @ P
    if kind == "laguerre":
        alpha = rational(alpha)
        coeff1 = MatrixPoly(
            (
                (ScalarPoly((alpha + 1, -1)), x * (2 * a)),
                (0, ScalarPoly((alpha + 1, -1))),
            )
        )
        coeff0 = MatrixPoly(((0, ScalarPoly.constant(a * (alpha + 1))), (0, 1)))
        eigen = MatrixPoly.diagonal(
            (ScalarPoly.constant(Fraction(-n)), ScalarPoly.constant(Fraction(-n + 1)))
        )
        return (
            P.derivative().derivative().scale(x)
            + P.derivative() @ coeff1
            + P @ coeff0
            - eigen @ P
        )
    raise SpecError(f"unknown continuous target kind {kind!r}")


# --------------------------------------------------------------------------
# coefficient comparison


def coefficient_error(src: MatrixPoly, tgt: MatrixPoly, src_scale: float = 1.0):
    """(max absolute, max relative) coefficient difference between two
    matrix polynomials, with an optional global float scale on the source."""
    deg = max(src.degree, tgt.degree, 0)
    abs_err = 0.0
    tgt_max = 0.0
    for i in range(src.rows):
        for j in range(src.cols):
            for k in range(deg + 1):
                s = float(src.entry(i, j).coefficient(k)) * src_scale
                t = float(tgt.entry(i, j).coefficient(k))
                abs_err = max(abs_err, abs(s - t))
                tgt_max = max(tgt_max, abs(t))
    rel = abs_err / tgt_max if tgt_max > 0 else abs_err
    return abs_err, rel


# --------------------------------------------------------------------------
# transition pipelines


def _pair_spec(a, ch1, ch2) -> FamilySpec:
    return FamilySpec(a=(a,), channels=(ch1, ch2))


def _kraw_to_charlier(t: TransitionSpec, value):
    b = t.param("b")
    N = int(value)
    p = b / N
    ch = Krawtchouk(p=p, N=N)
    src = orthogonal_polynomial(_pair_spec(t.a, ch, ch), t.n)
    return src, 1.0, ()


def _kraw_to_hermite(t: TransitionSpec, value):
    p = t.param("p")
    N = int(value)
    d = 2 * N * p * (1 - p)
    root = QuadExt.root(d)
    a_tilde = t.a * root / d  # a / sqrt(d), exactly
    ch = Krawtchouk(p=p, N=N)
    Q = orthogonal_polynomial(_pair_spec(a_tilde, ch, ch), t.n)
    composed = Q.compose_affine(root, p * N)
    right = MatrixPoly(((1, a_tilde * (p * N)), (0, 1)))
    transformed = composed @ right
    log_pref = -0.5 * (
        sum(math.log(j) for j in range(N - t.n + 1, N + 1))
        + t.n * math.log(float(2 * p * (1 - p)))
    )
    return transformed, math.exp(log_pref), ()


def _charlier_to_hermite(t: TransitionSpec, value):
    b = value
    d = 2 * b
    root = QuadExt.root(d)
    a_tilde = t.a * root / d
    ch = Charlier(b=b)
    Q = orthogonal_polynomial(_pair_spec(a_tilde, ch, ch), t.n)
    composed = Q.compose_affine(root, b)
    right = MatrixPoly(((1, a_tilde * b), (0, 1)))
    # (2b)^(-n/2) stays exact: 1/sqrt(d) = root/d in the extension
    inv_root_pow = QuadExt(1, 0, d)
    for _ in range(t.n):
        inv_root_pow = inv_root_pow * root / d
    transformed = (composed @ right).scale(inv_root_pow)
    return transformed, 1.0, ()


def _meixner_to_charlier(t: TransitionSpec, value):
    b = t.param("b")
    beta = value
    ch = Meixner(beta=beta, c=b / (b + beta))
    src = orthogonal_polynomial(_pair_spec(t.a, ch, ch), t.n)
    return src, 1.0, ()


def _meixner_to_laguerre(t: TransitionSpec, value):
    alpha = t.param("alpha")
    c = value
    ch = Meixner(beta=alpha + 1, c=c)
    Q = orthogonal_polynomial(_pair_spec(t.a * (1 - c), ch, ch), t.n)
    composed = Q.compose_affine(Fraction(1) / (1 - c), Fraction(0))
    transformed = composed.scale((1 - c) ** t.n)
    return transformed, 1.0, ()


def _hahn_to_meixner(t: TransitionSpec, value):
    beta, c = t.param("beta"), t.param("c")
    N = int(value)
    lam = N * (1 - c) / c
    spec = _pair_spec(
        t.a, Hahn(alpha=beta + 1, beta=lam, N=N), Hahn(alpha=beta - 1, beta=lam, N=N)
    )
    src = orthogonal_polynomial(spec, t.n)
    return src, 1.0, ()


def _hahn_to_krawtchouk(t: TransitionSpec, value):
    p, N = t.param("p"), int(t.param("N"))
    tt = value
    spec = _pair_spec(
        t.a,
        Hahn(alpha=p * tt, beta=(1 - p) * tt, N=N),
        Hahn(alpha=p * (tt + 2), beta=(1 - p) * (tt + 2), N=N),
    )
    src = orthogonal_polynomial(spec, t.n)
    extras = ()
    if t.n >= 1:
        mu = norm_ratio(spec, 1, t.n, 0, t.n - 1)
        mu_limit = Fraction(t.n) * (N + 1 - t.n) * p * (1 - p)
        extras = (("mu_n", float(mu)), ("mu_limit", float(mu_limit)))
    return src, 1.0, extras


def _target(t: TransitionSpec) -> MatrixPoly:
    if t.name == "krawtchouk->charlier" or t.name == "meixner->charlier":
        b = t.param("b")
        ch = Charlier(b=b)
        return orthogonal_polynomial(_pair_spec(t.a, ch, ch), t.n)
    if t.name in ("krawtchouk->hermite", "charlier->hermite"):
        return continuous_target("hermite", t.n, t.a)
    if t.name == "meixner->laguerre":
        return continuous_target("laguerre", t.n, t.a, alpha=t.param("alpha"))
    if t.name == "hahn->meixner":
        beta, c = t.param("beta"), t.param("c")
        spec = _pair_spec(t.a, Meixner(beta=beta + 2, c=c), Meixner(beta=beta, c=c))
        return orthogonal_polynomial(spec, t.n)
    if t.name == "hahn->krawtchouk":
        p, N = t.param("p"), int(t.param("N"))
        ch = Krawtchouk(p=p, N=N)
        return orthogonal_polynomial(_pair_spec(t.a, ch, ch), t.n)
    raise SpecError(f"unknown transition {t.name!r}")


_STEPS = {
    "krawtchouk->charlier": _kraw_to_charlier,
    "krawtchouk->hermite": _kraw_to_hermite,
    "charlier->hermite": _charlier_to_hermite,
    "meixner->charlier": _meixner_to_charlier,
    "meixner->laguerre": _meixner_to_laguerre,
    "hahn->meixner": _hahn_to_meixner,
    "hahn->krawtchouk": _hahn_to_krawtchouk,
}


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ConvergenceReport:
    name: str
    n: int
    a: Fraction
    steps: tuple
    target: MatrixPoly
    precision: str = "float64"

    @property
    def monotone(self) -> bool:
        errs = [s.max_abs_error for s in self.steps]
        return all(b < a for a, b in zip(errs, errs[1:]))

    @property
    def final_rel_error(self) -> float:
        return self.steps[-1].rel_error


def run_transition(t: TransitionSpec) -> ConvergenceReport:
    """Evaluate the transition along its ladder and report per-step errors."""
    target = _target(t)
    step_fn = _STEPS[t.name]
    steps = []
    for value in t.ladder:
        src, scale, extras = step_fn(t, value)
        abs_err, rel_err = coefficient_error(src, target, src_scale=scale)
        steps.append(
            TransitionStep(
                ladder_value=value,
                max_abs_error=abs_err,
                rel_error=rel_err,
                extras=extras,
            )
        )
    return ConvergenceReport(name=t.name, n=t.n, a=t.a, steps=tuple(steps), target=target)


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
    t_k = TransitionSpec(
        name="krawtchouk->hermite",
        n=n,
        a=a,
        ladder=(scale // 10, scale),
        params=(("p", p),),
    )
    t_c = TransitionSpec(
        name="charlier->hermite", n=n, a=a, ladder=(scale // 10, scale), params=()
    )
    src_k, scale_k, _ = _kraw_to_hermite(t_k, Fraction(scale))
    src_c, scale_c, _ = _charlier_to_hermite(t_c, Fraction(scale))
    target = continuous_target("hermite", n, a)
    err_k, _ = coefficient_error(src_k, target, src_scale=scale_k)
    err_c, _ = coefficient_error(src_c, target, src_scale=scale_c)
    deg = max(src_k.degree, src_c.degree, 0)
    gap = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(deg + 1):
                vk = float(src_k.entry(i, j).coefficient(k)) * scale_k
                vc = float(src_c.entry(i, j).coefficient(k)) * scale_c
                gap = max(gap, abs(vk - vc))
    return AgreementReport(
        n=n, a=a, krawtchouk_error=err_k, charlier_error=err_c, agreement=gap
    )

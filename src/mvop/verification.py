"""Verification suites: orthogonality, bispectrality, recurrence residual,
with their check results and reports.

One private sweep (``_sweep``) walks the probe grid (coupling values x
mass-quotient values) that ``_arguments`` decides, once, for
``run_verification`` and ``verify_eigenfunction`` alike.  The canonical
operator is built once per run, at the coupling probe a = 1, with one
integer stencil: on the diagonal coupling line every pattern entry of F, K
and G carries exactly one factor a and the diagonal entries none, so
D(a) = D(0) + a (D(1) - D(0)), and the stencil of a probe a = p/q is
q S_0 + p S_1 over q times D(1)'s scale, S_0 the diagonal and S_1 the
pattern of D(1)'s stencil (``_probe_stencil``).
Each (a, tau) probe builds Q_0..Q_top and the closing Q_(top+1) a single
time each, as integer tables straight from the channel ladders
(``construction.orthogonal_table``): the coefficients of L Q_n, L the
least common denominator of Q_n's coefficients, and its values at
x = -1..X, formed in integers from about 3 m^2 scalar coefficients per
polynomial, with no ``Fraction`` polynomial built; ``--perturb`` adds L to
entry (1,1)'s constant coefficient and to each of its values.  The three
exact suites read only these tables, and scaling by nonzero integers
changes no zero:

* orthogonality reads every Gram <Q_n, Q_k> in the channel basis
  (``construction.channel_gram``, below), from the tables' coefficients;
* the eigenfunction residual Q_n . D - Lambda_n Q_n has degree at most
  d_n = deg Q_n + max(deg F - 1, deg K, deg G - 1, 0), from the operator's
  actual degrees, and its scaled integer values are computed once at the
  d_n + 1 points x = 0..d_n, D acting on values through Q(x - 1), Q(x) and
  Q(x + 1); a failing check's first nonzero entry is interpolated from its
  own values (``_interpolate``);
* the recurrence residual x Q_n - A_n Q_(n+1) - B_n Q_n - C_n Q_(n-1), with
  A_n, B_n, C_n matched in integers from the tables' top coefficients
  (``operators.match_recurrence``), has degree at most n + 1 and is
  certified zero at x = 0..n+1 (``operators.recurrence_closes``); a
  leading coefficient that a coupling probe or a tau probe makes singular
  is a ProbeError naming the probe, --probes or --tau-probes.

A polynomial of degree <= d that vanishes at d + 1 points is zero, so each
check is an exact identity, and X covers every bound.  No
suite multiplies or differences matrix polynomials.  Each probe instance is
an exact rational identity check, and the grid oversamples the identities'
degrees in the formal parameters.

Each exact Gram <Q_n, Q_k> is W = U diag(w_r) U^T read on the channel
bases: the entries of Q U expanded on each channel's monic ladder, weighted
by the ladder's norms, in integers, divided only to print a failing Gram,
and with no sum over x.  The basis and the norms are built once per tau probe of a
run (``construction.gram_basis``).  The trust base is each channel's ladder
being orthogonal for its weight with those norms: on a finite support it is
certified once per channel, in integers (``families.certify_ladder``), and
a failed certificate fails every orthogonality check with a detail naming
the channel and the identity; on an infinite support it is the scalar
theorem (Koekoek, Lesky & Swarttouw, Springer 2010, ch. 9).  A finite
support's Grams are absolute, the ``Fraction``s the support sum gives, and
orthogonality is checked at every (a, tau) probe; an infinite support's are
in units of channel 1's |p_0|^2, the cross-channel masses resolved at the
tau probe along the pattern path, and orthogonality is checked at the
spec's own couplings once per tau probe.  With ``truncated=True``
orthogonality is checked by truncated float sums instead, the oracle, on
the spec's own couplings with the true transcendental quotients, from one
float value table per polynomial and one float weight table per run, every
pair summed in one pass over x (``construction.float_grams``).  All work
runs inline: it is pure-Python arithmetic, which threads do not speed up.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .construction import (
    A_PROBES,
    TAU_PROBES,
    FamilySpec,
    channel_gram,
    channel_table,
    check_tol,
    converged,
    float_grams,
    float_value_table,
    float_weight_table,
    gram_basis,
    gram_ratio,
    numeric_polynomial,
    orthogonal_table,
    spec_tau,
)
from .errors import SpecError
from .operators import (
    canonical_operator,
    match_recurrence,
    not_closed,
    recurrence_closes,
    singular_lead,
)
from .poly import MatrixPoly, ScalarPoly
from .rational import format_rational, named_rational, over, over_lcm
from .record import frozen, replace


@frozen
class CheckResult:
    name: str
    n: int
    probe_a: object
    probe_tau: object
    passed: bool
    detail: str = ""

    def to_json(self):
        return {
            "check": self.name,
            "n": self.n,
            "a": None if self.probe_a is None else str(self.probe_a),
            "tau": None if self.probe_tau is None else str(self.probe_tau),
            "pass": self.passed,
            "detail": self.detail,
        }


@frozen
class VerificationReport:
    checks: tuple
    a_probes: tuple
    tau_probes: tuple
    notes: tuple = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self):
        return {
            "probe_grid": {
                "a": [str(v) for v in self.a_probes],
                "tau": [str(v) for v in self.tau_probes],
            },
            "pass": self.all_passed,
            "notes": list(self.notes),
            "checks": [c.to_json() for c in self.checks],
        }


def _perturbed(polys, perturb: bool):
    """The deliberate-perturbation fixture: with ``perturb``, a constant bump
    on entry (1,1) of every Q_n with n >= 1, so that verification must fail."""
    if not perturb or not polys:
        return polys
    m = polys[0].rows
    bump = MatrixPoly(
        tuple(tuple(Fraction(int((i, j) == (0, 0))) for j in range(m)) for i in range(m))
    )
    return [Q if n == 0 else Q + bump for n, Q in enumerate(polys)]


def _perturbed_tables(tables, perturb: bool):
    """``_perturbed`` on integer tables: for n >= 1, L (the table's scale)
    added to entry (1,1)'s constant coefficient and to each of its values."""
    if not perturb:
        return tables

    def bumped(t):
        (first, *row), *rows = t.coefficients
        coefficients = (((first[0] + t.scale, *first[1:]), *row), *rows)
        values = tuple(((v + t.scale, *row), *rows) for (v, *row), *rows in t.values)
        return replace(t, coefficients=coefficients, values=values)

    return tables[:1] + [bumped(t) for t in tables[1:]]


def verify_orthogonality(spec: FamilySpec, chain, probe_a, probe_tau,
                         truncated: bool = False, x_max: int = 400,
                         tol: float = 1e-9, basis=None) -> list:
    """<Q_n, Q_k> = 0 for every k < n of the chain Q_0, Q_1, ..., built for
    ``spec`` at ``probe_tau``: exactly in the channel basis
    (``construction.channel_gram``), ``chain`` holding the polynomials'
    integer tables (``construction.orthogonal_table``) and ``basis`` the
    channels' ``construction.gram_basis`` at ``probe_tau``, a failing Gram
    absolute on a finite support and in units of channel 1's |p_0|^2 on an
    infinite one; or with ``truncated``, ``chain`` holding the polynomials,
    by the relative bound of truncated float sums against ``tol``.  A
    channel ladder that fails its certificate fails every exact check.

    The truncated sums read one float value table per polynomial and one
    float weight table, and every <Q_n, Q_k> with k <= n is summed in one
    pass (``float_grams``), each self product once.  Tails are judged in
    the order ``relative_gram_bound`` judges them (the pair, then both self
    products), so the first TruncationError raised is the one that would be
    raised pair by pair."""
    if truncated:
        weights = float_weight_table(spec, x_max)
        values = [float_value_table(Q, len(weights) - 1) for Q in chain]
        pairs = [(n, k) for n in range(len(chain)) for k in range(n + 1)]
        grams = float_grams(values, weights, pairs, x_max, tol)
    else:
        values = [channel_table(t, spec, basis) for t in chain]
    checks = []
    for n in range(len(chain)):
        for k in range(n):
            if truncated:
                pair, p_self, q_self = (converged(grams[key], spec).max_abs()
                                        for key in ((n, k), (n, n), (k, k)))
                bound = gram_ratio(pair, p_self, q_self)
                passed = bound < tol
                detail = f"k = {k}; relative bound = {bound:.3e}"
            elif basis.failure:
                passed, detail = False, f"k = {k}; {basis.failure}"
            else:
                sums, den = channel_gram(values[n], values[k], basis)
                passed = not any(map(any, sums))
                detail = f"k = {k}" + ("" if passed else f"; gram = {over(sums, den)}")
            checks.append(CheckResult(
                name="orthogonality", n=n, probe_a=probe_a, probe_tau=probe_tau,
                passed=passed, detail=detail,
            ))
    return checks


def _eigenvalue_integers(eig, top: int) -> list:
    """The diagonals of Lambda_0..Lambda_top, each over one denominator
    (``rational.over_lcm``), as ((integer numerators,), den): once per run."""
    return [over_lcm((eig.diagonal(n),)) for n in range(top + 1)]


def _eigenfunction_residual(stencil, eigenvalues, table):
    """The values of Q . D - Lambda Q at x = 0..deg Q + extra_degree, entry
    by entry, from Q's integer table, D's ``IntegerStencil`` and Lambda's
    diagonal as ((nums,), den) (``_eigenvalue_integers``), as (values, scale):
    ``values[i][j][x]`` is ``scale`` times entry (i, j) at x, all integers.
    With Lambda scaled by the stencil's scale S and then by the least common
    denominator e = den / gcd(den, S gcd(nums)) of the result, each value is
    e (L Q . S D) - (e S Lambda) L Q, so ``scale`` = e L S for L the table's
    scale."""
    (nums,), den = eigenvalues
    S = stencil.scale
    e = den // math.gcd(den, S * math.gcd(*nums))
    lam = [v * S * e // den for v in nums]
    values, points = table.values, stencil.points
    residual = [[[] for _ in row] for row in values[0]]
    for x in range(table.degree + stencil.extra_degree + 1):
        below, here, above = values[x], values[x + 1], values[x + 2]
        plus, zero, minus = points[x]
        for b, h, a, li, out in zip(below, here, above, lam, residual):
            for j, hj in enumerate(h):
                acc = 0
                for k, v in plus[j]:
                    acc += a[k] * v
                for k, v in zero[j]:
                    acc += h[k] * v
                for k, v in minus[j]:
                    acc += b[k] * v
                out[j].append(e * acc - li * hj)
    return residual, e * table.scale * S


def _interpolate(values, scale: int) -> ScalarPoly:
    """The polynomial of degree < len(values) through (x, values[x] / scale)
    at x = 0, 1, ..., from the integers ``values``.  With d = len(values) - 1
    and the integer forward differences Delta^k y_0, the Newton form
    d! p(x) = sum_k (d! / k!) Delta^k y_0 x (x - 1) ... (x - k + 1) is
    expanded by Horner in integers, and each coefficient divided once by
    d! ``scale``."""
    d = len(values) - 1
    heads, diffs = [], list(values)
    while diffs:
        heads.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs, weight = [], 1  # weight = d! / k!
    for k in range(d, -1, -1):
        coeffs = [0] + coeffs  # times (x - k)
        for t in range(len(coeffs) - 1):
            coeffs[t] -= k * coeffs[t + 1]
        coeffs[0] += weight * heads[k]
        weight *= k
    den = math.factorial(d) * scale
    return ScalarPoly(Fraction(c, den) for c in coeffs)


def _eigenfunction_checks(lambdas, stencil, tables, probe_a, probe_tau) -> list:
    """Q_n . D - Lambda_n Q_n = 0 identically, certified on the integer
    tables of Q_0, Q_1, ... with ``lambdas[n]`` the diagonal of Lambda_n
    over one denominator, computed once per run
    (``_eigenvalue_integers``); a failure records its first nonzero entry,
    interpolated from that entry's residual values."""
    checks = []
    for n, (table, eigenvalues) in enumerate(zip(tables, lambdas)):
        residual, scale = _eigenfunction_residual(stencil, eigenvalues, table)
        failing = next(((i, j, ys) for i, row in enumerate(residual)
                        for j, ys in enumerate(row) if any(ys)), None)
        detail = ""
        if failing is not None:
            i, j, ys = failing
            detail = f"entry ({i + 1},{j + 1}) = {_interpolate(ys, scale)!r}"
        checks.append(CheckResult(
            name="eigenfunction", n=n, probe_a=probe_a, probe_tau=probe_tau,
            passed=failing is None, detail=detail,
        ))
    return checks


def verify_recurrence(spec: FamilySpec, tables, probe_a, probe_tau) -> list:
    """Exact closure of the three-term recurrence at every degree of the
    chain's integer ``tables`` but the last, which is the closing
    Q_(top+1), matched and certified on the tables alone.  A leading
    coefficient that the probe makes singular is a ProbeError naming
    --probes, or --tau-probes when the chain reads a tau."""
    def singular(k):
        if probe_tau is None:
            return singular_lead(k, f"coupling probe a = {probe_a} (--probes)")
        return singular_lead(k, f"at coupling probe a = {probe_a}, --tau-probes value {probe_tau}")

    checks = []
    for n, t in match_recurrence(tables, singular=singular).items():
        ok = recurrence_closes(t, n, tables)
        checks.append(CheckResult(
            name="recurrence", n=n, probe_a=probe_a, probe_tau=probe_tau,
            passed=ok, detail="" if ok else not_closed(spec, n),
        ))
    return checks


def _probe(spec: FamilySpec, a_val) -> FamilySpec:
    return spec.with_a((a_val,) * (spec.m - 1))


def _probe_stencil(stencil, a_val):
    """The stencil of D(a) on the diagonal coupling line, from the stencil
    s D(1) of the operator at a = 1.  Every pattern entry of F, K and G
    carries exactly one factor a and the diagonal entries none, so for
    a = p/q the diagonal pairs (row k = column j) are scaled by q, the
    pattern pairs by p, and the scale becomes q s; a != 0 keeps every
    nonzero pair nonzero and the degree bound unchanged."""
    a = Fraction(a_val)
    p, q = a.numerator, a.denominator
    points = tuple(
        tuple(
            tuple(tuple((k, v * (q if k == j else p)) for k, v in col) for j, col in enumerate(part))
            for part in point
        )
        for point in stencil.points
    )
    return replace(stencil, scale=q * stencil.scale, points=points)


def _probe_list(values, default, name: str):
    """``values``, or ``default`` when None, each read through ``rational``:
    at least one value, each once, or a SpecError naming ``name``."""
    values = default if values is None else tuple(named_rational(v, name) for v in values)
    if not values:
        raise SpecError(f"{name} must hold at least one value")
    if len(set(values)) < len(values):
        shown = ", ".join(map(str, values))
        raise SpecError(f"{name}: each probe value must appear once, got {shown}")
    return values


def _arguments(spec: FamilySpec, n_max: int, a_probes, tau_probes):
    """The top degree, n_max clamped to N on a finite support, and the probe
    lists the sweep walks, decided here only (``_probe_list``): the coupling
    probes are nonzero, and the tau probes are (None,) when the spec reads no
    tau (``spec_tau``).  A negative n_max or a list that breaks a rule is a
    SpecError naming the parameter."""
    if n_max < 0:
        raise SpecError(f"n_max (--n-max) must be >= 0, got {n_max}")
    a_vals = _probe_list(a_probes, A_PROBES, "a_probes (--probes)")
    if 0 in a_vals:
        shown = ", ".join(map(str, a_vals))
        raise SpecError(f"coupling probes (--probes) must be nonzero, got {shown}")
    tau_vals = _probe_list(tau_probes, TAU_PROBES, "tau_probes (--tau-probes)")
    if spec_tau(spec, tau_vals[0]) is None:
        tau_vals = (None,)
    top = n_max if spec.support_N is None else min(n_max, spec.support_N)
    return top, a_vals, tau_vals


def _sweep(spec: FamilySpec, top: int, a_vals, tau_vals, operator, perturb: bool):
    """The probe sweep every suite reads, as (a, tau, probe spec, stencil,
    tables): per coupling probe D(a)'s integer stencil, formed from
    the stencil of ``operator`` = D(1) (``_probe_stencil``; None without an
    operator); per tau the chain Q_0..Q_(top+1), the last closing the
    recurrence, each built once as its integer table
    (``construction.orthogonal_table``) and perturbed with ``perturb``.

    The tables reach x = X: the recurrence's top + 1 and the
    eigenfunction's top + extra + 1, for Q(x + 1) at its last point.
    """
    extra = 0 if operator is None else operator.extra_degree
    stop = top + extra + 1
    base = None if operator is None else operator.stencil(stop - 1)
    for a_val in a_vals:
        probe = _probe(spec, a_val)
        stencil = None if base is None else _probe_stencil(base, a_val)
        for tau in tau_vals:
            yield a_val, tau, probe, stencil, _perturbed_tables(
                [orthogonal_table(probe, n, tau, stop) for n in range(top + 2)], perturb)


def verify_eigenfunction(spec: FamilySpec, n_max: int, a_probes=None,
                         tau_probes=None, force: bool = False,
                         perturb: bool = False) -> VerificationReport:
    """Check Q_n . D - Lambda_n Q_n = 0 identically over the probe grid, for
    n up to n_max (clamped to N on a finite support).

    The canonical operator is built once, at a = 1, and each coupling
    probe's stencil is formed from its stencil; the polynomials and tables
    come from the sweep ``run_verification`` reads.  Failures are recorded
    per (n, probe) with the first nonzero entry; nothing raises.
    """
    top, a_vals, tau_vals = _arguments(spec, n_max, a_probes, tau_probes)
    D, eig = canonical_operator(_probe(spec, 1), force=force)
    lambdas = _eigenvalue_integers(eig, top)
    checks = []
    for a_val, tau, _, stencil, tables in _sweep(spec, top, a_vals, tau_vals, D, perturb):
        checks.extend(_eigenfunction_checks(lambdas, stencil, tables[:-1], a_val, tau))
    return VerificationReport(checks=tuple(checks), a_probes=a_vals, tau_probes=tau_vals)


def run_verification(spec: FamilySpec, n_max: int | None = None, a_probes=None,
                     tau_probes=None, x_max: int = 400, tol: float = 1e-9,
                     perturb: bool = False, truncated: bool = False) -> VerificationReport:
    """The full suite: orthogonality, bispectrality (when the family carries
    a canonical operator), and recurrence residuals, reported in that order.
    ``perturb`` bumps the whole chain, the closing Q_(top+1) included, before
    any suite reads it.

    ``a_probes`` and ``tau_probes`` (by default ``A_PROBES`` and
    ``TAU_PROBES``) are read through ``rational``: ints, Fractions and "p/q"
    strings, no float and no "numeric".  Each list holds at least one value,
    each value once, and the coupling probes are nonzero; a list that breaks
    a rule is a SpecError naming it.  A spec whose mass quotients are all
    rational reads no tau (``spec_tau``), so its tau probes become (None,).
    On an infinite support orthogonality is checked exactly at the spec's
    own couplings, once per tau probe; ``x_max`` and ``tol`` act only with
    ``truncated``, whose float path reads the spec's own couplings and
    "numeric", but are checked on every run."""
    if n_max is None:
        n_max = spec.support_N if spec.is_finite else 5
    top, a_vals, tau_vals = _arguments(spec, n_max, a_probes, tau_probes)
    if x_max < 0:
        raise SpecError(f"x_max (--x-max) must be >= 0, got {x_max}")
    check_tol(tol, "tol (--tol)")
    # the basis and the norms of the channel Gram, once per tau probe
    basis = cache(lambda tau: gram_basis(spec, top + 1, tau))
    own_a = spec.a[0] if spec.m == 2 else f"({', '.join(map(format_rational, spec.a))})"
    orthogonality, eigenfunction, recurrence, notes = [], [], [], []
    if truncated:
        # the float oracle: the spec's own couplings and float mass quotients
        tau = spec_tau(spec, "numeric")
        polys = [numeric_polynomial(spec, n) for n in range(top + 1)]
        orthogonality = verify_orthogonality(
            spec, _perturbed(polys, perturb), own_a, tau, truncated=True, x_max=x_max, tol=tol,
        )

    try:
        D, eig = canonical_operator(_probe(spec, 1))
        lambdas = _eigenvalue_integers(eig, top)
    except SpecError as err:
        D = None
        notes.append(f"bispectral suite skipped: {err}")

    own = {}  # tau -> tables of Q_0..Q_top at the spec's own couplings, when a probe has them
    for a_val, tau, probe, stencil, tables in _sweep(
            spec, top, a_vals, tau_vals, D, perturb):
        checked = tables[:-1]
        if probe == spec:
            own[tau] = checked
        if spec.is_finite and not truncated:
            orthogonality.extend(verify_orthogonality(probe, checked, a_val, tau, basis=basis(tau)))
        if stencil is not None:
            eigenfunction.extend(_eigenfunction_checks(lambdas, stencil, checked, a_val, tau))
        recurrence.extend(verify_recurrence(probe, tables, a_val, tau))

    if not spec.is_finite and not truncated:
        # an infinite support: at the spec's own couplings, once per tau
        # probe, each chain built and tabulated once per run
        for tau in tau_vals:
            tables = own.get(tau) or _perturbed_tables(
                [orthogonal_table(spec, n, tau) for n in range(top + 1)], perturb)
            orthogonality.extend(verify_orthogonality(spec, tables, own_a, tau, basis=basis(tau)))

    return VerificationReport(
        checks=tuple(orthogonality + eigenfunction + recurrence),
        a_probes=a_vals,
        tau_probes=tau_vals,
        notes=tuple(notes),
    )

"""Verification suites: orthogonality, bispectrality, recurrence residual,
with their check results and reports.

One private sweep (``_sweep``) walks the probe grid (coupling values x
mass-quotient values) that ``_arguments`` decides, once, for
``run_verification`` and ``verify_eigenfunction`` alike.  Each (a, tau)
probe builds Q_0..Q_top and the closing Q_(top+1) a single time each, in
one pass, as integer tables of coefficients straight from the channel
ladders (``construction.orthogonal_tables``, with no values): the
coefficients of L Q_n, L the least common denominator of Q_n's
coefficients, formed in integers from about 3 m^2 scalar coefficients per
polynomial, with no ``Fraction`` polynomial built; ``--perturb`` adds L
to entry (1,1)'s constant coefficient.  Scaling by nonzero integers
changes no zero.

The certificate.  With U = I + A x, Q_n U = P_n + A P_(n+1) - R_n P_(n-1),
so each nonzero entry (i, r) of Q_n U is c p_j^(r) for one degree j of
channel r's monic ladder.  ``construction.channel_terms`` forms
q L (Q_n U) from the coefficients and accepts the chain when every entry
equals c p_j^(r) for the ladder's integer p_j, in O(j) integer products
per entry; the three suites then read the kept (j, c) pairs:

* orthogonality: <Q_n, Q_k>_il is the sum over channels r of
  c c' |p_j^(r)|^2 over the entries (i, r) of Q_n U and (l, r) of Q_k U that
  share j, from the ladders' norms alone (``construction.terms_orthogonal``);
  a degree past N has norm zero on a finite support;
* eigenfunction: Q_n . D(a) = Lambda_n Q_n when every entry c p_j^(r) in
  row i has lambda_j^(r) = (Lambda_n)_ii;
* recurrence: with S_k = Q_k U and the terms formed for Q_0..Q_(top+1),
  the chain is in construction form when every term of q L_k S_k is
  (k, q L_k) on the diagonal, (k + 1, L_k q a) at each pattern position
  (i, j) holding a, (k - 1, -q L_k theta_k(j, i)) or none at (j, i), and
  none elsewhere, so S_k = P_k + A P_(k+1) - theta_k P_(k-1) with theta_k
  read from the terms; then degree n closes exactly when
  gamma_n^(j) theta_(n-1)(j, i) = theta_n(j, i) gamma_(n-1)^(i) at every
  pattern position, gamma_k^(r) channel r's c_k, in O(m^2) integer
  comparisons per degree, with no matrix product.

  The reduction.  x Q_n = X Q_(n+1) + Y Q_n + Z Q_(n-1) holds iff it
  holds times U on the right.  Expand both sides on the ladder basis with
  x p_j = p_(j+1) + b_j p_j + gamma_j p_(j-1), B_k and G_k the diagonals
  of b_k and gamma_k; the coefficients of P_(n+2), ..., P_(n-2) give

      n+2:  X A = A
      n+1:  X + Y A = I + A B_(n+1)
      n:    Y + Z A - X theta_(n+1) = B_n + A G_(n+1) - theta_n
      n-1:  Z - Y theta_n = G_n - theta_n B_(n-1)
      n-2:  Z theta_(n-1) = theta_n G_(n-1)   (n >= 2; P_(n-2) = 0 below)

  Equations n+1 and n-1 fix X and Z from Y.  A holds even rows and odd
  columns and theta odd rows and even columns, so A D A = 0 and
  theta D theta = 0 for every diagonal D: equation n+2 then holds, n-2
  becomes G_n theta_(n-1) = theta_n G_(n-1), the ratio identity, and n
  becomes Y M_n = (a matrix the chain fixes) with
  M_n = I + A theta_(n+1) + theta_n A.  M_n is I + A theta_(n+1) on the
  even channels and I + theta_n A on the odd ones, and
  det(I + A theta) = det(I + theta A), so det M_n = det T_n det T_(n+1),
  T_k = I + theta_k A on the odd channels being the odd block of Q_k's
  lead [[I, N], [0, T]].  So det L_k = det T_k, and no lead is inverted:
  T_k is tridiagonal, and its determinant is a continuant, O(m) integer
  products (``operators.continuant``), with T_k formed from the terms
  themselves: a chain in construction form fixes its leads.  The leads of
  Q_1..Q_(top+1) are checked in ascending k, so a lead that a coupling
  probe or a tau probe makes singular is the same ProbeError, naming the
  probe, --probes or --tau-probes, at the same k as the dense matcher's
  inverse (``operators.lead_inverse``).  With every lead invertible, a
  triple exists exactly when the ratio identity holds, and it is unique
  (Damanik, Pushnitski & Simon, Surv. Approx. Theory 4, 2008, section
  2), so it is the one ``operators.match_recurrence`` matches from the
  top coefficients and ``operators.coefficients_close`` closes on the
  monomial coefficients t = 0..n+1: the two paths give one verdict.

The trust base.  The orthogonality reading rests on each channel's ladder
being orthogonal for its weight with its norms: on a finite support it is
certified once per channel, in integers (``families.certify_ladder``), and
a failed certificate fails every orthogonality check with a detail naming
the channel and the identity; on an infinite support it is the scalar
theorem (Koekoek, Lesky & Swarttouw, Springer 2010, ch. 9).  The
eigenfunction reading rests on two identities, certified in integers at
the first chain that has channel terms (``operators.certify_operator``),
so a run whose chains all take the dense path skips them: the ladder eigen
identity p_j . delta_r = lambda_j^(r) p_j for j <= top + 1, once per ladder
per process, and the conjugation identity D(a) = U_a diag(delta_r) U_a^(-1).
The canonical operator is built once per run, at a = 1, as its integer
parts only (``operators.canonical_parts``); D(a) is its
diagonal plus a times its other entries, both sides are affine in a (the
a^2 part of the right side vanishes on the pattern, which is checked), so
the a^0 and a^1 parts fix the identity for every probe.

The dense path.  A chain that ``--perturb`` bumped forms no channel terms;
it, a chain with an entry that is no single ladder multiple, a failed
trust identity, a failing orthogonality or eigenfunction check, or a chain
out of construction form or failing the ratio identity runs the dense code
for that chain and that suite, so every failure detail keeps its bytes:

* every Gram <Q_n, Q_k> is read in the channel basis from the table's
  coefficients, each channel's x^d expanded on its ladder
  (``construction.channel_table``, ``construction.channel_gram``), the
  expansions built on first use once per tau probe of a run
  (``construction.gram_basis``); a failing Gram is absolute on a finite
  support and in units of channel 1's |p_0|^2 on an infinite one;
* the eigenfunction residual Q_n . D(a) - Lambda_n Q_n is formed on the
  table's coefficients, as Q(x + 1) X + Q(x) Y + Q(x - 1) Z - Lambda_n Q
  with X = F, Y = K - F + G and Z = -G over one denominator, D's integer
  parts (``operators.canonical_parts``), each nonzero entry of Q shifted
  once each way by the Taylor shift; D(a)'s parts are probed from D(1)'s, the
  diagonal scaled by q and the pattern by p for a = p/q
  (``_residual_operator``).  A failing check reports the residual's first
  nonzero entry, its integer coefficients divided once;
* the recurrence is matched and closed as above, on the tables'
  coefficients, with no values.

No suite multiplies or differences matrix polynomials.  Each probe
instance is an exact rational identity check, and the grid oversamples
the identities' degrees in the formal parameters.  On a finite support orthogonality is checked at every
(a, tau) probe, its Grams absolute, the Fractions the support sum gives;
on an infinite support at the spec's own couplings once per tau probe,
the cross-channel masses resolved at the tau probe along the pattern path.
With ``truncated=True`` orthogonality is checked by truncated float sums
instead, the oracle, on the spec's own couplings with the true
transcendental quotients, from one float value table per polynomial and
one float weight table per run, every pair summed in one pass over x
(``construction.float_grams``).  All work runs inline: it is pure-Python
arithmetic, which threads do not speed up.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .construction import (
    A_PROBES,
    TAU_PROBES,
    FamilySpec,
    chain_context,
    channel_gram,
    channel_table,
    channel_terms,
    check_tol,
    converged,
    float_grams,
    float_value_table,
    float_weight_table,
    gram_basis,
    gram_ratio,
    numeric_polynomial,
    orthogonal_tables,
    spec_tau,
    terms_orthogonal,
)
from .errors import SpecError
from .operators import (
    add_three_point,
    canonical_parts,
    certify_operator,
    coefficients_close,
    continuant,
    match_recurrence,
    not_closed,
    shifts,
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
    """``_perturbed`` on integer tables of coefficients only
    (``construction.orthogonal_tables``): for n >= 1, L (the table's scale)
    added to entry (1,1)'s constant coefficient."""
    if not perturb:
        return tables

    def bumped(t):
        (first, *row), *rows = t.coefficients
        return replace(t, coefficients=(((first[0] + t.scale, *first[1:]), *row), *rows))

    return tables[:1] + [bumped(t) for t in tables[1:]]


_UNSET = object()  # no channel terms passed: verify_orthogonality forms them


def verify_orthogonality(spec: FamilySpec, chain, probe_a, probe_tau,
                         truncated: bool = False, x_max: int = 400,
                         tol: float = 1e-9, basis=None, terms=_UNSET) -> list:
    """<Q_n, Q_k> = 0 for every k < n of the chain Q_0, Q_1, ..., built for
    ``spec`` at ``probe_tau``: exactly in the channel basis, ``chain``
    holding the polynomials' integer tables (``construction.orthogonal_tables``)
    and ``basis`` the channels' ``construction.gram_basis`` at
    ``probe_tau``; or with ``truncated``, ``chain`` holding the
    polynomials, by the relative bound of truncated float sums against
    ``tol``.

    The exact Grams are read from the chain's channel terms
    (``construction.channel_terms``, formed here unless a caller that has
    them passes ``terms``) and the basis's norms alone
    (``construction.terms_orthogonal``) when the chain has them and every
    ladder holds its certificate.  Otherwise, or when a Gram is not zero,
    every Gram of the chain is expanded on the ladder bases
    (``construction.channel_gram``), and a failing one is printed absolute
    on a finite support and in units of channel 1's |p_0|^2 on an infinite
    one; a channel ladder that fails its certificate fails every exact
    check.

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
        if terms is _UNSET:
            formed = channel_terms(spec, chain)
            terms = None if formed is None else formed.chain
        if terms is not None and not basis.failure and terms_orthogonal(terms, basis):
            return [CheckResult(name="orthogonality", n=n, probe_a=probe_a, probe_tau=probe_tau,
                                passed=True, detail=f"k = {k}")
                    for n in range(len(chain)) for k in range(n)]
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


def _residual_operator(parts, scale: int, eig, top: int, a_val):
    """What the residuals of probe a = p/q read, from D(1)'s integer
    ``parts`` over ``scale`` S (``operators.canonical_parts``) and the
    eigenvalue map, as (parts of d q S D(a), the diagonals of
    d q S Lambda_n for n = 0..top, d q S), d the diagonals' common
    denominator.  Every pattern entry of F, K and G carries exactly one
    factor a and the diagonal entries none, so D(1)'s diagonal parts are
    scaled by d q and its other parts by d p."""
    lams, den = over_lcm([eig.diagonal(n) for n in range(top + 1)])
    a = Fraction(a_val)
    p, q = den * a.numerator, den * a.denominator
    probed = tuple(tuple(tuple(tuple(v * (q if i == j else p) for v in w) for j, w in enumerate(row))
                         for i, row in enumerate(part)) for part in parts)
    unit = a.denominator * scale
    return probed, [[v * unit for v in row] for row in lams], den * unit


def _eigenfunction_residual(parts, lam, table):
    """The first nonzero entry, in row-major order, of Q . D - Lambda Q as
    (i, j, integer coefficients, lowest degree first), or None when every
    entry vanishes, from Q's integer table L Q, D's integer parts (X, Y, Z)
    and Lambda's diagonal ``lam``, both over one scale s
    (``_residual_operator``), so each coefficient is s L times the
    residual's.  Entry (i, j) is
    sum_k Q_ik(x + 1) X_kj + Q_ik Y_kj + Q_ik(x - 1) Z_kj - lam_i Q_ij: each
    nonzero Q_ik is shifted once each way (``operators.shifts``), and the
    products are accumulated into one integer list
    (``operators.add_three_point``) of deg Q plus the longest entry of X, Y
    and Z coefficients."""
    X, Y, Z = parts
    size = table.degree + max(1, max(len(w) for part in parts for row in part for w in row))
    for i, row in enumerate(table.coefficients):
        shifted = [shifts(p) if p else None for p in row]
        for j, own in enumerate(row):
            acc = [0] * size
            for k, sh in enumerate(shifted):
                if sh is not None:
                    add_three_point(acc, sh, X[k][j], Y[k][j], Z[k][j])
            for t, c in enumerate(own):
                acc[t] -= lam[i] * c
            if any(acc):
                return i, j, acc
    return None


def _eigenfunction_checks(parts, lambdas, scale: int, tables, probe_a, probe_tau) -> list:
    """Q_n . D - Lambda_n Q_n = 0 identically, certified on the integer
    tables of Q_0, Q_1, ..., with D's integer parts, ``lambdas[n]`` the
    diagonal of Lambda_n and ``scale`` their common scale, as
    ``_residual_operator`` gives them; a failure records its first nonzero
    entry, each coefficient divided once."""
    checks = []
    for n, (table, lam) in enumerate(zip(tables, lambdas)):
        failing = _eigenfunction_residual(parts, lam, table)
        detail = ""
        if failing is not None:
            i, j, cs = failing
            den = scale * table.scale
            detail = f"entry ({i + 1},{j + 1}) = {ScalarPoly(Fraction(c, den) for c in cs)!r}"
        checks.append(CheckResult(
            name="eigenfunction", n=n, probe_a=probe_a, probe_tau=probe_tau,
            passed=failing is None, detail=detail,
        ))
    return checks


def _eigenvalues_match(chain, lam) -> bool:
    """Whether every term c p_j^(r) in row i of Q_n U has
    lambda_j^(r) = (Lambda_n)_ii, for ``chain`` the channel terms of
    Q_0, Q_1, ... and ``lam[r][j]`` channel r's eigenvalue at degree j."""
    return all(lam[r][term[0]] == lam[i][n]
               for n, rows in enumerate(chain) for i, row in enumerate(rows)
               for r, term in enumerate(row) if term is not None)


def _eigenfunction_suite(spec: FamilySpec, top: int, a_vals, force: bool = False):
    """The eigenfunction check of one chain, as a function of (tables of
    Q_0..Q_top, their channel terms or None, a, tau), with the canonical
    operator D(1) built once per run, as its integer parts
    (``operators.canonical_parts``); a SpecError of ``canonical_parts``
    passes to the caller.

    A chain whose terms exist passes when every eigenvalue matches
    (``_eigenvalues_match``), once D(1) and the channel ladders hold the
    identities the certificate rests on (``operators.certify_operator``),
    judged at the first chain that has terms: a perturbed run never pays
    for them.  Otherwise the chain's residuals are computed on its tables'
    coefficients, from Lambda_n's diagonals and D(a)'s integer parts for each
    probe a of ``a_vals``, probed from D(1)'s (``_residual_operator``),
    these built at the first chain that needs them
    (``_eigenfunction_checks``)."""
    at_one = _probe(spec, 1)
    (parts, scale), eig = canonical_parts(at_one, force=force)

    @cache
    def trusted():
        eigenvalues = [[fn(j) for j in range(top + 2)] for fn in eig.channel_eigenvalues]
        if certify_operator(at_one, parts, scale, eigenvalues):
            return over_lcm(eigenvalues)[0]
        return None

    @cache
    def dense():
        return {a: _residual_operator(parts, scale, eig, top, a) for a in a_vals}

    def checks(tables, terms, a_val, tau):
        lam = None if terms is None else trusted()
        if lam is not None and _eigenvalues_match(terms, lam):
            return [CheckResult(name="eigenfunction", n=n, probe_a=a_val, probe_tau=tau,
                                passed=True) for n in range(len(tables))]
        return _eigenfunction_checks(*dense()[a_val], tables, a_val, tau)
    return checks


def verify_recurrence(spec: FamilySpec, tables, probe_a, probe_tau, terms=None) -> list:
    """Exact closure of the three-term recurrence at every degree of the
    chain's integer ``tables`` but the last, which is the closing
    Q_(top+1).

    With ``terms``, the channel terms of Q_0..Q_(top+1) that the sweep forms
    (``construction.channel_terms``), a chain in construction form is
    certified by the ratio identity
    gamma_n^(j) theta_(n-1)(j, i) = theta_n(j, i) gamma_(n-1)^(i) at every
    pattern position and every n >= 2, given invertible leads
    (``_recurrence_certified``; the reduction is in the module docstring).
    A chain with no terms (``--perturb``), out of construction form or
    failing the identity is matched (``operators.match_recurrence``) and
    closed on the tables' coefficients (``operators.coefficients_close``),
    with no values.  Where both apply they give one verdict, so every
    report byte is the same.  A leading coefficient that the probe makes
    singular is a ProbeError naming --probes, or --tau-probes when the
    chain reads a tau, at the first such Q_k on either path.

    Timed in-process over the chains of the benchmark's seed-1 rounds,
    built once (2 vCPUs, Python 3.11.7, fastest of 40 runs, three series),
    this suite takes 0.93-0.96 ms per ``verify-finite`` round and
    2.2-2.3 ms per ``verify-infinite`` round, where it took 1.58-1.59 and
    3.3-3.5 ms while it inverted every lead (``BENCH_chain-pass.json``);
    matching and closing every chain took 11.2 and 17.8 ms in forked
    rounds (``BENCH_recurrence-terms.json``)."""
    def singular(k):
        if probe_tau is None:
            return singular_lead(k, f"coupling probe a = {probe_a} (--probes)")
        return singular_lead(k, f"at coupling probe a = {probe_a}, --tau-probes value {probe_tau}")

    if terms is not None and _recurrence_certified(spec, tables, terms, singular):
        return [CheckResult(name="recurrence", n=n, probe_a=probe_a, probe_tau=probe_tau,
                            passed=True) for n in range(len(tables) - 1)]
    checks = []
    for n, t in match_recurrence(tables, singular=singular).items():
        ok = coefficients_close(t, n, tables)
        checks.append(CheckResult(
            name="recurrence", n=n, probe_a=probe_a, probe_tau=probe_tau,
            passed=ok, detail="" if ok else not_closed(spec, n),
        ))
    return checks


def _recurrence_certified(spec: FamilySpec, tables, terms, singular) -> bool:
    """Whether x Q_n = A_n Q_(n+1) + B_n Q_n + C_n Q_(n-1) holds at every
    degree n of the chain but the last, by the module docstring's
    certificate on ``terms``, the ``construction.ChannelTerms`` of every
    table: True or False, False sending the chain to the dense path, or
    ``singular(k)`` raised for the first lead whose T block has determinant
    zero (``operators.continuant``).  ``channel_terms`` has held each table
    to construction form and handed over s_k = q L_k and the terms
    -s_k theta_k.  A table in construction form is
    Q_k = (P_k + A P_(k+1) - theta_k P_(k-1))(I - A x), so its lead's odd
    block is T_k = I + theta_k A on the odd channels, formed here from the
    terms as q s_k T_k, with no lead read from the table.  The ratio
    identity is compared cross-multiplied by s_n s_(n-1) and the gammas'
    denominators, in integers, the gammas read from the channels'
    ``construction.chain_context``."""
    scales, thetas = terms.scales, terms.thetas
    if thetas is None:
        return False
    context = chain_context(spec.channels)
    positions = context.positions
    (qa,), q = over_lcm((spec.a,))
    odd = spec.m // 2
    for k in range(1, len(tables)):
        # q s_k T_k, T_k = I + theta_k A on the odd (1-based even)
        # channels, theta_k(j, i) = -c / s_k for the term c at (j, i)
        T = [[q * scales[k] * (u == v) for v in range(odd)] for u in range(odd)]
        for (i, j), c in zip(positions, thetas[k]):
            if c:
                for l, index in context.coupled[i]:
                    T[j // 2][l // 2] -= c * qa[index]
        if not continuant(T):
            raise singular(k)
    for n in range(2, len(tables) - 1):
        gammas, earlier = context.gamma(n), context.gamma(n - 1)
        for (i, j), now, before in zip(positions, thetas[n], thetas[n - 1]):
            (gn, gd), (hn, hd) = gammas[j], earlier[i]
            if gn * hd * before * scales[n] != now * scales[n - 1] * hn * gd:
                return False
    return True


def _probe(spec: FamilySpec, a_val) -> FamilySpec:
    return spec.with_a((a_val,) * (spec.m - 1))


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


def _sweep(spec: FamilySpec, top: int, a_vals, tau_vals, perturb: bool):
    """The probe sweep every suite reads, as (a, tau, probe spec, tables,
    terms): per (a, tau) the chain Q_0..Q_(top+1), the last closing the
    recurrence, each built once as its integer table of coefficients, the
    chain in one pass (``construction.orthogonal_tables``, with no values),
    and perturbed with ``perturb``, and the channel terms of the same chain
    (``_terms``), which the orthogonality and eigenfunction suites read
    without the last."""
    for a_val in a_vals:
        probe = _probe(spec, a_val)
        for tau in tau_vals:
            tables = _perturbed_tables(list(orthogonal_tables(probe, range(top + 2), tau)),
                                       perturb)
            yield a_val, tau, probe, tables, _terms(probe, tables, perturb)


def _terms(spec: FamilySpec, tables, perturb: bool):
    """The chain's channel terms (``construction.channel_terms``), or None
    for a chain that ``perturb`` bumped: the bump is the fixture that makes
    verification fail, and it is reported from the dense path, which a
    chain with no terms takes."""
    return None if perturb else channel_terms(spec, tables)


def _head(terms):
    """The terms of Q_0..Q_top from the ``ChannelTerms`` of the whole
    chain, or None."""
    return None if terms is None else terms.chain[:-1]


def verify_eigenfunction(spec: FamilySpec, n_max: int, a_probes=None,
                         tau_probes=None, force: bool = False,
                         perturb: bool = False) -> VerificationReport:
    """Check Q_n . D - Lambda_n Q_n = 0 identically over the probe grid, for
    n up to n_max (clamped to N on a finite support).

    The canonical operator is built once, at a = 1, and the chains come
    from the sweep ``run_verification`` reads; each chain is certified from
    its channel terms, or its residuals computed (``_eigenfunction_suite``).
    Failures are recorded per (n, probe) with the first nonzero entry;
    nothing raises.
    """
    top, a_vals, tau_vals = _arguments(spec, n_max, a_probes, tau_probes)
    eigenfunction = _eigenfunction_suite(spec, top, a_vals, force)
    checks = []
    for a_val, tau, _, tables, terms in _sweep(spec, top, a_vals, tau_vals, perturb):
        checks.extend(eigenfunction(tables[:-1], _head(terms), a_val, tau))
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
    # the norms of the channel Gram, once per tau probe
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
        eigenfunction_suite = _eigenfunction_suite(spec, top, a_vals)
    except SpecError as err:
        eigenfunction_suite = None
        notes.append(f"bispectral suite skipped: {err}")

    own = {}  # tau -> tables and terms of Q_0..Q_top at the spec's own couplings
    for a_val, tau, probe, tables, terms in _sweep(spec, top, a_vals, tau_vals, perturb):
        checked, head = tables[:-1], _head(terms)
        if probe == spec:
            own[tau] = checked, head
        if spec.is_finite and not truncated:
            orthogonality.extend(verify_orthogonality(
                probe, checked, a_val, tau, basis=basis(tau), terms=head))
        if eigenfunction_suite is not None:
            eigenfunction.extend(eigenfunction_suite(checked, head, a_val, tau))
        recurrence.extend(verify_recurrence(probe, tables, a_val, tau, terms=terms))

    if not spec.is_finite and not truncated:
        # an infinite support: at the spec's own couplings, once per tau
        # probe, each chain built once per run
        for tau in tau_vals:
            if tau in own:
                tables, terms = own[tau]
            else:
                tables = _perturbed_tables(list(orthogonal_tables(spec, range(top + 1), tau)),
                                           perturb)
                terms = _terms(spec, tables, perturb)
                terms = None if terms is None else terms.chain
            orthogonality.extend(verify_orthogonality(
                spec, tables, own_a, tau, basis=basis(tau), terms=terms))

    return VerificationReport(
        checks=tuple(orthogonality + eigenfunction + recurrence),
        a_probes=a_vals,
        tau_probes=tau_vals,
        notes=tuple(notes),
    )

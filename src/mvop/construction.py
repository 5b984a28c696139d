"""Matrix weight construction and the closed-form orthogonal sequence.

A family couples m scalar discrete weights on a common support through a
two-step nilpotent matrix A (staggered superdiagonal/subdiagonal pattern,
A^2 = 0) and the unipotent factor U(x) = I + A x:

    W(x) = U(x) diag(w_1(x), ..., w_m(x)) U(x)^T.

The orthogonal sequence for W is assembled in closed form from the scalar
monic polynomials and their squared-norm ratios; the only non-rational
constants are cross-channel total-mass quotients, which exact identity
checks replace by a rational probe value (tau) and numeric checks evaluate
as floats.  With p, q, r the channel polynomials of degrees n, n + 1,
n - 1, A holding a at 0-based pattern positions (i, j) and the norm-ratio
matrix theta = R_n on the transposed positions,
Q_n = (P_n + A P_(n+1) - R_n P_(n-1))(I - A x) has four kinds of nonzero
entries:

    diagonal (i, i):            p_i + x sum_k theta_ik r_k a_ki
    pattern (i, j):             a q_j - (p_i a) x
    transposed pattern (j, i):  -theta_ji r_i
    even channels j != l:       x sum_k theta_jk r_k a_kl   (1-based even)

Each is a sum of a few scalar multiples of channel polynomials, so Q_n is
fixed by about 3 m^2 scalar coefficients.  ``orthogonal_tables`` builds a
chain of Q_n from them in integers, in one pass.  What no coupling and no
tau changes is read from the channels' ``ChainContext``, once per process
however many chains read it: each channel's monic p_j, grown in integers
over its least common denominator by the ladder itself
(``families._Ladder.integer``), each norm ratio's rational part and mass
quotient (``_norm_quotient``), and each degree's term skeleton, the
ladder vectors put over one denominator.  The gates and the resolved mass
quotients are read once per chain, so a degree only forms its
multipliers, puts them over their least common denominator and combines
integer coefficient lists; no ``Fraction`` polynomial product is formed.
``orthogonal_table`` is the chain of one degree.  The result is an ``IntegerTable``: the least common
denominator L of Q_n's coefficients and the coefficients of L Q_n, and no
values: every identity is checked on coefficients.  Scaling by a nonzero
integer changes no zero, so a check that an identity vanishes reads the
same on L Q_n as on Q_n.  The JSON of ``family`` and ``export`` prints the table
itself, each coefficient as its integer over L (``serialize.table_to_json``),
so what they print is what ``verify`` certifies, and the limit sources are
read off the same tables.  ``orthogonal_polynomial`` returns the
``Fraction`` view of the table (``IntegerTable.polynomial``), which LaTeX
and the public API read.  The ``ScalarPoly`` assembly (``_assemble``) is
kept only where the coefficients are not rational: for the float mass
quotients (tau "numeric"), whose float operation order it fixes, and for
couplings in the quadratic extension, which the public API still takes
and the tests' limit oracle builds on; each product with x there is a
shift of coefficients (``ScalarPoly.times_x``).  The closure companion
Q_(N+1) is the same form at n = N + 1, where each channel ladder's zero
norm |p_(N+1)|^2 makes theta = 0.  With the channel weights at x over
one denominator d and the couplings over q,
d q^2 W(x)_ij = sum_r (d w_r) (q U_ir) (q U_jr) is an integer sum
(``_weight_entries``): ``family`` and ``export`` print each entry as its
integer over d q^2, ``weight_matrix`` reduces it to the exact ``Fraction``
for the public API, and the float weights divide it once, correctly
rounded.  Runs of weights (``integer_weights``) grow each channel by its
exact ratio w(x + 1) / w(x) (``families.weight_sequence``).

``integer_table`` puts any exact matrix polynomial in the same form (the
polynomials of exact ``inner_product``).  Exact Gram matrices, on every
support, are read in the channel basis, with no sum over x:
W = U diag(w_r) U^T, so

    <P, Q>_il = sum_r sum_j c_j[(P U)_ir] c_j[(Q U)_lr] |p_j^(r)|^2,

c_j[f] being f's coefficient on channel r's monic p_j.  There is one
expansion: ``channel_terms`` forms q L (P U) off the integer table's
coefficients, the couplings over their common denominator q, and peels
each entry onto its channel's ladder from the top down
(``ChainContext.peel``), each step subtracting c p_j through the ladder's
integer p_j in the chain context and keeping (j, c).  For a Q_n of
``orthogonal_table``, Q_n U = P_n + A P_(n+1) - R_n P_(n-1), so each entry
is one multiple c p_j^(r) and takes one step, and the same pass holds the
chain to construction form.  ``term_grams`` sums c c' |p_j^(r)|^2 over
the terms that share (r, j), from the ladders' norms alone, for a chain of
Q_n, a bumped chain or any two polynomials, and ``rational.over`` divides
out the scales once per entry.  On a finite support {0..N} a degree past
N + 1 is reduced by a multiple of x^(j-N-1) p_(N+1), which vanishes on the
support, so no ladder degree past N + 1 is read, and p_(N+1) has norm
zero.  ``gram_basis`` puts the
ladders' norms (the cross-channel masses resolved along the pattern path
at the tau probe by ``channel_masses``) over one integer denominator once
per (channels, tau).  On a finite support the norms carry channel 1's
rational mass, so the Gram is the exact ``Fraction`` the support sum
gives; on an infinite one it is in units of channel 1's |p_0|^2.  The
trust base is each channel's ladder being orthogonal for its weight with
its norms: certified once per finite channel
(``families.certify_ladder``), and the scalar theorem on an infinite
support (Koekoek, Lesky & Swarttouw, *Hypergeometric Orthogonal
Polynomials*, Springer 2010, ch. 9).  The pointwise support sum is the
tests' oracle (``tests/gram_oracle.py``), and the falling-factorial
moments are its infinite-support twin (``tests/moment_oracle.py``).
The truncated float Gram has the same shape: ``float_value_table`` per
polynomial, ``float_weight_table`` once (at x = 0..x_max on an infinite
support, over the whole of a finite one), and ``float_grams`` for any set of
pairs in one pass over x, which ``inner_product(mode="truncated")`` and
``relative_gram_bound`` also call; ``converged`` raises on a tail above
tolerance, and the tolerance must be positive and finite.  The block
Gram-Schmidt oracle that checks the construction, summing pointwise with
no table, is in ``tests/construction_oracle.py``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from operator import add, mul, sub

from . import linalg
from .errors import ProbeError, SpecError, TruncationError
from .families import (
    Mass,
    certify_ladder,
    check_degree,
    ladder,
    weight_sequence,
    weight_spec_from_json,
)
from .poly import MatrixPoly, ScalarPoly
from .quadext import QuadExt
from .rational import (format_rational, json_int, json_list, named_rational, over, over_lcm,
                       spec_field)
from .record import frozen

# Default probe grids for evaluation-based identity certification.  The
# identities in scope have degree <= 3 in the coupling parameter and are at
# most quadratic in any mass quotient, so these grids oversample the bounds.
A_PROBES = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1))
TAU_PROBES = (Fraction(1), Fraction(2), Fraction(3))


@frozen
class FamilySpec:
    """m coupled scalar channels plus the m-1 nonzero coupling constants.

    All channels must share one support: all finite with the same N, or all
    infinite.  Coupling constants are exact rationals, or values of the
    quadratic extension (``QuadExt``), which only ``orthogonal_polynomial``
    reads; W(x) and the verify paths need rational couplings.  A float
    coupling is a SpecError naming ``a``.
    """

    a: tuple
    channels: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        a = tuple(v if isinstance(v, QuadExt) else named_rational(v, "coupling constants a")
                  for v in self.a)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "a", a)
        m = len(channels)
        if m < 2:
            raise SpecError(f"a matrix family needs m >= 2 channels, got {m}")
        if len(a) != m - 1:
            raise SpecError(
                f"expected {m - 1} coupling constants for {m} channels, got {len(a)}"
            )
        if any(v == 0 for v in a):
            raise SpecError("coupling constants must all be nonzero")
        tops = {ch.support_N for ch in channels}
        if len(tops) != 1:
            raise SpecError(
                "all channels must share one support (all finite with equal N, "
                f"or all infinite); got supports {sorted(map(str, tops))}"
            )

    @property
    def m(self) -> int:
        return len(self.channels)

    @property
    def support_N(self):
        return self.channels[0].support_N

    @property
    def is_finite(self) -> bool:
        return self.support_N is not None

    def with_a(self, new_a) -> "FamilySpec":
        return FamilySpec(a=new_a, channels=self.channels)

    def to_json(self):
        return {
            "m": self.m,
            "a": [format_rational(v) for v in self.a],
            "channels": [ch.to_json() for ch in self.channels],
        }


def family_spec_from_json(data: dict) -> FamilySpec:
    def field(key, convert):
        return spec_field(data, key, convert, "family spec")

    channels = field("channels", lambda v: json_list(v, weight_spec_from_json))
    spec = FamilySpec(a=field("a", json_list), channels=channels)
    if "m" in data and field("m", json_int) != spec.m:
        raise SpecError(
            f"family spec declares m = {data['m']} but has {spec.m} channels"
        )
    return spec


# --------------------------------------------------------------------------
# nilpotent coupling pattern


def staggered_positions(m: int):
    """Index pairs (row, col), 0-based, of the two-step nilpotent pattern:
    entries (2j-1, 2j) and (2j+1, 2j) in 1-based indexing."""
    positions = []
    for j in range(1, m // 2 + 1):
        positions.append((2 * j - 2, 2 * j - 1))
    for j in range(1, (m - 1) // 2 + 1):
        positions.append((2 * j, 2 * j - 1))
    return tuple(positions)


def weight_matrix(spec: FamilySpec, x: int):
    """W(x) = U(x) diag(w_i(x)) U(x)^T, exactly; zero matrix off support."""
    top = spec.support_N
    if x < 0 or (top is not None and x > top):
        return linalg.zeros(spec.m)
    W, den = _weight_entries([ch.weight(x) for ch in spec.channels], x,
                             *_integer_couplings(spec))
    return tuple(tuple(Fraction(v, den) for v in row) for row in W)


def _integer_couplings(spec: FamilySpec):
    """The couplings over their common denominator q: (q, ((i, j, q a), ...))
    for each pattern position (i, j) holding a."""
    if not all(isinstance(a, Fraction) for a in spec.a):
        raise SpecError(f"W(x) needs rational couplings, got {spec.a}")
    (qa,), q = over_lcm((spec.a,))
    return q, tuple((i, j, c) for (i, j), c in zip(staggered_positions(spec.m), qa))


def _weight_entries(w, x: int, q: int, couplings):
    """d q^2 W(x) as integers and its denominator d q^2, from the channel
    weights ``w`` at x, put over their common denominator d, and the
    couplings over q (``_integer_couplings``).

    W(x)_ij = sum_r w_r U_ir U_jr, and row i of q U(x) is q e_i plus
    (q a_k) x e_j for each pattern position (i, j), so the integer sum runs
    over the columns r the two rows share.
    """
    m = len(w)
    (wd,), d = over_lcm((w,))
    u = [{i: q} for i in range(m)]
    for i, j, c in couplings:
        u[i][j] = c * x
    W = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            W[i][j] = W[j][i] = sum(wd[r] * u[i][r] * u[j][r] for r in u[i].keys() & u[j].keys())
    return W, d * q * q


def integer_weights(spec: FamilySpec, stop: int):
    """(d q^2 W(x) as integers, d q^2) at x = 0..stop (``_weight_entries``),
    each channel's weights grown once by their exact ratios
    (``families.weight_sequence``); ``stop`` must not pass a finite
    support's N."""
    q, couplings = _integer_couplings(spec)
    for x, w in enumerate(zip(*(weight_sequence(ch, stop) for ch in spec.channels))):
        yield _weight_entries(w, x, q, couplings)


# --------------------------------------------------------------------------
# norm ratios and the tau probe mechanism


def needs_mass_probe(spec: FamilySpec) -> bool:
    """Whether any norm-ratio entry carries a non-rational mass quotient."""
    return _transcendental(spec.channels)


@lru_cache(maxsize=None)
def _transcendental(channels) -> bool:
    """``needs_mass_probe`` once per tuple of channels, as ``ladder`` is once
    per channel: ``spec_tau`` reads it for every polynomial built."""
    masses = [ch.total_mass().mass for ch in channels]
    return any(not (masses[j] / masses[i]).is_rational
               for i, j in staggered_positions(len(channels)))


def spec_tau(spec: FamilySpec, tau, name: str = "tau", exact: bool = False):
    """The tau the polynomials of ``spec`` read, decided here only: None when
    every cross-channel mass quotient is rational, else ``tau``, an exact
    rational probe or "numeric" for the float quotients.  ``tau`` is read on
    every spec, through ``rational`` unless it is "numeric", so any other
    value is a SpecError naming ``name``; "numeric" is a ProbeError where the
    caller needs an exact value (``exact``) and the spec reads a tau.  None
    stays None: a transcendental quotient read without a tau is a
    ProbeError where it is read."""
    if tau is None:
        return None
    if tau != "numeric":
        tau = named_rational(tau, name)
    if not needs_mass_probe(spec):
        return None
    if exact and tau == "numeric":
        raise ProbeError(
            "the three-term recurrence is extracted exactly and cannot use the "
            f"float mass quotient; pass {name} a rational probe value such as 2, "
            "not 'numeric'"
        )
    return tau


def _resolve_quotient(quotient: Mass, tau):
    """The quotient at ``tau`` as ``spec_tau`` returns it."""
    if quotient.is_rational:
        return quotient.rational_value()
    if tau is None:
        raise ProbeError(
            "a cross-channel mass quotient is transcendental; supply tau as a "
            "rational probe value or 'numeric' for the float value"
        )
    return quotient.float_value() if tau == "numeric" else tau


def norm_ratio(spec: FamilySpec, ch_num: int, n_num: int, ch_den: int, n_den: int, tau=None):
    """|p_n^(ch_num)|^2 / |p_n_den^(ch_den)|^2 with the mass quotient resolved,
    from the channel ladders as ``_closed_form`` reads them."""
    num, den = spec.channels[ch_num], spec.channels[ch_den]
    check_degree(num, n_num)
    check_degree(den, n_den)
    coefficient, quotient = _norm_quotient(ladder(num), n_num, ladder(den), n_den)
    return coefficient * _resolve_quotient(quotient, spec_tau(spec, tau))


@lru_cache(maxsize=None)
def _norm_quotient(num, n_num: int, den, n_den: int):
    """The coefficient ratio and the Mass quotient of the squared norms of
    two channel ladders, once per (ladder, degree, ladder, degree), as
    ``ladder`` is once per channel: every probe of a sweep reads the same
    pairs, and a ladder hashes by identity.  A ladder's norms all carry its
    total mass, so the Mass quotient is formed at degrees (0, 0) only and
    read from there."""
    a, b = num.norm(n_num).coefficient, den.norm(n_den).coefficient
    quotient = (_norm_quotient(num, 0, den, 0)[1] if n_num or n_den
                else num.norm(0).mass / den.norm(0).mass)
    return Fraction(a.numerator * b.denominator, a.denominator * b.numerator), quotient


# --------------------------------------------------------------------------
# the orthogonal sequence


def _assemble(spec: FamilySpec, p, q, r, theta) -> MatrixPoly:
    """P_n + A P_(n+1) - R P_(n-1) - P_n A x + R P_(n-1) A x, entry by entry,
    from the channel polynomials p (degree n), q (n + 1) and r (n - 1, or
    zeros) and the norm-ratio matrix theta = R_n.

    With A on the staggered pattern and R_n on its transpose, the product
    has four kinds of nonzero entries (0-based (i, j) a pattern position
    with coupling a):

    * diagonal (i, i): p_i + x sum_k theta_ik r_k a_ki;
    * pattern (i, j): a q_j - (p_i a) x;
    * transposed pattern (j, i): -theta_ji r_i;
    * between two even (1-based) channels j != l: x sum_k theta_jk r_k a_kl.

    Each scalar product and sum is the one the matrix products form, in the
    same order, with only the zero terms left out.
    """
    m = spec.m
    zero = ScalarPoly()
    entries = [[zero] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = p[i]
    coupled = {}  # k -> [(l, a_kl)] along row k of A
    for (i, j), a in zip(staggered_positions(m), spec.a):
        a = ScalarPoly.constant(a)
        coupled.setdefault(i, []).append((j, a))
        entries[i][j] = a * q[j] - (p[i] * a).times_x()
    # R P_(n-1) is theta_jk r_k at (j, k); (R P_(n-1) A)_jl sums its
    # products with a_kl in increasing k
    sums = {}
    for k in sorted(coupled):
        for j, _ in coupled[k]:
            t = ScalarPoly.constant(theta[j][k]) * r[k]
            if t.is_zero:
                continue
            entries[j][k] = zero - t
            for l, a in coupled[k]:
                term = t * a
                sums[j, l] = sums[j, l] + term if (j, l) in sums else term
    for (j, l), total in sums.items():
        entries[j][l] = entries[j][l] + total.times_x()
    return MatrixPoly(entries)


def _closed_form(spec: FamilySpec, n: int, tau) -> MatrixPoly:
    """P_n + A P_(n+1) - R_n P_(n-1) - P_n A x + R_n P_(n-1) A x, where
    R_n = |P_n|^2 A^T |P_(n-1)|^(-2), P_k = diag(p_k^(w_1), ..., p_k^(w_m))
    and P_(-1) = 0, by ``_assemble`` from each channel's ladder, read once;
    at n = N + 1 the ladder's |p_(N+1)|^2 = c_(N+1) |p_N|^2 is 0, so R_n = 0.
    Only the float mass quotients (tau "numeric") and couplings in the
    quadratic extension take this path, the latter for the public API and
    the tests' limit oracle alone; ``orthogonal_tables`` builds the rest."""
    m = spec.m
    ladders = [ladder(ch) for ch in spec.channels]
    p = [lad.polynomial(n) for lad in ladders]
    q = [lad.polynomial(n + 1) for lad in ladders]
    r = [lad.polynomial(n - 1) if n else ScalarPoly() for lad in ladders]
    # theta = R_n holds a |p_n^(w_j)|^2 / |p_(n-1)^(w_i)|^2 at (j, i) for
    # each pattern position (i, j) holding a
    theta = [[Fraction(0)] * m for _ in range(m)]
    for k, (i, j) in enumerate(staggered_positions(m) if n else ()):
        coefficient, quotient = _norm_quotient(ladders[j], n, ladders[i], n - 1)
        theta[j][i] = spec.a[k] * (coefficient * _resolve_quotient(quotient, tau))
    return _assemble(spec, p, q, r, theta)


def _check_index(spec: FamilySpec, n: int):
    """The degree gate of Q_n: 0 <= n, and n <= N + 1 on a finite support."""
    top = spec.support_N
    if n < 0 or (top is not None and n > top + 1):
        limit = "" if top is None else f" <= {top + 1}"
        raise SpecError(f"polynomial index must satisfy 0 <= n{limit}, got {n}")


def _chain_tau(spec: FamilySpec, n: int, tau, exact: bool = False):
    """The tau Q_n reads (``spec_tau``), after the degree gate
    (``_check_index``): the closure companion n = N + 1 reads none."""
    _check_index(spec, n)
    tau = spec_tau(spec, tau, exact=exact)
    return None if spec.support_N is not None and n == spec.support_N + 1 else tau


# the entry kinds of Q U in construction form (``ChainContext.kinds``)
_ZERO, _DIAGONAL, _PATTERN, _TRANSPOSED = range(4)


class ChainContext:
    """What every chain of Q_n over one tuple of channels reads that no
    coupling and no tau changes, grown degree by degree as far as any chain
    has asked, as a ladder grows (``families._Ladder``); ``chain_context``
    keeps one per tuple of channels.

    * ``integers[k]``: every channel's integer p_k as (d p_k, d)
      (``families._Ladder.integer``), read for k = n, n + 1, n - 1 when
      degree n is first asked for, so a ladder gate fires at the degree it
      fired at when each chain read the ladders itself;
    * ``degree(n)``: Q_n's term skeleton (``_skeleton``);
    * ``gamma(k)``: every channel's c_k as (numerator, denominator), which
      the recurrence certificate's ratio identity reads;
    * ``kinds[i][r]``: what entry (i, r) of Q U holds in construction form,
      with the pattern position it belongs to, which ``channel_terms``
      checks as it reads each table back;
    * ``peel(r, cs)``: an entry of channel r on the ladder basis.

    A degree that raises while it is grown is not kept, so the next chain
    that asks for it raises the same error at the same degree."""

    def __init__(self, channels):
        self.top = channels[0].support_N
        # the top ladder degree a peel reads: p_(N+1), which vanishes on a
        # finite support {0..N}
        self.last = math.inf if self.top is None else self.top + 1
        self.ladders = [ladder(ch) for ch in channels]
        self.positions = staggered_positions(len(channels))
        # i -> [(l, index of the coupling)] along row i of A
        self.coupled = {}
        for index, (i, j) in enumerate(self.positions):
            self.coupled.setdefault(i, []).append((j, index))
        self.integers = {}
        self.degrees = {}
        self.gammas = {}
        # (kind, position) of each entry of Q U in construction form
        m = len(channels)
        self.kinds = [[(_DIAGONAL if i == r else _ZERO, None) for r in range(m)]
                      for i in range(m)]
        for index, (i, j) in enumerate(self.positions):
            self.kinds[i][j] = (_PATTERN, index)
            self.kinds[j][i] = (_TRANSPOSED, index)

    def degree(self, n: int) -> tuple:
        skeleton = self.degrees.get(n)
        if skeleton is None:
            skeleton = self.degrees[n] = self._skeleton(n)
        return skeleton

    def gamma(self, k: int):
        gammas = self.gammas.get(k)
        if gammas is None:
            gammas = self.gammas[k] = [
                (c.numerator, c.denominator)
                for c in (lad.coefficients(k)[1] for lad in self.ladders)]
        return gammas

    def peel(self, r: int, cs: list) -> tuple:
        """A nonzero entry of channel r, its integer coefficients ``cs``
        lowest degree first, as its terms (j, c) on the ladder basis, from
        the top down.  At degree j the leading coefficient c of what is left
        is that of c p_j^(r), p_j being monic: with the ladder's integer
        d p_j, d cs - c (d p_j) is d times the remainder, its top
        coefficient cancelled, so the remainder is read on with its scale
        multiplied by d, and c is recorded over the scale reached: an int
        where the scale divides it, a ``Fraction`` otherwise.  An entry that
        is one ladder multiple takes one step.  On a finite support {0..N}
        a degree past N + 1 is reduced by c x^(j-N-1) p_(N+1), which
        vanishes on the support, and records nothing, so no ladder degree
        past p_(N+1) is read; the term at N + 1 is kept, with norm zero."""
        terms, scale = [], 1
        while True:
            j, c = len(cs) - 1, cs[-1]
            k = min(j, self.last)
            try:
                p, d = self.integers[k][r]
            except KeyError:
                p, d = self.ladders[r].integer(k)
            if k < j:
                p = (0,) * (j - k) + p  # x^(j-N-1) p_(N+1)
            else:
                whole, part = divmod(c, scale)
                terms.append((j, Fraction(c, scale) if part else whole))
            rest = [v * d - c * w for v, w in zip(cs, p)]
            rest.pop()  # c d - c d: the top coefficient cancels
            if not any(rest):
                return tuple(terms)
            while not rest[-1]:
                rest.pop()
            cs, scale = rest, scale * d

    def _skeleton(self, n: int) -> tuple:
        """Q_n's terms as (den, quotients, thetas, entries): ``den`` the
        common denominator of the degree's ladder vectors, ``quotients``
        each pattern position's norm ratio as (numerator, denominator, Mass
        quotient), ``thetas`` the positions whose theta is not structurally
        0, as (position, numerator, denominator, indices of the couplings b
        along its row), and ``entries`` each nonzero entry as (row-major
        index, first multiplier, its vector, the other (multiplier, vector)
        terms).  The entry kinds are ``orthogonal_tables``'s: with (i, j) a
        pattern position holding a_k and theta_k its norm ratio, entry (i, i)
        is 1 p_n^(i), entry (i, j) is a_k (p_(n+1)^(j) - x p_n^(i)), entry
        (j, i) takes -theta_k p_(n-1)^(i), and entry (j, l) takes
        theta_k b x p_(n-1)^(i) for each pattern position (i, l) holding b.
        Each ladder vector is put over the degree's common denominator and
        padded to its entry's length once here."""
        ladders, positions, m = self.ladders, self.positions, len(self.ladders)
        for k in (n, n + 1, n - 1):
            if k not in self.integers and k >= 0:
                self.integers[k] = [lad.integer(k) for lad in ladders]
        p, q = self.integers[n], self.integers[n + 1]
        r = self.integers[n - 1] if n else ()
        # |p_n^(j)|^2 / |p_(n-1)^(i)|^2 per position: (numerator,
        # denominator, the Mass quotient)
        quotients = []
        for i, j in positions if n else ():
            coefficient, quotient = _norm_quotient(ladders[j], n, ladders[i], n - 1)
            quotients.append((coefficient.numerator, coefficient.denominator, quotient))
        den = math.lcm(*[d for _, d in (*p, *q, *r)])

        def scaled(vector, shift=0):
            coeffs, d = vector
            return [0] * shift + [den // d * v for v in coeffs]

        # entry -> [(multiplier, vector over den)]; multiplier 0 is 1, 1 + k
        # is a_k, and each theta's follow
        entries = {i * m + i: [(0, scaled(p[i]))] for i in range(m)}
        for k, (i, j) in enumerate(positions):
            # p_(n+1) and x p_n are both monic: the top coefficient cancels
            difference = list(map(sub, scaled(q[j]), scaled(p[i], 1)))
            entries[i * m + j] = [(1 + k, difference[:-1])]
        thetas = []  # (position, numerator, denominator, couplings b along row i)
        slot = 1 + len(positions)
        for k, ((i, j), (cn, _, _)) in enumerate(zip(positions, quotients)):
            if not cn:
                continue  # |p_(N+1)|^2 = 0: the closure companion has no theta
            row = self.coupled[i]
            thetas.append((k, *quotients[k][:2], tuple(b for _, b in row)))
            entries.setdefault(j * m + i, []).append((slot, scaled(r[i])))
            for t, (l, _) in enumerate(row, 1):
                entries.setdefault(j * m + l, []).append((slot + t, scaled(r[i], 1)))
            slot += 1 + len(row)
        padded = []
        for e, terms in sorted(entries.items()):
            size = max(len(v) for _, v in terms)
            (first, vector), *rest = [(index, v + [0] * (size - len(v))) for index, v in terms]
            padded.append((e, first, vector, tuple(rest)))
        return den, tuple(quotients), tuple(thetas), tuple(padded)


@lru_cache(maxsize=None)
def chain_context(channels) -> ChainContext:
    """The one ``ChainContext`` of a tuple of channels."""
    return ChainContext(channels)


def orthogonal_tables(spec: FamilySpec, degrees, tau=None):
    """The integer tables of Q_n for each n of ``degrees``, in order, for
    rational couplings, coefficients only.  The degrees and ``tau`` are read
    as ``orthogonal_polynomial`` reads them, except that "numeric" is a
    ProbeError where the spec reads a tau: a table is exact.  Each table is
    yielded as it is built, so a bad input raises where a build degree by
    degree would raise it, the degree gate and ``spec_tau`` at the first
    degree and the gate again at each later one.  The closure companion
    n = N + 1 reads no tau: a finite support's mass quotients are all
    rational, so ``spec_tau`` gives none.

    Everything that depends on the channels alone is read from their
    ``chain_context``: the integer ladder vectors, the norm ratios and each
    degree's term skeleton, built once per process however many (a, tau)
    chains read them.  A chain forms only its multipliers: 1 and a for the
    diagonal and pattern entries, and from theta_n = a |p_n^(j)|^2 /
    |p_(n-1)^(i)|^2, its mass quotient resolved at ``tau`` once per chain at
    the first degree n >= 1, -theta and theta b.  These, kept as unreduced
    fractions, are put over one common denominator M, the skeleton's
    integer vectors are combined entry by entry, and M times the vectors'
    denominator and the coefficients are divided by their gcd, so the scale
    is the least common denominator of Q_n's coefficients, as
    ``integer_table`` reads it.  The ladders are read as ``_closed_form``
    reads them (to degree n + 1) and the mass quotients resolved as it
    resolves them, so the same inputs fail the same gates."""
    m = spec.m
    context = chain_context(spec.channels)
    couplings = [(a.numerator, a.denominator) for a in spec.a]
    fixed = [(1, 1), *couplings]  # the multipliers of the diagonal and pattern entries
    resolved = None  # each position's mass quotient at tau
    for index, n in enumerate(degrees):
        _check_index(spec, n)
        if not index:
            tau = spec_tau(spec, tau, exact=True)
        den, quotients, thetas, skeleton = context.degree(n)
        if resolved is None and quotients:
            resolved = [_resolve_quotient(quotient, tau) for _, _, quotient in quotients]
        multipliers = list(fixed)
        for k, cn, cd, row in thetas:
            t, (an, ad) = resolved[k], couplings[k]
            num, d = an * cn * t.numerator, ad * cd * t.denominator
            multipliers.append((-num, d))
            multipliers += [(num * couplings[b][0], d * couplings[b][1]) for b in row]
        M = math.lcm(*[d for _, d in multipliers])
        f = [v * (M // d) for v, d in multipliers]
        entries = [[]] * (m * m)
        for e, first, vector, rest in skeleton:
            c = f[first]
            cs = [c * v for v in vector]
            for other, vector in rest:
                c = f[other]
                cs = [u + c * v for u, v in zip(cs, vector)]
            while cs and not cs[-1]:
                cs.pop()
            entries[e] = cs
        D = den * M
        g = math.gcd(D, *chain.from_iterable(entries))
        if g > 1:
            entries = [[v // g for v in cs] for cs in entries]
        # entry (1, 1) is p_n^(1), so the degree is n
        yield IntegerTable(degree=n, scale=D // g, coefficients=tuple(
            [tuple(map(tuple, entries[i:i + m])) for i in range(0, m * m, m)]))


def orthogonal_table(spec: FamilySpec, n: int, tau=None) -> "IntegerTable":
    """The integer table of Q_n, coefficients only: the one-degree chain of
    ``orthogonal_tables``."""
    return next(orthogonal_tables(spec, (n,), tau))


def orthogonal_polynomial(spec: FamilySpec, n: int, tau=None) -> MatrixPoly:
    """The degree-n matrix orthogonal polynomial for W, 0 <= n, and
    n <= N + 1 on a finite support, where n = N reads the degree-(N+1)
    extension x(x-1)...(x-N) for P_(n+1) and n = N + 1 is the closure
    companion (``closure_polynomial``), so that consecutive degrees
    0..N + 1 form every chain the three-term recurrence reads.  Degree is
    exactly n; the leading coefficient has the block form [[I, N], [0, T]]
    (``operators.lead_block``), and a rational tau probe can make T
    singular.  ``tau`` is read by ``spec_tau``: an exact rational (an int, a
    Fraction or a "p/q" string) or "numeric" for the float mass quotients,
    needed only when a cross-channel mass quotient is transcendental; a float
    tau is a SpecError naming tau.

    With rational couplings and an exact tau this is the ``Fraction`` view of
    the integer table ``verify`` certifies (``orthogonal_table``); the float
    quotients are built by ``_closed_form``, and so are couplings in the
    quadratic extension, which no command reads (the limit sources use
    ``orthogonal_table``) and which serve the public API and the tests'
    limit oracle."""
    tau = _chain_tau(spec, n, tau)
    if tau == "numeric" or not all(isinstance(a, Fraction) for a in spec.a):
        return _closed_form(spec, n, tau)
    return orthogonal_table(spec, n, tau).polynomial()


def numeric_polynomial(spec: FamilySpec, n: int) -> MatrixPoly:
    """Q_n at the float mass quotients (tau "numeric"), by ``_closed_form``
    in its float operation order; with rational quotients, the exact Q_n.
    The truncated float oracle sums these."""
    return _closed_form(spec, n, _chain_tau(spec, n, "numeric"))


def closure_polynomial(spec: FamilySpec) -> MatrixPoly:
    """The degree-(N+1) companion closing the three-term recurrence at n = N:
    the closed form at n = N + 1, where the norm-ratio matrix is zero, so
    only the diagonal and pattern entries remain (finite-support masses are
    rational, so no tau is needed)."""
    top = spec.support_N
    if top is None:
        raise SpecError("the closure companion needs a finite support")
    return orthogonal_polynomial(spec, top + 1)


# --------------------------------------------------------------------------
# inner products


@frozen
class GramMatrix:
    """<P, Q>_W as a constant matrix, with the evaluation mode recorded."""

    entries: tuple
    mode: str  # "exact" or "truncated"
    x_max: int | None = None
    tol: float | None = None
    tail: float | None = None

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def max_abs(self) -> float:
        return max(abs(float(v)) for row in self.entries for v in row)


@frozen
class IntegerTable:
    """A matrix polynomial P in integers: ``scale`` is L, the least common
    denominator of P's coefficients, ``coefficients`` holds each entry's
    coefficients times L, lowest degree first, and ``degree`` is P's
    degree."""

    degree: int
    scale: int
    coefficients: tuple

    def coefficient(self, j: int):
        """L [P]_j, the integer matrix of the coefficients of x^j."""
        return tuple(tuple(cs[j] if 0 <= j < len(cs) else 0 for cs in row)
                     for row in self.coefficients)

    def polynomial(self) -> MatrixPoly:
        """P itself, its coefficients divided by L to ``Fraction``s."""
        return MatrixPoly(tuple(tuple(ScalarPoly(Fraction(c, self.scale) for c in cs)
                                      for cs in row) for row in self.coefficients))


def integer_table(P: MatrixPoly) -> IntegerTable:
    """The integer table of P, its exact coefficients put over one
    denominator once."""
    scale = math.lcm(*(c.denominator for row in P.entries for e in row for c in e.coeffs))
    entries = tuple(tuple(tuple(c.numerator * (scale // c.denominator) for c in e.coeffs)
                          for e in row) for row in P.entries)
    degree = max(len(cs) for row in entries for cs in row) - 1
    return IntegerTable(degree=degree, scale=scale, coefficients=entries)


def inner_product(P: MatrixPoly, Q: MatrixPoly, spec: FamilySpec, mode: str = "exact",
                  x_max: int = 400, tol: float = 1e-9) -> GramMatrix:
    """<P, Q> = sum_x P(x) W(x) Q(x)^T over the support.

    Exact mode needs exact coefficients, ints or ``Fraction``s (any other
    is a ValueError), and a finite support, and reads the Gram off the
    channel terms of P and Q (``channel_terms``, ``term_grams``); a channel
    whose ladder fails its certificate is a SpecError naming it.  On an
    infinite support the exact Gram reads a tau probe, and ``mvop verify``
    is the exact route.  Truncated mode sums in floats through ``float_grams``, over
    x = 0..x_max on an infinite support and the whole of 0..N on a finite
    one, and records the tail estimate (last term relative to the
    accumulated absolute sum); a tail above ``tol``, which must be positive
    and finite, raises rather than returning a silent value.
    """
    if P.cols != spec.m or Q.cols != spec.m:
        raise ValueError("polynomial width does not match the family size")

    if mode == "exact":
        if not all(isinstance(c, (int, Fraction))
                   for S in (P, Q) for row in S.entries for e in row for c in e.coeffs):
            raise ValueError('exact inner products need exact rational coefficients (int or '
                             'Fraction); use mode="truncated" for float coefficients')
        if not spec.is_finite:
            raise SpecError(
                "exact inner products need a finite support; on an infinite support "
                "`mvop verify` certifies orthogonality exactly at each tau probe"
            )
        basis = gram_basis(spec, max(P.degree, Q.degree) + 1)
        if basis.failure:
            raise SpecError(basis.failure)
        terms = channel_terms(spec, [integer_table(S) for S in (P, Q)])
        sums = term_grams(terms.chain, basis, ((0, 1),))[0, 1]
        p_scale, q_scale = terms.scales
        return GramMatrix(entries=over(sums, p_scale * q_scale * basis.norm_scale), mode="exact")

    if mode != "truncated":
        raise ValueError(f"unknown inner product mode {mode!r}")
    weights = float_weight_table(spec, x_max)
    values = [float_value_table(S, len(weights) - 1) for S in (P, Q)]
    return converged(float_grams(values, weights, ((0, 1),), x_max, tol)[0, 1], spec)


def float_weight_table(spec: FamilySpec, x_max: int):
    """Float weight matrices at x = 0..x_max on an infinite support and at
    every point 0..N of a finite one, whatever x_max: only an infinite sum
    is truncated, and a finite one has no tail to judge.  Each exact entry of
    W(x) = U(x) diag(w(x)) U(x)^T is rounded to float once.  The entries are
    integer sums over d q^2 (``_weight_entries``, from the grown channel
    weights), and integer true division rounds correctly, so each float is
    the one ``float(Fraction)`` gives."""
    if x_max < 0:
        raise SpecError(f"x_max must be >= 0, got {x_max}")
    stop = x_max if spec.support_N is None else spec.support_N
    return tuple(tuple(tuple(v / den for v in row) for row in W)
                 for W, den in integer_weights(spec, stop))


def float_value_table(P: MatrixPoly, stop: int):
    """Float values of every entry at x = 0..stop, by float Horner."""
    coeffs = tuple(
        tuple(tuple(float(c) for c in e.coeffs) for e in row) for row in P.entries
    )
    out = []
    for x in range(stop + 1):
        fx = float(x)
        rows = []
        for row in coeffs:
            vals = []
            for cs in row:
                acc = 0.0
                for c in reversed(cs):
                    acc = acc * fx + c
                vals.append(acc)
            rows.append(tuple(vals))
        out.append(tuple(rows))
    return tuple(out)


def float_grams(values, weights, pairs, x_max: int, tol: float) -> dict:
    """The truncated <P_n, P_k> for each (n, k) of ``pairs``, keyed by the
    pair, from the float value tables ``values[n]`` and the float weight
    table, in one pass over x; each carries its tail estimate, the largest
    term at the last point relative to the largest accumulated absolute
    sum, which ``converged`` judges.

    At each x every left factor's rows times W(x) are formed once, as flat
    r-major lists, and every right factor's rows repeated m times to match.
    A term adds its (r, s) products left to right from 0.0, as the builtin
    ``sum`` of Python <= 3.11 did: ``reduce(add, ...)`` never compensates,
    where the builtin ``sum`` of floats does from 3.12 on and would move the
    reported bounds.  Entry (i, j) of a pair is kept at i * cols + j.

    A zero entry r of a left row (rows 0 and 2 of every m = 3 Q_n hold one)
    drops its r-block from the flat list, and ``map`` pairs the shorter list
    with as many repeats of the right row.  On finite tables the dropped
    products are all +-0.0, and a sum begun at 0.0 is never -0.0, so the
    totals are bit for bit those with the products kept.
    """
    m = len(weights[0])  # x_max >= 0, so there is a point x = 0
    shapes = [(len(values[n][0]), len(values[k][0])) for n, k in pairs]
    totals = [[0.0] * (rows * cols) for rows, cols in shapes]
    scales = [[0.0] * (rows * cols) for rows, cols in shapes]
    lasts = [0.0] * len(pairs)
    lefts, rights = {n for n, _ in pairs}, {k for _, k in pairs}
    stop = len(weights) - 1
    for x, w in enumerate(weights):
        pw = {n: [[p * v for p, wrow in zip(prow, w) if p for v in wrow] for prow in values[n][x]]
              for n in lefts}
        qs = {k: [qrow * m for qrow in values[k][x]] for k in rights}
        for t, (n, k) in enumerate(pairs):
            qrows = qs[k]
            terms = [reduce(add, map(mul, prow, qrow), 0.0) for prow in pw[n] for qrow in qrows]
            sizes = list(map(abs, terms))
            totals[t] = list(map(add, totals[t], terms))
            scales[t] = list(map(add, scales[t], sizes))
            if x == stop:
                lasts[t] = max(0.0, *sizes)
    grams = {}
    for (rows, cols), total, scale, last, pair in zip(shapes, totals, scales, lasts, pairs):
        scale_max = max(max(scale[i * cols:(i + 1) * cols]) for i in range(rows))
        grams[pair] = GramMatrix(
            entries=tuple(tuple(total[i * cols:(i + 1) * cols]) for i in range(rows)),
            mode="truncated",
            x_max=x_max,
            tol=tol,
            tail=last / scale_max if scale_max > 0 else 0.0,
        )
    return grams


# --------------------------------------------------------------------------
# exact Grams in the channel basis


def channel_masses(spec: FamilySpec, tau=None) -> tuple:
    """M_r / M_1 for every channel r, each cross-channel mass quotient
    resolved at ``tau`` (read by ``spec_tau``) as ``_closed_form`` resolves
    it, along the pattern path.

    Consecutive channels r and r + 1 share one pattern position (i, j),
    where Q_n reads the quotient M_j / M_i, and each mass follows from its
    neighbour's through that quotient.  The pairwise quotient M_r / M_1
    would disagree for m >= 3: at a probe tau the construction reads
    M_2 / M_1 = tau and M_2 / M_3 = tau, so M_3 / M_1 is 1, not tau."""
    tau = spec_tau(spec, tau)
    ladders = [ladder(ch) for ch in spec.channels]
    masses = [Fraction(1)] * spec.m
    for i, j in sorted(staggered_positions(spec.m), key=max):
        quotient = _resolve_quotient(_norm_quotient(ladders[j], 0, ladders[i], 0)[1], tau)
        if j > i:
            masses[j] = masses[i] * quotient
        else:
            masses[i] = masses[j] / quotient
    return tuple(masses)


@frozen
class GramBasis:
    """The ladders' norms in integers, as ``term_grams`` reads them:
    ``norms[r * width + j]`` is ``norm_scale`` times |p_j^(r)|^2 for
    j < width, absolute on a finite support and in units of channel 1's
    |p_0|^2 on an infinite one, and ``failure`` names the first channel
    whose ladder fails its certificate, or is ""."""

    width: int
    norm_scale: int
    norms: tuple
    failure: str


def gram_basis(spec: FamilySpec, top: int, tau=None) -> GramBasis:
    """The ladders' norms of degrees 0..top, put over one integer
    denominator (``GramBasis``); they do not depend on the couplings, so a
    run builds one per tau.  The norms are the ladders' coefficient ratios
    times the path masses resolved at ``tau`` (``channel_masses``).  On a
    finite support {0..N} they stop at p_N, since |p_j|^2 = 0 for j > N,
    and are multiplied by channel 1's rational mass.  Each channel's ladder
    is certified once per process (``families.certify_ladder``)."""
    ladders = tuple(ladder(ch) for ch in spec.channels)
    failure = next((f"channel {r} ladder fails its certificate: {verdict}"
                    for r, verdict in enumerate(map(certify_ladder, ladders), 1) if verdict), "")
    N = spec.support_N
    width = top + 1 if N is None else min(top, N) + 1
    # |p_j^(r)|^2 / |p_0^(1)|^2 is the ladders' coefficient ratio times the
    # path mass M_r / M_1; a finite support's norms are absolute
    first = ladders[0].norm(0)
    unit = (1 if N is None else first.rational_value()) / first.coefficient
    (norms,), norm_scale = over_lcm([[
        lad.norm(j).coefficient * (mass * unit)
        for lad, mass in zip(ladders, channel_masses(spec, tau)) for j in range(width)]])
    return GramBasis(width, norm_scale, norms, failure)


@frozen
class ChannelTerms:
    """A chain's Q U on the ladder bases (``channel_terms``):
    ``chain[n][i][r]`` holds the terms (j, c) of entry (i, r), so that
    q L_n (Q_n U)_ir = sum c p_j^(r), with () for a zero entry, and
    ``scales[n]`` is s_n = q L_n.  When every table is in construction form
    ``thetas[k]`` holds, per pattern position (i, j), the c of entry (j, i),
    -s_k theta_k(j, i), or 0; otherwise it is None."""

    chain: tuple
    scales: tuple
    thetas: tuple | None


def channel_terms(spec: FamilySpec, tables) -> ChannelTerms:
    """The chain's Q U entry by entry on the ladder bases
    (``ChannelTerms``), each entry peeled from the top down
    (``ChainContext.peel``).

    Q_n U = P_n + A P_(n+1) - R_n P_(n-1), so each entry of a Q_n built by
    ``orthogonal_table`` is c p_j^(r) for one j in {n - 1, n, n + 1}: one
    comparison with the ladder's integer d p_j in the chain context, whose
    leading coefficient is d, recognises it (p_j is monic, so c is the
    entry's leading coefficient, and the entry is c p_j when its
    coefficients times d are c times d p_j's), and its one term is (j, c).
    A bumped table (``--perturb``) or any other polynomial is peeled, and so
    is the closure companion's c p_(N+2) on a finite support, whose terms
    stop at p_(N+1).  Every integer coefficient of every table is read back:
    entry (i, r) of q L (Q U) is q Q_ir plus (q a) x Q_ik for each pattern
    position (k, r) holding a.

    In the same pass each table k is held to construction form, which the
    recurrence certificate reads: every entry of q L_k (Q_k U) is one
    multiple c p_j of the ladder polynomial the chain context holds,
    (j, c) being (k, q L_k) on the diagonal, (k + 1, L_k q a) at each
    pattern position (i, j) holding a, (k - 1, c) or none at (j, i), and
    none elsewhere."""
    context = chain_context(spec.channels)
    kinds, peel, integers, ladders = context.kinds, context.peel, context.integers, context.ladders
    last = context.last
    m = spec.m
    q, couplings = _integer_couplings(spec)
    coupled = [[(i, c) for i, j, c in couplings if j == r] for r in range(m)]
    chain, scales, thetas = [], [], []
    conforms = True
    for k, table in enumerate(tables):
        L = table.scale
        s = q * L
        theta = [0] * len(couplings)
        rows = []
        for i, row in enumerate(table.coefficients):
            expected = kinds[i] if i < m else [(None, None)] * m
            entries = []
            for r, own in enumerate(row):
                cs = [q * v for v in own]
                for l, c in coupled[r]:
                    # plus (q a) x Q_il
                    below = row[l]
                    cs.extend([0] * (len(below) + 1 - len(cs)))
                    for t, v in enumerate(below, 1):
                        cs[t] += c * v
                while cs and not cs[-1]:
                    cs.pop()
                kind, position = expected[r]
                if not cs:
                    entries.append(())
                    conforms = conforms and kind in (_ZERO, _TRANSPOSED)
                    continue
                # one comparison recognises an entry that is one ladder
                # multiple c p_j, as every entry of a chain as built is; the
                # closure companion's p_(N+2) is read only where its chain
                # grew it
                j, c = len(cs) - 1, cs[-1]
                p, d = integers[j][r] if j in integers else (
                    ladders[r].integer(j) if j <= last else ((), 0))
                single = [v * d for v in cs] == [c * w for w in p]
                entries.append(((j, c),) if single and j <= last else peel(r, cs))
                conforms = conforms and single
                if kind == _DIAGONAL:
                    conforms = conforms and j == k and c == s
                elif kind == _PATTERN:
                    conforms = conforms and j == k + 1 and c == L * couplings[position][2]
                elif kind == _TRANSPOSED:
                    conforms = conforms and j == k - 1
                    theta[position] = c
                else:
                    conforms = False
            rows.append(tuple(entries))
        chain.append(tuple(rows))
        scales.append(s)
        thetas.append(tuple(theta))
    return ChannelTerms(tuple(chain), tuple(scales), tuple(thetas) if conforms else None)


def term_grams(chain, basis: GramBasis, pairs) -> dict:
    """<P_n, P_k> for each (n, k) of ``pairs``, keyed by the pair, from the
    ``chain`` of ``ChannelTerms`` and the basis's norms alone:

        <P, Q>_il = sum_r sum_j c_j[(P U)_ir] c_j[(Q U)_lr] |p_j^(r)|^2,

    since W = U diag(w_r) U^T and channel r's monic polynomials are
    orthogonal for w_r with the ladder's norms, so no sum over the support
    is needed.  Each Gram is rows of sums over the terms that share a
    channel r and a degree j, an int where every c is, and
    s_n s_k ``norm_scale`` times the Gram, s_n = q L_n the terms' scale.  A
    degree past the basis (j > N on a finite support, where |p_j|^2 = 0)
    adds nothing, and two chain degrees n, k with |n - k| >= 3 share no j."""
    width, norms = basis.width, basis.norms
    grouped = {}  # per polynomial: (r, j) -> [(row, c), ...]
    for t in {t for pair in pairs for t in pair}:
        by_degree = grouped[t] = {}
        for i, row in enumerate(chain[t]):
            for r, terms in enumerate(row):
                for j, c in terms:
                    if j < width:
                        by_degree.setdefault((r, j), []).append((i, c))
    grams = {}
    for n, k in pairs:
        sums = [[0] * len(chain[k]) for _ in chain[n]]
        there = grouped[k]
        for (r, j), left in grouped[n].items():
            right = there.get((r, j))
            if right:
                h = norms[r * width + j]
                for i, c in left:
                    ch, out = c * h, sums[i]
                    for l, e in right:
                        out[l] += ch * e
        grams[n, k] = sums
    return grams


def check_tol(tol, name: str = "tol"):
    """A SpecError naming ``name`` unless ``tol`` is a positive finite
    number: a nan or infinite tolerance would never reject a tail."""
    if not 0 < tol < math.inf:
        raise SpecError(f"{name} must be a positive finite number, got {tol}")


def converged(gram: GramMatrix, spec: FamilySpec) -> GramMatrix:
    """``gram``, unless it truncates an infinite support with its tail above
    tolerance: then a TruncationError rather than a silent value.  A
    tolerance that is not positive and finite is a SpecError on any
    support."""
    check_tol(gram.tol)
    if spec.support_N is None and gram.tail > gram.tol:
        raise TruncationError(
            f"truncated inner product tail {gram.tail:.3e} exceeds tolerance "
            f"{gram.tol:.1e} at x_max = {gram.x_max}"
        )
    return gram


def relative_gram_bound(P, Q, spec, x_max: int = 400, tol: float = 1e-9) -> float:
    """max |<P,Q>_ij| relative to the larger of the two self inner products;
    the truncated-orthogonality figure of merit.  The three sums share one
    pass over one weight table, and their tails are judged in the order
    <P, Q>, <P, P>, <Q, Q>; ``tol`` must be positive and finite."""
    weights = float_weight_table(spec, x_max)
    values = [float_value_table(S, len(weights) - 1) for S in (P, Q)]
    grams = float_grams(values, weights, ((0, 1), (0, 0), (1, 1)), x_max, tol)
    return gram_ratio(*(converged(g, spec).max_abs() for g in grams.values()))


def gram_ratio(pair: float, p_self: float, q_self: float) -> float:
    """``relative_gram_bound`` from the max-abs entries of <P, Q>, <P, P> and
    <Q, Q>, for a caller that computes each self inner product once."""
    return pair / max(p_self, q_self, 1e-300)

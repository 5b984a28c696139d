"""Second-order matrix difference operators and three-term recurrences.

A ``DifferenceOperator`` is a triple (F, K, G) of matrix polynomials acting
on the right of a matrix polynomial P as

    P . D = Delta(P) F + P K + Nabla(P) G,

with Delta(f) = f(x+1) - f(x) and Nabla(f) = f(x) - f(x-1).  The scalar
channel operators are written Delta f + k - nabla g, so they embed with
G = -g on the diagonal.

``conjugated_parts`` conjugates the diagonal of the channel operators by
the unipotent factor U(x) = I + A x, in closed form, from the couplings and
each operator's f, k and g, in integers: D as it acts on values,
P . D = P(x + 1) X + P(x) Y + P(x - 1) Z, with X, Y and Z integer
coefficient lists over one denominator S (``integer_parts`` gives the same
form for any ``DifferenceOperator``).  The commutator of A with a diagonal
matrix lies on A's staggered pattern, so the parts are nonzero only on the
diagonal and the pattern, and are built there entry by entry.
``canonical_parts`` passes it the spec's couplings and the per-family
normalized channel operators, whose eigenvalues interlace across odd and
even channels; ``verify`` reads these parts, and the ``DifferenceOperator``
that ``family`` and ``export`` print and the API returns
(``canonical_operator``, ``conjugated_operator``) is their ``Fraction``
view (``difference_operator``), so D has one construction.
``match_recurrence`` recovers the three-term recurrence matrices of a chain
of consecutive polynomials from the top coefficients of the identity, in
integers read off the chain's integer tables, with no inner products:
each leading coefficient is [[I, N], [0, T]] on the even, then the odd
channels, so only its odd-channel block T is inverted (``lead_inverse``),
by fraction-free integer elimination for m >= 4 (``integer_inverse``).  ``coefficients_close`` certifies an identity on
the tables' monomial coefficients, in integers, with no values.
``certify_operator`` certifies, in integers, the two identities on which
``verify`` reads Q_n . D = Lambda_n Q_n off the channel terms of Q_n U:
D(a) = U_a diag(delta_r) U_a^(-1) on the diagonal coupling line, and each
channel ladder's p_j being an eigenfunction of delta_r.  It reads D's
integer parts, as ``verify``'s dense residual does.  The certified
triples stay (integer matrix, denominator) pairs where they are printed
(``family --recurrence`` and ``export --what recurrence`` format each
entry with ``rational.format_over``); a ``RecurrenceTriple`` of Fractions
is built only for the public API (``extract_recurrence``).
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from .construction import (
    FamilySpec,
    orthogonal_tables,
    spec_tau,
    staggered_positions,
)
from .errors import ProbeError, SpecError
from .families import Hahn, ScalarOperator, ladder
from .poly import MatrixPoly, ScalarPoly
from .rational import format_rational, over_lcm
from .record import frozen


@frozen
class DifferenceOperator:
    """D = Delta . F(x) + K(x) + Nabla . G(x), acting on the right."""

    F: MatrixPoly
    K: MatrixPoly
    G: MatrixPoly

    def apply(self, P: MatrixPoly) -> MatrixPoly:
        if P.cols != self.F.rows:
            raise ValueError(
                f"dimension mismatch: polynomial is {P.rows}x{P.cols}, "
                f"operator acts on width {self.F.rows}"
            )
        return P.delta() @ self.F + P @ self.K + P.nabla() @ self.G


@frozen
class EigenvalueMap:
    """n -> diagonal eigenvalue matrix, one exact closed form per channel."""

    channel_eigenvalues: tuple  # of Callable[[int], Fraction]

    def diagonal(self, n: int):
        return tuple(fn(n) for fn in self.channel_eigenvalues)

    def matrix(self, n: int) -> MatrixPoly:
        return MatrixPoly.diagonal(
            tuple(ScalarPoly.constant(v) for v in self.diagonal(n))
        )


@frozen
class RecurrenceTriple:
    """Constant matrices with Q_n x = A_n Q_(n+1) + B_n Q_n + C_n Q_(n-1)."""

    A: tuple
    B: tuple
    C: tuple


def conjugated_parts(a, ops):
    """The integer parts ((X, Y, Z), S) (``integer_parts``) of the
    diagonal operator diag(Delta f_i + k_i - nabla g_i) of the channel
    operators ``ops`` conjugated by the unipotent factor I + A x, where A
    holds the couplings ``a`` on the staggered pattern, built from the
    couplings and the operators' coefficients by the closed form

        D = Delta((I+A) F + [A,F] x) + A (F - G) + K + [A,K] x
            - Nabla((I-A) G + [A,G] x),

    with F, K, G the diagonal matrix polynomials of the f_i, k_i, g_i.  The
    commutator of A with a diagonal matrix lives on the pattern too, so D
    is nonzero on the diagonal and the pattern only: with D = (F^, K^, -G^),
    at a pattern position (i, j) holding a,

        F^_ij = a f_j + (a f_j - f_i a) x,
        K^_ij = a (f_j - g_j) + (a k_j - k_i a) x,
        G^_ij = (-a) g_j + (a g_j - g_i a) x,

    and F^_ii = f_i, K^_ii = k_i and G^_ii = g_i.  On values
    X = F^, Y = K^ - F^ - G^ and Z = G^, so with y_r = k_r - f_r - g_r the
    parts are x_r = f_r, y_r and z_r = g_r on the diagonal and, at (i, j),

        X_ij = a f_j + a x (f_j - f_i),
        Y_ij = a x (y_j - y_i),
        Z_ij = -a g_j + a x (g_j - g_i).

    Every coefficient is formed over the couplings' common denominator
    times the operators', and the parts and that denominator are divided by
    their gcd, so S is the least common denominator of D's coefficients,
    as ``integer_parts`` reads it; no polynomial is built."""
    m = len(ops)
    (qa,), q = over_lcm((a,))
    rows, d = over_lcm([e.coeffs for op in ops for e in (op.f, op.k, op.g)])
    f, k, g = rows[0::3], rows[1::3], rows[2::3]
    y = [_plus(kr, _negated(fr), _negated(gr)) for fr, kr, gr in zip(f, k, g)]
    parts = [[[()] * m for _ in range(m)] for _ in range(3)]
    for r in range(m):
        for part, w in zip(parts, (f[r], y[r], g[r])):
            part[r][r] = [q * v for v in w]
    for (i, j), c in zip(staggered_positions(m), qa):
        for part, w in zip(parts, (
                _plus(f[j], [0, *_plus(f[j], _negated(f[i]))]),
                [0, *_plus(y[j], _negated(y[i]))],
                _plus(_negated(g[j]), [0, *_plus(g[j], _negated(g[i]))]))):
            part[i][j] = [c * v for v in w]
    entries = [w for part in parts for row in part for w in row]
    for w in entries:
        while w and not w[-1]:
            w.pop()
    scale = q * d
    h = math.gcd(scale, *[v for w in entries for v in w])
    return tuple(tuple(tuple(tuple(v // h for v in w) for w in row) for row in part)
                 for part in parts), scale // h


def _negated(w) -> list:
    return [-v for v in w]


def difference_operator(parts, scale: int) -> DifferenceOperator:
    """The ``DifferenceOperator`` of D's integer parts ((X, Y, Z), S): F = X,
    K = X + Y + Z and G = -Z, each coefficient a ``Fraction`` over S.  This
    is the operator ``family`` and ``export`` print and the API returns."""
    X, Y, Z = parts

    def view(grid):
        return MatrixPoly(tuple(tuple(ScalarPoly(Fraction(v, scale) for v in w) for w in row)
                                for row in grid))

    K = [[_plus(*ws) for ws in zip(*rows)] for rows in zip(X, Y, Z)]
    return DifferenceOperator(F=view(X), K=view(K),
                              G=view([[_negated(w) for w in row] for row in Z]))


def conjugated_operator(a, ops) -> DifferenceOperator:
    """The conjugated operator of ``conjugated_parts`` as its ``Fraction``
    view (``difference_operator``)."""
    return difference_operator(*conjugated_parts(a, ops))


def _normalized_channel(ch, position: int, hahn_sum) -> ScalarOperator:
    """The channel's own operator (``ch.operator()``) normalized so that
    eigenvalues interlace across the coupling, for its 1-based ``position``.

    Charlier, Meixner and Krawtchouk operators are scaled by 1/lambda(1), so
    the eigenvalue is n, and shifted by +1 on odd channels.  Hahn operators
    keep their scale and quadratic eigenvalue, shifted by -``hahn_sum``
    (alpha_1 + beta_1) on even channels.  Every base operator has k = 0, so
    the shift is the whole of k.
    """
    base = ch.operator()
    odd = position % 2 == 1
    if isinstance(ch, Hahn):
        scale, shift = 1, Fraction(0) if odd else -hahn_sum
    else:
        scale, shift = 1 / base.eigenvalue(1), Fraction(int(odd))
    return ScalarOperator(
        f=base.f * scale,
        k=ScalarPoly.constant(shift),
        g=base.g * scale,
        eigenvalue=lambda n: base.eigenvalue(n) * scale + shift,
    )


def _channel_operators(spec: FamilySpec, force: bool):
    """The normalized channel operators, each carrying its eigenvalue."""
    kinds = {type(ch) for ch in spec.channels}
    if Hahn in kinds and kinds != {Hahn}:
        raise SpecError(
            "hahn channels cannot be mixed with other kinds: the eigenvalues "
            "admit no common normalization"
        )
    if kinds == {Hahn}:
        if not force:
            sums = [ch.alpha + ch.beta for ch in spec.channels]
            for i in range(spec.m):
                for j in range(spec.m):
                    if i % 2 == 0 and j % 2 == 1:  # odd/even in 1-based indexing
                        if sums[i] != sums[j] + 2:
                            raise SpecError(
                                "hahn channels must satisfy alpha_i + beta_i = "
                                "alpha_j + beta_j + 2 for odd i, even j; violated "
                                f"by channels ({i + 1}, {j + 1}): "
                                f"{sums[i]} != {sums[j]} + 2"
                            )
    first = spec.channels[0]
    hahn_sum = first.alpha + first.beta if kinds == {Hahn} else None
    return [_normalized_channel(ch, pos + 1, hahn_sum) for pos, ch in enumerate(spec.channels)]


def canonical_parts(spec: FamilySpec, force: bool = False):
    """The family's normalized difference operator as its integer parts
    ((X, Y, Z), S) (``conjugated_parts``), and its eigenvalue map.

    Charlier, Meixner, Krawtchouk and mixed Charlier/Meixner channels are
    each normalized to eigenvalue n and shifted by +1 on odd channels, so the
    eigenvalue matrix alternates diag(n+1, n, n+1, ...).  Hahn channels keep
    their quadratic eigenvalue n(n + alpha_i + beta_i + 1), with the constant
    alpha_1 + beta_1 subtracted on even channels; this interlaces exactly
    when alpha_i + beta_i = alpha_j + beta_j + 2 for all odd i, even j.

    ``force=True`` skips the Hahn parameter gate (negative-control use only).
    """
    ops = _channel_operators(spec, force)
    eig = EigenvalueMap(channel_eigenvalues=tuple(op.eigenvalue for op in ops))
    return conjugated_parts(spec.a, ops), eig


def canonical_operator(spec: FamilySpec, force: bool = False):
    """The family's normalized difference operator, the ``Fraction`` view
    (``difference_operator``) of its integer parts (``canonical_parts``),
    and its eigenvalue map: D has one construction, which ``verify`` reads
    in integers and ``family`` and ``export`` print."""
    integer, eig = canonical_parts(spec, force)
    return difference_operator(*integer), eig


def certify_operator(spec: FamilySpec, parts, scale: int, eigenvalues) -> bool:
    """Whether the eigenfunction identity Q_n . D(a) = Lambda_n Q_n may be
    read off the channel terms of Q_n U (``construction.channel_terms``),
    for D = D(1), the canonical operator of ``spec`` at couplings all 1,
    given by its integer parts ``parts`` over ``scale``
    (``canonical_parts``), D(a) its diagonal plus a times its other
    entries, and ``eigenvalues[r][j]`` channel r's eigenvalue at degree j.
    With
    delta_r the operator of D(1)'s entry (r, r), two identities suffice:

    * the conjugation identity D(a) = U_a diag(delta_r) U_a^(-1) for every
      a, U_a = I + a A x (``_conjugates``); and
    * the ladder eigen identity p_j . delta_r = lambda_j^(r) p_j for every
      channel r and every degree j of ``eigenvalues[r]``, in integers, once
      per ladder per process (``_ladder_eigen``).

    Both read D's integer parts.  Then (Q_n U) diag(delta_r) has entry
    c lambda_j^(r) p_j^(r) wherever Q_n U has c p_j^(r), so
    Q_n . D(a) = Lambda_n Q_n exactly when every such entry in row i has
    lambda_j^(r) = (Lambda_n)_ii."""
    X, Y, Z = parts
    return _conjugates(parts) and all(
        _ladder_eigen(ladder(ch), X[r][r], Y[r][r], Z[r][r], scale, tuple(lams))
        for r, (ch, lams) in enumerate(zip(spec.channels, eigenvalues)))


def integer_parts(D: DifferenceOperator):
    """D in integers, as it acts on P: P . D = P(x + 1) X + P(x) Y + P(x - 1) Z
    with X = F, Y = K - F + G and Z = -G, as ((X, Y, Z), S), S the least
    common denominator of F's, K's and G's coefficients and each part an
    m x m grid of S times its entries' coefficients, integer tuples, lowest
    degree first, with no trailing zero: the form ``conjugated_parts``
    builds D in, for any ``DifferenceOperator``."""
    m = D.F.rows
    ints, scale = over_lcm([e.coeffs for part in (D.F, D.K, D.G) for row in part.entries
                            for e in row])
    F, K, G = (ints[t * m * m:(t + 1) * m * m] for t in range(3))
    Y = [_plus(k, [-v for v in f], g) for f, k, g in zip(F, K, G)]
    for y in Y:
        while y and not y[-1]:
            y.pop()
    parts = F, [tuple(y) for y in Y], [tuple(-v for v in g) for g in G]
    return tuple(tuple(tuple(part[i * m:(i + 1) * m]) for i in range(m)) for part in parts), scale


def shifts(p) -> tuple:
    """(p(x + 1), p, p(x - 1)) from the integer coefficients of p
    (``_shifted``)."""
    return _shifted(p, 1), p, _shifted(p, -1)


def add_three_point(acc: list, shifted, x, y, z):
    """Add p(x + 1) x + p y + p(x - 1) z to the integer coefficient list
    ``acc``, lowest degree first, from ``shifted`` = ``shifts(p)`` and the
    integer coefficient lists x, y and z: each product of a nonzero
    coefficient of a shifted p with an entry's coefficients is added in
    place, so ``acc`` must reach deg p + the longest of x, y and z."""
    for cs, w in zip(shifted, (x, y, z)):
        if w:
            for s, c in enumerate(cs):
                if c:
                    for t, v in enumerate(w, s):
                        acc[t] += c * v


def _plus(*polys) -> list:
    """The sum of integer coefficient lists, lowest degree first."""
    return [sum(vs) for vs in zip_longest(*polys, fillvalue=0)]


def _same(a, b) -> bool:
    """Equality of two integer coefficient lists, trailing zeros aside."""
    return all(u == v for u, v in zip_longest(a, b, fillvalue=0))


def _conjugates(parts) -> bool:
    """D(a) = U_a diag(delta_r) U_a^(-1) for every a, with U_a = I + a A x,
    A the pattern of ones, D(a) D's diagonal plus a times its other
    entries, and delta_r the operator of D's entry (r, r); both sides act
    on the right.

    On values, D acts on P as P(x + 1) X + P(x) Y + P(x - 1) Z, with
    ``parts`` = (X, Y, Z) D's integer parts (``integer_parts``); write x_r,
    y_r, z_r for their entries (r, r).  The right side acts as
    P(x + 1) X' + P(x) Y' + P(x - 1) Z' with

        X' = U_a(x + 1) diag(x_r) U_a(x)^(-1),
        Y' = U_a(x) diag(y_r) U_a(x)^(-1),
        Z' = U_a(x - 1) diag(z_r) U_a(x)^(-1),

    and U_a(x)^(-1) = I - a A x.  In powers of a: X' is diag(x_r), plus a
    times (x + 1) x_j - x x_i at each pattern position (i, j), minus
    a^2 x (x + 1) A diag(x_r) A; Y' is diag(y_r), plus a x (y_j - y_i),
    minus a^2 x^2 A diag(y_r) A; Z' is diag(z_r), plus
    a ((x - 1) z_j - x z_i), minus a^2 x (x - 1) A diag(z_r) A.  The a^2
    parts vanish when no channel is both a row and a column of the pattern
    (A^2 = 0), which is checked; the a^0 parts are D's diagonal itself.  So
    D's pattern entries must be the a^1 parts and its other entries zero,
    which is checked in integers, over one common denominator."""
    X, Y, Z = parts
    m = len(X)
    pattern = staggered_positions(m)
    if {i for i, _ in pattern} & {j for _, j in pattern}:
        return False
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if (i, j) not in pattern:
                expected = ((), (), ())
            else:
                x, y, z = X[j][j], Y[j][j], Z[j][j]
                expected = (_plus([0, *x], x, [0, *(-v for v in X[i][i])]),
                            [0, *_plus(y, [-v for v in Y[i][i]])],
                            _plus([0, *z], [-v for v in z], [0, *(-v for v in Z[i][i])]))
            if not all(map(_same, (X[i][j], Y[i][j], Z[i][j]), expected)):
                return False
    return True


@functools.lru_cache(maxsize=None)
def _ladder_eigen(lad, x, y, z, scale: int, eigenvalues) -> bool:
    """Whether the scalar operator p -> p(x + 1) x + p(x) y + p(x - 1) z,
    for x, y and z integer coefficient tuples over ``scale``, has the
    ladder's p_j as eigenfunction with eigenvalue ``eigenvalues[j]`` for
    each j, in integers: with the eigenvalues over their common
    denominator d, each p_j read as its integer multiple
    (``families._Ladder.integer``) and shifted to p_j(x + 1) and p_j(x - 1)
    by the Taylor shift, d p_j . (x, y, z) - ``scale`` d lambda_j p_j is
    formed coefficient by coefficient (``add_three_point``) and must
    vanish."""
    (lams,), d = over_lcm((eigenvalues,))
    x, y, z = ([d * v for v in w] for w in (x, y, z))
    for j, lam in enumerate(lams):
        p, _ = lad.integer(j)
        less = _plus(y, [-scale * lam])
        acc = [0] * (len(p) + max(len(x), len(less), len(z)) - 1)
        add_three_point(acc, shifts(p), x, less, z)
        if any(acc):
            return False
    return True


def _shifted(p, h: int) -> list:
    """p(x + h) from the integer coefficients of p, lowest degree first, by
    the Taylor shift: repeated synthetic division by x - h."""
    out = list(p)
    for i in range(len(out) - 1):
        for t in range(len(out) - 2, i - 1, -1):
            out[t] += h * out[t + 1]
    return out


# --------------------------------------------------------------------------
# three-term recurrence extraction


def extract_recurrence(spec: FamilySpec, n: int, tau=None, scaled: bool = False):
    """Solve Q_n x = A_n Q_(n+1) + B_n Q_n + C_n Q_(n-1) for the spec's own
    sequence (``closed_recurrence``), as a ``RecurrenceTriple`` of
    Fractions, or with ``scaled`` as the three (integer matrix,
    denominator) pairs that ``export`` prints.  ``scaled`` exists only for
    that printer, so that ``export`` still reaches its triple through this
    function, which the benchmark's layer trace (``perfbench/spans.py``)
    times.

    The chain Q_(n-1), Q_n, Q_(n+1) is built as integer tables in one pass
    (``construction.orthogonal_tables``).  On a finite support, n = N closes
    through the degree-(N+1) companion, built from the vanishing-norm
    extension.  Exact closure needs exact coefficients, so a transcendental
    mass quotient needs a rational tau (``spec_tau``).
    """
    if n < 0:
        raise SpecError(f"recurrence index must be >= 0, got {n}")
    top = spec.support_N
    if top is not None and n > top:
        raise SpecError(f"recurrence index must be <= N = {top}, got {n}")
    tau = spec_tau(spec, tau, exact=True)
    degrees = range(max(n - 1, 0), n + 2)
    tables = dict(zip(degrees, orthogonal_tables(spec, degrees, tau)))
    t = closed_recurrence(spec, tables, (n,), tau)[n]
    return t if scaled else RecurrenceTriple(*map(_fractions, t))


def integer_inverse(T):
    """The inverse of the square integer matrix ``T`` as (Y, d), Y an
    integer matrix with T^(-1) = Y / d, by fraction-free Gauss-Jordan
    elimination (Bareiss): [T | I] is reduced to [d I | Y] by integer row
    operations, each step's rows divided exactly by the previous pivot, so
    every entry stays a minor of [T | I] and d = +-det T.  A singular T is a
    ZeroDivisionError."""
    k = len(T)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(T)]
    prev = 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("leading coefficient is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for r, row in enumerate(rows):
            if r != col:
                f = row[col]
                rows[r] = [(p * v - f * t) // prev for v, t in zip(row, top)]
        prev = p
    return tuple(tuple(row[k:]) for row in rows), prev


def lead_block(lead, scale: int):
    """The odd-channel block T of a Q_k's leading coefficient ``lead`` /
    ``scale`` (``lead`` integer), as ``scale`` T in integers.

    In L_k = I + (A diag([q]_k) - diag([p]_(k-1)) A) + R_k A, the middle
    term lies on A's pattern (even rows, odd columns, 0-based) and R_k A on
    odd rows and columns at distance 0 or 2.  So L_k = [[I, N], [0, T]] on
    the even, then the odd channels, with T tridiagonal, and
    det L_k = det T.  A lead of any other form is a construction fault, an
    AssertionError."""
    m = len(lead)
    even, odd = range(0, m, 2), range(1, m, 2)
    if (any(lead[i][j] != (scale if i == j else 0) for i in even for j in even)
            or any(lead[i][j] for i in odd for j in range(m) if j % 2 == 0 or abs(i - j) > 2)):
        raise AssertionError(f"leading coefficient {lead} / {scale} is not [[I, N], [0, T]]")
    return [[lead[i][j] for j in odd] for i in odd]


def continuant(T) -> int:
    """det T of a tridiagonal integer matrix, by the continuant recurrence
    f_i = T_ii f_(i-1) - T_(i,i-1) T_(i-1,i) f_(i-2), f_0 = 1, f_(-1) = 0:
    O(len(T)) integer products, where an inverse takes O(len(T)^3)."""
    before, det = 0, 1
    for i, row in enumerate(T):
        before, det = det, row[i] * det - (row[i - 1] * T[i - 1][i] * before if i else 0)
    return det


def lead_inverse(lead, scale: int):
    """The inverse of a Q_k's leading coefficient ``lead`` / ``scale``
    (``lead`` integer), as an (integer matrix, denominator) pair: with
    L_k = [[I, N], [0, T]] (``lead_block``), only T is inverted, for
    L_k^(-1) = [[I, -N T^(-1)], [0, T^(-1)]]: a reciprocal for m <= 3, no
    inversion when T = I, as for Q_0 and the closure companion, and
    otherwise in integers (``integer_inverse``), no ``Fraction`` built.
    A singular lead is a ZeroDivisionError.
    """
    m = len(lead)
    odd = range(1, m, 2)
    T = lead_block(lead, scale)  # scale times the block T
    # the inverse of this integer block is Y / d, odd channel i at Y's i // 2
    eye = [[int(i == j) for j in range(len(T))] for i in range(len(T))]
    if m <= 3:
        Y, d = eye, T[0][0]
    elif T == [[scale * v for v in row] for row in eye]:
        Y, d = eye, scale
    else:
        Y, d = integer_inverse(T)
    if d == 0:
        raise ZeroDivisionError("leading coefficient is singular")

    def entry(i, j):
        if j % 2 == 0:
            return d if i == j else 0
        if i % 2:
            return scale * Y[i // 2][j // 2]
        return -sum(lead[i][k] * Y[k // 2][j // 2] for k in odd)
    return tuple(tuple(entry(i, j) for j in range(m)) for i in range(m)), d


def singular_lead(k: int, cause: str, error=ProbeError) -> Exception:
    """The error, of class ``error``, for a leading coefficient of Q_k made
    singular by ``cause``, the input value named with its option or field."""
    return error(f"{cause} makes the leading coefficient of Q_{k} singular, so the "
                 "three-term recurrence cannot be matched; choose another value")


def match_recurrence(tables, degrees=None, singular=None) -> dict:
    """The recurrence matrices {n: (A_n, B_n, C_n)} at each n of ``degrees``
    (by default every n with a successor in ``tables``), where ``tables[k]``
    is the integer table of Q_k (``construction.orthogonal_table``), a list
    or a dict holding the degrees n - 1, n, n + 1.  A singular leading
    coefficient of Q_k raises ``singular(k)``, the caller's error naming the
    input that made it singular (``singular_lead``); with no ``singular`` it
    is a construction fault and the ZeroDivisionError propagates.

    They come from the top three coefficients of the identity, unique
    because leading coefficients are invertible:

        A_n = [Q_n]_n L_(n+1)^(-1),
        B_n = ([Q_n]_(n-1) - A_n [Q_(n+1)]_n) L_n^(-1),
        C_n = ([Q_n]_(n-2) - A_n [Q_(n+1)]_(n-1) - B_n [Q_n]_(n-1)) L_(n-1)^(-1),

    with L_k = [Q_k]_k inverted once per degree (``lead_inverse``), all on
    (integer matrix, denominator) pairs read from the tables' integer
    coefficients.  Closure is not checked here; see ``coefficients_close``.
    """
    if degrees is None:
        degrees = range(len(tables) - 1)

    @functools.cache
    def inverse(k):
        try:
            return lead_inverse(*coefficient(k, k))
        except ZeroDivisionError:
            if singular is None:
                raise
            raise singular(k) from None

    @functools.cache
    def coefficient(k, j):
        return tables[k].coefficient(j), tables[k].scale

    triples = {}
    for n in degrees:
        A_n = _mul(coefficient(n, n), inverse(n + 1))
        top = _sub(coefficient(n, n - 1), _mul(A_n, coefficient(n + 1, n)))
        B_n = _mul(top, inverse(n))
        if n == 0:
            C_n = (((0,) * len(A_n[0]),) * len(A_n[0]), 1)
        else:
            top = _sub(
                _sub(coefficient(n, n - 2), _mul(A_n, coefficient(n + 1, n - 1))),
                _mul(B_n, coefficient(n, n - 1)),
            )
            C_n = _mul(top, inverse(n - 1))
        triples[n] = (A_n, B_n, C_n)
    return triples


def _mul(a, b):
    (ma, da), (mb, db) = a, b
    cols = tuple(zip(*mb))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in ma), da * db


def _sub(a, b):
    (ma, da), (mb, db) = a, b
    d = math.lcm(da, db)
    fa, fb = d // da, d // db
    return tuple(
        tuple(x * fa - y * fb for x, y in zip(ra, rb)) for ra, rb in zip(ma, mb)
    ), d


def _fractions(a):
    """An (integer matrix, denominator) pair as a matrix of Fractions."""
    m, d = a
    return tuple(tuple(Fraction(v, d) for v in row) for row in m)


def _sparse_rows(mat, factor):
    """Each row of ``factor`` * mat as its nonzero (column, value) pairs."""
    return tuple(tuple((k, v * factor) for k, v in enumerate(row) if v) for row in mat)


def coefficients_close(t, n: int, tables) -> bool:
    """Whether x Q_n - A_n Q_(n+1) - B_n Q_n - C_n Q_(n-1) is zero, from the
    scaled triple ``t`` of ``match_recurrence`` and the integer coefficients
    of the tables ``tables[k]`` of Q_k (``construction.orthogonal_table``),
    which need no values.

    On the tables, L_n times the residual is

        x V_n - (A_n L_n / L_(n+1)) V_(n+1) - B_n V_n - (C_n L_n / L_(n-1)) V_(n-1),

    for V_k = L_k Q_k; with each matrix M / d, it is scaled once more by
    the lcm of the d L_k and formed entry by entry on the monomial
    coefficients t = 0..deg, each an integer.
    """
    t_n = tables[n]
    parts = [(t[0], tables[n + 1]), (t[1], t_n)]
    if n > 0:
        parts.append((t[2], tables[n - 1]))
    degree = max(t_n.degree + 1, *(table.degree for _, table in parts))
    den = math.lcm(*(d * table.scale for (_, d), table in parts))
    sparse = [
        (_sparse_rows(mat, t_n.scale * den // (d * table.scale)), table.coefficients)
        for (mat, d), table in parts
    ]
    for i, row in enumerate(t_n.coefficients):
        for j, own in enumerate(row):
            acc = [0] * (degree + 1)
            for s, v in enumerate(own, 1):
                acc[s] = den * v
            for rows, coefficients in sparse:
                for k, c in rows[i]:
                    for s, v in enumerate(coefficients[k][j]):
                        acc[s] -= c * v
            if any(acc):
                return False
    return True


def closed_recurrence(spec: FamilySpec, tables, degrees=None, tau=None) -> dict:
    """``match_recurrence`` on the integer tables of a chain (Q_k's at
    ``tables[k]``, a list or a dict, built at the probe ``tau`` of --tau),
    each identity certified by ``coefficients_close``; AssertionError names the first n that does not
    close.  Each triple stays three (integer matrix, denominator) pairs,
    which ``family`` and ``export`` print entry by entry
    (``rational.format_over``).  A singular leading coefficient is a
    ProbeError naming --tau, or with no tau a SpecError naming the
    couplings a."""
    def singular(k):
        if tau is not None:
            return singular_lead(k, f"--tau value {tau}")
        shown = ", ".join(map(format_rational, spec.a))
        return singular_lead(k, f"coupling a = {shown if spec.m == 2 else f'({shown})'}",
                             SpecError)

    triples = {}
    for n, t in match_recurrence(tables, degrees, singular).items():
        if not coefficients_close(t, n, tables):
            raise AssertionError(not_closed(spec, n))
        triples[n] = t
    return triples


def not_closed(spec: FamilySpec, n: int) -> str:
    """The report of a recurrence that fails to close at n."""
    return f"three-term recurrence failed to close at n = {n} for {spec!r}"

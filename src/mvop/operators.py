"""Second-order matrix difference operators and three-term recurrences.

A ``DifferenceOperator`` is a triple (F, K, G) of matrix polynomials acting
on the right of a matrix polynomial P as

    P . D = Delta(P) F + P K + Nabla(P) G,

with Delta(f) = f(x+1) - f(x) and Nabla(f) = f(x) - f(x-1).  The scalar
channel operators are written Delta f + k - nabla g, so they embed with
G = -g on the diagonal.

``conjugated_operator`` conjugates the diagonal of the channel operators by
the unipotent factor U(x) = I + A x, in closed form, from the couplings and
each operator's f, k and g.  The commutator of A with a diagonal matrix
lies on A's staggered pattern, so F, K and G of the conjugated operator are
nonzero only on the diagonal and the pattern, and are built there entry by
entry.  ``canonical_operator`` passes it the spec's couplings and the
per-family normalized channel operators, whose eigenvalues interlace across
odd and even channels.  ``match_recurrence`` recovers the three-term recurrence
matrices of a chain of consecutive polynomials from the top coefficients of
the identity, in integers read off the chain's integer tables, with no inner
products: each leading coefficient is [[I, N], [0, T]] on the even, then the
odd channels, so only its odd-channel block T is inverted
(``lead_inverse``), by fraction-free integer elimination for m >= 4
(``integer_inverse``).  ``recurrence_closes`` certifies an identity by
integer evaluation: its residual has degree at most
d = max(deg Q_(n+1), deg Q_n + 1, deg Q_(n-1)), so it is zero when it
vanishes at the d + 1 points x = 0..d.  The certified triples stay
(integer matrix, denominator) pairs where they are printed (``family
--recurrence`` and ``export --what recurrence`` format each entry with
``rational.format_over``); a ``RecurrenceTriple`` of Fractions is built
only for the public API (``extract_recurrence``).
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul

from .construction import (
    FamilySpec,
    integer_table,
    orthogonal_table,
    spec_tau,
    staggered_positions,
)
from .errors import ProbeError, SpecError
from .families import Hahn, ScalarOperator
from .poly import MatrixPoly, ScalarPoly
from .rational import format_rational
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

    @property
    def extra_degree(self) -> int:
        """deg(P . D) <= deg P + extra_degree, from the actual degrees of F,
        K and G: Delta and Nabla lower a degree by one."""
        return max(self.F.degree - 1, self.K.degree, self.G.degree - 1, 0)

    def stencil(self, stop: int) -> "IntegerStencil":
        """D on values at x = 0..stop: P . D = P(x+1) F + P(x) (K - F + G)
        - P(x-1) G, with F, K, G over one common denominator."""
        parts = [integer_table(S, stop) for S in (self.F, self.K - self.F + self.G, -self.G)]
        scale = math.lcm(*(t.scale for t in parts))
        points = []
        for x in range(stop + 1):
            point = []
            for t in parts:
                factor = scale // t.scale
                # each column of S(x) as its nonzero (row, value) pairs
                point.append(tuple(
                    tuple((k, v * factor) for k, v in enumerate(col) if v)
                    for col in zip(*t.values[x + 1])
                ))
            points.append(tuple(point))
        return IntegerStencil(
            extra_degree=self.extra_degree, scale=scale, points=tuple(points)
        )


@frozen
class IntegerStencil:
    """A ``DifferenceOperator`` scaled by the integer ``scale`` and evaluated:
    ``points[x]`` holds F(x), (K - F + G)(x) and -G(x), each as sparse
    columns of (row, value) pairs.  P . D - Lambda P has degree at most
    deg P + ``extra_degree``."""

    extra_degree: int
    scale: int
    points: tuple


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


def conjugated_operator(a, ops) -> DifferenceOperator:
    """Conjugate the diagonal operator diag(Delta f_i + k_i - nabla g_i) of
    the channel operators ``ops`` by the unipotent factor I + A x, where A
    holds the couplings ``a`` on the staggered pattern, in closed form:

        D = Delta((I+A) F + [A,F] x) + A (F - G) + K + [A,K] x
            - Nabla((I-A) G + [A,G] x),

    with F, K, G the diagonal matrix polynomials of the f_i, k_i, g_i.  The
    commutator of A with a diagonal matrix lives on the pattern too, so F^,
    K^ and G^ are built on the diagonal and the pattern only: at a pattern
    position (i, j) holding a,

        F^_ij = a f_j + (a f_j - f_i a) x,
        K^_ij = a (f_j - g_j) + (a k_j - k_i a) x,
        G^_ij = (-a) g_j + (a g_j - g_i a) x,

    with F^_ii = f_i, K^_ii = k_i and G^_ii = g_i; D = (F^, K^, -G^).  Each
    scalar product and sum is the one the matrix products form, in the same
    order, with only the zero terms left out.
    """
    m = len(ops)
    one = ScalarPoly.one()
    zero = ScalarPoly()
    f, k, g = ([getattr(op, name) for op in ops] for name in "fkg")
    F_hat, K_hat, G_hat = ([[zero] * m for _ in range(m)] for _ in range(3))
    for i in range(m):
        F_hat[i][i] = one * f[i]
        K_hat[i][i] = zero + k[i]
        G_hat[i][i] = one * g[i]
    for (i, j), a_ij in zip(staggered_positions(m), a):
        a_ij = ScalarPoly.constant(a_ij)
        af = a_ij * f[j]
        F_hat[i][j] = af + (af - f[i] * a_ij).times_x()
        K_hat[i][j] = a_ij * (f[j] - g[j]) + (a_ij * k[j] - k[i] * a_ij).times_x()
        G_hat[i][j] = (zero - a_ij) * g[j] + (a_ij * g[j] - g[i] * a_ij).times_x()
    return DifferenceOperator(
        F=MatrixPoly(F_hat), K=MatrixPoly(K_hat), G=-MatrixPoly(G_hat)
    )


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


def canonical_operator(spec: FamilySpec, force: bool = False):
    """The family's normalized difference operator and its eigenvalue map.

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
    return conjugated_operator(spec.a, ops), eig


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

    The chain Q_(n-1), Q_n, Q_(n+1) is read as integer tables
    (``construction.orthogonal_table``).  On a finite support, n = N closes
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
    tables = {k: orthogonal_table(spec, k, tau, n + 1) for k in range(max(n - 1, 0), n + 2)}
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


def lead_inverse(lead, scale: int):
    """The inverse of a Q_k's leading coefficient ``lead`` / ``scale``
    (``lead`` integer), as an (integer matrix, denominator) pair.

    In L_k = I + (A diag([q]_k) - diag([p]_(k-1)) A) + R_k A, the middle
    term lies on A's pattern (even rows, odd columns, 0-based) and R_k A on
    odd rows and columns at distance 0 or 2.  So L_k = [[I, N], [0, T]] on
    the even, then the odd channels, with T tridiagonal, and only T is
    inverted for L_k^(-1) = [[I, -N T^(-1)], [0, T^(-1)]]: a reciprocal for
    m <= 3, no inversion when T = I, as for Q_0 and the closure companion,
    and otherwise in integers (``integer_inverse``), no ``Fraction`` built.
    A lead of any other form is a construction fault.
    """
    m = len(lead)
    even, odd = range(0, m, 2), range(1, m, 2)
    if (any(lead[i][j] != (scale if i == j else 0) for i in even for j in even)
            or any(lead[i][j] for i in odd for j in range(m) if j % 2 == 0 or abs(i - j) > 2)):
        raise AssertionError(f"leading coefficient {lead} / {scale} is not [[I, N], [0, T]]")
    T = [[lead[i][j] for j in odd] for i in odd]  # scale times the block T
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
    coefficients.  Closure is not checked here; see ``recurrence_closes``.
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


def recurrence_closes(t, n: int, tables) -> bool:
    """Whether x Q_n - A_n Q_(n+1) - B_n Q_n - C_n Q_(n-1) is zero, from the
    scaled triple ``t`` of ``match_recurrence`` and the integer tables
    ``tables[k]`` of Q_k (``construction.orthogonal_table``).

    On the tables, L_n times the residual is

        x V_n - (A_n L_n / L_(n+1)) V_(n+1) - B_n V_n - (C_n L_n / L_(n-1)) V_(n-1),

    for V_k = L_k Q_k; with each matrix M / d, it is scaled once more by
    the lcm of the d L_k and checked at x = 0..deg for deg its degree bound.
    """
    t_n = tables[n]
    parts = [(t[0], tables[n + 1]), (t[1], t_n)]
    if n > 0:
        parts.append((t[2], tables[n - 1]))
    degree = max(t_n.degree + 1, *(table.degree for _, table in parts))
    den = math.lcm(*(d * table.scale for (_, d), table in parts))
    sparse = [
        (_sparse_rows(mat, t_n.scale * den // (d * table.scale)), table.values)
        for (mat, d), table in parts
    ]
    own = t_n.values
    for x in range(degree + 1):
        vn = own[x + 1]
        dx = den * x
        for i, row in enumerate(vn):
            for j, v in enumerate(row):
                acc = dx * v
                for rows, values in sparse:
                    vals = values[x + 1]
                    for k, c in rows[i]:
                        acc -= c * vals[k][j]
                if acc:
                    return False
    return True


def closed_recurrence(spec: FamilySpec, tables, degrees=None, tau=None) -> dict:
    """``match_recurrence`` on the integer tables of a chain (Q_k's at
    ``tables[k]``, a list or a dict, each reaching x = max k, built at the
    probe ``tau`` of --tau), each identity certified by
    ``recurrence_closes``; AssertionError names the first n that does not
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
        if not recurrence_closes(t, n, tables):
            raise AssertionError(not_closed(spec, n))
        triples[n] = t
    return triples


def not_closed(spec: FamilySpec, n: int) -> str:
    """The report of a recurrence that fails to close at n."""
    return f"three-term recurrence failed to close at n = {n} for {spec!r}"

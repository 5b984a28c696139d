"""The matrix-product oracle for the entrywise construction layer.

These are the constructions ``mvop.construction`` and ``mvop.operators``
used before Q_n, the closure companion, D and W were built entry by entry
on the staggered pattern: every term is a general ``MatrixPoly`` product of
diagonal and constant matrices, with the coupling matrix A as a
``MatrixPoly`` (``nilpotent_matrix``), and the closure companion takes its
own recurrence step for P_(N+2).  Tests compare the entrywise code with them
coefficient by coefficient, types and signed zeros included.  The channel
normalizations of Charlier, Meixner and Krawtchouk operators are kept as
they were written by hand before they were derived from each family's own
operator, and so are the 2x2 continuous Hermite and Laguerre limit targets
with the recurrence loops of their monic scalar polynomials.
``gram_schmidt_oracle`` reaches the monic orthogonal polynomials by exact
block Gram-Schmidt instead, with every inner product the pointwise sum of
``residual_oracle.brute_force_gram``, not the value-table engine.
``orthogonal_tables`` is the integer chain kernel as it was before the
per-channel ``construction.ChainContext``: every chain reads the ladders
and norm ratios itself, degree by degree, and sums each term's integer
coefficients over one common denominator.
"""
import math
from fractions import Fraction

from mvop import linalg
from mvop.construction import (
    IntegerTable,
    _check_index,
    _norm_quotient,
    _resolve_quotient,
    norm_ratio,
    spec_tau,
    staggered_positions,
)
from mvop.errors import SpecError
from mvop.families import (Charlier, Krawtchouk, Meixner, ScalarOperator, ladder,
                           monic_polynomial)
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.rational import rational

from residual_oracle import brute_force_gram


def nilpotent_matrix(spec):
    """The constant coupling matrix A with A @ A = 0."""
    m = spec.m
    entries = [[ScalarPoly.zero() for _ in range(m)] for _ in range(m)]
    for k, (i, j) in enumerate(staggered_positions(m)):
        entries[i][j] = ScalarPoly.constant(spec.a[k])
    return MatrixPoly(entries)


def is_staggered(mat):
    """Whether a constant matrix is supported on the staggered pattern."""
    allowed = set(staggered_positions(len(mat)))
    return all(v == 0 for i, row in enumerate(mat) for j, v in enumerate(row)
               if (i, j) not in allowed)


def norm_ratio_matrix(spec, n, tau=None):
    """R_n = |P_n|^2 A^T |P_(n-1)|^(-2) (zero for n = 0): a times
    |p_n^(w_j)|^2 / |p_(n-1)^(w_i)|^2 at (j, i) for each pattern position
    (i, j) holding a, each ratio from ``norm_ratio``."""
    m = spec.m
    out = [[Fraction(0)] * m for _ in range(m)]
    for k, (i, j) in enumerate(staggered_positions(m) if n else ()):
        out[j][i] = spec.a[k] * norm_ratio(spec, j, n, i, n - 1, tau)
    return tuple(tuple(row) for row in out)


def unipotent_factor(spec):
    """U(x) = I + A x; its inverse is I - A x."""
    A = nilpotent_matrix(spec)
    return MatrixPoly.identity(spec.m) + A.scale(ScalarPoly.x())


def diagonal_polynomial(spec, n):
    """diag(p_n^(w_1), ..., p_n^(w_m)); n = N+1 uses the closure extension."""
    return MatrixPoly.diagonal(tuple(monic_polynomial(ch, n) for ch in spec.channels))


def assemble(spec, P_prev, P_n, P_next, theta):
    """P_n + A P_(n+1) - R P_(n-1) - P_n A x + R P_(n-1) A x by matrix
    products, R = theta as a constant matrix."""
    A = nilpotent_matrix(spec)
    x = ScalarPoly.x()
    theta_mp = MatrixPoly(theta)
    out = P_n + A @ P_next - theta_mp @ P_prev
    out = out - (P_n @ A).scale(x) + (theta_mp @ P_prev @ A).scale(x)
    return out


def orthogonal_polynomial(spec, n, tau=None):
    m = spec.m
    P_n = diagonal_polynomial(spec, n)
    P_next = diagonal_polynomial(spec, n + 1)
    if n == 0:
        P_prev = MatrixPoly.zeros(m)
        theta = linalg.zeros(m)
    else:
        P_prev = diagonal_polynomial(spec, n - 1)
        theta = norm_ratio_matrix(spec, n, tau)
    return assemble(spec, P_prev, P_n, P_next, theta)


def orthogonal_tables(spec, degrees, tau=None):
    """The integer tables of Q_n for each n of ``degrees``, as the chain
    kernel built them per chain: each channel's integer p_k read once per
    chain for k = n, n + 1, n - 1, each mass quotient resolved at the first
    degree n >= 1, and every term (row, column, multiplier, power of x,
    ladder vector) summed into its entry over the lcm of the multipliers'
    and the vectors' denominators, then reduced by one gcd."""
    m = spec.m
    positions = staggered_positions(m)
    ladders = [ladder(ch) for ch in spec.channels]
    couplings = [(a.numerator, a.denominator) for a in spec.a]
    coupled = {}  # i -> [(l, b's numerator, b's denominator)] along row i of A
    for (i, j), (an, ad) in zip(positions, couplings):
        coupled.setdefault(i, []).append((j, an, ad))
    integers = {}  # k -> every channel's integer p_k
    resolved = {}  # position -> its mass quotient at tau
    for index, n in enumerate(degrees):
        _check_index(spec, n)
        if not index:
            tau = spec_tau(spec, tau, exact=True)
        for k in (n, n + 1, n - 1):
            if k not in integers and k >= 0:
                integers[k] = [lad.integer(k) for lad in ladders]
        p, q = integers[n], integers[n + 1]
        terms = [(i, i, 1, 1, 0, p[i]) for i in range(m)]
        for (i, j), (an, ad) in zip(positions, couplings):
            terms += [(i, j, an, ad, 0, q[j]), (i, j, -an, ad, 1, p[i])]
        for k, (i, j) in enumerate(positions if n else ()):
            coefficient, quotient = _norm_quotient(ladders[j], n, ladders[i], n - 1)
            if k not in resolved:
                resolved[k] = _resolve_quotient(quotient, tau)
            t = resolved[k]
            an, ad = couplings[k]
            num = an * coefficient.numerator * t.numerator
            if num:
                den = ad * coefficient.denominator * t.denominator
                r = integers[n - 1][i]
                terms.append((j, i, -num, den, 0, r))
                terms += [(j, l, num * bn, den * bd, 1, r) for l, bn, bd in coupled[i]]
        D = math.lcm(*[den * d for _, _, _, den, _, (_, d) in terms])
        entries = {}
        for i, l, num, den, shift, (coeffs, d) in terms:
            f = num * (D // (den * d))
            cs = entries.get((i, l))
            if cs is None:
                cs = entries[i, l] = [0] * (n + 2)
            for k, v in enumerate(coeffs, shift):
                cs[k] += f * v
        for cs in entries.values():
            while cs and not cs[-1]:
                cs.pop()
        g = math.gcd(D, *[v for cs in entries.values() for v in cs])
        if g > 1:
            entries = {key: [v // g for v in cs] for key, cs in entries.items()}
        yield IntegerTable(degree=n, scale=D // g, coefficients=tuple(
            tuple(tuple(entries.get((i, l), ())) for l in range(m)) for i in range(m)))


def peel(channel, e):
    """The terms (j, c) of e on the channel's monic ladder, from the top
    down: e minus c p_j at each degree j, and on a finite support {0..N},
    past degree N + 1, minus c x^(j-N-1) p_(N+1), with nothing recorded."""
    N = channel.support_N
    terms = []
    while not e.is_zero:
        j, c = e.degree, e.leading
        if N is None or j <= N + 1:
            terms.append((j, c))
            e = e - monic_polynomial(channel, j) * c
        else:
            shift = ScalarPoly((0,) * (j - N - 1) + (1,))
            e = e - monic_polynomial(channel, N + 1) * shift * c
    return tuple(terms)


def channel_terms(spec, tables):
    """The chain of each table's Q U entries as (j, c) terms, with
    q L (Q U)_ir = sum c p_j^(r) (``peel``), () for a zero entry: in
    ``Fraction``s, Q U formed by ``MatrixPoly`` products."""
    U = unipotent_factor(spec)
    q = math.lcm(*(a.denominator for a in spec.a))
    return [tuple(tuple(tuple((j, c * q * table.scale) for j, c in peel(ch, e))
                        for ch, e in zip(spec.channels, row))
                  for row in (table.polynomial() @ U).entries)
            for table in tables]


def closure_polynomial(spec):
    n = spec.support_N + 1
    nxt = []
    for ch in spec.channels:
        b_n, c_n = ch.recurrence_bc(n)
        nxt.append(
            monic_polynomial(ch, n) * ScalarPoly((-b_n, 1)) - monic_polynomial(ch, n - 1) * c_n
        )
    return assemble(
        spec,
        diagonal_polynomial(spec, n - 1),
        diagonal_polynomial(spec, n),
        MatrixPoly.diagonal(tuple(nxt)),
        linalg.zeros(spec.m),
    )


def _commutator(A, M):
    return A @ M - M @ A


def conjugated_operator(A, F, K, G):
    """(F^, K^, -G^) of the conjugated operator by matrix products:
    F^ = (I+A) F + [A,F] x, K^ = A (F - G) + K + [A,K] x,
    G^ = (I-A) G + [A,G] x."""
    ident = MatrixPoly.identity(A.rows)
    x = ScalarPoly.x()
    F_hat = (ident + A) @ F + _commutator(A, F).scale(x)
    K_hat = A @ (F - G) + K + _commutator(A, K).scale(x)
    G_hat = (ident - A) @ G + _commutator(A, G).scale(x)
    return F_hat, K_hat, -G_hat


def weight_matrix(spec, x):
    """W(x) = U(x) diag(w_i(x)) U(x)^T by constant matrix products."""
    m = spec.m
    diag = tuple(
        tuple(spec.channels[i].weight(x) if i == j else Fraction(0) for j in range(m))
        for i in range(m)
    )
    u = unipotent_factor(spec).evaluate(x)
    return linalg.mat_mul(linalg.mat_mul(u, diag), linalg.transpose(u))


def normalized_channel(ch, position):
    """The Charlier, Meixner or Krawtchouk channel operator with eigenvalue
    n, shifted by +1 on odd (1-based) positions, written out by hand."""
    shift = Fraction(1) if position % 2 == 1 else Fraction(0)
    if isinstance(ch, Charlier):
        f, g = ScalarPoly.constant(-ch.b), -ScalarPoly.x()
    elif isinstance(ch, Krawtchouk):
        f = ScalarPoly((-ch.p * ch.N, ch.p))
        g = ScalarPoly((Fraction(0), -(1 - ch.p)))
    elif isinstance(ch, Meixner):
        scale = 1 / (ch.c - 1)
        f = ScalarPoly((ch.c * ch.beta, ch.c)) * scale
        g = ScalarPoly.x() * scale
    else:
        raise ValueError(f"no hand-written normalization for {ch.kind!r}")
    return ScalarOperator(
        f=f, k=ScalarPoly.constant(shift), g=g, eigenvalue=lambda n: Fraction(n) + shift
    )


def monic_hermite(n):
    """Monic Hermite ladder: x h_k = h_(k+1) + (k/2) h_(k-1)."""
    polys = [ScalarPoly.one()]
    x = ScalarPoly.x()
    for k in range(n):
        nxt = polys[k] * x
        if k >= 1:
            nxt = nxt - polys[k - 1] * Fraction(k, 2)
        polys.append(nxt)
    return polys[n]


def monic_laguerre(alpha, n):
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


def continuous_target(kind, n, a, alpha=None):
    """The 2x2 Hermite or Laguerre target written out by hand from the monic
    polynomials of degrees n - 1, n, n + 1 and the norm ratio c_n."""
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


def gram_schmidt_oracle(spec, n):
    """Monic matrix orthogonal polynomial via exact block Gram-Schmidt on
    {I, I x, ..., I x^n}; finite support only."""
    if not spec.is_finite:
        raise SpecError("the Gram-Schmidt oracle needs a finite support")
    if n > spec.support_N:
        raise SpecError(
            f"only degrees up to N = {spec.support_N} are orthogonalizable"
        )
    basis = []  # (R_r, <R_r, R_r>^(-1))
    for j in range(n + 1):
        monomial = MatrixPoly.diagonal((ScalarPoly.monomial(j),) * spec.m)
        candidate = monomial
        # the R_r are mutually orthogonal, so projecting the monomial itself
        # gives the same exact result as projecting the running candidate
        for r, r_inverse in basis:
            overlap = brute_force_gram(monomial, r, spec)
            candidate = candidate - MatrixPoly(linalg.mat_mul(overlap, r_inverse)) @ r
        gram = brute_force_gram(candidate, candidate, spec)
        basis.append((candidate, linalg.mat_inverse(gram)))
    return basis[n][0]

"""Published closed-form three-term recurrence triples for the worked 2x2
families, used as golden oracles against exact coefficient-matching
extraction.  Every formula is a function of the family parameters, the
coupling a, and (for infinite-support families) the mass-quotient probe tau.

The coupled Charlier--Meixner A_n(1,2) entry uses the corrected bracket
b(2n+1+beta+c) + 1 - c, derived from the leading-coefficient identity
A_n = L_n L_(n+1)^(-1); see the discussion in the test module.
"""
from fractions import Fraction as F

from mvop import linalg
from mvop.construction import staggered_positions
from mvop.rational import pochhammer

from scalar_oracle import recurrence_bc


def krawtchouk_triple(n, p, s, N, a):
    mu = F(n) * ((1 - s) / (1 - p)) ** (n - 1) * (F(s) / p) ** (n - 1) * (1 - s) * s * (N - n + 1)
    th = mu * a**2 * s * (s - 1) * (n + 1) * (N - n) + n * p * (p - 1) * (N + 1 - n)
    A = (
        (F(1), -a * n * p * (p - 1) * (N + 1 - n) * (N * (p - s) - 2 * n * (p - s) + 2 * s - 1) / th),
        (F(0), n * p * (p - 1) * (N + 1 - n) * (mu * a**2 + 1) / th),
    )
    B = (
        (
            (th * ((N - 2 * (n + 1)) * s + n + 1)
             + n * p * (p - 1) * (N + 1 - n) * (N * (p - s) - 2 * n * (p - s) + 2 * s - 1)) / th,
            a * ((N - n) * (p - s) * (n * (p + s - 1) + s) + (p - 1) * (n * (p + s) - N * s)) / (mu * a**2 + 1),
        ),
        (
            mu * a * ((n - N) * (n * (p - s) * (p + s - 1) - s**2 + s) + n * (p - p**2)) / th,
            ((N - 2 * n) * (mu * a**2 * p + s) + mu * a**2 * (2 * p + n - 1) + n) / (mu * a**2 + 1),
        ),
    )
    C = (
        (-(mu * a**2 * s * (s - 1) * (n + 1) * (N - n) + n * p * (p - 1) * (N + 1 - n)) / (mu * a**2 + 1), F(0)),
        (-mu * a * (N * p - N * s - 2 * n * p + 2 * n * s + 2 * p - 1) / (mu * a**2 + 1),
         -F(n) * s * (s - 1) * (N + 1 - n)),
    )
    return A, B, C


def charlier_triple(n, b, c, a, tau):
    q = tau  # substitutes the exponential mass quotient
    d1 = a**2 * q * c ** (n + 1) * b ** (-n) * (n + 1) + 1
    d2 = a**2 * n * q * c**n * b ** (-n + 1) + 1
    A = (
        (F(1), -a * (b - c - 1) / d1),
        (F(0), (a**2 * q * c**n * b ** (-n + 1) * n + 1) / d1),
    )
    B = (
        ((a**2 * c ** (n + 1) * b ** (-n) * (n + 1) * (n + 1 + c) * q + n + b) / d1,
         -a * (b * n - c * n - c) / d2),
        (-a * q * c**n * b ** (-n) * (b * n - c * n - c) / d1,
         (q * a**2 * n * c**n * b ** (-n + 1) * (n + b - 1) + c + n) / d2),
    )
    C = (
        (F(n) * (q * a**2 * c ** (n + 1) * b ** (-n + 1) * (n + 1) + b) / d2, F(0)),
        (-q * a * n * c**n * b ** (-n + 1) * (b - c - 1) / d2, c * n),
    )
    return A, B, C


def meixner_equal_c_triple(n, beta, alpha, c, a, tau):
    # channels (beta, c) and (alpha, c); tau substitutes (1-c)^(beta-alpha)
    g = pochhammer(alpha, n) / pochhammer(beta, n - 1) * c / (1 - c) ** 2 * tau
    dA = g * (n + 1) * (n + alpha) * a**2 + n + beta - 1
    d2 = g * a**2 * n + 1
    A = (
        (F(1), -a * (n + beta - 1) * (c * (alpha - beta) + c + 1) / ((c - 1) * dA)),
        (F(0), (n + beta - 1) * (g * a**2 * n + 1) / dA),
    )
    B = (
        ((-a**2 * (n + 1) * (n + alpha) * (c * (alpha + n + 1) + n + 1) * g
          - (n + beta - 1) * (c * (beta + n) + n)) / ((c - 1) * dA),
         a * c * (n * (alpha - beta + 2) + alpha) / ((c - 1) ** 2 * d2)),
        (a * g * (n * (alpha - beta + 2) + alpha) / dA,
         -(a**2 * n * g * (c * (beta + n - 1) + n - 1) + alpha * c + c * n + n) / ((c - 1) * d2)),
    )
    C = (
        (n * c * (g * a**2 * (n + 1) * (n + alpha) + n + beta - 1) / ((c - 1) ** 2 * d2), F(0)),
        (-g * a * n * (c * (alpha - beta + 1) + 1) / ((c - 1) * d2),
         c * n * (n + alpha - 1) / (c - 1) ** 2),
    )
    return A, B, C


def pair_triple_from_recurrences(n, bc1, bc2, theta, a):
    """General 2x2 closed-form triple from the channel recurrences.

    Solved by hand from coefficient matching on the unipotent-factored side:
    with theta_n the coupling norm ratio and (b_n, c_n) the two channels'
    scalar recurrence coefficients,

        A_n = [[1, a (b2_(n+1) - b1_n) / (1 + a^2 th_(n+1))],
               [0, (1 + a^2 th_n) / (1 + a^2 th_(n+1))]]
        B_n = [[(b1_n + a^2 th_(n+1) b2_(n+1)) / (1 + a^2 th_(n+1)),
                a (c2_(n+1) - c1_n) / (1 + a^2 th_n)],
               [a (th_(n+1) - th_n) / (1 + a^2 th_(n+1)),
                (b2_n + a^2 th_n b1_(n-1)) / (1 + a^2 th_n)]]
        C_n = [[(c1_n + a^2 th_n c2_(n+1)) / (1 + a^2 th_n), 0],
               [a th_n (b2_n - b1_(n-1)) / (1 + a^2 th_n), c2_n]]

    This reproduces every displayed family triple entrywise and serves as an
    independent oracle for the extraction path; ``triple_from_recurrences``
    is its form for every m.
    """
    b1_n, c1_n = bc1(n)
    b1_prev, _ = bc1(n - 1)
    b2_n, c2_n = bc2(n)
    b2_next, c2_next = bc2(n + 1)
    th_n, th_next = theta(n), theta(n + 1)
    dn, dnext = 1 + a**2 * th_n, 1 + a**2 * th_next
    A = ((F(1), a * (b2_next - b1_n) / dnext), (F(0), dn / dnext))
    B = (
        ((b1_n + a**2 * th_next * b2_next) / dnext, a * (c2_next - c1_n) / dn),
        (a * (th_next - th_n) / dnext, (b2_n + a**2 * th_n * b1_prev) / dn),
    )
    C = (
        ((c1_n + a**2 * th_n * c2_next) / dn, F(0)),
        (a * th_n * (b2_n - b1_prev) / dn, c2_n),
    )
    return A, B, C


def charlier_meixner_triple(n, c, beta, b, a, tau):
    # channels: Charlier(c) and Meixner(beta, b); tau substitutes (1-b)^(-beta) e^(-c)
    m = pochhammer(beta, n) * b**n * n / ((1 - b) ** (2 * n) * c ** (n - 1)) * tau
    dA = m * a**2 * b * (n + 1) * (beta + n) + c * n * (b - 1) ** 2
    d2 = m * a**2 + 1
    # Entries A(1,2), B(1,1), B(2,2) and C(2,1) use the corrected forms from
    # pair_triple_from_recurrences: the printed ones contradict the unique
    # recurrence of the very sequence the display defines (the residual
    # identity fails with them), while all other entries agree.
    b2_n = (n + (n + beta) * b) / (1 - b)
    b2_next = (n + 1 + (n + 1 + beta) * b) / (1 - b)
    A = (
        (F(1), -n * c * a * (b - 1) * (b * (2 * n + 1 + beta + c) + 1 - c) / dA),
        (F(0), c * n * (b - 1) ** 2 * d2 / dA),
    )
    B = (
        ((c * n * (b - 1) ** 2 * (n + c) + m * a**2 * b * (n + 1) * (beta + n) * b2_next) / dA,
         -a * (n * c * (b - 1) ** 2 - b * (n + 1) * (n + beta)) / (d2 * (b - 1) ** 2)),
        (-m * a * (n * ((b - 1) ** 2 * c - b * (n + 1)) - b * beta * (n + 1)) / dA,
         (b2_n + m * a**2 * (n + c - 1)) / d2),
    )
    C = (
        (m * a**2 * b * (n + 1) * (n + beta) / (d2 * (b - 1) ** 2) + n * c / d2, F(0)),
        (a * m * (b2_n - (n - 1 + c)) / d2, b * n * (n + beta - 1) / (b - 1) ** 2),
    )
    return A, B, C


def hahn_norm_ratio(n, alpha, beta, alpha2, beta2, N):
    """The coupling norm ratio for two Hahn channels (display form)."""
    return (pochhammer(alpha2 + 1, n) * pochhammer(beta2 + 1, n) * n * (N + 1 - n)) / (
        pochhammer(alpha + 1, n - 1)
        * pochhammer(beta + 1, n - 1)
        * (n + alpha + beta + N)
        * (n + alpha + beta - 1)
    )


def _add(*mats):
    return tuple(tuple(sum(vs, F(0)) for vs in zip(*rows)) for rows in zip(*mats))


def _neg(mat):
    return tuple(tuple(-v for v in row) for row in mat)


def _mul(*mats):
    out = mats[0]
    for mat in mats[1:]:
        out = linalg.mat_mul(out, mat)
    return out


def triple_from_recurrences(spec, n, tau=None):
    """The recurrence triple (A_n, B_n, C_n) of any m, in closed form from
    the channels' scalar recurrences (``scalar_oracle.recurrence_bc``), the
    coupling matrix A and the norm-ratio matrices R_k:

        M_n = I + A R_(n+1) + R_n A,
        B_n = (beta_n + A gamma_(n+1) - R_n + R_(n+1) + A beta_(n+1) R_(n+1)
               - gamma_n A + R_n beta_(n-1) A) M_n^(-1),
        A_n = I + A beta_(n+1) - B_n A,
        C_n = gamma_n - R_n beta_(n-1) + B_n R_n,

    with beta_k and gamma_k the diagonals of the channels' b_k and c_k,
    beta_(-1) = 0, and R_k holding a |p_k^(j)|^2 / |p_(k-1)^(i)|^2 at (j, i)
    for each pattern position (i, j) holding a: R_0 = 0, and R_(N+1) = 0 at
    the closure companion of a finite support.  Each squared norm is the
    channel's total mass times c_1 ... c_k, and a transcendental mass
    quotient reads the probe ``tau``.  M_n is block diagonal on the even and
    the odd channels.
    """
    m, channels = spec.m, spec.channels
    eye = linalg.identity(m)

    def diagonal(values):
        return tuple(tuple(values[i] if i == j else F(0) for j in range(m)) for i in range(m))

    def beta(k):
        return diagonal([recurrence_bc(ch, k)[0] if k >= 0 else F(0) for ch in channels])

    def gamma(k):
        return diagonal([recurrence_bc(ch, k)[1] for ch in channels])

    def norm(r, k):
        ch = channels[r]
        out = ch.total_mass().coefficient
        for j in range(1, k + 1):
            out *= recurrence_bc(ch, j)[1]
        return out

    def R(k):
        out = [[F(0)] * m for _ in range(m)]
        if k == 0 or (spec.is_finite and k == spec.support_N + 1):
            return tuple(map(tuple, out))
        for (i, j), a in zip(staggered_positions(m), spec.a):
            quotient = channels[j].total_mass().mass / channels[i].total_mass().mass
            mass = quotient.rational_value() if quotient.is_rational else F(tau)
            out[j][i] = a * norm(j, k) / norm(i, k - 1) * mass
        return tuple(map(tuple, out))

    A = [[F(0)] * m for _ in range(m)]
    for (i, j), a in zip(staggered_positions(m), spec.a):
        A[i][j] = a
    A = tuple(map(tuple, A))
    R_n, R_next = R(n), R(n + 1)
    M = _add(eye, _mul(A, R_next), _mul(R_n, A))
    B = _mul(_add(beta(n), _mul(A, gamma(n + 1)), _neg(R_n), R_next, _mul(A, beta(n + 1), R_next),
                  _neg(_mul(gamma(n), A)), _mul(R_n, beta(n - 1), A)),
             linalg.mat_inverse(M))
    A_n = _add(eye, _mul(A, beta(n + 1)), _neg(_mul(B, A)))
    C = _add(gamma(n), _neg(_mul(R_n, beta(n - 1))), _mul(B, R_n))
    return A_n, B, C

"""The moment oracle for exact Grams on an infinite support.

A Charlier or Meixner weight has closed-form falling-factorial moments
(Koekoek, Lesky & Swarttouw, *Hypergeometric Orthogonal Polynomials*,
Springer 2010, ch. 9):

    sum_x (x)_k b^x / x!               = b^k e^b,
    sum_x (x)_k (beta)_x c^x / x!      = (beta)_k (c / (1 - c))^k (1 - c)^(-beta),

so the functional f -> sum_x f(x) w(x) / M on polynomials, M the weight's
transcendental total mass, is exact: x^n = sum_k S(n, k) (x)_k with the
Stirling numbers of the second kind.  ``moment_gram`` sums P(x) W(x) Q(x)^T
with it channel by channel, W = U diag(w_r) U^T, in units of channel 1's
total mass.  It reads neither the channel ladders nor their norms, only the
masses M_r / M_1, resolved along the pattern path as the construction reads
them: consecutive channels r - 1 and r (0-based) share the pattern position
(r - 1, r) for odd r and (r, r - 1) for even r, whose quotient M_j / M_i at
(i, j) is its rational value, or the tau probe where it is transcendental.
"""
from fractions import Fraction

from mvop.families import Charlier, Meixner
from mvop.poly import MatrixPoly, ScalarPoly
from mvop.rational import pochhammer


def falling_moment(channel, k):
    """sum_x (x)_k w(x) over the nonnegative integers, divided by the
    weight's transcendental total mass."""
    if isinstance(channel, Charlier):
        return channel.b ** k
    if isinstance(channel, Meixner):
        return pochhammer(channel.beta, k) * (channel.c / (1 - channel.c)) ** k
    raise TypeError(f"no moment formula for {channel!r}")


def power_moments(channel, top):
    """sum_x x^n w(x) / M for n = 0..top, through
    x^n = sum_k S(n, k) (x)_k."""
    stirling = [[1]]  # S(n, k) for k = 0..n
    for n in range(1, top + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    falling = [falling_moment(channel, k) for k in range(top + 1)]
    return [sum(s * f for s, f in zip(row, falling)) for row in stirling]


def path_masses(spec, tau):
    """M_r / M_1 for each channel, along the pattern path."""
    masses = [Fraction(1)]
    for r in range(1, spec.m):
        i, j = (r - 1, r) if r % 2 else (r, r - 1)
        quotient = spec.channels[j].total_mass().mass / spec.channels[i].total_mass().mass
        value = quotient.rational_value() if quotient.is_rational else Fraction(tau)
        masses.append(masses[-1] * value if j == r else masses[-1] / value)
    return masses


def coupled_factor(spec):
    """U(x) = I + A x, A holding the couplings on the staggered pattern:
    (2j - 1, 2j) for j = 1..m/2, then (2j + 1, 2j), 1-based."""
    m = spec.m
    positions = [(2 * j - 2, 2 * j - 1) for j in range(1, m // 2 + 1)]
    positions += [(2 * j, 2 * j - 1) for j in range(1, (m - 1) // 2 + 1)]
    entries = [[ScalarPoly.one() if i == j else ScalarPoly.zero() for j in range(m)]
               for i in range(m)]
    for (i, j), a in zip(positions, spec.a):
        entries[i][j] = ScalarPoly((Fraction(0), a))
    return MatrixPoly(entries)


def moment_gram(P, Q, spec, tau):
    """<P, Q> = sum_x P(x) W(x) Q(x)^T over the nonnegative integers, exactly,
    in units of channel 1's total mass |p_0^(1)|^2, the mass quotients
    resolved at ``tau`` along the pattern path."""
    U = coupled_factor(spec)
    PU, QU = P @ U, Q @ U
    top = PU.degree + QU.degree
    moments = [power_moments(ch, top) for ch in spec.channels]
    unit = spec.channels[0].total_mass().coefficient
    masses = path_masses(spec, tau)
    return tuple(
        tuple(
            sum((mass * sum(c * mu for c, mu in zip((p * q).coeffs, mus))
                 for p, q, mus, mass in zip(prow, qrow, moments, masses)), Fraction(0)) / unit
            for qrow in QU.entries
        )
        for prow in PU.entries
    )

"""Second-order matrix difference operators and three-term recurrences.

A ``DifferenceOperator`` is a triple (F, K, G) of matrix polynomials acting
on the right of a matrix polynomial P as

    P . D = Delta(P) F + P K + Nabla(P) G,

with Delta(f) = f(x+1) - f(x) and Nabla(f) = f(x) - f(x-1).  The scalar
channel operators are written Delta f + k - nabla g, so they embed with
G = -g on the diagonal.

``conjugated_operator`` implements the closed-form conjugation of a diagonal
operator by the unipotent factor U(x) = I + A x, and ``canonical_operator``
builds the per-family normalized operator whose eigenvalues interlace across
odd and even channels.  ``match_recurrence`` recovers the three-term
recurrence matrices from three consecutive polynomials by exact coefficient
matching, with no inner products; ``extract_recurrence`` builds them first.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .construction import (
    FamilySpec,
    needs_mass_probe,
    nilpotent_matrix,
    orthogonal_polynomial,
    successor_polynomial,
)
from .errors import ProbeError, SpecError
from .families import Charlier, Hahn, Krawtchouk, Meixner, ScalarOperator
from .poly import MatrixPoly, ScalarPoly


@dataclass(frozen=True)
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


def apply_operator(P: MatrixPoly, D: DifferenceOperator) -> MatrixPoly:
    return D.apply(P)


@dataclass(frozen=True)
class EigenvalueMap:
    """n -> diagonal eigenvalue matrix, one exact closed form per channel."""

    channel_eigenvalues: tuple  # of Callable[[int], Fraction]

    def diagonal(self, n: int):
        return tuple(fn(n) for fn in self.channel_eigenvalues)

    def matrix(self, n: int) -> MatrixPoly:
        return MatrixPoly.diagonal(
            tuple(ScalarPoly.constant(v) for v in self.diagonal(n))
        )


@dataclass(frozen=True)
class RecurrenceTriple:
    """Constant matrices with Q_n x = A_n Q_(n+1) + B_n Q_n + C_n Q_(n-1)."""

    A: tuple
    B: tuple
    C: tuple


def _commutator(A: MatrixPoly, M: MatrixPoly) -> MatrixPoly:
    return A @ M - M @ A


def conjugated_operator(A: MatrixPoly, F: MatrixPoly, K: MatrixPoly,
                        G: MatrixPoly) -> DifferenceOperator:
    """Conjugate the diagonal operator diag(Delta f_i + k_i - nabla g_i) by
    the unipotent factor I + A x, in closed form:

        D = Delta((I+A) F + [A,F] x) + A (F - G) + K + [A,K] x
            - Nabla((I-A) G + [A,G] x).

    F, K, G are the diagonal matrix polynomials of the f_i, k_i, g_i.
    """
    m = A.rows
    ident = MatrixPoly.identity(m)
    x = ScalarPoly.x()
    F_hat = (ident + A) @ F + _commutator(A, F).scale(x)
    K_hat = A @ (F - G) + K + _commutator(A, K).scale(x)
    G_hat = (ident - A) @ G + _commutator(A, G).scale(x)
    return DifferenceOperator(F=F_hat, K=K_hat, G=-G_hat)


def _normalized_channel(ch, position: int) -> tuple[ScalarOperator, object]:
    """Channel operator scaled so the eigenvalue is n, then shifted by +1 on
    odd (1-based) channels so eigenvalues interlace across the coupling."""
    odd = position % 2 == 1
    shift = Fraction(1) if odd else Fraction(0)
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
        raise SpecError(f"no normalized operator for channel kind {ch.kind!r}")
    op = ScalarOperator(
        f=f,
        k=ScalarPoly.constant(shift),
        g=g,
        eigenvalue=lambda n, s=shift: Fraction(n) + s,
    )
    return op, op.eigenvalue


def _hahn_channel(ch: Hahn, position: int, base_sum: Fraction) -> tuple[ScalarOperator, object]:
    base = ch.operator()
    odd = position % 2 == 1
    shift = Fraction(0) if odd else -base_sum
    op = ScalarOperator(
        f=base.f,
        k=ScalarPoly.constant(shift),
        g=base.g,
        eigenvalue=lambda n, b=base.eigenvalue, s=shift: b(n) + s,
    )
    return op, op.eigenvalue


def _channel_operators(spec: FamilySpec, force: bool):
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
        base_sum = spec.channels[0].alpha + spec.channels[0].beta
        return [
            _hahn_channel(ch, pos + 1, base_sum)
            for pos, ch in enumerate(spec.channels)
        ]
    return [_normalized_channel(ch, pos + 1) for pos, ch in enumerate(spec.channels)]


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
    pairs = _channel_operators(spec, force)
    ops = [p[0] for p in pairs]
    F = MatrixPoly.diagonal(tuple(op.f for op in ops))
    K = MatrixPoly.diagonal(tuple(op.k for op in ops))
    G = MatrixPoly.diagonal(tuple(op.g for op in ops))
    A = nilpotent_matrix(spec)
    D = conjugated_operator(A, F, K, G)
    eig = EigenvalueMap(channel_eigenvalues=tuple(p[1] for p in pairs))
    return D, eig


def diagonal_operator(spec: FamilySpec, force: bool = False) -> DifferenceOperator:
    """The uncoupled diag(delta_i) companion of ``canonical_operator``,
    in the same normalization (eigenvalues interlaced)."""
    ops = [p[0] for p in _channel_operators(spec, force)]
    return DifferenceOperator(
        F=MatrixPoly.diagonal(tuple(op.f for op in ops)),
        K=MatrixPoly.diagonal(tuple(op.k for op in ops)),
        G=MatrixPoly.diagonal(tuple(-op.g for op in ops)),
    )


# --------------------------------------------------------------------------
# three-term recurrence extraction


def _const(matrix_rows) -> MatrixPoly:
    return MatrixPoly.from_scalar_matrix(matrix_rows)


def exact_tau(spec: FamilySpec, tau):
    """The tau under which a recurrence closes exactly: None when every mass
    quotient is rational; a ProbeError for the float quotient."""
    if not needs_mass_probe(spec):
        return None
    if tau == "numeric":
        raise ProbeError(
            "the three-term recurrence is extracted exactly and cannot use the "
            "float mass quotient; pass --tau a rational probe value such as 2, "
            "not 'numeric'"
        )
    return tau


def extract_recurrence(spec: FamilySpec, n: int, tau=None) -> RecurrenceTriple:
    """Solve Q_n x = A_n Q_(n+1) + B_n Q_n + C_n Q_(n-1) for the spec's own
    sequence; see ``match_recurrence``.

    On a finite support, n = N closes through the degree-(N+1) companion
    built from the vanishing-norm extension.  Exact closure needs exact
    coefficients, so a transcendental mass quotient needs a rational tau.
    """
    if n < 0:
        raise SpecError(f"recurrence index must be >= 0, got {n}")
    top = spec.support_N
    if top is not None and n > top:
        raise SpecError(f"recurrence index must be <= N = {top}, got {n}")
    tau = exact_tau(spec, tau)
    Q_n = orthogonal_polynomial(spec, n, tau=tau)
    Q_next = successor_polynomial(spec, n, tau=tau)
    Q_prev = orthogonal_polynomial(spec, n - 1, tau=tau) if n >= 1 else None
    return match_recurrence(spec, n, Q_prev, Q_n, Q_next)


def match_recurrence(spec: FamilySpec, n: int, Q_prev, Q_n: MatrixPoly,
                     Q_next: MatrixPoly) -> RecurrenceTriple:
    """The recurrence matrices at n from Q_(n-1) (None at n = 0), Q_n and
    Q_(n+1), by exact coefficient matching (unique because leading
    coefficients are invertible).  Raises AssertionError when the residual
    does not vanish.
    """
    target = Q_n.scale(ScalarPoly.x())
    lead_next = linalg.mat_inverse(Q_next.coefficient(n + 1))
    A_n = linalg.mat_mul(target.coefficient(n + 1), lead_next)
    rem = target - _const(A_n) @ Q_next

    lead_n = linalg.mat_inverse(Q_n.coefficient(n))
    B_n = linalg.mat_mul(rem.coefficient(n), lead_n)
    rem = rem - _const(B_n) @ Q_n

    if n == 0:
        C_n = linalg.zeros(spec.m)
    else:
        lead_prev = linalg.mat_inverse(Q_prev.coefficient(n - 1))
        C_n = linalg.mat_mul(rem.coefficient(n - 1), lead_prev)
        rem = rem - _const(C_n) @ Q_prev
    if not rem.is_zero:
        raise AssertionError(
            f"three-term recurrence failed to close at n = {n} for {spec!r}"
        )
    return RecurrenceTriple(A=A_n, B=B_n, C=C_n)

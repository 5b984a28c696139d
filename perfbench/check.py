"""Independent checks of the outputs of ``mvop``.

Nothing here imports ``mvop``: weights, weight matrices, polynomial and
matrix arithmetic, block Gram-Schmidt and the LaTeX reader are this file's
own ``Fraction`` code.  Each ``check_*`` function raises ``CheckError`` with a
reason when an output is wrong and returns quietly when it is right.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

DEFAULT_A = tuple(Fraction(v) for v in ("1", "2", "3", "1/2", "-1"))
DEFAULT_TAU = (Fraction(1), Fraction(2), Fraction(3))
INFINITE_W_TOP = 10  # artifacts tabulate W on 0..10 for infinite supports
FLOAT_X_MAX = 400  # truncation point of the float orthogonality sums
# Relative Gram bound for float (numeric-tau) artifacts: |<Q_n, Q_k>| over
# sqrt(|<Q_n, Q_n>| |<Q_k, Q_k>|), entrywise maxima.  Rounding in the
# emitted coefficients keeps it below 4e-13 on every family the artifacts
# workload can draw.
FLOAT_ORTHO_TOL = 1e-9
FLOAT_EIGEN_TOL = 1e-9  # eigen residual relative to the largest |Q_n . D| coefficient
# Convergence orders of the seven ladders, error ~ scale^(-order): the Askey
# scheme limits (Koekoek, Lesky & Swarttouw 2010, ch. 9).  The scale is the
# ladder value, except meixner->laguerre, where it is 1 / (1 - c).
LADDER_ORDERS = {
    "krawtchouk->charlier": 1.0,
    "krawtchouk->hermite": 0.5,
    "charlier->hermite": 0.5,
    "meixner->charlier": 1.0,
    "meixner->laguerre": 1.0,
    "hahn->meixner": 1.0,
    "hahn->krawtchouk": 1.0,
}
ORDER_BAND = 0.15  # fitted order must lie within this distance of the known one


class CheckError(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckError(message)


# --------------------------------------------------------------------------
# polynomials: tuples of coefficients in ascending powers of x


def p_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def p_add(a, b):
    n = max(len(a), len(b))
    return p_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def p_scale(a, s):
    return p_trim(c * s for c in a)


def p_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return p_trim(out)


def p_eval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_shift(a, k):
    """a(x + k)."""
    out = ()
    for c in reversed(a):
        out = p_add(p_mul(out, (k, 1)), (c,))
    return out


# --------------------------------------------------------------------------
# matrix polynomials: tuples of rows of polynomials; constant matrices:
# tuples of rows of numbers


def mp_map2(fn, A, B):
    return tuple(tuple(fn(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mp_add(A, B):
    return mp_map2(p_add, A, B)


def mp_sub(A, B):
    return mp_map2(lambda a, b: p_add(a, p_scale(b, -1)), A, B)


def mp_mul(A, B):
    return tuple(
        tuple(
            _sum_polys(p_mul(A[i][k], B[k][j]) for k in range(len(B)))
            for j in range(len(B[0]))
        )
        for i in range(len(A))
    )


def _sum_polys(polys):
    out = ()
    for p in polys:
        out = p_add(out, p)
    return out


def mp_const(M):
    return tuple(tuple(p_trim((v,)) for v in row) for row in M)


def mp_times_x(A):
    return tuple(tuple(p_trim((0,) + e) if e else () for e in row) for row in A)


def mp_shift(A, k):
    return tuple(tuple(p_shift(e, k) for e in row) for row in A)


def mp_degree(A):
    return max(len(e) for row in A for e in row) - 1


def mp_coeff(A, k):
    return tuple(tuple(e[k] if k < len(e) else 0 for e in row) for row in A)


def mp_eval(A, x):
    return tuple(tuple(p_eval(e, x) for e in row) for row in A)


def mp_is_zero(A):
    return all(not e for row in A for e in row)


def mp_apply(P, F, K, G):
    """P . D = Delta(P) F + P K + Nabla(P) G."""
    delta = mp_sub(mp_shift(P, 1), P)
    nabla = mp_sub(P, mp_shift(P, -1))
    return mp_add(mp_add(mp_mul(delta, F), mp_mul(P, K)), mp_mul(nabla, G))


def mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def transpose(A):
    return tuple(zip(*A))


def mat_inverse(A):
    """Gauss-Jordan inverse of an exact matrix; None when singular."""
    m = len(A)
    work = [list(row) + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(A)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / Fraction(work[col][col])
        work[col] = [v * inv for v in work[col]]
        for r in range(m):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return tuple(tuple(row[m:]) for row in work)


def diag(values):
    m = len(values)
    return tuple(tuple(values[i] if i == j else 0 for j in range(m)) for i in range(m))


# --------------------------------------------------------------------------
# weights, written from their definitions


def poch(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def gbinom(top, k):
    if k < 0:
        return Fraction(0)
    return poch(Fraction(top) - k + 1, k) / math.factorial(k)


def channel(ch):
    """A channel spec with its parameters as Fractions."""
    out = dict(ch)
    for key in ("b", "beta", "c", "p", "alpha"):
        if key in out:
            out[key] = Fraction(out[key])
    return out


def support_top(spec):
    return spec["channels"][0].get("N")


def weight(ch, x):
    kind = ch["kind"]
    if x < 0 or ("N" in ch and x > ch["N"]):
        return Fraction(0)
    if kind == "charlier":
        return ch["b"] ** x / math.factorial(x)
    if kind == "meixner":
        return poch(ch["beta"], x) * ch["c"] ** x / math.factorial(x)
    if kind == "krawtchouk":
        p, N = ch["p"], ch["N"]
        return math.comb(N, x) * p**x * (1 - p) ** (N - x)
    if kind == "hahn":
        a, b, N = ch["alpha"], ch["beta"], ch["N"]
        return gbinom(a + x, x) * gbinom(b + N - x, N - x)
    raise CheckError(f"unknown channel kind {kind!r}")


def float_weight(ch, x):
    """The weight as a float, through logarithms so large x cannot overflow."""
    kind = ch["kind"]
    if kind == "charlier":
        return math.exp(x * math.log(ch["b"]) - math.lgamma(x + 1))
    if kind == "meixner":
        beta, c = float(ch["beta"]), float(ch["c"])
        return math.exp(math.lgamma(beta + x) - math.lgamma(beta) + x * math.log(c)
                        - math.lgamma(x + 1))
    return float(weight(ch, x))


def staggered(m):
    """Positions (0-based) of the couplings: (2j-1, 2j) and (2j+1, 2j), 1-based."""
    return [(2 * j - 2, 2 * j - 1) for j in range(1, m // 2 + 1)] + [
        (2 * j, 2 * j - 1) for j in range(1, (m - 1) // 2 + 1)
    ]


def weight_matrix(spec, x, value=weight):
    """W(x) = (I + A x) diag(w_i(x)) (I + A x)^T."""
    chans = [channel(ch) for ch in spec["channels"]]
    m = len(chans)
    U = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for (i, j), a in zip(staggered(m), spec["a"]):
        U[i][j] = Fraction(a) * x
    if value is float_weight:
        U = [[float(v) for v in row] for row in U]
    w = [value(ch, x) for ch in chans]
    return tuple(
        tuple(sum(U[i][k] * w[k] * U[j][k] for k in range(m)) for j in range(m))
        for i in range(m)
    )


def has_canonical_operator(spec):
    chans = [channel(ch) for ch in spec["channels"]]
    kinds = {ch["kind"] for ch in chans}
    if "hahn" not in kinds:
        return True
    if kinds != {"hahn"}:
        return False
    sums = [ch["alpha"] + ch["beta"] for ch in chans]
    return all(sums[i] == sums[j] + 2 for i in range(0, len(sums), 2)
               for j in range(1, len(sums), 2))


def _mass(ch):
    """Total mass as (exponent of e, {base: exponent})."""
    if ch["kind"] == "charlier":
        return ch["b"], {}
    if ch["kind"] == "meixner":
        return Fraction(0), {1 - ch["c"]: -ch["beta"]}
    return Fraction(0), {}


def needs_tau(spec):
    """Whether a coupled pair of channels has a transcendental mass quotient."""
    chans = [channel(ch) for ch in spec["channels"]]
    for i, j in staggered(len(chans)):
        e1, p1 = _mass(chans[j])
        e2, p2 = _mass(chans[i])
        powers = dict(p1)
        for base, e in p2.items():
            powers[base] = powers.get(base, 0) - e
        if e1 != e2 or any(Fraction(e).denominator != 1 for e in powers.values()):
            return True
    return False


def gram(P, Q, Ws):
    """sum_x P(x) W(x) Q(x)^T over the tabulated points."""
    total = None
    for x, W in Ws:
        term = mat_mul(mat_mul(mp_eval(P, x), W), transpose(mp_eval(Q, x)))
        total = term if total is None else mp_num_add(total, term)
    return total


def mp_num_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def is_zero_matrix(M):
    return all(v == 0 for row in M for v in row)


def max_abs(M):
    return max(abs(v) for row in M for v in row)


def exact_table(spec):
    return [(x, weight_matrix(spec, x)) for x in range(support_top(spec) + 1)]


def float_table(spec):
    return [(float(x), weight_matrix(spec, x, float_weight)) for x in range(FLOAT_X_MAX + 1)]


def float_poly(P):
    return tuple(tuple(tuple(float(c) for c in e) for e in row) for row in P)


# --------------------------------------------------------------------------
# readers


def parse_mpoly(data):
    require(isinstance(data, dict) and "entries" in data, "not a matrix polynomial")
    P = tuple(tuple(p_trim(Fraction(c) for c in e) for e in row) for row in data["entries"])
    require(len(P) == data["rows"] and all(len(r) == data["cols"] for r in P),
            "matrix polynomial shape does not match its declaration")
    return P


def parse_matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


_TERM = re.compile(
    r"([+-])?\s*(?:(\\frac\{(\d+)\}\{(\d+)\}|\d+)\s*)?(x(?:\^\{(\d+)\})?)?"
)


def parse_latex_poly(text):
    text = text.strip()
    if text == "0":
        return ()
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        require(m and m.end() > pos, f"cannot read LaTeX polynomial {text!r}")
        sign, number, num, den, xpart, power = m.groups()
        if number is None:
            value = Fraction(1)
        elif num is not None:
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(number))
        if sign == "-":
            value = -value
        k = 0 if xpart is None else (1 if power is None else int(power))
        require(k not in coeffs, f"repeated power in LaTeX polynomial {text!r}")
        coeffs[k] = value
        pos = m.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return p_trim(coeffs.get(k, 0) for k in range(max(coeffs) + 1))


def parse_latex_matrices(text):
    blocks = re.findall(r"\\begin\{pmatrix\}(.*?)\\end\{pmatrix\}", text, re.S)
    return [
        tuple(tuple(parse_latex_poly(e) for e in row.split("&"))
              for row in block.strip().split("\\\\"))
        for block in blocks
    ]


# --------------------------------------------------------------------------
# algebraic checks shared by the artifact kinds


def check_degrees(Qs):
    for n, Q in enumerate(Qs):
        require(mp_degree(Q) == n, f"Q_{n} has degree {mp_degree(Q)}")
        require(mat_inverse(mp_coeff(Q, n)) is not None, f"Q_{n} has a singular leading coefficient")


def check_exact_orthogonality(spec, Qs):
    table = exact_table(spec)
    for n, Q in enumerate(Qs):
        for k in range(n):
            require(is_zero_matrix(gram(Q, Qs[k], table)), f"<Q_{n}, Q_{k}> != 0")
        require(mat_inverse(gram(Q, Q, table)) is not None, f"<Q_{n}, Q_{n}> is singular")


def check_orthogonal_to_lower(spec, Q, n):
    """Q ⊥ x^j I for every j < n: Q is orthogonal to all lower degrees."""
    table = exact_table(spec)
    m = len(Q)
    for j in range(n):
        mono = tuple(tuple(p_trim((0,) * j + (1,)) if r == c else () for c in range(m))
                     for r in range(m))
        require(is_zero_matrix(gram(Q, mono, table)), f"Q_{n} is not orthogonal to x^{j}")
    require(mat_inverse(gram(Q, Q, table)) is not None, f"<Q_{n}, Q_{n}> is singular")


def check_float_orthogonality(spec, Qs):
    table = float_table(spec)
    fQ = [float_poly(Q) for Q in Qs]
    norms = [max_abs(gram(Q, Q, table)) for Q in fQ]
    for n in range(len(fQ)):
        for k in range(n):
            bound = max_abs(gram(fQ[n], fQ[k], table)) / math.sqrt(norms[n] * norms[k])
            require(bound < FLOAT_ORTHO_TOL,
                    f"<Q_{n}, Q_{k}> relative bound {bound:.3e} >= {FLOAT_ORTHO_TOL:.0e}")


def check_eigen(Qs, D, Lambda, exact=True):
    F, K, G = D
    for n, Q in enumerate(Qs):
        lhs = mp_apply(Q, F, K, G)
        resid = mp_sub(lhs, mp_mul(mp_const(diag(Lambda[n])), Q))
        if exact:
            require(mp_is_zero(resid), f"Q_{n} . D != Lambda_{n} Q_{n}")
        else:
            scale = max((abs(c) for row in lhs for e in row for c in e), default=1) or 1
            worst = max((abs(c) for row in resid for e in row for c in e), default=0)
            require(worst / scale < FLOAT_EIGEN_TOL,
                    f"Q_{n} . D - Lambda_{n} Q_{n} relative residual {float(worst / scale):.3e}")


def check_diagonal_action(Qs, D):
    """Q_n . D = L_n Q_n with L_n constant and diagonal (eigenvalues unstated)."""
    F, K, G = D
    for n, Q in enumerate(Qs):
        R = mp_apply(Q, F, K, G)
        require(mp_degree(R) <= n, f"Q_{n} . D raises the degree")
        L = mat_mul(mp_coeff(R, n), mat_inverse(mp_coeff(Q, n)))
        require(all(L[i][j] == 0 for i in range(len(L)) for j in range(len(L)) if i != j),
                f"Q_{n} . D = L Q_{n} with L not diagonal")
        require(mp_is_zero(mp_sub(R, mp_mul(mp_const(L), Q))), f"Q_{n} . D is not L Q_{n}")


def check_recurrence(Qs, triple, n):
    """x Q_n = A Q_(n+1) + B Q_n + C Q_(n-1)."""
    A, B, C = (parse_matrix(triple[k]) for k in ("A", "B", "C"))
    rhs = mp_add(mp_mul(mp_const(A), Qs[n + 1]), mp_mul(mp_const(B), Qs[n]))
    if n >= 1:
        rhs = mp_add(rhs, mp_mul(mp_const(C), Qs[n - 1]))
    else:
        require(is_zero_matrix(C), "C_0 != 0")
    require(mp_is_zero(mp_sub(mp_times_x(Qs[n]), rhs)), f"recurrence fails at n = {n}")


def check_weights(spec, W_json):
    top = support_top(spec)
    top = INFINITE_W_TOP if top is None else top
    require(sorted(W_json, key=int) == [str(x) for x in range(top + 1)],
            "W is not tabulated on the expected points")
    for x in range(top + 1):
        require(parse_matrix(W_json[str(x)]) == weight_matrix(spec, x), f"W({x}) is wrong")


def monic_gram_schmidt(spec, top):
    """Monic matrix orthogonal polynomials M_0..M_top by block Gram-Schmidt."""
    table = exact_table(spec)
    m = len(spec["channels"])
    basis = []
    for j in range(top + 1):
        cand = tuple(tuple(p_trim((0,) * j + (1,)) if r == c else () for c in range(m))
                     for r in range(m))
        for R in basis:
            coeff = mat_mul(gram(cand, R, table), mat_inverse(gram(R, R, table)))
            cand = mp_sub(cand, mp_mul(mp_const(coeff), R))
        basis.append(cand)
    return basis


# --------------------------------------------------------------------------
# one check per output kind


def same_spec(emitted, spec):
    def norm(s):
        return (tuple(Fraction(v) for v in s["a"]),
                tuple(tuple(sorted(channel(ch).items())) for ch in s["channels"]))
    require(norm(emitted) == norm(spec), "the artifact names another spec")


def check_verify(op, exit_code, text, err, outputs):
    require(exit_code == op.expect_exit, f"exit {exit_code}, expected {op.expect_exit}")
    report = json.loads(text)
    same_spec(report["spec"], op.spec)
    perturb = op.ctx["perturb"]
    checks = report["checks"]
    if perturb:
        require(report["pass"] is False and not all(c["pass"] for c in checks),
                "the perturbed control passed")
        require(err.startswith("verification failed"), "no failure message on stderr")
    else:
        require(report["pass"] is True, "report does not pass")
        require(all(c["pass"] for c in checks), "a check failed in a passing report")
    a_grid = [Fraction(v) for v in report["probe_grid"]["a"]]
    tau_grid = [None if v == "None" else Fraction(v) for v in report["probe_grid"]["tau"]]
    require(set(DEFAULT_A) <= set(a_grid), "the a-probe grid lacks a default probe")
    if needs_tau(op.spec):
        require(set(DEFAULT_TAU) <= set(tau_grid), "the tau-probe grid lacks a default probe")
    else:
        require(tau_grid == [None], "tau probes on a family with rational mass quotients")
    top = support_top(op.spec)
    n_max = op.ctx["n_max"] if top is None else min(op.ctx["n_max"], top)
    seen = set()
    for c in checks:
        a = c["a"]
        try:
            a = Fraction(a)
        except (TypeError, ValueError):
            pass  # the spec's own coupling tuple
        tau = None if c["tau"] in (None, "None") else c["tau"]
        if c["check"] == "orthogonality":
            k = re.match(r"k = (\d+)", c["detail"])
            require(k is not None, f"orthogonality check without k: {c['detail']!r}")
            seen.add(("orthogonality", c["n"], int(k.group(1))))
        else:
            seen.add((c["check"], c["n"], a, None if tau is None else Fraction(tau)))
    names = ["recurrence"] + (["eigenfunction"] if has_canonical_operator(op.spec) else [])
    for a in a_grid:
        for tau in tau_grid:
            for n in range(n_max + 1):
                for name in names:
                    require((name, n, a, tau) in seen,
                            f"no {name} check at n = {n}, a = {a}, tau = {tau}")
    for n in range(n_max + 1):
        for k in range(n):
            require(("orthogonality", n, k) in seen, f"no orthogonality check for ({n}, {k})")
    return len(checks)


def check_family_json(op, exit_code, text, err, outputs):
    require(exit_code == 0, f"exit {exit_code}")
    art = json.loads(text)
    spec, ctx = op.spec, op.ctx
    same_spec(art["spec"], spec)
    top = support_top(spec)
    n_hi = ctx["n"] if top is None else min(ctx["n"], top)
    Qs = [parse_mpoly(Q) for Q in art["Q"]]
    require(len(Qs) == n_hi + 1, f"{len(Qs)} polynomials, expected {n_hi + 1}")
    check_degrees(Qs)
    check_weights(spec, art["W"])
    numeric = ctx["tau"] == "numeric" and needs_tau(spec)
    if top is not None:
        check_exact_orthogonality(spec, Qs)
    elif numeric:
        check_float_orthogonality(spec, Qs)
    if has_canonical_operator(spec):
        require(art["D"] is not None, "no operator for a family that has one")
        D = tuple(parse_mpoly(art["D"][k]) for k in ("F", "K", "G"))
        Lambda = [[Fraction(v) for v in row] for row in art["Lambda"]]
        check_eigen(Qs, D, Lambda, exact=not numeric)
    if ctx["recurrence"]:
        require(len(art["recurrence"]) == n_hi + 1, "recurrence list has the wrong length")
        for n in range(n_hi):
            check_recurrence(Qs, art["recurrence"][n], n)
    return 0


def check_family_latex(op, exit_code, text, err, outputs):
    require(exit_code == 0, f"exit {exit_code}")
    spec = op.spec
    top = support_top(op.spec)
    n_hi = op.ctx["n"] if top is None else min(op.ctx["n"], top)
    blocks = parse_latex_matrices(text)
    require(len(blocks) == n_hi + 4, f"{len(blocks)} matrices, expected {n_hi + 4}")
    Qs = blocks[: n_hi + 1]
    check_degrees(Qs)
    check_exact_orthogonality(spec, Qs)
    F, K, minus_G = blocks[n_hi + 1:]
    check_diagonal_action(Qs, (F, K, tuple(tuple(p_scale(e, -1) for e in row) for row in minus_G)))
    return 0


def _family_output(op, outputs):
    family = outputs.get(op.ctx["family"])
    require(family is not None, f"the family artifact {op.ctx['family']} is missing")
    return json.loads(family)


def check_export(op, exit_code, text, err, outputs):
    require(exit_code == 0, f"exit {exit_code}")
    data = json.loads(text)
    family = _family_output(op, outputs)
    Qs = [parse_mpoly(Q) for Q in family["Q"]]
    n = op.ctx["n"]
    what = op.check.split("-", 1)[1]
    if what == "Q":
        Q = parse_mpoly(data)
        require(mp_degree(Q) == n, f"Q_{n} has degree {mp_degree(Q)}")
        if support_top(op.spec) is not None:
            check_orthogonal_to_lower(op.spec, Q, n)
        require(Q == Qs[n], f"exported Q_{n} differs from the family artifact")
    elif what == "W":
        check_weights(op.spec, data)
    elif what == "D":
        D = tuple(parse_mpoly(data["D"][k]) for k in ("F", "K", "G"))
        Lambda = [[Fraction(v) for v in row] for row in data["Lambda"]]
        require(len(Lambda) == n + 1, "Lambda has the wrong length")
        check_eigen(Qs[: n + 1], D, Lambda)
    elif what == "recurrence":
        check_recurrence(Qs, data, n)
    return 0


def check_export_d_latex(op, exit_code, text, err, outputs):
    """The operator keeps every monic orthogonal polynomial (own Gram-Schmidt)
    in its own span: M_n . D = L_n M_n."""
    require(exit_code == 0, f"exit {exit_code}")
    blocks = parse_latex_matrices(text)
    require(len(blocks) == 3, f"{len(blocks)} matrices, expected 3")
    F, K, minus_G = blocks
    G = tuple(tuple(p_scale(e, -1) for e in row) for row in minus_G)
    for n, M in enumerate(monic_gram_schmidt(op.spec, support_top(op.spec))):
        R = mp_apply(M, F, K, G)
        require(mp_degree(R) <= n, f"M_{n} . D raises the degree")
        require(mp_is_zero(mp_sub(R, mp_mul(mp_const(mp_coeff(R, n)), M))),
                f"M_{n} . D leaves the span of M_{n}")
    return 0


def fitted_order(name, ladder, errors):
    """Least-squares slope of -log(error) against log(scale)."""
    scale = [1 / (1 - v) if name == "meixner->laguerre" else v for v in ladder]
    xs = [math.log(float(s)) for s in scale]
    ys = [-math.log(e) for e in errors]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def check_ladder(spec, ladder, errors):
    require([Fraction(v) for v in ladder] == [Fraction(v) for v in spec["ladder"]],
            "the ladder differs from the spec")
    require(all(e > 0 for e in errors), "a ladder error is not positive")
    require(all(b < a for a, b in zip(errors, errors[1:])),
            f"ladder errors do not strictly decrease: {errors}")
    known = LADDER_ORDERS.get(spec["name"])
    if known is not None:
        order = fitted_order(spec["name"], [Fraction(v) for v in ladder], errors)
        require(abs(order - known) <= ORDER_BAND,
                f"fitted order {order:.3f} outside {known} +- {ORDER_BAND}")


def check_limits_json(op, exit_code, text, err, outputs):
    require(exit_code == 0, f"exit {exit_code}")
    rep = json.loads(text)
    require(rep["transition"] == op.spec["name"] and rep["monotone"] is True,
            "report names another transition or is not monotone")
    check_ladder(op.spec, [s["ladder"] for s in rep["steps"]],
                 [float(s["max_abs_error"]) for s in rep["steps"]])
    return 0


def check_limits_csv(op, exit_code, text, err, outputs):
    require(exit_code == 0, f"exit {exit_code}")
    rows = list(csv.DictReader(io.StringIO(text)))
    check_ladder(op.spec, [r["ladder"] for r in rows], [float(r["max_abs_error"]) for r in rows])
    return 0


CHECKS = {
    "verify": check_verify,
    "export-Q": check_export,
    "export-W": check_export,
    "export-D": check_export,
    "export-recurrence": check_export,
    "family-json": check_family_json,
    "family-latex": check_family_latex,
    "export-D-latex": check_export_d_latex,
    "limits-json": check_limits_json,
    "limits-csv": check_limits_csv,
}


def check_op(op, exit_code, text, err, outputs):
    """Check one operation's output; returns the number of verification
    checks it reports (0 for artifacts).  ``outputs`` maps the names of the
    round's earlier operations to their output text."""
    try:
        return CHECKS[op.check](op, exit_code, text, err, outputs)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed output: {type(exc).__name__}: {exc}") from exc

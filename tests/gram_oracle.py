"""The support-sum oracle for the exact Gram on a finite support.

On a finite support {0..N} the Gram is a finite sum that needs no trust in
the channel ladders:

    <P, Q>_ij = sum_x sum_r (P U)(x)_ir w_r(x) (Q U)(x)_jr.

``value_table`` turns a polynomial's integer table into P U at every
support point (U = I + A x adds one multiple of a column per coupling, with
the couplings over their common denominator), each entry's integer
coefficients evaluated by integer Horner (``integer_values``), ``weight_table`` puts the
channel weights over one denominator, and ``gram_sum`` sums any pair in
integers and divides each entry once, giving the exact ``Fraction`` Gram.
The program reads the same Gram in the channel basis, from each entry of
P U peeled onto its channel's ladder (``mvop.construction.channel_terms``)
and the ladders' norms (``mvop.construction.term_grams``); tests compare
the two, on chains of Q_n, bumped chains and dense polynomials whose P U
passes degree N + 1, where the peel reduces modulo p_(N+1).
"""
import math
from fractions import Fraction
from operator import mul

from mvop.construction import _integer_couplings
from mvop.errors import SpecError
from mvop.families import weight_sequence


def _support(spec):
    if not spec.is_finite:
        raise SpecError("the support sum needs a finite support")
    return range(spec.support_N + 1)


def weight_table(spec):
    """The channel weights at every support point over one denominator:
    (scale, [(scale w_1(x), ..., scale w_m(x)) for each x]), all integers."""
    weights = list(zip(*(weight_sequence(ch, _support(spec)[-1]) for ch in spec.channels)))
    scale = math.lcm(*(w.denominator for row in weights for w in row))
    return scale, [tuple(w.numerator * (scale // w.denominator) for w in row) for row in weights]


def integer_values(table, x):
    """L P(x) as an integer matrix, from P's integer table (coefficients of
    L P, lowest degree first), by integer Horner."""
    rows = []
    for row in table.coefficients:
        vals = []
        for cs in row:
            acc = 0
            for c in reversed(cs):
                acc = acc * x + c
            vals.append(acc)
        rows.append(tuple(vals))
    return tuple(rows)


def value_table(table, spec):
    """(P U)(x) at every support point from P's integer table, over one
    denominator: (scale, [integer rows at each x]).

    A holds a_k at pattern position (i, j), so P U adds a_k x times column i
    to column j; with the couplings over their common denominator q, q P U
    scales every column by q and adds (q a_k) x times column i to column j,
    reading the unscaled row.
    """
    q, couplings = _integer_couplings(spec)
    out = []
    for x in _support(spec):
        scaled = []
        for row in integer_values(table, x):
            new = [q * v for v in row]
            for i, j, c in couplings:
                new[j] += c * x * row[i]
            scaled.append(new)
        out.append(scaled)
    return table.scale * q, out


def gram_sum(p_table, q_table, weights):
    """<P, Q>_ij = sum_x sum_r (PU)(x)_ir w_r(x) (QU)(x)_jr from two value
    tables and the weight table, summed in integers and divided once per
    entry: a tuple-of-tuples of Fractions."""
    p_scale, p_values = p_table
    q_scale, q_values = q_table
    w_scale, w_values = weights
    total = [[0] * len(q_values[0]) for _ in p_values[0]]
    for px, qx, w in zip(p_values, q_values, w_values):
        for prow, out in zip(px, total):
            pw = tuple(map(mul, prow, w))
            for j, qrow in enumerate(qx):
                out[j] += sum(map(mul, pw, qrow))
    scale = p_scale * q_scale * w_scale
    return tuple(tuple(Fraction(v, scale) for v in row) for row in total)

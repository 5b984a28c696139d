"""The float truncated path: weight tables rounded once from exact entries,
one table per polynomial, and one Gram pass over x for every pair, equal by
``repr`` to summing each pair on its own."""
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mvop import construction, verification
from mvop.construction import FamilySpec, float_grams, float_weight_table, weight_matrix
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner

SPECS = {
    "charlier-charlier": FamilySpec(a=(F(-3, 2),), channels=(Charlier(F(1)), Charlier(F(5, 2)))),
    "meixner-meixner": FamilySpec(
        a=(F(2),), channels=(Meixner(F(1, 2), F(1, 3)), Meixner(F(3, 2), F(2, 3)))
    ),
    "charlier-meixner-charlier": FamilySpec(
        a=(F(1, 3), F(-5)),
        channels=(Charlier(F(2)), Meixner(F(1, 2), F(1, 2)), Charlier(F(1))),
    ),
    "krawtchouk-m4": FamilySpec(
        a=(F(2), F(-1, 3), F(5)),
        channels=tuple(Krawtchouk(p, 5) for p in (F(1, 3), F(2, 5), F(3, 4), F(1, 5))),
    ),
    "hahn": FamilySpec(a=(F(-1, 2),), channels=(Hahn(F(3, 2), F(5, 2), 6), Hahn(F(1, 2), F(3, 2), 6))),
}


def reference_table(spec, stop):
    """float() of every exact entry of W(x)."""
    return tuple(
        tuple(tuple(float(v) for v in row) for row in weight_matrix(spec, x))
        for x in range(stop + 1)
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_weight_table_is_exact_entries_rounded_once(name):
    spec = SPECS[name]
    stop = 40 if spec.support_N is None else spec.support_N
    got = float_weight_table(spec, stop)
    want = reference_table(spec, stop)
    # repr tells 0.0 from -0.0 and shows every bit of the rounding
    assert repr(got) == repr(want)


def float_gram(p_values, q_values, weights, x_max, tol):
    """The oracle: one truncated <P, Q> from its own pass over x, every term
    added left to right from 0.0 in (r, s) order, as ``float_grams`` must
    add it; (entries, tail)."""
    m = len(weights[0])
    total = [[0.0] * len(q_values[0]) for _ in p_values[0]]
    scale = [[0.0] * len(q_values[0]) for _ in p_values[0]]
    last = 0.0
    for w, px, qx in zip(weights, p_values, q_values):
        last = 0.0
        for prow, trow, srow in zip(px, total, scale):
            pw = [[prow[r] * w[r][s] for s in range(m)] for r in range(m)]
            for j, qrow in enumerate(qx):
                term = 0.0
                for pwr in pw:
                    for s, v in enumerate(pwr):
                        term += v * qrow[s]
                trow[j] += term
                srow[j] += abs(term)
                last = max(last, abs(term))
    scale_max = max(max(row) for row in scale)
    return tuple(tuple(row) for row in total), last / scale_max if scale_max > 0 else 0.0


def assert_grams_equal_oracle(values, weights, pairs):
    grams = float_grams(values, weights, pairs, 7, 1e-9)
    assert list(grams) == list(pairs)
    for n, k in pairs:
        entries, tail = float_gram(values[n], values[k], weights, 7, 1e-9)
        # repr tells 0.0 from -0.0 and shows every bit
        assert repr((grams[n, k].entries, grams[n, k].tail)) == repr((entries, tail))
        assert (grams[n, k].x_max, grams[n, k].tol) == (7, 1e-9)


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 1e-300]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def float_tables(draw):
    m = draw(st.integers(2, 4))
    points = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))

    def matrix():
        return tuple(tuple(draw(FLOATS) for _ in range(m)) for _ in range(m))

    weights = tuple(matrix() for _ in range(points))
    values = [tuple(matrix() for _ in range(points)) for _ in range(count)]
    pairs = draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
                          min_size=1, max_size=6, unique=True))
    return values, weights, pairs


@settings(max_examples=150, deadline=None)
@given(float_tables())
def test_one_pass_equals_pair_by_pair_oracle(case):
    assert_grams_equal_oracle(*case)


def test_terms_are_summed_without_compensation():
    # with P = Q = (1, 1) the terms of <P, P>_00 are W's entries in (r, s)
    # order, 1e16, 1.0, -1e16, 0.0: left to right they sum to 0.0, where the
    # compensated builtin sum of Python 3.12 and later gives 1.0
    weights = (((1e16, 1.0), (-1e16, 0.0)),)
    values = [(((1.0, 1.0), (0.0, 0.0)),)]
    assert float_grams(values, weights, [(0, 0)], 0, 1e-9)[0, 0].entries[0][0] == 0.0
    assert_grams_equal_oracle(values, weights, [(0, 0)])


def test_sweep_computes_each_self_gram_once(monkeypatch):
    calls = Counter()
    tables = []  # the polynomials given float value tables
    passes = []  # the pairs of each Gram pass

    def counting(name, real, record=None):
        def wrapper(*args, **kw):
            calls[name] += 1
            if record is not None:
                record.append(args[0] if name == "float_value_table" else list(args[2]))
            return real(*args, **kw)
        return wrapper

    for module, name, record in (
        (verification, "float_value_table", tables),
        (verification, "float_weight_table", None),
        (verification, "float_grams", passes),
        (construction, "weight_matrix", None),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name), record))
    spec = SPECS["charlier-charlier"]
    report = verification.run_verification(spec, n_max=3, x_max=100, truncated=True)
    assert report.all_passed
    # one table per Q_0..Q_3 and one weight table, no W(x) by weight_matrix,
    # and one pass over the 6 pairs among Q_0..Q_3 and the 4 self products,
    # each once
    polys = [construction.orthogonal_polynomial(spec, n, tau="numeric") for n in range(4)]
    assert tables == polys
    assert calls == Counter(float_value_table=4, float_weight_table=1, float_grams=1)
    (pairs,) = passes
    assert sorted(pairs) == sorted((n, k) for n in range(4) for k in range(n + 1))

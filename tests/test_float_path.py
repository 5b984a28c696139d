"""The float truncated path: weight tables rounded once from exact entries,
and one table per polynomial and one self inner product per polynomial in
the orthogonality sweep."""
from collections import Counter
from fractions import Fraction as F

import pytest

from mvop import construction, verification
from mvop.construction import FamilySpec, float_weight_table, weight_matrix
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


def reference_table(spec, stop, diagonal):
    """float() of every exact entry of W(x), or of diag(w_i(x))."""
    out = []
    for x in range(stop + 1):
        if diagonal:
            W = [[ch.weight(x) if i == j else F(0) for j in range(spec.m)]
                 for i, ch in enumerate(spec.channels)]
        else:
            W = weight_matrix(spec, x)
        out.append(tuple(tuple(float(v) for v in row) for row in W))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("diagonal", [False, True])
def test_weight_table_is_exact_entries_rounded_once(name, diagonal):
    spec = SPECS[name]
    stop = 40 if spec.support_N is None else spec.support_N
    got = float_weight_table(spec, stop, diagonal)
    want = reference_table(spec, stop, diagonal)
    # repr tells 0.0 from -0.0 and shows every bit of the rounding
    assert repr(got) == repr(want)


def test_sweep_computes_each_self_gram_once(monkeypatch):
    calls = Counter()
    tables = []  # the polynomials given float value tables

    def counting(name, real, record=None):
        def wrapper(*args, **kw):
            calls[name] += 1
            if record is not None:
                record.append(args[0])
            return real(*args, **kw)
        return wrapper

    for module, name, record in (
        (verification, "float_value_table", tables),
        (verification, "float_weight_table", None),
        (verification, "float_gram", None),
        (construction, "weight_matrix", None),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name), record))
    spec = SPECS["charlier-charlier"]
    report = verification.run_verification(spec, n_max=3, x_max=100)
    assert report.all_passed
    # one table per Q_0..Q_3 and one weight table, no W(x) by weight_matrix;
    # 6 pair sums among Q_0..Q_3 plus the 4 self sums
    polys = [construction.orthogonal_polynomial(spec, n, tau="numeric") for n in range(4)]
    assert tables == polys
    assert calls == Counter(float_value_table=4, float_weight_table=1, float_gram=10)

"""The verification sweep: one construction per probe and degree."""
from collections import Counter
from fractions import Fraction as F

from mvop import operators, verification
from mvop.construction import FamilySpec
from mvop.families import Krawtchouk


def test_each_polynomial_built_once(monkeypatch):
    built = Counter()
    real = verification.orthogonal_polynomial

    def counting(spec, n, tau=None):
        built[(spec.a, tau, n)] += 1
        return real(spec, n, tau=tau)

    for module in (operators, verification):
        monkeypatch.setattr(module, "orthogonal_polynomial", counting)
    spec = FamilySpec(
        a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=3), Krawtchouk(p=F(1, 4), N=3))
    )
    assert verification.run_verification(spec).all_passed
    # Q_0..Q_3 for each of the 5 coupling probes; Q_4 closes through
    # closure_polynomial
    assert len(built) == 5 * 4
    assert set(built.values()) == {1}

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
    # Q_0..Q_3 and the closure companion Q_4 for each of the 5 coupling probes
    assert len(built) == 5 * 5
    assert set(built.values()) == {1}


def test_one_weight_table_per_run(monkeypatch):
    # the channel weights do not depend on the couplings, so the five
    # a-probes share one table
    calls = []
    real = verification.weight_table

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(verification, "weight_table", counting)
    spec = FamilySpec(
        a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=3), Krawtchouk(p=F(1, 4), N=3))
    )
    assert verification.run_verification(spec).all_passed
    assert len(calls) == 1


def test_perturb_reaches_the_recurrence_suite():
    # the bump is a constant, so the three matched top coefficients still
    # close n = 0 and 1; from n = 2 on the residual's constant term is left
    spec = FamilySpec(
        a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=4), Krawtchouk(p=F(3, 4), N=4))
    )
    report = verification.run_verification(spec, a_probes=(F(1),), perturb=True)
    failed = {c.n for c in report.failures if c.name == "recurrence"}
    assert failed == {2, 3, 4}

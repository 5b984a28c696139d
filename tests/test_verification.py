"""The verification sweep: one construction per probe and degree, one
operator per run, and the arguments both entry points share."""
from collections import Counter
from fractions import Fraction as F

import pytest

from mvop import operators, verification
from mvop.construction import FamilySpec
from mvop.errors import SpecError
from mvop.families import Charlier, Krawtchouk, Meixner

KRAW = FamilySpec(a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=3), Krawtchouk(p=F(1, 4), N=3)))
# a mass quotient is transcendental here, so the tau probes are swept
CHARLIER_MEIXNER = FamilySpec(a=(F(2),), channels=(Charlier(F(1)), Meixner(F(1, 2), F(1, 2))))


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


def test_one_operator_per_run(monkeypatch):
    built = []
    real = verification.canonical_operator

    def counting(spec, force=False):
        built.append(spec.a)
        return real(spec, force=force)

    monkeypatch.setattr(verification, "canonical_operator", counting)
    assert verification.run_verification(KRAW).all_passed
    assert verification.verify_eigenfunction(KRAW, 3).all_passed
    # D(1), whose stencil gives every coupling probe's
    assert built == [(F(1),), (F(1),)]


# with an empty probe list or a negative n_max, both entry points used to
# return a passing report with no checks
@pytest.mark.parametrize("spec, kwargs, name", [
    (KRAW, dict(a_probes=[]), "a_probes"),
    (CHARLIER_MEIXNER, dict(tau_probes=[]), "tau_probes"),
    (KRAW, dict(n_max=-1), "n_max"),
])
@pytest.mark.parametrize("entry", ["run_verification", "verify_eigenfunction"])
def test_empty_grid_is_rejected(entry, spec, kwargs, name):
    kwargs = {"n_max": 2, **kwargs}
    with pytest.raises(SpecError, match=name):
        getattr(verification, entry)(spec, **kwargs)


def test_eigenfunction_rejects_zero_probe():
    with pytest.raises(SpecError, match="--probes"):
        verification.verify_eigenfunction(KRAW, 2, a_probes=[F(1), F(0)])


def test_eigenfunction_clamps_n_max_to_support():
    # like run_verification; Q_6 does not exist on N = 3
    report = verification.verify_eigenfunction(KRAW, 5)
    assert report == verification.verify_eigenfunction(KRAW, 3)
    assert report.all_passed
    assert {c.n for c in report.checks} == {0, 1, 2, 3}


# a repeated probe used to be swept, and counted, once per repeat
@pytest.mark.parametrize("spec, kwargs, name", [
    (KRAW, dict(a_probes=[1, 1]), "a_probes"),
    (KRAW, dict(a_probes=["1/2", F(1, 2)]), "a_probes"),
    (CHARLIER_MEIXNER, dict(tau_probes=[2, F(2)]), "tau_probes"),
    # read on every spec, like --tau-probes, though this one reads no tau
    (KRAW, dict(tau_probes=["3", 3]), "tau_probes"),
])
@pytest.mark.parametrize("entry", ["run_verification", "verify_eigenfunction"])
def test_repeated_probe_is_rejected(entry, spec, kwargs, name):
    with pytest.raises(SpecError, match=f"{name} .*must appear once") as err:
        getattr(verification, entry)(spec, n_max=1, **kwargs)
    assert "Fraction(" not in str(err.value)


# a float tau probe used to end in an AttributeError, and "numeric" has no
# exact value to probe
@pytest.mark.parametrize("spec, kwargs, name", [
    (CHARLIER_MEIXNER, dict(tau_probes=[0.5]), "tau_probes"),
    (CHARLIER_MEIXNER, dict(tau_probes=["numeric"]), "tau_probes"),
    (KRAW, dict(a_probes=[0.5]), "a_probes"),
])
@pytest.mark.parametrize("entry", ["run_verification", "verify_eigenfunction"])
def test_inexact_probe_is_rejected(entry, spec, kwargs, name):
    with pytest.raises(SpecError, match=name):
        getattr(verification, entry)(spec, n_max=1, **kwargs)


def test_probes_are_read_as_rationals():
    report = verification.run_verification(
        CHARLIER_MEIXNER, n_max=1, a_probes=["1/2", 2], tau_probes=("3/2",), x_max=100)
    assert (report.a_probes, report.tau_probes) == ((F(1, 2), F(2)), (F(3, 2),))
    assert report == verification.run_verification(
        CHARLIER_MEIXNER, n_max=1, a_probes=[F(1, 2), F(2)], tau_probes=[F(3, 2)], x_max=100)
    # a spec that reads no tau sweeps tau = None whatever the probes
    report = verification.verify_eigenfunction(KRAW, 1, a_probes=[1], tau_probes=[2, 3])
    assert report.tau_probes == (None,)
    assert {c.probe_tau for c in report.checks} == {None}

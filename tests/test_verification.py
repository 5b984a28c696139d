"""The verification sweep: one construction per probe and degree, one
operator per run, one ladder certificate per channel and one Gram basis per
tau, and the arguments both entry points share."""
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from mvop import construction, families, linalg, operators, verification
from mvop.construction import FamilySpec, inner_product, orthogonal_polynomial
from mvop.errors import ProbeError, SpecError
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner

from residual_oracle import brute_force_gram

KRAW = FamilySpec(a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=3), Krawtchouk(p=F(1, 4), N=3)))
# a mass quotient is transcendental here, so the tau probes are swept
CHARLIER_MEIXNER = FamilySpec(a=(F(2),), channels=(Charlier(F(1)), Meixner(F(1, 2), F(1, 2))))


def test_each_polynomial_built_once(monkeypatch):
    """Every table comes from the chain kernel, once per (coupling, tau,
    n), and carries no values."""
    built = Counter()
    real = verification.orthogonal_tables

    def counting(spec, degrees, tau=None):
        for n, table in zip(degrees, real(spec, degrees, tau)):
            built[(spec.a, tau, n)] += 1
            assert not hasattr(table, "values")
            yield table

    for module in (construction, operators, verification):
        monkeypatch.setattr(module, "orthogonal_tables", counting)
    spec = FamilySpec(
        a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=3), Krawtchouk(p=F(1, 4), N=3))
    )
    assert verification.run_verification(spec).all_passed
    # Q_0..Q_3 and the closure companion Q_4 for each of the 5 coupling probes
    assert len(built) == 5 * 5
    assert set(built.values()) == {1}


@pytest.fixture
def fresh_ladders():
    """Each channel's ladder, grown and certified anew in this test and
    after it, so that a count or a patched channel class reaches it."""
    caches = (families.ladder, families.certify_ladder, construction.chain_context)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("spec, taus", [(KRAW, 1), (CHARLIER_MEIXNER, 3)],
                         ids=["krawtchouk", "charlier/meixner"])
def test_one_certificate_per_channel_and_one_basis_per_tau(monkeypatch, fresh_ladders,
                                                          spec, taus):
    """Over the five coupling probes of one run: each channel's ladder is
    certified once, and the Gram basis and norms, which do not depend on the
    couplings, are built once per tau, one of each per channel."""
    bases, masses = [], []

    def counting(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(verification, "gram_basis", counting(bases, verification.gram_basis))
    monkeypatch.setattr(construction, "channel_masses",
                        counting(masses, construction.channel_masses))
    report = verification.run_verification(spec, n_max=2, x_max=100)
    assert report.all_passed
    assert len(report.a_probes) == 5 and len(report.tau_probes) == taus
    certified = families.certify_ladder.cache_info()
    assert (certified.misses, certified.currsize) == (spec.m, spec.m)
    assert [tau for _, _, tau in bases] == [tau for _, tau in masses] == list(report.tau_probes)
    for args in bases:
        basis = construction.gram_basis(*args)
        assert len(basis.norms) == spec.m * basis.width


def mutated_runs(spec, n_max=3):
    """run_verification and inner_product on ``spec``: the report, and the
    error inner_product raises on Q_1 and Q_0."""
    report = verification.run_verification(spec, n_max=n_max)
    Q0, Q1 = (orthogonal_polynomial(spec, n) for n in (0, 1))
    with pytest.raises(SpecError) as err:
        inner_product(Q1, Q0, spec)
    return report, str(err.value)


def test_certificate_catches_a_wrong_recurrence(monkeypatch, fresh_ladders):
    """b_2 off by 1/1000 on one Krawtchouk channel: Q_n follows the wrong
    ladder, so its channel Gram vanishes, but the support sum does not, and
    the certificate fails every orthogonality check."""
    wrong = Krawtchouk(p=F(1, 4), N=4)
    spec = FamilySpec(a=(F(2),), channels=(Krawtchouk(p=F(1, 3), N=4), wrong))
    real = Krawtchouk.recurrence_bc

    def bumped(self, n):
        b_n, c_n = real(self, n)
        return (b_n + F(1, 1000), c_n) if self is wrong and n == 2 else (b_n, c_n)

    monkeypatch.setattr(Krawtchouk, "recurrence_bc", bumped)
    report, error = mutated_runs(spec)
    checks = [c for c in report.checks if c.name == "orthogonality"]
    assert checks and not any(c.passed for c in checks)
    # b_2 first moves the moment of x^5, so sum_x w(x) p_j(x) stays 0 for
    # j <= N = 4 and p_5 no longer vanishes on the support
    identity = r"channel 2 ladder fails its certificate: p_5\(\d\) = -?\d+/\d+, not 0"
    assert all(re.fullmatch(rf"k = \d; {identity}", c.detail) for c in checks)
    assert re.fullmatch(identity, error)
    # the failure is real: a support sum <Q_n, Q_k> is not zero
    polys = [orthogonal_polynomial(spec, n) for n in range(5)]
    assert any(not linalg.is_zero_matrix(brute_force_gram(polys[n], polys[k], spec))
               for n in range(5) for k in range(n))


def test_certificate_catches_a_wrong_mass(monkeypatch, fresh_ladders):
    """A wrong total mass on one Hahn channel scales that channel's ladder
    norms, so the norm ratios Q_n reads are wrong: only the certificate's
    mass identity sees it, and every orthogonality check fails."""
    wrong = Hahn(alpha=F(1, 2), beta=F(3, 2), N=3)
    spec = FamilySpec(a=(F(1, 2),), channels=(Hahn(alpha=F(3, 2), beta=F(5, 2), N=3), wrong))
    real = Hahn.total_mass

    def doubled(self):
        mass = real(self)
        return mass.scaled(2) if self is wrong else mass

    monkeypatch.setattr(Hahn, "total_mass", doubled)
    report, error = mutated_runs(spec)
    checks = [c for c in report.checks if c.name == "orthogonality"]
    assert checks and not any(c.passed for c in checks)
    mass = real(wrong).rational_value()
    identity = (f"channel 2 ladder fails its certificate: sum_x w(x) = {mass}, "
                f"not the ladder's mass {2 * mass}")
    assert {c.detail.split("; ", 1)[1] for c in checks} == {identity}
    assert error == identity
    Q0, Q1 = (orthogonal_polynomial(spec, n) for n in (0, 1))
    assert not linalg.is_zero_matrix(brute_force_gram(Q1, Q0, spec))


def test_singular_lead_names_the_coupling():
    """At a = +-1 the lead of Q_1 is singular: a ProbeError naming the
    coupling probe under verify, a SpecError naming a for the spec's own
    couplings, and other probes match and close the recurrence."""
    spec = FamilySpec(a=(F(1),), channels=(Hahn(F(-7, 2), F(-11, 2), 3), Hahn(F(3, 2), F(3, 2), 3)))
    with pytest.raises(ProbeError, match=r"^coupling probe a = 1 \(--probes\) makes the "
                                         r"leading coefficient of Q_1 singular"):
        verification.run_verification(spec, n_max=2)
    with pytest.raises(SpecError, match=r"^coupling a = 1 makes the leading coefficient of Q_1"):
        operators.extract_recurrence(spec, 1)
    assert verification.run_verification(spec, n_max=2, a_probes=(2, 3, "1/2")).all_passed


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
    real = verification.canonical_parts

    def counting(spec, force=False):
        built.append(spec.a)
        return real(spec, force=force)

    monkeypatch.setattr(verification, "canonical_parts", counting)
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

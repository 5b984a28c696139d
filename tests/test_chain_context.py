"""The per-channel chain context against the per-chain kernel it replaced.

``construction.chain_context`` keeps, once per tuple of channels, what every
chain of Q_n reads that no coupling and no tau changes; each (a, tau) chain
then forms only its multipliers.  Chains of several specs that share their
channels but not their couplings are interleaved degree by degree on one
context, and every table must equal the one the old kernel
(``construction_oracle.orthogonal_tables``) builds alone.  ``channel_terms``
peels every printed coefficient back against the context, so it must agree
with a ``Fraction`` peel on any table, a bumped one included.  D's
integer parts, built by the conjugation's closed form, must equal those of
the matrix-product conjugation.  And a warm process must print what a cold
one prints, errors included.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings, strategies as st

from mvop import cli, construction
from mvop.construction import FamilySpec, channel_terms, orthogonal_tables
from mvop.families import Charlier, Hahn, Krawtchouk, Meixner
from mvop.operators import DifferenceOperator, _channel_operators, canonical_parts, integer_parts
from mvop.poly import MatrixPoly
from mvop.record import replace

import construction_oracle as oracle
import test_golden as golden

COUPLINGS = (F(1), F(2), F(-1), F(1, 2), F(-3, 2), F(5, 3), F(-2, 7), F(3), F(-4, 5))
KRAW_P = (F(1, 3), F(2, 5), F(1, 4), F(3, 4), F(1, 5))
# alpha + beta = 4 on odd channels and 2 on even ones, and a pair that
# breaks the Hahn gate, which only a forced operator reads
HAHN_AB = ((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)), (F(2), F(2)), (F(1), F(1, 3)))
# the alpha, beta < -N branch, -(alpha + beta) never an integer the recurrence
# divides by
HAHN_NEGATIVE = ((F(-11, 2), F(-13, 2)), (F(-9, 2), F(-16, 3)), (F(-16, 3), F(-7)))
CHANNELS = (Charlier(F(1)), Charlier(F(2)), Charlier(F(3, 2)),
            Meixner(F(1, 2), F(1, 2)), Meixner(F(1, 2), F(1, 3)), Meixner(F(1), F(1, 4)))
TAUS = (F(1), F(2), F(3, 2), F(-1, 2), F(-1, 3))


@st.composite
def channel_sets(draw):
    """(channels, top): m = 2..6 Krawtchouk, Hahn of either branch, or
    Charlier and Meixner channels; top is the last degree a chain may ask
    for, the closure companion N + 1 on a finite support."""
    m = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("krawtchouk", "hahn", "hahn negative", "charlier/meixner")))
    if kind == "charlier/meixner":
        return tuple(draw(st.sampled_from(CHANNELS)) for _ in range(m)), 4
    N = draw(st.integers(1, 3))
    if kind == "krawtchouk":
        channels = [Krawtchouk(draw(st.sampled_from(KRAW_P)), N) for _ in range(m)]
    else:
        pairs = HAHN_AB if kind == "hahn" else HAHN_NEGATIVE
        channels = [Hahn(*draw(st.sampled_from(pairs)), N) for _ in range(m)]
    return tuple(channels), N + 1


@st.composite
def interleaved(draw):
    """Two to four chains on one tuple of channels, each with its own
    couplings, tau and run of degrees."""
    channels, top = draw(channel_sets())
    m = len(channels)
    chains = []
    for _ in range(draw(st.integers(2, 4))):
        a = tuple(draw(st.lists(st.sampled_from(COUPLINGS), min_size=m - 1, max_size=m - 1,
                                unique=True)))
        low = draw(st.integers(0, top))
        degrees = range(low, draw(st.integers(low, top)) + 1)
        chains.append((FamilySpec(a=a, channels=channels), draw(st.sampled_from(TAUS)), degrees))
    return chains


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chains=interleaved(), cold=st.booleans())
def test_interleaved_chains_equal_the_per_chain_kernel(chains, cold):
    """Chains advanced in turn, one degree each, on one context (built by
    the first chain, or warm from earlier examples) give the tables the old
    kernel builds for each chain alone."""
    if cold:
        construction.chain_context.cache_clear()
    running = [(spec, tau, orthogonal_tables(spec, degrees, tau), iter(degrees))
               for spec, tau, degrees in chains]
    while running:
        for item in list(running):
            spec, tau, chain, degrees = item
            table = next(chain, None)
            if table is None:
                running.remove(item)
                continue
            n = next(degrees)
            assert table == next(oracle.orthogonal_tables(spec, (n,), tau))


def bumped(table, i, r, coefficient, by):
    """``table`` with ``by`` added to coefficient ``coefficient`` of entry
    (i, r), the entry extended with zeros as far as it needs."""
    rows = [list(row) for row in table.coefficients]
    cs = list(rows[i][r]) + [0] * (coefficient + 1 - len(rows[i][r]))
    cs[coefficient] += by
    while cs and not cs[-1]:
        cs.pop()
    rows[i][r] = tuple(cs)
    return replace(table, coefficients=tuple(map(tuple, rows)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chains=interleaved(), data=st.data())
def test_read_back_equals_the_fraction_read_back(chains, data):
    """``channel_terms`` keeps the terms a ``Fraction`` peel of Q U on the
    monic ladders finds, on the chain as built and with one coefficient of
    one entry bumped, the top coefficient and the one past it included, so
    that a closure companion's entry can pass degree N + 2, where both
    reduce modulo p_(N+1)."""
    spec, tau, degrees = chains[0]
    tables = list(orthogonal_tables(spec, degrees, tau))
    n = data.draw(st.integers(0, len(tables) - 1))
    i, r = (data.draw(st.integers(0, spec.m - 1)) for _ in range(2))
    top = len(tables[n].coefficients[i][r])
    k = data.draw(st.sampled_from(sorted({0, max(top - 1, 0), top})))
    by = data.draw(st.sampled_from((1, -1, tables[n].scale)))
    for chain in (tables, tables[:n] + [bumped(tables[n], i, r, k, by)] + tables[n + 1:]):
        assert list(channel_terms(spec, chain).chain) == oracle.channel_terms(spec, chain)


@st.composite
def operator_specs(draw):
    """Specs of every kind at m = 2..6, Hahn channels off the gate among
    them, for ``canonical_parts(spec, force=True)``."""
    channels, _ = draw(channel_sets())
    m = len(channels)
    a = draw(st.lists(st.sampled_from(COUPLINGS), min_size=m - 1, max_size=m - 1, unique=True))
    return FamilySpec(a=tuple(a), channels=channels)


@settings(max_examples=60, deadline=None)
@given(spec=operator_specs())
def test_operator_parts_equal_the_matrix_product_conjugation(spec):
    """D's integer parts, from the channel operators' coefficients by the
    closed form, equal ``integer_parts`` of the matrix-product conjugation
    (I+A) F + [A,F] x, A (F - G) + K + [A,K] x, (I-A) G + [A,G] x."""
    parts, eig = canonical_parts(spec, force=True)
    ops = _channel_operators(spec, True)
    F_hat, K_hat, G_hat = oracle.conjugated_operator(
        oracle.nilpotent_matrix(spec),
        *(MatrixPoly.diagonal(tuple(getattr(op, name) for op in ops)) for name in "fkg"))
    assert parts == integer_parts(DifferenceOperator(F=F_hat, K=K_hat, G=G_hat))
    assert eig.diagonal(3) == tuple(op.eigenvalue(3) for op in ops)


def digest(code, stdout, stderr, out):
    """``test_golden.run_case``'s digest of one run's bytes."""
    h = hashlib.sha256()
    for part in (str(code).encode(), stdout, stderr, out):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def run(spec, argv, tmp_path, cold):
    """The digest of ``argv`` on ``spec``: in a fresh interpreter when
    ``cold``, else through ``cli.main`` in this process."""
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "out"
    spec_path.write_text(json.dumps(spec))
    if out_path.exists():
        out_path.unlink()
    argv = [argv[0], "--spec", str(spec_path), *argv[1:], "--out", str(out_path)]
    if cold:
        env = {**os.environ,
               "PYTHONPATH": golden.SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        res = subprocess.run([sys.executable, "-m", "mvop.cli", *argv], capture_output=True,
                             env=env, cwd=tmp_path)
        code, stdout, stderr = res.returncode, res.stdout, res.stderr
    else:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
    return digest(code, stdout, stderr, out_path.read_bytes() if out_path.exists() else b"")


# the golden specs whose runs raise: a lead made singular by the coupling,
# by a tau probe, and a Hahn b_(N+1) that degenerates at n = N
WARM_RUNS = (
    (golden.HAHN_SINGULAR_LEAD, ("verify", "--n-max", "2")),
    (golden.CHARLIER_BC, ("verify", "--tau-probes", "-1/2")),
    (golden.HAHN_NEGATIVE, ("verify",)),
)


def test_a_warm_process_prints_the_cold_bytes(tmp_path):
    """On each spec, in one process: ``family --recurrence``, ``verify`` and
    ``export --what recurrence``, each printing the bytes and exit code of
    a fresh interpreter, and the golden digests where they cover the run."""
    with open(golden.DIGESTS) as fh:
        expected = json.load(fh)
    cases = {(json.dumps(spec), argv): name for name, (spec, argv) in golden.CASES.items()}
    covered = set()
    for spec, verify in WARM_RUNS:
        for argv in (("family", "--n", "3", "--recurrence"), verify,
                     ("export", "--what", "recurrence", "--n", "2"),
                     ("export", "--what", "recurrence", "--n", "3")):
            warm = run(spec, argv, tmp_path, cold=False)
            assert warm == run(spec, argv, tmp_path, cold=True), argv
            case = cases.get((json.dumps(spec), argv))
            if case is not None:
                assert warm == expected[case], case
                covered.add(case)
    assert covered == {"verify-hahn-singular-lead", "verify-charlier-tau-singular",
                       "export-recurrence-hahn-negative", "export-recurrence-hahn-negative-n2"}

"""Acceptance gate: one pass/fail line per criterion.

Each test prints ``[acceptance N] <label>: PASS|FAIL`` (pytest runs with
capture disabled, so the lines land in the terminal) and then asserts.
The criteria pin the headline guarantees: oracle equivalence of the
analytic CDF/SER against Monte-Carlo, dual-route SER identity, exact
degenerate values, closed-form spot checks, qualitative curve shape,
bitwise CLI determinism, and the numerics substrate.
"""

import functools
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from test_numerics import KNOWN_INTEGRALS
from test_ser import links_at

from twohop.diversity import CombiningScheme, HopConfig, effective_distribution
from twohop.fading import GammaSnr
from twohop.montecarlo import McRun, empirical_cdf, simulate_end_to_end, sweep_eq_samples
from twohop.numerics import gaussian_q, regularized_lower_gamma
from twohop.relay import Combiner, LinkScenario, end_to_end_cdf, end_to_end_cdf_grid
from twohop.scenario import load_scenario
from twohop.ser import PskModulation, ser_direct, ser_from_cdf, ser_sweep

HOP1_DB = 3.0
MODS = (PskModulation(2), PskModulation(8), PskModulation(16))


def criterion(number, label):
    """Print the gate line for one criterion, whatever the test outcome."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                print(f"\n[acceptance {number}] {label}: FAIL")
                raise
            print(f"\n[acceptance {number}] {label}: PASS")
            return result
        return run
    return wrap


@pytest.fixture(scope="module")
def reference(scenario_dir):
    """Reference-link analytic SER curves (hop-1 mean 3 dB, 0..20 dB sweep)."""
    started = time.perf_counter()
    scenario = load_scenario(scenario_dir / "mimo_n3.scenario")
    grid = scenario.sweep.values()
    mods = scenario.modulations
    curves = dict(zip((mod.label for mod in mods),
                      ser_sweep(links_at(scenario.link(), HOP1_DB, grid), mods, tol=1e-7)))
    return SimpleNamespace(scenario=scenario, grid=grid, curves=curves,
                           build_seconds=time.perf_counter() - started)


def _curve_values(curve):
    assert np.all(np.isfinite(curve)), "a sweep point did not converge"
    return curve


def _random_hop(rng, n_tx=None, n_rx=None):
    """Random hop config; the relay side's antenna count arrives pinned."""
    schemes = (CombiningScheme.MRC, CombiningScheme.STBC,
               CombiningScheme.STBC_MRC, CombiningScheme.TAS_MRC)
    while True:
        scheme = schemes[rng.integers(len(schemes))]
        tx = n_tx if n_tx is not None else int(rng.integers(1, 4))
        rx = n_rx if n_rx is not None else int(rng.integers(1, 4))
        if scheme is CombiningScheme.MRC and tx != 1:
            continue
        if scheme is CombiningScheme.STBC and rx != 1:
            continue
        m = (0.5, 1.0, 1.5, 2.0, 3.0)[rng.integers(5)]
        mean = 10.0 ** (rng.uniform(-2.0, 12.0) / 10.0)
        return HopConfig(tx, rx, m, mean, scheme)


def _random_link(rng) -> LinkScenario:
    relay = int(rng.integers(1, 5))
    combiner = Combiner.EXACT if rng.integers(2) else Combiner.HARMONIC
    return LinkScenario(_random_hop(rng, n_rx=relay),
                        _random_hop(rng, n_tx=relay), combiner)


@criterion(1, "end-to-end CDF matches the Monte-Carlo oracle")
def test_criterion_1_cdf_oracle(reference):
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    links = [reference.scenario.link_at(HOP1_DB, 10.0)]
    links += [_random_link(rng) for _ in range(4)]

    failures = []
    for index, link in enumerate(links):
        eq = simulate_end_to_end(link, McRun(981, 1_000_000, 4))
        grid = np.linspace(0.0, float(np.quantile(eq, 0.999)), 50)
        d1 = effective_distribution(link.hop1)
        d2 = effective_distribution(link.hop2)
        analytic = end_to_end_cdf_grid(d1, d2, grid, link.combiner)
        deviation = float(np.max(np.abs(analytic - empirical_cdf(eq, grid))))
        if deviation > 0.005:
            failures.append(f"link {index}: max CDF deviation {deviation:.4f}")
    elapsed = time.perf_counter() - started
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 60 s")
    assert not failures, "; ".join(failures)


@criterion(2, "CDF-kernel SER equals direct-expectation SER")
def test_criterion_2_ser_form_identity():
    rng = np.random.default_rng(77)
    failures = []
    for index in range(10):
        dist = GammaSnr(shape=float(rng.uniform(0.5, 8.0)),
                        mean=10.0 ** float(rng.uniform(-1.0, 1.7)))
        mod = MODS[index % len(MODS)]
        via_cdf, = ser_from_cdf([mod], lambda g, owner: dist.cdf(g), 1e-8)
        direct = ser_direct(mod, dist, 1e-8)
        if not abs(via_cdf - direct) <= 1e-6:  # NaN (not converged) fails too
            failures.append(
                f"{mod.label} shape={dist.shape:.3f} mean={dist.mean:.3f}: "
                f"|{via_cdf:.3e} - {direct:.3e}| > 1e-6")
    assert not failures, "; ".join(failures)


@criterion(3, "analytic SER within 2% of semi-analytic Monte-Carlo")
def test_criterion_3_ser_vs_mc(reference):
    started = time.perf_counter()
    grid = reference.grid.tolist()
    links = [reference.scenario.link_at(HOP1_DB, db) for db in grid]
    run = McRun(5150, 1_000_000, 4)
    failures = []
    mods = reference.scenario.modulations
    points = list(sweep_eq_samples(links, mods, run))
    assert len(points) == len(grid)
    for j, (db, estimates) in enumerate(zip(grid, points)):
        for mod, (estimate, _) in zip(mods, estimates):
            analytic = reference.curves[mod.label][j]
            if analytic < 1e-4:
                continue
            rel = abs(analytic - estimate) / analytic
            if rel > 0.02:
                failures.append(f"{mod.label} @ {db:g} dB: rel err {rel:.4f}")
    elapsed = reference.build_seconds + time.perf_counter() - started
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 300 s")
    assert not failures, "; ".join(failures)


@criterion(4, "degenerate CDFs reproduce exact kernel values")
def test_criterion_4_degenerate_values():
    failures = []
    certain = ser_from_cdf(
        MODS, lambda g, owner: np.ones_like(np.asarray(g, dtype=float)), 1e-9)
    steps = {gamma0: ser_from_cdf(
        MODS, lambda g, owner, g0=gamma0: (np.asarray(g, dtype=float) >= g0).astype(float),
        1e-9) for gamma0 in (0.5, 4.77476785304162)}
    for i, mod in enumerate(MODS):
        if not abs(certain[i] - mod.a / 2.0) <= 1e-9:  # NaN fails too
            failures.append(f"{mod.label}: F==1 gave {certain[i]!r}")
        for gamma0, values in steps.items():
            step = values[i]
            expected = mod.a * gaussian_q(np.sqrt(2.0 * mod.b * gamma0))
            if not abs(step - expected) <= 1e-8:
                failures.append(f"{mod.label} step at {gamma0}: "
                                f"{step!r} vs {expected!r}")
    assert not failures, "; ".join(failures)


@criterion(5, "single-hop Rayleigh BPSK closed form")
def test_criterion_5_rayleigh_closed_form():
    bpsk = PskModulation(2)
    failures = []
    for mean in (1.0, 10.0, 100.0):
        expected = 0.5 * (1.0 - np.sqrt(mean / (1.0 + mean)))
        got, = ser_from_cdf([bpsk], lambda g, owner: GammaSnr(shape=1.0, mean=mean).cdf(g),
                            1e-8)
        if not abs(got - expected) <= 1e-6:  # NaN (not converged) fails too
            failures.append(f"mean {mean:g}: {got!r} vs {expected!r}")
    assert not failures, "; ".join(failures)


@criterion(6, "curve shape: monotone, ordered, dominant, saturating")
def test_criterion_6_figure_shape(reference, scenario_dir):
    failures = []
    scenario = reference.scenario
    values = {label: _curve_values(curve)
              for label, curve in reference.curves.items()}

    # (a) strictly decreasing in the hop-2 mean
    for label, ser in values.items():
        if not np.all(np.diff(ser) < 0):
            failures.append(f"(a) {label} not strictly decreasing")

    # (b) lower-order constellations err less, at every sweep point
    if not (np.all(values["BPSK"] < values["PSK8"])
            and np.all(values["PSK8"] < values["PSK16"])):
        failures.append("(b) modulation ordering violated")

    # (c) one more antenna per node strictly lowers every point
    per_n = {3: values}
    for n, stem in ((2, "mimo_n2"), (4, "mimo_n4")):
        other = load_scenario(scenario_dir / f"{stem}.scenario")
        rows = ser_sweep(links_at(other.link(), HOP1_DB, reference.grid), other.modulations,
                         tol=1e-7)
        per_n[n] = {mod.label: _curve_values(row)
                    for mod, row in zip(other.modulations, rows)}
    for label in values:
        if not (np.all(per_n[4][label] < per_n[3][label])
                and np.all(per_n[3][label] < per_n[2][label])):
            failures.append(f"(c) antenna-count dominance violated for {label}")

    # (d) balanced arrays beat both lopsided placements (equal antenna budget)
    bpsk = PskModulation(2)
    miso_simo = load_scenario(scenario_dir / "miso_simo_n3.scenario").link()
    simo_miso = LinkScenario(
        HopConfig(1, 3, 1.0, 1.0, CombiningScheme.MRC),
        HopConfig(3, 1, 1.0, 1.0, CombiningScheme.STBC))
    for tag, link in (("MISO_SIMO", miso_simo), ("SIMO_MISO", simo_miso)):
        mixed = _curve_values(ser_sweep(links_at(link, HOP1_DB, reference.grid), [bpsk],
                                        1e-7)[0])
        if not np.all(values["BPSK"] < mixed):
            failures.append(f"(d) MIMO_MIMO does not dominate {tag}")

    # (e) by 30 dB the second hop is transparent: within 10% of hop-1-only SER
    link30 = scenario.link_at(HOP1_DB, 30.0)
    d1 = effective_distribution(link30.hop1)
    d2 = effective_distribution(link30.hop2)
    combined_all = ser_from_cdf(
        scenario.modulations,
        lambda g, owner: end_to_end_cdf(d1, d2, g, link30.combiner, 1e-9), 1e-7)
    for mod, combined in zip(scenario.modulations, combined_all):
        single = ser_direct(mod, d1, 1e-8)
        rel = abs(combined - single) / single
        if not rel <= 0.10:  # NaN (not converged) fails too
            failures.append(f"(e) {mod.label}: saturation gap {rel:.3f}")

    assert not failures, "; ".join(failures)


@criterion(7, "byte-identical CLI output across thread counts")
def test_criterion_7_cli_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    scen = base / "det.scenario"
    scen.write_text(
        "case = MIMO_MIMO\nn_s = 2\nn_r = 2\nn_d = 2\nhop1_snr_db = 3\n"
        "hop2_sweep_db = 0:20:5\nmodulations = BPSK, PSK8\n", encoding="utf-8")

    failures = []
    for command in ("ser-sweep", "validate"):
        outputs = []
        for tag, threads in (("a", "1"), ("b", "2"), ("c", "8"), ("d", "1")):
            out = base / f"{command}-{tag}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "twohop", command, "--scenario", str(scen),
                 "--seed", "7", "--samples", "100000", "--threads", threads,
                 "--out", str(out)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                failures.append(f"{command} --threads {threads}: "
                                f"exit {proc.returncode} ({proc.stderr.strip()})")
                continue
            outputs.append(out.read_bytes())
        if len(set(outputs)) != 1:
            failures.append(f"{command}: outputs differ across runs")
    assert not failures, "; ".join(failures)


@criterion(8, "numerics: known integrals, gamma derivative, Q symmetry")
def test_criterion_8_numerics_suite():
    failures = []
    for description, runner, exact in KNOWN_INTEGRALS:
        result = runner(1e-9)
        if not result.converged or abs(result.value - exact) > 1e-8:
            failures.append(f"integral {description}: {result.value!r}")

    # d/dx P(k, x) is the unit-scale Gamma density
    h = 1e-5
    for k in (0.7, 1.0, 2.5, 5.0):
        density = GammaSnr(shape=k, mean=k)
        for x in (0.3, 1.0, 2.7, 8.0):
            slope = (regularized_lower_gamma(k, x + h)
                     - regularized_lower_gamma(k, x - h)) / (2.0 * h)
            if abs(slope - density.pdf(x)) > 1e-6:
                failures.append(f"P({k},{x}) derivative off by "
                                f"{abs(slope - density.pdf(x)):.2e}")

    for x in np.linspace(-6.0, 6.0, 25):
        if abs(gaussian_q(-x) - (1.0 - gaussian_q(x))) > 1e-10:
            failures.append(f"Q symmetry broken at {x:g}")
    spots = [(0.0, 0.5),
             (1.0, 0.15865525393145707),
             (2.0, 0.022750131948179195),
             (3.0, 0.0013498980316300933)]
    for x, expected in spots:
        if abs(gaussian_q(x) - expected) > 1e-10:
            failures.append(f"Q({x:g}) = {gaussian_q(x)!r}")
    assert not failures, "; ".join(failures)

"""Seeded, chunked Monte-Carlo oracle: determinism and estimator checks."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twohop.diversity import CombiningScheme, HopConfig, effective_distribution
from twohop.montecarlo import (
    McRun,
    empirical_cdf,
    mc_ser,
    simulate_end_to_end,
    simulate_hop,
    sweep_eq_samples,
)
from twohop.relay import Combiner, LinkScenario, end_to_end_cdf_grid, equivalent_snr
from twohop.ser import PskModulation, conditional_sep

HOP = HopConfig(3, 2, 1.0, 2.0, CombiningScheme.TAS_MRC)
LINK = LinkScenario(HopConfig(2, 2, 1.0, 2.0, CombiningScheme.STBC_MRC),
                    HopConfig(2, 1, 1.0, 4.0, CombiningScheme.STBC))
BPSK = PskModulation.bpsk()
PSK8 = PskModulation.psk(8)
MODS = (BPSK, PSK8, PskModulation.psk(16))


def test_run_validation():
    with pytest.raises(ValueError):
        McRun(master_seed=-1, n_samples=10)
    with pytest.raises(ValueError):
        McRun(master_seed=0, n_samples=0)
    with pytest.raises(ValueError):
        McRun(master_seed=0, n_samples=10, worker_count=0)


def test_worker_count_never_changes_samples():
    # 150k samples span three chunks, so scheduling actually interleaves
    reference = simulate_hop(HOP, McRun(7, 150_000, 1))
    for workers in (2, 5, 8):
        assert np.array_equal(reference, simulate_hop(HOP, McRun(7, 150_000, workers)))


def test_same_seed_reproduces_and_seeds_differ():
    a = simulate_hop(HOP, McRun(42, 30_000))
    b = simulate_hop(HOP, McRun(42, 30_000))
    c = simulate_hop(HOP, McRun(43, 30_000))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_streams_are_independent():
    a = simulate_hop(HOP, McRun(42, 10_000), stream=1)
    b = simulate_hop(HOP, McRun(42, 10_000), stream=2)
    assert not np.array_equal(a, b)


def test_growing_a_run_keeps_its_prefix():
    # chunk-indexed substreams: extending n_samples must not disturb the
    # samples already drawn (70k and 80k share chunks 0 and 1)
    short = simulate_hop(HOP, McRun(9, 70_000))
    long = simulate_hop(HOP, McRun(9, 80_000, 4))
    assert np.array_equal(short, long[:70_000])


def test_end_to_end_determinism_and_agreement():
    run = McRun(2024, 200_000, 4)
    eq = simulate_end_to_end(LINK, run)
    assert np.array_equal(eq, simulate_end_to_end(LINK, McRun(2024, 200_000, 1)))
    d1 = effective_distribution(LINK.hop1)
    d2 = effective_distribution(LINK.hop2)
    grid = np.linspace(0.0, float(np.quantile(eq, 0.999)), 30)
    deviation = np.max(np.abs(end_to_end_cdf_grid(d1, d2, grid, LINK.combiner)
                              - empirical_cdf(eq, grid)))
    assert deviation < 0.012


def test_empirical_cdf_counts():
    values = empirical_cdf([1.0, 2.0, 3.0], [0.0, 1.0, 1.5, 3.0])
    assert np.allclose(values, [0.0, 1 / 3, 1 / 3, 1.0])
    with pytest.raises(ValueError):
        empirical_cdf([], [0.0])
    with pytest.raises(ValueError):
        empirical_cdf([1.0], [1.0, 0.5])


def test_mc_ser_matches_manual_mean():
    mod = PskModulation.bpsk()
    samples = np.array([0.0, 1.0, 4.0, 9.0])
    estimate, halfwidth = mc_ser(mod, samples)
    sep = conditional_sep(mod, samples)
    assert estimate == pytest.approx(float(sep.mean()))
    assert halfwidth == pytest.approx(1.96 * float(sep.std(ddof=1)) / 2.0)
    single, width = mc_ser(mod, np.array([2.0]))
    assert width == 0.0
    with pytest.raises(ValueError):
        mc_ser(mod, np.empty(0))


def test_sweep_samples_share_the_random_base():
    grid = np.array([0.0, 5.0, 10.0])
    run = McRun(17, 50_000, 2)
    pairs = list(sweep_eq_samples(LINK, [BPSK, PSK8], grid, 3.0, run))
    assert [db for db, _ in pairs] == list(grid)
    previous = None
    for _, estimates in pairs:
        assert len(estimates) == 2
        # the 8-PSK decision regions are smaller at every sample
        assert estimates[1][0] > estimates[0][0]
        if previous is not None:
            # raising the hop-2 mean raises every combined sample
            assert all(now[0] <= before[0] for now, before in zip(estimates, previous))
        previous = estimates


def test_sweep_samples_agree_with_independent_simulation():
    grid = np.array([6.0])
    run = McRun(5, 200_000, 2)
    (_, ((ser_a, hw_a),)), = sweep_eq_samples(LINK, [BPSK], grid, 3.0, run)
    direct_link = LinkScenario(
        replace(LINK.hop1, mean_branch_snr=10.0 ** 0.3),
        replace(LINK.hop2, mean_branch_snr=10.0 ** 0.6),
        LINK.combiner)
    eq_direct = simulate_end_to_end(direct_link, McRun(6, 200_000, 2))
    ser_b, hw_b = mc_ser(BPSK, eq_direct)
    assert abs(ser_a - ser_b) < 3.0 * math.hypot(hw_a, hw_b)


def test_streamed_sweep_is_bitwise_equal_for_any_worker_count():
    # 150k samples span three chunks, so the merge order is exercised
    grid = np.array([0.0, 7.0])
    reference = list(sweep_eq_samples(LINK, MODS, grid, 2.0, McRun(3, 150_000, 1)))
    for workers in (2, 5):
        assert list(sweep_eq_samples(LINK, MODS, grid, 2.0,
                                     McRun(3, 150_000, workers))) == reference


TAS_LINK = LinkScenario(HopConfig(2, 2, 1.5, 1.0, CombiningScheme.STBC_MRC),
                        HopConfig(2, 3, 0.5, 1.0, CombiningScheme.TAS_MRC))


@pytest.mark.parametrize("link", [
    LINK, replace(LINK, combiner=Combiner.HARMONIC), TAS_LINK,
    replace(TAS_LINK, combiner=Combiner.HARMONIC),
], ids=["exact", "harmonic", "tas-exact", "tas-harmonic"])
def test_streamed_sweep_matches_mc_ser_on_the_same_draws(link):
    """The streamed moments against mc_ser over the materialized samples."""
    grid = np.array([-2.0, 4.0, 11.5])
    run = McRun(11, 200_000, 2)      # four chunks, the last one partial
    g1 = simulate_hop(replace(link.hop1, mean_branch_snr=10.0 ** 0.25), run, stream=1)
    base2 = simulate_hop(replace(link.hop2, mean_branch_snr=1.0), run, stream=2)
    streamed = list(sweep_eq_samples(link, MODS, grid, 2.5, run))
    for (db, estimates), expected_db in zip(streamed, grid):
        assert db == expected_db
        eq = equivalent_snr(g1, base2 * 10.0 ** (expected_db / 10.0), link.combiner)
        for mod, (estimate, halfwidth) in zip(MODS, estimates):
            want, want_hw = mc_ser(mod, eq)
            assert estimate == pytest.approx(want, rel=1e-13, abs=0)
            assert halfwidth == pytest.approx(want_hw, rel=1e-13, abs=0)


def test_streamed_sweep_of_one_sample_has_no_halfwidth():
    (_, ((estimate, halfwidth),)), = sweep_eq_samples(LINK, [BPSK], [3.0], 1.0,
                                                      McRun(4, 1))
    assert 0.0 < estimate < 0.5 and halfwidth == 0.0


def test_streamed_sweep_memory_stays_below_one_sample_array():
    n = 1_000_000
    sweep = sweep_eq_samples(LINK, MODS, np.array([0.0, 10.0, 20.0]), 3.0,
                             McRun(8, n, 2))
    tracemalloc.start()
    try:
        results = list(sweep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 3
    assert peak < n * np.dtype(float).itemsize

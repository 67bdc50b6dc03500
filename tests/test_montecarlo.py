"""Seeded, chunked Monte-Carlo oracle: determinism and estimator checks."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from twohop import montecarlo
from twohop.diversity import CombiningScheme, HopConfig, effective_distribution
from twohop.montecarlo import (
    McRun,
    empirical_cdf,
    mc_ser,
    simulate_end_to_end,
    simulate_hop,
    simulate_link,
    sweep_eq_samples,
)
from twohop.relay import Combiner, LinkScenario, end_to_end_cdf_grid, equivalent_snr
from twohop.scenario import link_at
from twohop.ser import PskModulation, conditional_sep

HOP = HopConfig(3, 2, 1.0, 2.0, CombiningScheme.TAS_MRC)
# Shape 1/2 per candidate: drawn from normals, not rng.gamma
HALF_TAS = HopConfig(3, 1, 0.5, 2.0, CombiningScheme.TAS_MRC)
LINK = LinkScenario(HopConfig(2, 2, 1.0, 2.0, CombiningScheme.STBC_MRC),
                    HopConfig(2, 1, 1.0, 4.0, CombiningScheme.STBC))
BPSK = PskModulation(2)
PSK8 = PskModulation(8)
MODS = (BPSK, PSK8, PskModulation(16))


def test_run_validation():
    with pytest.raises(ValueError):
        McRun(master_seed=-1, n_samples=10)
    with pytest.raises(ValueError):
        McRun(master_seed=0, n_samples=0)
    with pytest.raises(ValueError):
        McRun(master_seed=0, n_samples=10, worker_count=0)


def test_worker_count_never_changes_samples():
    # 150k samples span three chunks, so scheduling actually interleaves
    for cfg in (HOP, HALF_TAS):
        reference = simulate_hop(cfg, McRun(7, 150_000, 1))
        for workers in (2, 5, 8):
            assert np.array_equal(reference, simulate_hop(cfg, McRun(7, 150_000, workers)))


def test_pool_never_outgrows_the_machine(monkeypatch):
    created = []

    class InlinePool:
        """Records its size and runs every job on the calling thread."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    n = 20 * montecarlo._CHUNK
    reference = simulate_hop(HOP, McRun(7, n, 1))
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    assert np.array_equal(simulate_hop(HOP, McRun(7, n, 10_000)), reference)
    assert created == [2]


def _per_branch(cfg: HopConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Reference sampler: every branch SNR drawn and combined explicitly."""
    branches = rng.gamma(cfg.m, cfg.mean_branch_snr / cfg.m,
                         size=(n, cfg.n_tx, cfg.n_rx))
    if cfg.scheme is CombiningScheme.MRC:
        return branches[:, 0, :].sum(axis=1)
    if cfg.scheme is CombiningScheme.STBC:
        return branches[:, :, 0].sum(axis=1) / cfg.n_tx
    if cfg.scheme is CombiningScheme.STBC_MRC:
        return branches.sum(axis=(1, 2)) / cfg.n_tx
    return branches.sum(axis=2).max(axis=1)  # TAS_MRC


KS_SAMPLES = 200_000
# P(D > d) <= exp(-n d^2) for two samples of n each, asymptotically: d at 1e-6
KS_CRITICAL = math.sqrt(-math.log(1e-6) / KS_SAMPLES)


@pytest.mark.parametrize("cfg", [
    HopConfig(1, 4, 0.5, 2.0, CombiningScheme.MRC),
    HopConfig(4, 1, 0.5, 2.0, CombiningScheme.STBC),
    HopConfig(3, 4, 1.5, 0.7, CombiningScheme.STBC_MRC),
    HopConfig(3, 2, 0.5, 3.0, CombiningScheme.TAS_MRC),
    HopConfig(4, 4, 2.0, 1.3, CombiningScheme.TAS_MRC),
    # Erlang shapes
    HopConfig(1, 2, 1.0, 2.5, CombiningScheme.MRC),
    HopConfig(3, 1, 1.0, 1.8, CombiningScheme.STBC),
    HopConfig(2, 2, 1.0, 0.6, CombiningScheme.STBC_MRC),
    HopConfig(3, 2, 1.0, 2.0, CombiningScheme.TAS_MRC),
    HopConfig(2, 2, 2.0, 3.5, CombiningScheme.TAS_MRC),
    # shape 1/2, from normals
    HopConfig(1, 1, 0.5, 2.0, CombiningScheme.MRC),
    HopConfig(1, 1, 0.5, 0.8, CombiningScheme.STBC),
    HopConfig(1, 1, 0.5, 1.6, CombiningScheme.STBC_MRC),
    HALF_TAS,
], ids=["mrc-1x4", "stbc-4x1", "stbc_mrc-3x4", "tas-3x2", "tas-4x4", "mrc-1x2-m1",
        "stbc-3x1-m1", "stbc_mrc-2x2-m1", "tas-3x2-m1", "tas-2x2-m2", "mrc-1x1-m0.5",
        "stbc-1x1-m0.5", "stbc_mrc-1x1-m0.5", "tas-3x1-m0.5"])
def test_hop_draws_match_a_per_branch_simulation(cfg):
    """A summed Gamma law per hop has the law of the branches it replaces."""
    drawn = simulate_hop(cfg, McRun(31, KS_SAMPLES))
    reference = _per_branch(cfg, np.random.default_rng(97), KS_SAMPLES)
    assert stats.ks_2samp(drawn, reference).statistic < KS_CRITICAL


@pytest.mark.parametrize("n_tx", [1, 2, 3, 4])
def test_tas_draws_are_row_maxima_of_the_same_generator_output(n_tx):
    cfg = HopConfig(n_tx, 2, 0.5, 3.0, CombiningScheme.TAS_MRC)
    drawn = montecarlo._hop_chunk(cfg, np.random.default_rng(5), 10_000)
    rows = np.random.default_rng(5).gamma(cfg.m * cfg.n_rx, cfg.mean_branch_snr / cfg.m,
                                          (10_000, n_tx))
    assert np.array_equal(drawn, rows.max(axis=1))


@pytest.mark.parametrize("cfg, shape, split", [
    (HopConfig(1, 3, 1.5, 2.0, CombiningScheme.MRC), 4.5, 1),
    (HopConfig(2, 1, 0.5, 3.0, CombiningScheme.STBC), 1.0, 2),
    (HopConfig(3, 3, 1.0, 0.7, CombiningScheme.STBC_MRC), 9.0, 3),
], ids=["mrc-1x3-m1.5", "stbc-2x1-m0.5", "stbc_mrc-3x3-m1"])
def test_other_shapes_draw_rng_gamma_bit_for_bit(cfg, shape, split):
    drawn = montecarlo._hop_chunk(cfg, np.random.default_rng(5), 10_000)
    want = np.random.default_rng(5).gamma(shape, cfg.mean_branch_snr / cfg.m, 10_000) / split
    assert np.array_equal(drawn, want)


@pytest.mark.parametrize("cfg", [
    HopConfig(1, 1, 0.5, 2.0, CombiningScheme.MRC),
    HopConfig(1, 1, 0.5, 3.0, CombiningScheme.STBC_MRC),
    HopConfig(2, 1, 0.5, 3.0, CombiningScheme.TAS_MRC),
    HALF_TAS,
    HopConfig(5, 1, 0.5, 0.4, CombiningScheme.TAS_MRC),
], ids=["mrc-1x1", "stbc_mrc-1x1", "tas-2x1", "tas-3x1", "tas-5x1"])
@pytest.mark.parametrize("n", [1, 3, 10_000, montecarlo._CHUNK])
def test_shape_half_draws_are_theta_z_squared_over_two(cfg, n):
    """theta Z^2 / 2 of the same generator's normals, the largest |Z| of a row under TAS."""
    drawn = montecarlo._hop_chunk(cfg, np.random.default_rng(5), n)
    width = cfg.n_tx if cfg.scheme is CombiningScheme.TAS_MRC else 1
    z = np.random.default_rng(5).standard_normal((n, width))
    theta = cfg.mean_branch_snr / cfg.m
    assert np.array_equal(drawn, np.square(np.abs(z).max(axis=1)) * (theta / 2))


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
    for cfg in (HOP, HALF_TAS):
        short = simulate_hop(cfg, McRun(9, 70_000))
        long = simulate_hop(cfg, McRun(9, 80_000, 4))
        assert np.array_equal(short, long[:70_000])


def test_growing_an_erlang_run_keeps_its_prefix():
    cfg = HopConfig(1, 3, 1.0, 2.0, CombiningScheme.MRC)
    short = simulate_hop(cfg, McRun(9, 70_000))
    long = simulate_hop(cfg, McRun(9, 80_000, 4))
    assert np.array_equal(short, long[:70_000])


def _assert_tas_draw_peaks_no_higher_than_rng_gamma(cfg: HopConfig, n: int):
    def peak(draw):
        tracemalloc.start()
        try:
            draw(np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    gamma = peak(lambda rng: rng.gamma(cfg.m * cfg.n_rx, 1.0 / cfg.m, (n, cfg.n_tx)))
    assert peak(lambda rng: montecarlo._hop_chunk(cfg, rng, n)) <= gamma


@pytest.mark.parametrize("cfg", [HopConfig(2, 2, 2.0, 1.0, CombiningScheme.TAS_MRC),
                                 HopConfig(4, 2, 1.0, 1.0, CombiningScheme.TAS_MRC)],
                         ids=["2x2-m2", "4x2-m1"])
@pytest.mark.parametrize("n", [montecarlo._CHUNK, 10_000])
def test_erlang_tas_draw_peaks_no_higher_than_rng_gamma(cfg, n):
    _assert_tas_draw_peaks_no_higher_than_rng_gamma(cfg, n)


@pytest.mark.parametrize("cfg", [HopConfig(2, 1, 0.5, 1.0, CombiningScheme.TAS_MRC), HALF_TAS,
                                 HopConfig(3, 2, 0.75, 1.0, CombiningScheme.TAS_MRC)],
                         ids=["2x1-m0.5", "3x1-m0.5", "3x2-m0.75"])
@pytest.mark.parametrize("n", [montecarlo._CHUNK, 10_000])
def test_normal_and_standard_gamma_tas_draws_peak_no_higher_than_rng_gamma(cfg, n):
    _assert_tas_draw_peaks_no_higher_than_rng_gamma(cfg, n)


def test_moments_equal_the_plain_expression_bit_for_bit():
    values = np.random.default_rng(6).random(5000)
    values[::4] = 0.0
    n, mean, m2 = montecarlo._moments(values)
    d = values - float(values.mean())
    assert (n, mean, m2) == (5000, float(values.mean()), float((d * d).sum()))


def test_end_to_end_determinism_and_agreement():
    run = McRun(2024, 200_000, 4)
    eq = simulate_end_to_end(LINK, run)
    assert np.array_equal(eq, simulate_end_to_end(LINK, McRun(2024, 200_000, 1)))
    # A link simulation is its two hop draws on the link streams, combined.
    for workers in (1, 4):
        each = McRun(2024, 200_000, workers)
        g1, g2 = simulate_link(LINK, each)
        assert np.array_equal(g1, simulate_hop(LINK.hop1, each,
                                               stream=montecarlo._LINK_STREAM_HOP1))
        assert np.array_equal(g2, simulate_hop(LINK.hop2, each,
                                               stream=montecarlo._LINK_STREAM_HOP2))
        assert np.array_equal(eq, equivalent_snr(g1, g2, LINK.combiner))
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
    mod = PskModulation(2)
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
    items = list(sweep_eq_samples([link_at(LINK, 3.0, db) for db in grid],
                                  [BPSK, PSK8], run))
    assert len(items) == grid.size
    previous = None
    for estimates in items:
        assert len(estimates) == 2
        # the 8-PSK decision regions are smaller at every sample
        assert estimates[1][0] > estimates[0][0]
        if previous is not None:
            # raising the hop-2 mean raises every combined sample
            assert all(now[0] <= before[0] for now, before in zip(estimates, previous))
        previous = estimates


def test_sweep_samples_agree_with_independent_simulation():
    run = McRun(5, 200_000, 2)
    ((ser_a, hw_a),), = sweep_eq_samples([link_at(LINK, 3.0, 6.0)], [BPSK], run)
    direct_link = LinkScenario(
        replace(LINK.hop1, mean_branch_snr=10.0 ** 0.3),
        replace(LINK.hop2, mean_branch_snr=10.0 ** 0.6),
        LINK.combiner)
    eq_direct = simulate_end_to_end(direct_link, McRun(6, 200_000, 2))
    ser_b, hw_b = mc_ser(BPSK, eq_direct)
    assert abs(ser_a - ser_b) < 3.0 * math.hypot(hw_a, hw_b)


def test_one_pass_over_several_hop1_means_equals_one_pass_each():
    grid = [1.0, 8.0]
    run = McRun(13, 150_000, 2)
    together = list(sweep_eq_samples([link_at(LINK, db1, db) for db1 in (0.5, 4.0)
                                      for db in grid], MODS, run))
    apart = [item for db1 in (0.5, 4.0)
             for item in sweep_eq_samples([link_at(LINK, db1, db) for db in grid], MODS, run)]
    assert len(together) == 4
    assert together == apart


def test_streamed_sweep_is_bitwise_equal_for_any_worker_count():
    # 150k samples span three chunks, so the merge order is exercised
    links = [link_at(LINK, 2.0, db) for db in (0.0, 7.0)]
    reference = list(sweep_eq_samples(links, MODS, McRun(3, 150_000, 1)))
    for workers in (2, 5):
        assert list(sweep_eq_samples(links, MODS, McRun(3, 150_000, workers))) == reference


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
    streamed = list(sweep_eq_samples([link_at(link, 2.5, db) for db in grid], MODS, run))
    assert len(streamed) == grid.size
    for estimates, db in zip(streamed, grid):
        eq = equivalent_snr(g1, base2 * 10.0 ** (db / 10.0), link.combiner)
        for mod, (estimate, halfwidth) in zip(MODS, estimates):
            want, want_hw = mc_ser(mod, eq)
            assert estimate == pytest.approx(want, rel=1e-13, abs=0)
            assert halfwidth == pytest.approx(want_hw, rel=1e-13, abs=0)


@pytest.mark.parametrize("links", [
    [],
    [LINK, replace(LINK, hop1=replace(LINK.hop1, scheme=CombiningScheme.TAS_MRC))],
    [LINK, replace(LINK, hop1=replace(LINK.hop1, n_tx=3))],
    [LINK, replace(LINK, hop2=replace(LINK.hop2, m=2.0))],
    [LINK, replace(LINK, combiner=Combiner.HARMONIC)],
], ids=["empty", "scheme", "antennas", "m", "combiner"])
def test_streamed_sweep_rejects_links_that_differ_beyond_their_means(links):
    with pytest.raises(ValueError):
        list(sweep_eq_samples(links, [BPSK], McRun(1, 10)))


def test_each_link_of_a_streamed_sweep_equals_a_pass_of_its_own():
    """Links out of grid order, with repeated hop-1 means, match one-link passes bit for bit."""
    links = [link_at(TAS_LINK, db1, db2) for db1, db2 in
             [(4.0, 9.0), (0.5, 2.0), (4.0, -3.0), (0.5, 2.0), (4.0, 12.0), (1.5, 9.0)]]
    run = McRun(21, 100_000, 2)      # two chunks
    together = list(sweep_eq_samples(links, MODS, run))
    assert len(together) == len(links)
    for link, item in zip(links, together):
        alone, = sweep_eq_samples([link], MODS, run)
        assert item == alone


def test_streamed_sweep_of_one_sample_has_no_halfwidth():
    ((estimate, halfwidth),), = sweep_eq_samples([link_at(LINK, 1.0, 3.0)], [BPSK],
                                                 McRun(4, 1))
    assert 0.0 < estimate < 0.5 and halfwidth == 0.0


def test_streamed_sweep_memory_stays_below_one_sample_array():
    n = 1_000_000
    sweep = sweep_eq_samples([link_at(LINK, 3.0, db) for db in (0.0, 10.0, 20.0)], MODS,
                             McRun(8, n, 2))
    tracemalloc.start()
    try:
        results = list(sweep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 3
    assert peak < n * np.dtype(float).itemsize

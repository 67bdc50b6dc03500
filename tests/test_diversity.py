"""Per-hop combining schemes and their effective SNR laws."""

import math

import numpy as np
import pytest

from twohop.diversity import (
    CombiningScheme,
    HopConfig,
    effective_distribution,
    mimo_effective,
    mrc_effective,
    stbc_effective,
    tas_effective,
)
from twohop.fading import GammaSnr, MaxGammaSnr
from twohop.montecarlo import McRun, empirical_cdf, simulate_hop


def test_mrc_law():
    cfg = HopConfig(1, 4, 2.0, 3.0, CombiningScheme.MRC)
    d = mrc_effective(cfg)
    assert d == GammaSnr(shape=8.0, mean=12.0)


def test_stbc_law_keeps_branch_mean():
    cfg = HopConfig(3, 1, 1.5, 2.0, CombiningScheme.STBC)
    d = stbc_effective(cfg)
    assert d == GammaSnr(shape=4.5, mean=2.0)


def test_stbc_mrc_law():
    cfg = HopConfig(2, 3, 1.0, 2.0, CombiningScheme.STBC_MRC)
    d = mimo_effective(cfg)
    assert d == GammaSnr(shape=6.0, mean=6.0)


def test_tas_law():
    cfg = HopConfig(3, 2, 1.0, 2.0, CombiningScheme.TAS_MRC)
    d = tas_effective(cfg)
    assert d == MaxGammaSnr(base=GammaSnr(shape=2.0, mean=4.0), candidates=3)


def test_tas_single_transmitter_degenerates_to_mrc():
    cfg = HopConfig(1, 2, 1.0, 2.0, CombiningScheme.TAS_MRC)
    assert tas_effective(cfg) == GammaSnr(shape=2.0, mean=4.0)


def test_dispatch_matches_builders():
    configs = [
        HopConfig(1, 2, 1.0, 1.0, CombiningScheme.MRC),
        HopConfig(2, 1, 1.0, 1.0, CombiningScheme.STBC),
        HopConfig(2, 2, 1.0, 1.0, CombiningScheme.STBC_MRC),
        HopConfig(2, 2, 1.0, 1.0, CombiningScheme.TAS_MRC),
    ]
    builders = [mrc_effective, stbc_effective, mimo_effective, tas_effective]
    for cfg, build in zip(configs, builders):
        assert effective_distribution(cfg) == build(cfg)


def test_builders_guard_their_scheme():
    cfg = HopConfig(2, 1, 1.0, 1.0, CombiningScheme.STBC)
    with pytest.raises(ValueError):
        mrc_effective(cfg)
    with pytest.raises(ValueError):
        mimo_effective(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        HopConfig(0, 1, 1.0, 1.0, CombiningScheme.MRC)
    with pytest.raises(ValueError):
        HopConfig(1, -2, 1.0, 1.0, CombiningScheme.MRC)
    with pytest.raises(ValueError):
        HopConfig(1, 1, 0.25, 1.0, CombiningScheme.MRC)  # m below 0.5
    with pytest.raises(ValueError):
        HopConfig(1, 1, 1.0, 0.0, CombiningScheme.MRC)
    for m, mean in ((math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            HopConfig(1, 1, m, mean, CombiningScheme.MRC)  # not finite
    with pytest.raises(ValueError):
        HopConfig(2, 1, 1.0, 1.0, CombiningScheme.MRC)  # MRC is receive-side
    with pytest.raises(ValueError):
        HopConfig(2, 2, 1.0, 1.0, CombiningScheme.STBC)  # STBC hop ends at 1 rx


# --- oracle agreement -------------------------------------------------------

BRANCH_LEVEL_CONFIGS = [
    HopConfig(1, 3, 1.0, 2.0, CombiningScheme.MRC),
    HopConfig(4, 1, 2.0, 1.5, CombiningScheme.STBC),
    HopConfig(2, 2, 0.5, 4.0, CombiningScheme.STBC_MRC),
    HopConfig(3, 2, 1.5, 0.8, CombiningScheme.TAS_MRC),
]


@pytest.mark.parametrize("cfg", BRANCH_LEVEL_CONFIGS,
                         ids=lambda c: c.scheme.value)
def test_law_matches_branch_level_simulation(cfg):
    samples = simulate_hop(cfg, McRun(master_seed=101, n_samples=100_000))
    law = effective_distribution(cfg)
    grid = np.linspace(0.0, float(np.quantile(samples, 0.999)), 40)
    deviation = np.max(np.abs(np.asarray(law.cdf(grid))
                              - empirical_cdf(samples, grid)))
    assert deviation <= 0.01


def test_simulation_preserves_means():
    run = McRun(master_seed=55, n_samples=200_000)
    stbc = simulate_hop(HopConfig(3, 1, 1.0, 2.0, CombiningScheme.STBC), run)
    assert abs(stbc.mean() - 2.0) < 4.0 * stbc.std() / np.sqrt(stbc.size)
    mrc = simulate_hop(HopConfig(1, 4, 1.0, 2.0, CombiningScheme.MRC), run)
    assert abs(mrc.mean() - 8.0) < 4.0 * mrc.std() / np.sqrt(mrc.size)


def test_more_receive_antennas_never_raise_the_cdf():
    grid = np.linspace(0.0, 25.0, 60)
    previous = None
    for n_rx in (1, 2, 3, 4):
        cfg = HopConfig(1, n_rx, 1.5, 2.0, CombiningScheme.MRC)
        cdf = np.asarray(effective_distribution(cfg).cdf(grid))
        if previous is not None:
            assert np.all(cdf <= previous + 1e-15)
        previous = cdf

"""End-to-end equivalent SNR: pointwise combiner and CDF quadrature."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twohop.diversity import CombiningScheme, HopConfig, effective_distribution
from twohop.fading import UNIT_ROUNDOFF, GammaSnr, LawTable
from twohop.numerics import integrate_batch
from twohop.relay import (
    Combiner,
    LinkScenario,
    LinkTable,
    end_to_end_cdf,
    end_to_end_cdf_grid,
    equivalent_snr,
)
from twohop.ser import PskModulation, ser_sweep

RAYLEIGH_10 = GammaSnr(shape=1.0, mean=10.0)

# Spot values for two Rayleigh hops of mean 10, exact combiner, computed
# independently from the Bessel-function closed form
# F(g) = 1 - 2 e^{-2g/10} sqrt(z(z+1)) K_1(2 sqrt(z(z+1))) / 10, z = g/10,
# evaluated with mpmath at 50 digits.
DUAL_RAYLEIGH_POINTS = [
    (0.5, 0.12747782004523256),
    (1.0, 0.24366260519710226),
    (2.0, 0.4417006836423577),
    (5.0, 0.7930421154148197),
]


def test_exact_combiner_values():
    assert equivalent_snr(3.0, 2.0) == 1.0  # 6 / (3 + 2 + 1)
    assert equivalent_snr(0.0, 5.0) == 0.0


def test_harmonic_combiner_values():
    assert equivalent_snr(4.0, 4.0, Combiner.HARMONIC) == 2.0
    assert equivalent_snr(0.0, 0.0, Combiner.HARMONIC) == 0.0


def test_combiner_bounds_and_symmetry():
    rng = np.random.default_rng(3)
    g1 = rng.gamma(2.0, 3.0, 500)
    g2 = rng.gamma(1.0, 5.0, 500)
    for combiner in Combiner:
        eq = equivalent_snr(g1, g2, combiner)
        assert np.all(eq <= np.minimum(g1, g2) + 1e-12)
        assert np.allclose(eq, equivalent_snr(g2, g1, combiner))
    # the exact combiner never exceeds the harmonic one
    assert np.all(equivalent_snr(g1, g2) <= equivalent_snr(g1, g2, Combiner.HARMONIC))


def test_combiner_rejects_negative_input():
    with pytest.raises(ValueError):
        equivalent_snr(-1.0, 2.0)
    with pytest.raises(ValueError):
        equivalent_snr(np.array([0.5, -0.1]), 1.0)


@pytest.mark.parametrize("combiner", list(Combiner))
@pytest.mark.parametrize("g1, g2", [
    (np.inf, 5.0), (5.0, np.array([1.0, np.inf])), (np.nan, 1.0), (1.0, np.array([0.0, np.nan])),
], ids=["inf", "inf-array", "nan", "nan-array"])
def test_combiner_rejects_nan_and_infinite_input(g1, g2, combiner):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonnegative and finite"):
            equivalent_snr(g1, g2, combiner)


@pytest.mark.parametrize("combiner", list(Combiner))
def test_combiner_keeps_empty_and_broadcast_shapes(combiner):
    assert equivalent_snr(np.empty(0), np.empty(0), combiner).shape == (0,)
    assert equivalent_snr(np.empty(0), 3.0, combiner).shape == (0,)
    assert equivalent_snr(np.ones((2, 1)), np.ones(3), combiner).shape == (2, 3)
    assert isinstance(equivalent_snr(np.float64(2.0), 3.0, combiner), float)


def test_combiner_equals_its_plain_expression_bit_for_bit():
    """The in-place combiner against the expression it replaces."""
    rng = np.random.default_rng(8)
    g1 = rng.gamma(1.5, 4.0, 5000)
    g2 = rng.gamma(2.0, 3.0, 5000)
    g1[::7] = 0.0
    g2[::5] = 0.0               # every 35th pair is 0/0 under HARMONIC
    den = g1 + g2
    harmonic = np.divide(g1 * g2, den, out=np.zeros_like(den), where=den > 0)
    assert np.array_equal(equivalent_snr(g1, g2), g1 * g2 / (g1 + g2 + 1.0))
    assert np.array_equal(equivalent_snr(g1, g2, Combiner.HARMONIC), harmonic)
    assert np.array_equal(equivalent_snr(g1, 7.5), g1 * 7.5 / (g1 + 7.5 + 1.0))


def test_dual_rayleigh_closed_form_spot_values():
    for g, want in DUAL_RAYLEIGH_POINTS:
        got = end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, g)
        assert abs(got - want) < 1e-8, (g, got, want)


def _hasna_alouini(g: float, mean1: float, mean2: float) -> float:
    """Single-antenna Rayleigh, exact combiner (Hasna & Alouini 2003), at 60 digits.

    F = 1 - z e^(-g (1/mean1 + 1/mean2)) K1(z), z = 2 sqrt(g (g + 1) / (mean1 mean2)).
    In doubles the subtraction from 1 loses F's leading digits deep in the tail.
    """
    with mpmath.workdps(60):
        g = mpmath.mpf(g)
        z = 2 * mpmath.sqrt(g * (g + 1) / (mpmath.mpf(mean1) * mean2))
        return float(1 - z * mpmath.exp(-g * (1 / mpmath.mpf(mean1) + 1 / mpmath.mpf(mean2)))
                     * mpmath.besselk(1, z))


@pytest.mark.parametrize("db2", [0.0, 20.0, 50.0])
@pytest.mark.parametrize("db1", [0.0, 20.0, 50.0])
def test_single_antenna_rayleigh_matches_the_closed_form(db1, db2):
    # From 1e-6, where F is down to 2e-11 at 50/50 dB, up to each hop mean.
    mean1, mean2 = 10.0 ** (db1 / 10.0), 10.0 ** (db2 / 10.0)
    gamma = np.unique([1e-6, 2e-6, 1e-4, 1e-2, 1.0, mean1 / 10.0, mean1,
                       mean2 / 10.0, mean2])
    got = end_to_end_cdf(GammaSnr(1.0, mean1), GammaSnr(1.0, mean2), gamma)
    want = np.array([_hasna_alouini(g, mean1, mean2) for g in gamma])
    assert np.all(np.abs(got - want) <= 1e-8 * want), (gamma, got / want - 1.0)


def test_floor_bounds_the_absolute_error_and_is_checked():
    # Below the floor the error bound is tol * floor, not tol * F; above
    # it the bound stays relative.
    hop = GammaSnr(1.0, 1e5)
    gamma = np.array([1e-6, 1e4])
    exact = np.array([_hasna_alouini(g, 1e5, 1e5) for g in gamma])
    one_link = np.zeros(gamma.size, np.intp)
    floored = LinkTable([hop], [hop], Combiner.EXACT, 1e-3).cdf(gamma, one_link, 1e-6)
    assert abs(floored[0] - exact[0]) <= 1e-6 * 1e-3
    assert abs(floored[1] - exact[1]) <= 1e-6 * exact[1]
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="floor"):
            LinkTable([hop], [hop], Combiner.EXACT, bad)
    with pytest.raises(ValueError):
        LinkTable([hop], [hop], Combiner.EXACT, [1e-3, 1e-3])
    # one floor per link
    per_link = LinkTable([hop, hop], [hop, hop], Combiner.EXACT, [1e-300, 1e-3]).cdf(
        gamma, np.array([0, 1]), 1e-6)
    assert per_link[1] == floored[1]
    assert per_link[0] == end_to_end_cdf(hop, hop, gamma[0], tol=1e-6)


def test_cdf_at_zero_and_domain_checks():
    assert end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, 0.0) == 0.0
    with pytest.raises(ValueError):
        end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, -1.0)
    with pytest.raises(ValueError):
        end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, 1.0, tol=0.5)  # above cap


def test_cdf_is_symmetric_in_the_hops():
    d1 = GammaSnr(shape=4.0, mean=3.0)
    d2 = GammaSnr(2.0, 5.0, 3)
    for g in (0.4, 1.3, 4.0):
        forward = end_to_end_cdf(d1, d2, g)
        backward = end_to_end_cdf(d2, d1, g)
        assert abs(forward - backward) <= 2e-8


def test_cdf_dominates_both_hop_cdfs():
    # the combined SNR is below either hop, so its CDF sits above both
    d1 = GammaSnr(shape=2.0, mean=4.0)
    d2 = GammaSnr(shape=3.0, mean=2.0)
    for g in (0.2, 0.8, 2.0, 6.0):
        combined = end_to_end_cdf(d1, d2, g)
        assert combined >= max(d1.cdf(g), d2.cdf(g)) - 1e-10


def test_exact_cdf_sits_above_harmonic_cdf():
    d1 = GammaSnr(shape=2.0, mean=4.0)
    d2 = GammaSnr(shape=1.0, mean=6.0)
    for g in (0.3, 1.0, 3.0):
        exact = end_to_end_cdf(d1, d2, g, Combiner.EXACT)
        harmonic = end_to_end_cdf(d1, d2, g, Combiner.HARMONIC)
        assert exact >= harmonic - 1e-10


def test_far_hop_two_mean_reduces_to_hop_one():
    # with the relay-to-destination hop nearly transparent the end-to-end
    # law collapses onto hop 1; the log map's range reaches past the hop-2
    # mean (the hop-2 density lives six decades above gamma)
    d1 = GammaSnr(shape=9.0, mean=6.0)
    d2 = GammaSnr(shape=9.0, mean=3.0e6)
    for g in (1.0, 4.0, 10.0):
        assert abs(end_to_end_cdf(d1, d2, g) - d1.cdf(g)) < 1e-4


def test_grid_is_monotone_and_validated():
    grid = np.linspace(0.0, 12.0, 25)
    values = end_to_end_cdf_grid(RAYLEIGH_10, RAYLEIGH_10, grid)
    assert values.shape == grid.shape
    assert np.all(np.diff(values) >= 0.0)
    assert values[0] == 0.0
    assert 0.0 <= values[-1] <= 1.0
    assert end_to_end_cdf_grid(RAYLEIGH_10, RAYLEIGH_10, [0.0]) == np.array([0.0])
    with pytest.raises(ValueError):
        end_to_end_cdf_grid(RAYLEIGH_10, RAYLEIGH_10, [])
    with pytest.raises(ValueError):
        end_to_end_cdf_grid(RAYLEIGH_10, RAYLEIGH_10, [[0.0, 1.0]])
    with pytest.raises(ValueError):
        end_to_end_cdf_grid(RAYLEIGH_10, RAYLEIGH_10, [1.0, 1.0])
    with pytest.raises(ValueError):
        end_to_end_cdf_grid(RAYLEIGH_10, RAYLEIGH_10, [-1.0, 1.0])


def test_unreachable_tolerance_returns_nan():
    assert math.isnan(end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, 1.0, tol=1e-30))
    grid = end_to_end_cdf_grid(RAYLEIGH_10, RAYLEIGH_10, [0.0, 0.5, 1.0], tol=1e-30)
    assert grid[0] == 0.0 and np.isnan(grid[1:]).all()


def test_grid_clamp_skips_a_nan_cell_without_filling_or_spreading_it(monkeypatch):
    import twohop.relay as relay_module

    # a converged dip after the NaN cell is still lifted to the cell before it
    monkeypatch.setattr(relay_module, "end_to_end_cdf",
                        lambda *args: np.array([0.0, 0.2, np.nan, 0.1, 0.3]))
    grid = end_to_end_cdf_grid(RAYLEIGH_10, RAYLEIGH_10, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(grid, [0.0, 0.2, np.nan, 0.2, 0.3], equal_nan=True)


def test_clamp_of_a_real_overshoot_warns(monkeypatch):
    import twohop.relay as relay_module

    real_batch = relay_module.integrate_batch

    def overshooting(*args, **kwargs):
        result = real_batch(*args, **kwargs)
        return replace(result, value=result.value + 1e-6)

    monkeypatch.setattr(relay_module, "integrate_batch", overshooting)
    with pytest.warns(RuntimeWarning, match="clamped from 1.000001"):
        assert end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, 200.0) == 1.0


def test_clamp_of_a_rounding_overshoot_is_silent(monkeypatch):
    """Inner CDFs that overshoot 1 by rounding say nothing, and the SER converges.

    The 2x2 STBC_MRC link at 3/10 dB, tol 1e-15, overshot by one and two
    ulps while its inner quadratures started at ln(gamma) - 40; it stays as
    a guard that the SER converges there.  The 2x3 link at 0/13 dB, tol
    1e-13, overshoots by one ulp with both cuts.
    """
    import twohop.relay as relay_module

    overshoots = []

    class RecordingNumpy:
        """relay's numpy, whose clip into [0, 1] records the values it lowers."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def clip(a, a_min, a_max):
            if np.isscalar(a_max) and a_max == 1.0:
                overshoots.extend(a[a > 1.0].tolist())
            return np.clip(a, a_min, a_max)

    monkeypatch.setattr(relay_module, "np", RecordingNumpy())
    for link, tol, must_overshoot in [
        (LinkScenario(HopConfig(2, 2, 1.0, 10 ** 0.3, CombiningScheme.STBC_MRC),
                      HopConfig(2, 2, 1.0, 10.0, CombiningScheme.STBC_MRC)), 1e-15, False),
        (LinkScenario(HopConfig(2, 2, 1.0, 1.0, CombiningScheme.STBC_MRC),
                      HopConfig(2, 3, 1.0, 10 ** 1.3, CombiningScheme.STBC_MRC)), 1e-13, True),
    ]:
        overshoots.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ser, = ser_sweep([link], [PskModulation(2)], tol)[0]
        assert 0.0 < ser < 1.0, tol
        if must_overshoot:
            assert overshoots and max(overshoots) <= 1.0 + 4.0 * UNIT_ROUNDOFF, overshoots


BATCH_LAWS = [
    (RAYLEIGH_10, RAYLEIGH_10),
    (GammaSnr(shape=4.0, mean=3.0), GammaSnr(2.0, 5.0, 3)),
    (GammaSnr(0.5, 2.0, 2), GammaSnr(shape=9.0, mean=3.0e6)),
]
BATCH_POINTS = np.array([1e-6, 0.05, 0.4, 1.0, 1.3, 4.0, 25.0, 300.0])


@pytest.mark.parametrize("combiner", list(Combiner))
@pytest.mark.parametrize("d1, d2", BATCH_LAWS)
def test_array_call_matches_scalar_calls_bit_for_bit(d1, d2, combiner):
    batch = end_to_end_cdf(d1, d2, BATCH_POINTS, combiner, 1e-9)
    alone = [end_to_end_cdf(d1, d2, g, combiner, 1e-9) for g in BATCH_POINTS]
    assert batch.shape == BATCH_POINTS.shape
    assert batch.tolist() == alone
    # the batch order does not matter either
    assert end_to_end_cdf(d1, d2, BATCH_POINTS[::-1], combiner, 1e-9).tolist() == alone[::-1]


@pytest.mark.parametrize("combiner", list(Combiner))
def test_several_hop2_laws_match_one_law_calls_bit_for_bit(combiner):
    d1 = GammaSnr(shape=4.0, mean=3.0)
    laws = [d2 for _, d2 in BATCH_LAWS]
    law = np.arange(BATCH_POINTS.size) % len(laws)
    batch = LinkTable([d1] * len(laws), laws, combiner).cdf(BATCH_POINTS, law, 1e-9)
    alone = [end_to_end_cdf(d1, laws[k], g, combiner, 1e-9)
             for k, g in zip(law, BATCH_POINTS)]
    assert batch.tolist() == alone


@pytest.mark.parametrize("combiner", list(Combiner))
def test_several_links_match_one_link_calls_bit_for_bit(combiner):
    # each pair has its own hop-1 law, plain or selection
    d1s, d2s = (list(hop) for hop in zip(*BATCH_LAWS))
    law = np.arange(BATCH_POINTS.size) % len(BATCH_LAWS)
    batch = LinkTable(d1s, d2s, combiner).cdf(BATCH_POINTS, law, 1e-9)
    alone = [end_to_end_cdf(d1s[k], d2s[k], g, combiner, 1e-9)
             for k, g in zip(law, BATCH_POINTS)]
    assert batch.tolist() == alone


# Shapes 0.5 to 32, plain and selection laws (2 to 4 candidates) mixed in
# one hop-2 table, and each of them also as hop 1 of every link, or all of
# them as a mixed hop-1 table in reverse order.
TABLE_LAWS = [
    GammaSnr(0.5, 2.0),
    GammaSnr(0.5, 3.0, 3),
    GammaSnr(1.0, 10.0),
    GammaSnr(7.5, 0.8, 2),
    GammaSnr(32.0, 40.0),
    GammaSnr(32.0, 5.0, 4),
]


@pytest.mark.parametrize("combiner", list(Combiner))
@pytest.mark.parametrize("d1", TABLE_LAWS + [TABLE_LAWS[::-1]])
def test_table_integrand_matches_the_public_law_methods_bit_for_bit(monkeypatch, d1,
                                                                     combiner):
    import twohop.relay as relay_module

    integrands = []
    real_batch = relay_module.integrate_batch

    def capturing_batch(f, *args, **kwargs):
        integrands.append(f)
        return real_batch(f, *args, **kwargs)

    monkeypatch.setattr(relay_module, "integrate_batch", capturing_batch)
    gamma = np.array([1e-6, 0.05, 0.4, 2.0, 4.0, 5.5])  # below every hop-1 saturation
    law = np.arange(len(TABLE_LAWS))
    d1s = d1 if isinstance(d1, list) else [d1] * len(TABLE_LAWS)
    LinkTable(d1s, TABLE_LAWS, combiner).cdf(gamma, law, 1e-6)
    integrand, = integrands
    # s = ln(y - gamma), from just above gamma to far into every law's tail
    owner = np.repeat(law, 40)
    g = gamma[owner]
    s = np.log(np.tile(np.geomspace(1e-9, 1e4, 40), law.size) * np.maximum(g, 1.0))
    got = integrand(s, owner)
    shift = 1.0 if combiner is Combiner.EXACT else 0.0
    gap = np.exp(s)
    y = g + gap
    want = np.empty_like(y)
    for k, d2 in enumerate(TABLE_LAWS):
        mine = owner == k
        want[mine] = (d1s[k].cdf(g[mine] * (y[mine] + shift) / gap[mine])
                      * d2.pdf(y[mine]) * gap[mine])
    assert np.all(np.isfinite(got)) and np.any(got > 0)
    assert got.tolist() == want.tolist()


def test_public_law_calls_do_not_grow_with_rounds(monkeypatch):
    """Both terms of F_eq read the law tables: no public law call, in a round or outside."""
    import twohop.numerics as numerics_module
    import twohop.relay as relay_module

    calls = []
    rounds = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for method in ("cdf", "pdf"):
        monkeypatch.setattr(GammaSnr, method,
                            counting(f"GammaSnr.{method}", getattr(GammaSnr, method)))
    monkeypatch.setattr(numerics_module, "regularized_lower_gamma",
                        counting("gammainc", numerics_module.regularized_lower_gamma))
    real_batch = relay_module.integrate_batch

    def counting_batch(f, *args, **kwargs):
        def integrand(s, owner):
            before = len(calls)
            out = f(s, owner)
            rounds.append(len(calls) - before)
            return out
        return real_batch(integrand, *args, **kwargs)

    monkeypatch.setattr(relay_module, "integrate_batch", counting_batch)
    d1 = GammaSnr(1.5, 4.0, 2)
    counted = []
    for laws, tol in ((TABLE_LAWS[:1], 1e-4), (TABLE_LAWS, 1e-4), (TABLE_LAWS, 1e-10)):
        gamma = np.geomspace(0.01, 20.0, 3 * len(laws))
        calls.clear()
        rounds.clear()
        LinkTable([d1] * len(laws), laws, Combiner.EXACT).cdf(
            gamma, np.arange(gamma.size) % len(laws), tol)
        assert not any(rounds)
        assert calls == []
        counted.append(len(rounds))
    assert counted[2] > counted[1]


def test_array_call_shapes_and_zero():
    value = end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, 1.0)
    assert type(value) is float
    assert type(end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, np.float64(1.0))) is float
    grid = np.array([[0.0, 1.0], [0.0, 5.0]])
    values = end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, grid)
    assert values.shape == (2, 2)
    assert values[0, 0] == 0.0 and values[1, 0] == 0.0
    assert values[0, 1] == value
    assert end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, np.zeros(3)).tolist() == [0.0] * 3


@pytest.mark.parametrize("combiner", list(Combiner))
def test_cdf_at_infinity_is_one(combiner):
    hop2 = GammaSnr(2.0, 5.0, 3)
    assert end_to_end_cdf(RAYLEIGH_10, hop2, math.inf, combiner) == 1.0
    values = end_to_end_cdf(RAYLEIGH_10, hop2, np.array([0.0, 1.0, math.inf]), combiner)
    assert values.tolist() == [0.0, end_to_end_cdf(RAYLEIGH_10, hop2, 1.0, combiner), 1.0]
    grid = end_to_end_cdf_grid(RAYLEIGH_10, hop2, [0.0, 1.0, math.inf], combiner)
    assert grid.tolist() == values.tolist()


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_array_call_rejects_negative_or_nan_elements(bad):
    with pytest.raises(ValueError):
        end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, np.array([0.5, bad, 2.0]))
    with pytest.raises(ValueError):
        end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, bad)


def test_one_nonconvergent_element_is_nan_alone(fail_inner_quadratures):
    # gamma 1e-6 on two 50 dB Rayleigh hops fails, while its neighbours
    # converge; then a tolerance out of reach fails every element for real
    fail_inner_quadratures(lambda mean, gamma: gamma == 1e-6)
    hop = GammaSnr(shape=1.0, mean=1e5)
    assert math.isnan(end_to_end_cdf(hop, hop, 1e-6))
    points = np.array([1.0, 1e-6, 3.0])
    batch = end_to_end_cdf(hop, hop, points)
    assert np.isnan(batch).tolist() == [False, True, False]
    assert batch[[0, 2]].tolist() == [end_to_end_cdf(hop, hop, g) for g in (1.0, 3.0)]
    assert np.isnan(end_to_end_cdf(RAYLEIGH_10, RAYLEIGH_10, np.array([0.5, 1.0]),
                                   tol=1e-30)).all()


def _hop_law(scheme: CombiningScheme, m: float, n_tx: int, n_rx: int, db: float) -> GammaSnr:
    """The hop law of ``scheme``, with the antenna counts it allows."""
    n_tx = 1 if scheme is CombiningScheme.MRC else n_tx
    n_rx = 1 if scheme is CombiningScheme.STBC else n_rx
    return effective_distribution(HopConfig(n_tx, n_rx, m, 10.0 ** (db / 10.0), scheme))


HOP_LAWS = st.builds(_hop_law, st.sampled_from(CombiningScheme), st.floats(0.5, 5.0),
                     st.integers(1, 4), st.integers(1, 4), st.floats(-10.0, 50.0))


def _uncut_cdf(d1: GammaSnr, d2: GammaSnr, gamma: float, combiner: Combiner,
               tol: float) -> tuple[float, bool]:
    """F2(gamma) plus the inner integral over all of [ln(gamma) - 40, ln(max(mean bound,
    gamma)) + 6], by public law calls."""
    shift = 1.0 if combiner is Combiner.EXACT else 0.0

    def integrand(s, _):
        gap = np.exp(s)
        y = gamma + gap
        return d1.cdf(gamma * (y + shift) / gap) * d2.pdf(y) * gap

    hi = math.log(max(d2.mean * d2.candidates, gamma)) + 6.0
    with np.errstate(over="ignore"):
        result = integrate_batch(integrand, math.log(gamma) - 40.0, hi, tol)
    return d2.cdf(gamma) + float(result.value[0]), bool(result.converged[0])


@settings(deadline=None, max_examples=150, derandomize=True)
@given(d1=HOP_LAWS, d2=HOP_LAWS, combiner=st.sampled_from(Combiner),
       log_gamma=st.floats(-6.0, 4.0))
def test_the_cuts_at_both_saturations_match_the_uncut_integral(d1, d2, combiner, log_gamma):
    # Each quadrature errs by at most tol times its integral, and both
    # integrals are at most F_eq; the stretch the cut at hop 1's saturation
    # drops is below UNIT_ROUNDOFF * F_eq, and the one past hop 2's below
    # about 2 * UNIT_ROUNDOFF * F_eq.
    gamma, tol = 10.0 ** log_gamma, 1e-9
    uncut, converged = _uncut_cdf(d1, d2, gamma, combiner, tol)
    assume(converged)
    cut = end_to_end_cdf(d1, d2, gamma, combiner, tol)
    assert abs(cut - min(uncut, 1.0)) <= (2.0 * tol + 3.0 * UNIT_ROUNDOFF) * uncut


def _complement(d1: GammaSnr, d2: GammaSnr, gamma: float, combiner: Combiner):
    """1 - F_eq(gamma), the integral over y > gamma of P{g1 > threshold(y)} f2(y),
    from mpmath at 30 digits."""
    shift = 1 if combiner is Combiner.EXACT else 0
    with mpmath.workdps(30):
        g = mpmath.mpf(gamma)
        k1, rate1, n1 = mpmath.mpf(d1.shape), d1.shape / mpmath.mpf(d1.mean), d1.candidates
        k2, rate2, n2 = mpmath.mpf(d2.shape), d2.shape / mpmath.mpf(d2.mean), d2.candidates

        def above(y):
            survival = mpmath.gammainc(k1, rate1 * g * (y + shift) / (y - g), mpmath.inf,
                                       regularized=True)
            density = (n2 * mpmath.gammainc(k2, 0, rate2 * y, regularized=True) ** (n2 - 1)
                       * rate2 * mpmath.exp((k2 - 1) * mpmath.log(rate2 * y) - rate2 * y
                                            - mpmath.loggamma(k2)))
            return -mpmath.expm1(n1 * mpmath.log1p(-survival)) * density

        spread = d2.mean * n2
        return mpmath.quad(above, [g, g + spread, g + 10 * spread, mpmath.inf])


@pytest.mark.parametrize("combiner", list(Combiner))
@pytest.mark.parametrize("d1, d2", BATCH_LAWS)
def test_from_the_hop1_saturation_on_the_cdf_is_one(d1, d2, combiner):
    saturation = float(LawTable([d1]).saturation()[0])
    points = np.array([saturation, 2.0 * saturation])
    assert end_to_end_cdf(d1, d2, points, combiner).tolist() == [1.0, 1.0]
    assert 0.0 < float(_complement(d1, d2, saturation, combiner)) <= UNIT_ROUNDOFF


@pytest.mark.parametrize("combiner", list(Combiner))
@pytest.mark.parametrize("d1, d2", BATCH_LAWS)
def test_from_the_hop2_saturation_on_the_cdf_is_one(monkeypatch, d1, d2, combiner):
    import twohop.relay as relay_module

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran at or past hop 2's saturation")

    saturation = float(LawTable([d2]).saturation()[0])
    points = np.array([saturation, 2.0 * saturation])
    monkeypatch.setattr(relay_module, "integrate_batch", no_quadrature)
    assert end_to_end_cdf(d1, d2, points, combiner).tolist() == [1.0, 1.0]
    # compared in mpmath: where T2* lies far past T1*, the complement is
    # below the smallest double
    assert 0 < _complement(d1, d2, saturation, combiner) <= UNIT_ROUNDOFF


@pytest.mark.parametrize("combiner", list(Combiner))
@pytest.mark.parametrize("d1, d2", BATCH_LAWS + [pair[::-1] for pair in BATCH_LAWS])
def test_one_ulp_below_the_hop2_saturation_the_quadrature_is_sound(monkeypatch, d1, d2,
                                                                   combiner):
    # The closest a gamma gets to T2* from below: the quadrature's end,
    # ln(T2* - gamma), is then lowest relative to ln(gamma), and its start
    # must still lie within [ln(gamma) - 40, end).
    import twohop.relay as relay_module

    intervals = []
    real_batch = relay_module.integrate_batch

    def recording_batch(f, lo, hi, *args, **kwargs):
        intervals.append((lo, hi))
        return real_batch(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(relay_module, "integrate_batch", recording_batch)
    gamma = math.nextafter(float(LawTable([d2]).saturation()[0]), 0.0)
    value = end_to_end_cdf(d1, d2, gamma, combiner)
    assert 1.0 - 2.0 * UNIT_ROUNDOFF <= value <= 1.0
    assert value >= d2.cdf(gamma)
    # a quadrature runs unless gamma is past hop 1's saturation too
    assert len(intervals) == (gamma < LawTable([d1]).saturation()[0])
    for lo, hi in intervals:
        assert np.all(np.isfinite(lo) & np.isfinite(hi))
        assert np.all((math.log(gamma) - 40.0 <= lo) & (lo < hi))


def test_link_scenario_checks_relay_antennas():
    hop1 = HopConfig(2, 3, 1.0, 1.0, CombiningScheme.STBC_MRC)
    hop2 = HopConfig(2, 2, 1.0, 1.0, CombiningScheme.STBC_MRC)
    with pytest.raises(ValueError, match="relay antenna count mismatch"):
        LinkScenario(hop1, hop2)
    LinkScenario(HopConfig(2, 2, 1.0, 1.0, CombiningScheme.STBC_MRC), hop2)

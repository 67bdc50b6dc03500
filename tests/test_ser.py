"""Symbol error rates: kernel constants, the CDF-form integral, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest

from twohop.diversity import CombiningScheme, HopConfig, effective_distribution
from twohop.fading import GammaSnr, MaxGammaSnr
from twohop.numerics import gaussian_q
from twohop.relay import Combiner, LinkScenario, end_to_end_cdf
from twohop.ser import (
    PskModulation,
    SerCurve,
    conditional_sep,
    ser_direct,
    ser_from_cdf,
    ser_sweep,
)

BPSK = PskModulation.bpsk()
PSK8 = PskModulation.psk(8)
PSK16 = PskModulation.psk(16)


def rayleigh_bpsk_ser(mean: float) -> float:
    """Closed form (1 - sqrt(mean/(1+mean)))/2 for a single Rayleigh hop."""
    return 0.5 * (1.0 - math.sqrt(mean / (1.0 + mean)))


def test_kernel_constants():
    assert (BPSK.a, BPSK.b) == (1.0, 1.0)
    assert PSK8.a == 2.0
    assert math.isclose(PSK8.b, 0.14644660940672624, rel_tol=1e-15)
    assert math.isclose(PSK16.b, 0.03806023374435662, rel_tol=1e-15)
    assert math.isclose(PskModulation.psk(4).b, 0.5, rel_tol=1e-15)


def test_order_validation():
    for bad in (0, 1, 3, 6, -8):
        with pytest.raises(ValueError):
            PskModulation.psk(bad)
    with pytest.raises(ValueError):
        PskModulation(order=8, a=1.0, b=PSK8.b)  # constants must match order


def test_labels_round_trip():
    assert BPSK.label == "BPSK"
    assert PSK16.label == "PSK16"
    for mod in (BPSK, PSK8, PSK16):
        assert PskModulation.from_label(mod.label) == mod
    with pytest.raises(ValueError):
        PskModulation.from_label("QAM16")
    with pytest.raises(ValueError):
        PskModulation.from_label("PSK2")  # spelled BPSK


def test_conditional_sep():
    assert conditional_sep(BPSK, 0.0) == 0.5
    # gamma solving Q(sqrt(2 gamma)) = 1e-3
    assert math.isclose(conditional_sep(BPSK, 4.77476785304162), 1e-3,
                        rel_tol=1e-9)
    values = conditional_sep(PSK8, np.linspace(0.0, 30.0, 20))
    assert values[0] == pytest.approx(1.0)
    assert np.all(np.diff(values) < 0)
    with pytest.raises(ValueError):
        conditional_sep(BPSK, -0.1)


def test_certain_error_gives_half_a():
    certain = lambda g: np.ones_like(g)
    for mod in (BPSK, PSK8, PSK16):
        assert abs(ser_from_cdf(mod, certain, tol=1e-9) - mod.a / 2.0) <= 1e-9


def test_step_cdf_matches_q_value():
    g0 = 4.77476785304162
    step = lambda g: (g >= g0).astype(float)
    got = ser_from_cdf(BPSK, step, tol=1e-9)
    assert abs(got - 1e-3) <= 1e-8


def test_rayleigh_bpsk_closed_form():
    for mean in (1.0, 10.0, 100.0):
        got = ser_from_cdf(BPSK, GammaSnr(1.0, mean).cdf)
        assert abs(got - rayleigh_bpsk_ser(mean)) < 1e-6


def test_cdf_form_equals_direct_form():
    # integration-by-parts identity between the two SER integrals
    surrogates = [GammaSnr(1.0, 2.0), GammaSnr(3.5, 0.4),
                  MaxGammaSnr(GammaSnr(2.0, 5.0), 3)]
    for dist in surrogates:
        for mod in (BPSK, PSK16):
            via_cdf = ser_from_cdf(mod, dist.cdf)
            via_pdf = ser_direct(mod, dist)
            assert abs(via_cdf - via_pdf) <= 1e-6


def test_direct_form_accepts_samples():
    rng = np.random.default_rng(11)
    samples = GammaSnr(2.0, 4.0).sample(rng, 5000)
    got = ser_direct(PSK8, samples)
    assert got == pytest.approx(float(np.mean(conditional_sep(PSK8, samples))))
    with pytest.raises(ValueError):
        ser_direct(PSK8, np.empty(0))
    with pytest.raises(ValueError):
        ser_direct(PSK8, samples.reshape(-1, 2))


def test_larger_kernel_b_never_hurts():
    # with equal a, a larger b decays the kernel faster: PSK8 vs PSK16
    cdf = GammaSnr(2.0, 5.0).cdf
    assert ser_from_cdf(PSK8, cdf) <= ser_from_cdf(PSK16, cdf)


def test_ser_decreases_with_mean_snr():
    values = [ser_from_cdf(BPSK, GammaSnr(2.0, mean).cdf)
              for mean in (1.0, 5.0, 25.0)]
    assert values[0] > values[1] > values[2]


def _mimo3_link() -> LinkScenario:
    hop = HopConfig(3, 3, 1.0, 1.0, CombiningScheme.STBC_MRC)
    return LinkScenario(hop, hop)


def test_transparent_second_hop_saturates_to_single_hop():
    # hop-2 mean one million times hop 1: the link is hop-1 limited
    link = _mimo3_link()
    d1 = effective_distribution(replace(link.hop1, mean_branch_snr=10 ** 0.3))
    d2 = effective_distribution(replace(link.hop2, mean_branch_snr=1e6))
    combined = ser_from_cdf(
        BPSK, lambda g: end_to_end_cdf(d1, d2, g, Combiner.EXACT, 1e-9))
    single = ser_from_cdf(BPSK, d1.cdf)
    assert abs(combined - single) <= 1e-3
    assert combined >= single  # the relay hop can only hurt


def test_sweep_structure():
    link = _mimo3_link()
    grid = np.array([0.0, 6.0, 12.0])
    curve = ser_sweep(link, BPSK, grid, hop1_mean_db=3.0, tol=1e-6)
    assert isinstance(curve, SerCurve)
    assert curve.hop1_snr_db == 3.0
    assert [p.hop2_snr_db for p in curve.points] == list(grid)
    values = [p.ser_analytical for p in curve.points]
    assert all(0.0 < v < BPSK.a / 2.0 for v in values)
    assert values[0] > values[1] > values[2]
    assert all(p.converged and p.mc_ser is None for p in curve.points)


def test_shared_sweep_matches_single_sweeps_with_fewer_cdf_points(monkeypatch):
    import twohop.ser as ser_module

    requested = []

    def counting_cdf(d1, d2, snr, *args):
        requested.append(np.size(snr))
        return end_to_end_cdf(d1, d2, snr, *args)

    monkeypatch.setattr(ser_module, "end_to_end_cdf", counting_cdf)
    link = _mimo3_link()
    grid = np.array([2.0, 9.0])
    mods = (BPSK, PSK8, PSK16)
    singles = [ser_sweep(link, mod, grid, 3.0) for mod in mods]
    single_points = sum(requested)
    requested.clear()
    shared = ser_sweep(link, mods, grid, 3.0)
    assert shared == tuple(singles)
    assert [p.ser_analytical for c in shared for p in c.points] == [
        p.ser_analytical for c in singles for p in c.points]
    assert sum(requested) < single_points


def test_sweep_validates_inputs():
    link = _mimo3_link()
    with pytest.raises(ValueError):
        ser_sweep(link, BPSK, [], 3.0)
    with pytest.raises(ValueError):
        ser_sweep(link, BPSK, [3.0, 1.0], 3.0)
    with pytest.raises(ValueError):
        ser_sweep(link, BPSK, [0.0, 5.0], 3.0, tol=0.0)
    with pytest.raises(ValueError):
        ser_sweep(link, (), [0.0, 5.0], 3.0)


def test_sweep_records_failed_points_instead_of_aborting():
    link = _mimo3_link()
    # a tolerance below the roundoff floor cannot be certified
    curve = ser_sweep(link, BPSK, np.array([5.0]), 3.0, tol=1e-15)
    point = curve.points[0]
    assert not point.converged
    assert math.isnan(point.ser_analytical)


def test_quantile_spot_check_against_conditional_sep():
    # a step CDF at the SEP=1e-3 SNR reproduces Q through the kernel, so
    # the kernel and the conditional SEP agree on where 1e-3 sits
    g0 = 4.77476785304162
    assert math.isclose(BPSK.a * gaussian_q(math.sqrt(2.0 * BPSK.b * g0)),
                        1e-3, rel_tol=1e-9)

"""Gamma SNR laws: densities, CDFs, moments against draws, and the selection maximum."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from twohop import numerics
from twohop.fading import UNIT_ROUNDOFF, GammaSnr, LawTable, from_nakagami
from twohop.numerics import integrate_finite


def test_pdf_known_value():
    # shape 3, mean 3 -> scale 1, so pdf(2) = 2^2 e^-2 / Gamma(3) = 2 e^-2
    d = GammaSnr(shape=3.0, mean=3.0)
    assert math.isclose(d.pdf(2.0), 0.2706705664732254, rel_tol=1e-12)


def test_cdf_known_value():
    # shape 2, mean 2 -> P(2, 2) = 1 - 3 e^-2
    d = GammaSnr(shape=2.0, mean=2.0)
    assert math.isclose(d.cdf(2.0), 0.5939941502901619, rel_tol=1e-12)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(1e9) == pytest.approx(1.0, abs=1e-15)


def test_pdf_at_origin_by_shape():
    assert GammaSnr(shape=0.5, mean=1.0).pdf(0.0) == math.inf
    assert GammaSnr(shape=1.0, mean=2.0).pdf(0.0) == 0.5  # 1/scale
    assert GammaSnr(shape=2.0, mean=1.0).pdf(0.0) == 0.0


def test_pdf_handles_extreme_arguments():
    d = GammaSnr(shape=4.0, mean=2.0)
    assert d.pdf(1e300) == 0.0
    assert np.isfinite(d.pdf(np.array([1e-300, 1.0, 1e12]))).all()


def test_pdf_integrates_to_cdf(monkeypatch):
    # The density must reproduce the CDF over short and long ranges alike.
    # shape < 1 puts a (mild) singularity at the origin, which limits how
    # tight a tolerance bisection can certify there.
    monkeypatch.setattr(numerics, "MAX_INTERVALS", 8192)
    for d in (GammaSnr(1.0, 1.0), GammaSnr(2.5, 7.0), GammaSnr(0.5, 0.2)):
        for factor in (0.1, 1.0, 5.0, 20.0):
            upper = factor * d.mean
            result = integrate_finite(d.pdf, 0.0, upper, 1e-7)
            assert result.converged
            assert abs(result.value - d.cdf(upper)) < 1e-6


def test_rayleigh_is_exponential():
    d = from_nakagami(1.0, 5.0)
    assert d.shape == 1.0
    g = np.linspace(0.0, 40.0, 30)
    assert np.allclose(d.cdf(g), 1.0 - np.exp(-g / 5.0), atol=1e-14)


def test_sample_moments():
    d = GammaSnr(shape=2.0, mean=6.0)
    rng = np.random.default_rng(1234)
    draws = rng.gamma(d.shape, d.scale, size=200_000)
    # standard errors: mean ~ sqrt(var/n), var ~ var * sqrt(2/n)-ish
    assert abs(draws.mean() - 6.0) < 5.0 * math.sqrt(18.0 / draws.size)
    assert abs(draws.var() - 18.0) < 0.05 * 18.0


def test_sample_matches_cdf():
    rng = np.random.default_rng(77)
    for d in (GammaSnr(0.5, 1.0), GammaSnr(1.0, 10.0), GammaSnr(3.5, 0.7)):
        draws = np.sort(rng.gamma(d.shape, d.scale, size=100_000))
        steps = np.arange(1, draws.size + 1) / draws.size
        ks = np.max(np.abs(d.cdf(draws) - steps))
        assert ks < 0.01


def test_scalar_array_round_trip():
    d = GammaSnr(2.0, 2.0)
    assert isinstance(d.cdf(1.0), float)
    assert isinstance(d.pdf(1.0), float)
    arr = d.cdf(np.array([0.5, 1.0]))
    assert arr.shape == (2,)


def test_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        GammaSnr(shape=0.0, mean=1.0)
    with pytest.raises(ValueError):
        GammaSnr(shape=1.0, mean=0.0)
    for shape, mean in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            GammaSnr(shape=shape, mean=mean)
    with pytest.raises(ValueError):
        GammaSnr(shape=1.0, mean=1.0).cdf(-0.5)
    with pytest.raises(ValueError):
        GammaSnr(shape=1.0, mean=1.0).pdf(-1.0)
    with pytest.raises(ValueError):
        from_nakagami(0.25, 1.0)
    with pytest.raises(ValueError):
        GammaSnr(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        GammaSnr(1.0, 1.0, 1.5)


@given(
    shape=st.floats(0.5, 10.0),
    mean=st.floats(0.01, 100.0),
    a=st.floats(0.0, 50.0),
    b=st.floats(0.0, 50.0),
)
def test_cdf_is_monotone_and_bounded(shape, mean, a, b):
    d = GammaSnr(shape=shape, mean=mean)
    lo, hi = sorted((a, b))
    c_lo, c_hi = d.cdf(lo), d.cdf(hi)
    assert 0.0 <= c_lo <= c_hi <= 1.0


# --- selection maximum -----------------------------------------------------

def test_max_cdf_is_power_of_base():
    base = GammaSnr(2.0, 4.0)
    best = GammaSnr(2.0, 4.0, 3)
    g = np.linspace(0.0, 30.0, 25)
    assert np.allclose(best.cdf(g), np.asarray(base.cdf(g)) ** 3, atol=1e-15)


def test_max_pdf_matches_cdf_derivative():
    best = GammaSnr(1.5, 2.0, 4)
    h = 1e-6
    for g in (0.3, 1.0, 2.7, 8.0):
        slope = (best.cdf(g + h) - best.cdf(g - h)) / (2.0 * h)
        assert math.isclose(best.pdf(g), slope, rel_tol=1e-6)


def test_max_pdf_origin_limits():
    assert GammaSnr(2.0, 1.0, 3).pdf(0.0) == 0.0
    assert GammaSnr(0.3, 1.0, 2).pdf(0.0) == math.inf
    # candidates * shape == 1 has a finite positive limit
    boundary = GammaSnr(0.5, 1.0, 2).pdf(0.0)
    assert 0.0 < boundary < math.inf


def test_max_mean_and_samples():
    # the largest of three base draws per row follows the selection law
    best = GammaSnr(2.0, 4.0, 3)
    rng = np.random.default_rng(9)
    draws = np.sort(rng.gamma(2.0, 2.0, size=(200_000, 3)).max(axis=1))
    steps = np.arange(1, draws.size + 1) / draws.size
    assert np.max(np.abs(best.cdf(draws) - steps)) < 0.01


@pytest.mark.parametrize("candidates", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [0.5, 1.0, 7.5, 32.0])
def test_max_law_is_its_base_law_raised_bit_for_bit(shape, candidates):
    base = GammaSnr(shape, 3.0)
    best = GammaSnr(shape, 3.0, candidates)
    g = np.geomspace(1e-6, 1e3, 60)
    big_f, small_f = base.cdf(g), base.pdf(g)
    assert best.cdf(g).tolist() == (big_f ** candidates).tolist()
    assert best.pdf(g).tolist() == (candidates * big_f ** (candidates - 1)
                                    * small_f).tolist()


def test_nan_snr_has_nan_density_and_cdf():
    for law in (GammaSnr(0.3, 1.0), GammaSnr(1.0, 1.0), GammaSnr(2.0, 1.0),
                GammaSnr(0.3, 1.0, 2), GammaSnr(2.0, 1.0, 3)):
        assert math.isnan(law.pdf(math.nan)) and math.isnan(law.cdf(math.nan))
        density = law.pdf(np.array([0.0, math.nan, 1.0]))
        assert np.isnan(density[1]) and not np.isnan(density[[0, 2]]).any()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("candidates", [1, 2])
@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
def test_infinite_snr_has_zero_density_and_unit_cdf(shape, candidates):
    law = GammaSnr(shape, 3.0, candidates)
    assert law.pdf(math.inf) == 0.0 and law.cdf(math.inf) == 1.0
    density = law.pdf(np.array([1.0, math.inf]))
    assert density[0] == law.pdf(1.0) and density[1] == 0.0


def test_max_of_one_is_base_law():
    base = GammaSnr(1.0, 3.0)
    trivial = GammaSnr(1.0, 3.0, candidates=1)
    g = np.linspace(0.0, 20.0, 15)
    assert np.allclose(trivial.cdf(g), base.cdf(g), atol=1e-15)
    assert np.allclose(trivial.pdf(g), base.pdf(g), atol=1e-15)


def test_saturation_leaves_at_most_unit_roundoff_above_it():
    # shapes from m = 0.5 on one branch to m = 100 on 64 x 64 antennas,
    # means from -30 to 50 dB, and every candidate count a hop can have
    shapes = np.geomspace(0.5, 409_600.0, 120)
    means = np.geomspace(1e-3, 1e5, shapes.size)
    for n in range(1, 65):
        table = LawTable([GammaSnr(k, mean, n) for k, mean in zip(shapes, means)])
        x = table.saturation() * table.rate
        assert np.all(n * special.gammaincc(shapes, x) <= UNIT_ROUNDOFF), n
        # and not far above it: 3% lower, the bound no longer holds
        assert np.all(n * special.gammaincc(shapes, 0.97 * x) > UNIT_ROUNDOFF), n
    # where gammainccinv misses by far (it gives 0 at shape 1e-300), there is none
    assert LawTable([GammaSnr(1e-300, 1.0)]).saturation().tolist() == [math.inf]

"""SNR distributions for diversity-combined links under Nakagami-m fading.

The instantaneous SNR of a Nakagami-m faded branch is Gamma distributed
with shape m and the branch's mean SNR as mean.  Sums of i.i.d. branch
SNRs (diversity combining) stay inside the Gamma family — shapes add at
fixed scale — and transmit antenna selection takes the maximum of several
i.i.d. Gamma laws.  The two classes below therefore cover every hop
configuration in this package.  SNRs are linear power ratios, never dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .numerics import regularized_lower_gamma

__all__ = ["GammaSnr", "MaxGammaSnr", "HopDistribution", "from_nakagami"]


def _as_array(snr):
    values = np.asarray(snr, dtype=float)
    scalar = values.ndim == 0
    values = np.atleast_1d(values)
    if np.any(values < 0):
        raise ValueError("snr must be nonnegative")
    return values, scalar


def _shaped(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


@dataclass(frozen=True)
class GammaSnr:
    """Gamma-distributed linear SNR, parameterized by (shape, mean)."""

    shape: float
    mean: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not self.mean > 0:
            raise ValueError(f"mean must be positive, got {self.mean}")

    @property
    def scale(self) -> float:
        return self.mean / self.shape

    def pdf(self, snr):
        """Density at ``snr`` (scalar or ndarray)."""
        values, scalar = _as_array(snr)
        k = self.shape
        theta = self.scale
        out = np.zeros_like(values)
        pos = values > 0
        # Log-space evaluation: the plain power*exp product overflows or
        # underflows long before the density itself leaves float range.
        out[pos] = np.exp((k - 1.0) * np.log(values[pos]) - values[pos] / theta
                          - special.gammaln(k) - k * math.log(theta))
        if not pos.all():
            if k < 1.0:
                origin = np.inf
            elif k == 1.0:
                origin = 1.0 / theta
            else:
                origin = 0.0
            out[~pos] = origin
        return _shaped(out, scalar)

    def cdf(self, snr):
        """P{SNR <= snr}: regularized lower incomplete gamma P(shape, snr/scale)."""
        values, scalar = _as_array(snr)
        out = regularized_lower_gamma(self.shape, values * (self.shape / self.mean))
        return _shaped(np.atleast_1d(out), scalar)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. variates from the supplied generator."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return rng.gamma(self.shape, self.scale, size=int(n))


@dataclass(frozen=True)
class MaxGammaSnr:
    """Largest of ``candidates`` i.i.d. GammaSnr draws (antenna-selection law).

    The CDF is ``base.cdf ** candidates``; the density follows by
    differentiation: ``candidates * F**(candidates-1) * f``.
    """

    base: GammaSnr
    candidates: int

    def __post_init__(self):
        if int(self.candidates) != self.candidates or self.candidates < 1:
            raise ValueError(
                f"candidates must be a positive integer, got {self.candidates}")

    def cdf(self, snr):
        values, scalar = _as_array(snr)
        out = np.asarray(self.base.cdf(values)) ** self.candidates
        return _shaped(out, scalar)

    def pdf(self, snr):
        values, scalar = _as_array(snr)
        n = self.candidates
        big_f = np.asarray(self.base.cdf(values))
        small_f = np.asarray(self.base.pdf(values))
        with np.errstate(invalid="ignore"):
            out = n * big_f ** (n - 1) * small_f
        # 0 * inf at the origin when the base density diverges there; the
        # limit depends on candidates * base.shape relative to 1.
        undefined = ~np.isfinite(out) & (values == 0)
        if undefined.any():
            kn = n * self.base.shape
            if kn > 1.0:
                limit = 0.0
            elif kn < 1.0:
                limit = np.inf
            else:
                limit = n / (special.gamma(self.base.shape + 1.0) ** (n - 1)
                             * special.gamma(self.base.shape) * self.base.scale)
            out[undefined] = limit
        return _shaped(out, scalar)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        draws = self.base.sample(rng, int(n) * self.candidates)
        return draws.reshape(int(n), self.candidates).max(axis=1)


HopDistribution = GammaSnr | MaxGammaSnr


def from_nakagami(m: float, mean_snr: float) -> GammaSnr:
    """SNR law of a Nakagami-m faded branch with the given mean (m=1 is Rayleigh)."""
    if not m >= 0.5:
        raise ValueError(f"Nakagami figure m must be >= 0.5, got {m}")
    return GammaSnr(shape=m, mean=mean_snr)

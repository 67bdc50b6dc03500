"""SNR distributions for diversity-combined links under Nakagami-m fading.

The instantaneous SNR of a Nakagami-m faded branch is Gamma distributed
with shape m and the branch's mean SNR as mean.  Sums of i.i.d. branch
SNRs (diversity combining) stay inside the Gamma family — shapes add at
fixed scale — and transmit antenna selection takes the maximum of several
i.i.d. Gamma laws.  So one class, ``GammaSnr``, covers every hop
configuration in this package.  SNRs are linear power ratios, never dB.

Each formula has one implementation, in the internal ``LawTable``: a
table of hop-law parameters whose ``cdf``/``pdf`` evaluate any mix of laws
in one vectorized expression and check nothing.  The public ``cdf``/``pdf``
methods of ``GammaSnr`` are the checked boundary: they check their
argument, then evaluate their one-row table.  Quadrature integrands, whose
nodes their caller has already checked, read a table directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = ["GammaSnr", "from_nakagami"]

#: 2**-53, half the gap between 1 and the next double: a probability within
#: it of 1 rounds to 1.
UNIT_ROUNDOFF = 2.0 ** -53


def _as_array(snr):
    values = np.asarray(snr, dtype=float)
    scalar = values.ndim == 0
    values = np.atleast_1d(values)
    if np.any(values < 0):
        raise ValueError("snr must be nonnegative")
    return values, scalar


def _power(base: np.ndarray, n) -> np.ndarray:
    """``base ** n`` for integer ``n >= 0``, scalar or elementwise.

    A scalar exponent of 2 squares; an array exponent goes through ``pow``,
    which may round differently.  Squaring wherever n is 2 keeps every
    element as a scalar-exponent power would give it.
    """
    return np.where(n == 2, base * base, base ** n)


class LawTable:
    """Parameters of a sequence of ``GammaSnr`` laws, one row per law.

    Columns: shape k, rate k/mean, scale mean/k, gammaln(k), k*log(scale),
    the candidate count and ``mean_bound``, candidates * mean: the mean of
    a one-candidate law, a cheap upper bound of it under selection.  The
    constants are computed once, by the same scalar functions as for one
    law alone, so an element's arithmetic does not depend on the table
    it sits in.  ``cdf(x, law)`` and ``pdf(x, law)`` evaluate law
    ``law[j]`` at ``x[j]`` (``law`` may also be one row index for all of
    ``x``).  They check nothing: ``x`` must be nonnegative for ``cdf`` and
    positive for ``pdf``, and ``law`` must index rows.  Floating-point
    warnings are left to the caller's ``np.errstate``.
    """

    def __init__(self, laws):
        rows = []
        for d in laws:
            k, theta, n = d.shape, d.scale, d.candidates
            rows.append((k, k / d.mean, theta, float(special.gammaln(k)),
                         k * math.log(theta), n, d.mean * n))
        (self.shape, self.rate, self.scale, self.log_gamma, self.shape_log_scale,
         self.candidates, self.mean_bound) = (np.array(column) for column in zip(*rows))
        # A table without selection laws skips the powers, which are 1.
        self.selection = bool(np.any(self.candidates > 1))

    def saturation(self, tail: float = UNIT_ROUNDOFF) -> np.ndarray:
        """Per row, an SNR from which on 1 - cdf <= ``tail``, or inf.

        1 - P**n <= n * (1 - P), so n * Q(k, x*rate) <= ``tail`` suffices.
        ``gammainccinv`` is asked for half of that, which absorbs its misses
        of a few ulps, and the bound is checked as evaluated.  A row that
        fails it (far outside the shapes a hop can have: at shape 1e-300
        the inverse is 0) gets inf.
        """
        x = special.gammainccinv(self.shape, 0.5 * tail / self.candidates) / self.rate
        # NaN (0 * inf, at an infinite rate) fails the check
        with np.errstate(invalid="ignore"):
            survival = self.candidates * special.gammaincc(self.shape, x * self.rate)
        return np.where(survival <= tail, x, math.inf)

    def _base_cdf(self, x, law):
        return special.gammainc(self.shape[law], x * self.rate[law])

    def cdf(self, x, law):
        """P{SNR <= x}: P(k, x*rate), raised to the candidate count."""
        out = self._base_cdf(x, law)
        return _power(out, self.candidates[law]) if self.selection else out

    def pdf(self, x, law):
        """Density at positive ``x``; under selection n * F**(n-1) * f."""
        k = self.shape[law]
        # Log-space evaluation: the plain power*exp product overflows or
        # underflows long before the density itself leaves float range.
        out = np.exp((k - 1.0) * np.log(x) - x / self.scale[law]
                     - self.log_gamma[law] - self.shape_log_scale[law])
        if self.selection:
            n = self.candidates[law]
            out = n * _power(self._base_cdf(x, law), n - 1) * out
        return out


def _origin_density(d: GammaSnr) -> float:
    """Limit of the density at 0+, which depends on candidates * shape relative to 1."""
    n = d.candidates
    kn = n * d.shape
    if kn > 1.0:
        return 0.0
    if kn < 1.0:
        return math.inf
    return n / (special.gamma(d.shape + 1.0) ** (n - 1) * special.gamma(d.shape) * d.scale)


@dataclass(frozen=True)
class GammaSnr:
    """Largest of ``candidates`` i.i.d. Gamma(shape, mean) linear SNRs.

    One candidate (the default) is a branch or a combiner's sum of branches;
    more give the antenna-selection law, with CDF F**candidates and density
    candidates * F**(candidates-1) * f, where F and f are a candidate's.
    """

    shape: float
    mean: float
    candidates: int = 1

    def __post_init__(self):
        if not 0 < self.shape < math.inf:
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        if not 0 < self.mean < math.inf:
            raise ValueError(f"mean must be positive and finite, got {self.mean}")
        if int(self.candidates) != self.candidates or self.candidates < 1:
            raise ValueError(
                f"candidates must be a positive integer, got {self.candidates}")

    @property
    def scale(self) -> float:
        return self.mean / self.shape

    def cdf(self, snr):
        """P{SNR <= snr} (scalar or ndarray): P(shape, snr/scale) ** candidates."""
        values, scalar = _as_array(snr)
        out = LawTable((self,)).cdf(values, 0)
        return float(out[0]) if scalar else out

    def pdf(self, snr):
        """Density at ``snr`` (scalar or ndarray)."""
        values, scalar = _as_array(snr)
        out = values.copy()  # a NaN snr keeps its NaN density
        pos = (values > 0) & (values < math.inf)
        out[pos] = LawTable((self,)).pdf(values[pos], 0)
        out[values == math.inf] = 0.0
        origin = values == 0
        if origin.any():
            out[origin] = _origin_density(self)
        return float(out[0]) if scalar else out


# A name only: bench/tracing.py wraps cdf/pdf of every class name it lists, so
# here the two wrappers nest on one class, and it counts only the outer span.
MaxGammaSnr = GammaSnr


def from_nakagami(m: float, mean_snr: float) -> GammaSnr:
    """SNR law of a Nakagami-m faded branch with the given mean (m=1 is Rayleigh)."""
    if not m >= 0.5:
        raise ValueError(f"Nakagami figure m must be >= 0.5, got {m}")
    return GammaSnr(shape=m, mean=mean_snr)

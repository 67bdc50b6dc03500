"""End-to-end equivalent SNR of a two-hop amplified relay link.

The relay scales and forwards the hop-1 signal.  With per-hop SNRs g1, g2
the end-to-end equivalent SNR is

    exact:     g1*g2 / (g1 + g2 + 1)
    harmonic:  g1*g2 / (g1 + g2)      (upper-bound variant; 0 at g1=g2=0)

For the CDF at gamma, condition on the hop-2 SNR y:

* y <= gamma already forces the equivalent SNR below gamma regardless of
  hop 1 (the combined SNR never exceeds either hop), contributing
  F2(gamma) exactly;
* y > gamma leaves {eq <= gamma} equivalent to {g1 <= threshold(y)} with
  threshold gamma*(y+1)/(y-gamma) (exact) or gamma*y/(y-gamma) (harmonic).

Hence F_eq(gamma) = F2(gamma) + integral over (gamma, inf) of
F1(threshold(y)) * f2(y) dy, evaluated for every requested gamma as one
batch of adaptive quadratures over s = ln(y - gamma), which resolves every
scale of y - gamma alike.  Below ln(gamma) - 40 the integrand's share of F_eq
is below double precision.

The threshold falls from +inf towards gamma as y grows.  Past hop 1's
saturation T1*, where 1 - F1 <= UNIT_ROUNDOFF = 2**-53, F1 is 1 to double
precision.  So a gamma >= T1* has F_eq in [1 - 2**-53, 1] and gives 1 with no
quadrature.  A smaller gamma has threshold(y) >= T1* up to
y* = gamma + gamma*(gamma + shift)/(T1* - gamma), shift 1 (exact) or 0
(harmonic), and that stretch adds F2(y*) - F2(gamma) to within
2**-53 * F_eq.  Its quadrature starts at s = ln(y* - gamma), kept within
[ln(gamma) - 40, hi - 1], one below its upper end hi, and F2 is read at the
start instead of at gamma (at gamma itself where the clip binds at
ln(gamma) - 40).  Both terms stay positive, so nothing cancels in the deep
tail.  The quadrature's relative tolerance still refers to the whole
integral: F2(y*) - F2(gamma) joins its floor.

The top mirrors the start.  From hop 2's saturation T2* on, 1 - F2 <= 2**-53,
so a gamma >= T2* has F_eq >= F2(gamma) >= 1 - 2**-53 and gives 1 too.  A
smaller gamma ends its quadrature at hi = ln(T2* - gamma), or at
ln(max(mean bound, gamma)) + 6 where that comes first (always where T2* is
inf).  The threshold decreases in y, so the part dropped above T2* is at
most 2**-53 * F1(threshold(T2*)).  If F2(gamma) <= 1/2, F_eq is at least
F1(threshold(T2*)) * (F2(T2*) - F2(gamma)), about F1(threshold(T2*)) / 2;
otherwise F_eq > 1/2.  Either way the drop is within about 2**-52 * F_eq.
A double gamma below T2* lies at least one ulp, gamma * 2**-53, below it, so
hi stays above ln(gamma) - 37 and the clip of the start to
[ln(gamma) - 40, hi - 1] never inverts.

``end_to_end_cdf`` checks its arguments once and reads a one-link
``LinkTable``; ``ser_sweep`` builds one over all of a sweep's links.  Both
terms read the table's hop-law ``LawTable``s, which evaluate every link in
one expression and check nothing: F2 at the start of each quadrature, the
integrand at the quadrature's nodes.  So relay makes no public law call.
A gamma whose quadrature does not converge comes back as NaN, from
``end_to_end_cdf_grid`` as from ``end_to_end_cdf``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diversity import HopConfig
from .fading import GammaSnr, LawTable
from .numerics import DEFAULT_CDF_TOL, integrate_batch

__all__ = [
    "Combiner",
    "LinkScenario",
    "equivalent_snr",
    "end_to_end_cdf",
    "end_to_end_cdf_grid",
]


class Combiner(Enum):
    EXACT = "exact"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class LinkScenario:
    """Two hop configurations sharing the relay's antenna count."""

    hop1: HopConfig
    hop2: HopConfig
    combiner: Combiner = Combiner.EXACT

    def __post_init__(self):
        if self.hop1.n_rx != self.hop2.n_tx:
            raise ValueError(
                "relay antenna count mismatch: hop1.n_rx="
                f"{self.hop1.n_rx} but hop2.n_tx={self.hop2.n_tx}")


def equivalent_snr(snr1, snr2, combiner: Combiner = Combiner.EXACT):
    """Combine per-hop SNRs samplewise; broadcasts over arrays.

    EXACT gives g1 g2 / (g1 + g2 + 1), HARMONIC g1 g2 / (g1 + g2) and 0 at
    0/0.  A negative, NaN or infinite SNR raises ``ValueError``.
    """
    g1 = np.asarray(snr1, dtype=float)
    g2 = np.asarray(snr2, dtype=float)
    for g in (g1, g2):
        # min and max propagate NaN and allocate nothing.
        if g.size and not (g.min() >= 0.0 and g.max() < math.inf):
            raise ValueError("SNRs must be nonnegative and finite")
    shape = np.broadcast_shapes(g1.shape, g2.shape)
    den = np.add(g1, g2, out=np.empty(shape))
    out = np.multiply(g1, g2, out=np.empty(shape))
    if combiner is Combiner.EXACT:
        den += 1.0
        out /= den
    else:
        # den is 0 only where both SNRs are zeros; those cells give +0.0.
        live = den > 0.0
        np.divide(out, den, out=out, where=live)
        np.copyto(out, 0.0, where=~live)
    if out.ndim == 0:
        return float(out)
    return out


def end_to_end_cdf(d1: GammaSnr, d2: GammaSnr, snr, combiner: Combiner = Combiner.EXACT,
                   tol: float = DEFAULT_CDF_TOL):
    """P{equivalent SNR <= snr} to relative tolerance ``tol`` in (0, 1e-2].

    ``snr`` is a scalar (the result is a float) or an array (the result
    has its shape); snr = 0 gives 0, and snr = +inf, or any snr from
    either hop's saturation on, gives 1.  ``d1`` and ``d2`` are the hop
    laws.  All elements run as one batch of inner quadratures, and each
    value is bit-identical to a call with that element alone.  An element
    whose quadrature does not converge is NaN; the others are unaffected.
    An element's quadrature stops at an error of ``tol`` times the whole
    integral, over y > snr: its stretch where the hop-1 CDF is 1, which is
    not integrated, counts as F2(y*) - F2(snr); its stretch past hop 2's
    saturation, which adds less than double precision, is left out.
    """
    gamma = np.asarray(snr, dtype=float)
    if not np.all(gamma >= 0.0):
        raise ValueError(f"snr must be nonnegative, got {snr}")
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol}")
    out = LinkTable((d1,), (d2,), combiner).cdf(gamma.ravel(), np.zeros(gamma.size, np.intp), tol)
    return float(out[0]) if gamma.ndim == 0 else out.reshape(gamma.shape)


class LinkTable:
    """A batch of links, built once: both hops' ``LawTable``s and saturations
    T1* and T2*, the combiner's shift and each link's floor (checked here).

    ``cdf(gamma, law, tol)`` is F_eq at ``gamma[j]`` on link ``law[j]``; each
    quadrature stops at an error of ``tol * max(integral, floor)``.  Like
    ``LawTable.cdf`` it checks nothing; ``end_to_end_cdf`` is its boundary.
    """

    def __init__(self, d1s, d2s, combiner: Combiner, floor=1e-300):
        self.hop1, self.hop2 = LawTable(d1s), LawTable(d2s)
        self.first, self.second = self.hop1.saturation(), self.hop2.saturation()
        self.shift = 1.0 if combiner is Combiner.EXACT else 0.0
        self.floor = np.broadcast_to(np.asarray(floor, dtype=float), self.second.shape)
        if not np.all((0.0 <= self.floor) & (self.floor < np.inf)):
            raise ValueError(f"floor must be nonnegative and finite, got {floor}")

    def cdf(self, gamma: np.ndarray, law: np.ndarray, tol: float) -> np.ndarray:
        # F_eq is 0 at gamma = 0, and 1 from either hop's saturation on.
        out = np.where(gamma >= np.minimum(self.first[law], self.second[law]), 1.0, 0.0)
        pos = np.flatnonzero((gamma > 0.0) & (out == 0.0))
        if pos.size:
            out[pos] = self._positive_cdf(gamma[pos], law[pos], tol)
        return out

    def _positive_cdf(self, gamma: np.ndarray, law: np.ndarray, tol: float) -> np.ndarray:
        """F_eq at ``gamma[i]`` on link ``law[i]``, below both hops' saturations,
        NaN where it did not converge."""
        hop1, hop2, shift = self.hop1, self.hop2, self.shift
        first, second = self.first[law], self.second[law]

        def integrand(s: np.ndarray, owner: np.ndarray) -> np.ndarray:
            g = gamma[owner]
            gap = np.exp(s)  # y - gamma, without the rounding of a subtraction
            y = g + gap
            link = law[owner]
            # g * ((y + shift) / gap) is at least g: it neither underflows to 0 nor
            # becomes 0/0 where gap underflows at the bottom of a tiny gamma's range.
            return hop1.cdf(g * ((y + shift) / gap), link) * hop2.pdf(y, link) * gap

        # On (gamma, y*] the threshold is at least T1*, so F1 is 1 there: the
        # quadrature starts at s = ln(y* - gamma), and F2 is read where it starts.
        # Past T2* less than 2**-53 of the hop-2 mass is left, so it ends there.
        bottom = np.log(gamma) - 40.0
        hi = np.minimum(np.log(np.maximum(hop2.mean_bound[law], gamma)) + 6.0,
                        np.log(second - gamma))
        with np.errstate(divide="ignore"):
            lo = np.clip(np.log(gamma * (gamma + shift) / (first - gamma)), bottom, hi - 1.0)
        start = np.where(lo > bottom, gamma + np.exp(lo), gamma)
        head = hop2.cdf(start, law)
        # The stretch skipped still counts toward the integral that tol refers to.
        floor = np.maximum(self.floor[law], head - hop2.cdf(gamma, law))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            result = integrate_batch(integrand, lo, hi, tol, floor=floor)
        raw = head + result.value
        value = np.where(result.converged, np.clip(raw, 0.0, 1.0), np.nan)
        # NaN compares False, so only a converged value can report a clamp, and
        # only by more than rounding: ten ulps of the value at least.
        slack = 10.0 * np.maximum(tol * np.maximum(value, 1e-6), np.spacing(value))
        for i in np.flatnonzero(np.abs(raw - value) > slack):
            warnings.warn(
                f"end-to-end CDF clamped from {float(raw[i])!r} to {float(value[i])!r} "
                f"at snr={float(gamma[i])!r}", RuntimeWarning)
        return value


def end_to_end_cdf_grid(d1: GammaSnr, d2: GammaSnr, grid,
                        combiner: Combiner = Combiner.EXACT,
                        tol: float = DEFAULT_CDF_TOL) -> np.ndarray:
    """``end_to_end_cdf`` over a strictly increasing grid, clamped monotone.

    A grid point whose quadrature does not converge is NaN, as in
    ``end_to_end_cdf``.  The clamp runs over the converged points only: a
    NaN cell is neither filled in nor spread to the cells after it.
    """
    points = np.asarray(grid, dtype=float)
    if points.ndim != 1 or points.size == 0:
        raise ValueError("grid must be a nonempty 1-D sequence")
    if np.any(points < 0):
        raise ValueError("grid values must be nonnegative")
    if points.size > 1 and not np.all(np.diff(points) > 0):
        raise ValueError("grid must be strictly increasing")
    values = end_to_end_cdf(d1, d2, points, combiner, tol)
    return np.where(np.isnan(values), np.nan, np.fmax.accumulate(values))

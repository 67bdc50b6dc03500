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
scale of y - gamma alike.  Outside [ln(gamma) - 40, ln(max(mean bound,
gamma)) + 6] the integrand's share of F_eq is below double precision.
``end_to_end_cdf`` checks its arguments once.  Both terms then read the hop
laws' internal ``LawTable``s, which evaluate every link of the batch in one
expression and check nothing: F2(gamma) at the caller's own points, the
integrand at the quadrature's nodes.  So relay makes no public law call.
A gamma whose quadrature does not converge comes back as NaN, from
``end_to_end_cdf_grid`` as from ``end_to_end_cdf``.
"""

from __future__ import annotations

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
    """Combine per-hop SNRs samplewise; broadcasts over arrays."""
    g1 = np.asarray(snr1, dtype=float)
    g2 = np.asarray(snr2, dtype=float)
    if np.any(g1 < 0) or np.any(g2 < 0):
        raise ValueError("SNRs must be nonnegative")
    if combiner is Combiner.EXACT:
        out = g1 * g2 / (g1 + g2 + 1.0)
    else:
        den = g1 + g2
        out = np.divide(g1 * g2, den, out=np.zeros_like(den), where=den > 0)
    if out.ndim == 0:
        return float(out)
    return out


def end_to_end_cdf(d1, d2, snr, combiner: Combiner = Combiner.EXACT,
                   tol: float = DEFAULT_CDF_TOL, *, law=None, floor=1e-300):
    """P{equivalent SNR <= snr} to relative tolerance ``tol`` in (0, 1e-2].

    ``snr`` is a scalar (the result is a float) or an array (the result
    has its shape); snr = 0 gives 0 and snr = +inf gives 1.  ``d1`` and
    ``d2`` are the hop laws, or, when ``law`` is given, two sequences of
    hop laws of one length, and ``law`` an integer array of ``snr``'s
    shape: element j lies on the link ``(d1[law[j]], d2[law[j]])``.  All
    elements run as one batch of inner quadratures, and each value is
    bit-identical to a call with that element (and its link) alone.  An
    element whose quadrature does not converge is NaN; the others are
    unaffected.  An element's quadrature stops at an error of
    ``tol * max(integral, floor)``, with ``floor`` nonnegative: one value,
    or one per link when ``law`` is given.
    """
    gamma = np.asarray(snr, dtype=float)
    if not np.all(gamma >= 0.0):
        raise ValueError(f"snr must be nonnegative, got {snr}")
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol}")
    if law is None:
        d1s, d2s, which = (d1,), (d2,), np.zeros(gamma.size, dtype=np.intp)
    else:
        d1s, d2s, which = tuple(d1), tuple(d2), np.asarray(law)
        if len(d1s) != len(d2s):
            raise ValueError(f"d1 and d2 must have one length, got {len(d1s)} and {len(d2s)}")
        if (which.shape != gamma.shape or not np.issubdtype(which.dtype, np.integer)
                or not np.all((0 <= which) & (which < len(d2s)))):
            raise ValueError("law must be integers indexing d1 and d2, one per snr element")
        which = which.reshape(-1).astype(np.intp)
    floor = np.broadcast_to(np.asarray(floor, dtype=float), (len(d2s),))
    flat = gamma.reshape(-1)
    # F_eq is 0 at gamma = 0 and 1 at gamma = +inf; only the rest need a quadrature.
    out = np.where(flat == np.inf, 1.0, 0.0)
    pos = np.flatnonzero((flat > 0.0) & (flat < np.inf))
    if pos.size:
        out[pos] = _positive_cdf(d1s, d2s, which[pos], flat[pos], combiner, tol,
                                 floor[which[pos]])
    if gamma.ndim == 0:
        return float(out[0])
    return out.reshape(gamma.shape)


def _positive_cdf(d1s: tuple, d2s: tuple, law: np.ndarray, gamma: np.ndarray,
                  combiner: Combiner, tol: float, floor: np.ndarray) -> np.ndarray:
    """F_eq at positive ``gamma[i]`` on link ``law[i]``, NaN where it did not converge."""
    shift = 1.0 if combiner is Combiner.EXACT else 0.0
    # end_to_end_cdf has checked every input, so F2(gamma) and the integrand
    # F1(threshold) * f2(y) come straight from the parameter tables: one
    # expression for all links, with no per-call checks.
    hop1, hop2 = LawTable(d1s), LawTable(d2s)

    def integrand(s: np.ndarray, owner: np.ndarray) -> np.ndarray:
        g = gamma[owner]
        gap = np.exp(s)  # y - gamma, without the rounding of a subtraction
        y = g + gap
        link = law[owner]
        return hop1.cdf(g * (y + shift) / gap, link) * hop2.pdf(y, link) * gap

    lo = np.log(gamma) - 40.0
    hi = np.log(np.maximum(hop2.mean_bound[law], gamma)) + 6.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        result = integrate_batch(integrand, lo, hi, tol, floor=floor)
    raw = hop2.cdf(gamma, law) + result.value
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

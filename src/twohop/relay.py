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
batch of adaptive quadratures after mapping the semi-infinite range onto
[0, 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diversity import HopConfig
from .fading import GammaSnr, HopDistribution
from .numerics import DEFAULT_CDF_TOL, integrate_semi_infinite_batch

__all__ = [
    "Combiner",
    "ConvergenceError",
    "LinkScenario",
    "equivalent_snr",
    "end_to_end_cdf",
    "end_to_end_cdf_grid",
]


class Combiner(Enum):
    EXACT = "exact"
    HARMONIC = "harmonic"


class ConvergenceError(RuntimeError):
    """Quadrature missed the requested tolerance; carries the best estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


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


def _mean_scale(d: HopDistribution) -> float:
    """Characteristic magnitude of a hop law, for quadrature substitutions.

    For the antenna-selection law the exact mean needs an integral of its
    own; ``candidates * base.mean`` is a cheap upper bound of the right
    order, which is all a substitution scale has to be.
    """
    if isinstance(d, GammaSnr):
        return d.mean
    return d.base.mean * d.candidates


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


def end_to_end_cdf(d1: HopDistribution, d2: HopDistribution, snr,
                   combiner: Combiner = Combiner.EXACT,
                   tol: float = DEFAULT_CDF_TOL):
    """P{equivalent SNR <= snr} to relative tolerance ``tol`` in (0, 1e-2].

    ``snr`` is a scalar (the result is a float) or an array (the result
    has its shape).  All elements run as one batch of inner quadratures,
    and each value is bit-identical to a call with that element alone.
    One element that cannot converge raises ConvergenceError for the call.
    """
    gamma = np.asarray(snr, dtype=float)
    if not np.all(gamma >= 0.0):
        raise ValueError(f"snr must be nonnegative, got {snr}")
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol}")
    flat = gamma.reshape(-1)
    out = np.zeros(flat.size)
    pos = flat > 0.0
    if pos.any():
        out[pos] = _positive_cdf(d1, d2, flat[pos], combiner, tol)
    if gamma.ndim == 0:
        return float(out[0])
    return out.reshape(gamma.shape)


def _positive_cdf(d1: HopDistribution, d2: HopDistribution, gamma: np.ndarray,
                  combiner: Combiner, tol: float) -> np.ndarray:
    shift = 1.0 if combiner is Combiner.EXACT else 0.0

    def integrand(y: np.ndarray, owner: np.ndarray) -> np.ndarray:
        g = gamma[owner]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            threshold = g * (y + shift) / (y - g)
        # Nodes are interior so y > gamma analytically, but the subtraction
        # can round to zero; the threshold limit there is +inf (F1 -> 1).
        threshold = np.where(y > g, threshold, np.inf)
        return np.asarray(d1.cdf(threshold)) * np.asarray(d2.pdf(y))

    # The integrand's mass sits either just above gamma or around the hop-2
    # mean, whichever is larger; matching the substitution scale to that
    # keeps the mass visible to the initial quadrature nodes even when the
    # hop-2 mean is orders of magnitude away from gamma.
    result = integrate_semi_infinite_batch(integrand, gamma, tol,
                                           scale=np.maximum(_mean_scale(d2), gamma))
    raw = np.asarray(d2.cdf(gamma)) + result.value
    value = np.clip(raw, 0.0, 1.0)
    finished = result.converged | result.stuck
    clamped = finished & (np.abs(raw - value) > 10.0 * tol * np.maximum(value, 1e-6))
    for i in np.flatnonzero(clamped):
        warnings.warn(
            f"end-to-end CDF clamped from {float(raw[i])!r} to {float(value[i])!r} "
            f"at snr={float(gamma[i])!r}", RuntimeWarning)
    if result.stuck.any():
        i = int(np.argmax(result.stuck))
        raise ConvergenceError(
            f"end-to-end CDF quadrature did not converge at snr={gamma[i]:g} "
            f"(best estimate {value[i]:.6g}, error estimate {result.error_estimate[i]:.3g})",
            float(value[i]), float(result.error_estimate[i]))
    return value


def end_to_end_cdf_grid(d1: HopDistribution, d2: HopDistribution, grid,
                        combiner: Combiner = Combiner.EXACT,
                        tol: float = DEFAULT_CDF_TOL) -> np.ndarray:
    """``end_to_end_cdf`` over a strictly increasing grid, clamped monotone."""
    points = np.asarray(grid, dtype=float)
    if points.ndim != 1 or points.size == 0:
        raise ValueError("grid must be a nonempty 1-D sequence")
    if np.any(points < 0):
        raise ValueError("grid values must be nonnegative")
    if points.size > 1 and not np.all(np.diff(points) > 0):
        raise ValueError("grid must be strictly increasing")
    return np.maximum.accumulate(end_to_end_cdf(d1, d2, points, combiner, tol))

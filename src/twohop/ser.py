"""Symbol error rate of the link from its end-to-end SNR distribution.

For coherent M-PSK the symbol error probability at known SNR gamma is
a*Q(sqrt(2*b*gamma)) — exact for BPSK (a=1, b=1), the standard
nearest-neighbour approximation with a=2, b=sin^2(pi/M) for M >= 4.
Averaging over the SNR law and integrating by parts gives

    SER = (a/2) * sqrt(b/pi) * integral_0^inf gamma^(-1/2) e^(-b*gamma) F(gamma) d(gamma),

which needs only the CDF.  The substitution gamma = u^2 removes the
integrable singularity at the origin, leaving the smooth integrand
a*sqrt(b/pi) * e^(-b*u^2) * F(u^2).

An SER whose quadrature does not converge, or whose integrand meets a
CDF value that did not, is NaN; nothing here raises on non-convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diversity import effective_distribution
from .numerics import (DEFAULT_SER_TOL, NESTED_TIGHTENING, gaussian_q, integrate_semi_infinite,
                       integrate_semi_infinite_batch)
from .relay import end_to_end_cdf

__all__ = [
    "PskModulation",
    "conditional_sep",
    "ser_from_cdf",
    "ser_direct",
    "ser_sweep",
]


@dataclass(frozen=True)
class PskModulation:
    """PSK constellation of ``order`` points; its SEP kernel constants follow from it."""

    order: int

    def __post_init__(self):
        if self.order < 2 or self.order & (self.order - 1):
            raise ValueError(f"order must be a power of two >= 2, got {self.order}")

    @property
    def a(self) -> float:
        return 1.0 if self.order == 2 else 2.0

    @property
    def b(self) -> float:
        return 1.0 if self.order == 2 else math.sin(math.pi / self.order) ** 2

    @property
    def label(self) -> str:
        return "BPSK" if self.order == 2 else f"PSK{self.order}"


def conditional_sep(mod: PskModulation, snr):
    """Symbol error probability a*Q(sqrt(2*b*snr)) at known SNR."""
    values = np.asarray(snr, dtype=float)
    if np.any(values < 0):
        raise ValueError("snr must be nonnegative")
    out = mod.a * gaussian_q(np.sqrt(2.0 * mod.b * values))
    if np.ndim(snr) == 0:
        return float(out)
    return out


def ser_from_cdf(mods, cdf, tol: float = DEFAULT_SER_TOL) -> np.ndarray:
    """Average SEP of each of ``mods`` via the kernel integral, as one batch.

    Integrand i is the SER of ``mods[i]``.  ``cdf(g, owner)`` maps a 1-D
    ndarray of linear SNRs, ``g[j]`` asked for by integrand ``owner[j]``,
    to probabilities of the same shape; a NaN marks a value it could not
    compute and retires every integrand that asks for it unconverged.
    Returns an array of ``len(mods)`` SERs to relative tolerance ``tol`` in
    (0, 1e-2], NaN where the quadrature did not converge.  Every value is
    bit-identical to a batch of that modulation alone.
    """
    mods = tuple(mods)
    if not mods:
        raise ValueError("at least one modulation is required")
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol}")
    a = np.array([mod.a for mod in mods])
    b = np.array([mod.b for mod in mods])

    def integrand(u: np.ndarray, owner: np.ndarray) -> np.ndarray:
        weight = np.exp(-b[owner] * u * u)
        out = np.zeros_like(u)
        live = weight > 0.0
        if live.any():
            u_live = u[live]
            out[live] = weight[live] * np.asarray(cdf(u_live * u_live, owner[live]),
                                                  dtype=float)
        return out

    result = integrate_semi_infinite_batch(integrand, np.zeros(len(mods)), tol)
    ser = np.minimum(np.maximum(a * np.sqrt(b / math.pi) * result.value, 0.0), a / 2.0)
    return np.where(result.converged, ser, math.nan)


def ser_direct(mod: PskModulation, dist, tol: float = DEFAULT_SER_TOL) -> float:
    """Average SEP by quadrature over the density of ``dist``, NaN if it did not converge.

    The integration-by-parts counterpart of ser_from_cdf, kept as its
    independent reference.
    """
    root_2b = math.sqrt(2.0 * mod.b)

    def integrand(u: np.ndarray) -> np.ndarray:
        return gaussian_q(root_2b * u) * np.asarray(dist.pdf(u * u)) * 2.0 * u

    result = integrate_semi_infinite(integrand, 0.0, tol)
    if not result.converged:
        return math.nan
    return min(max(mod.a * result.value, 0.0), mod.a / 2.0)


def _inner_floor(d1s, d2s) -> np.ndarray:
    """Twice a lower bound of each link's BPSK SER (1e-300 where none was found).

    eq <= min(g1, g2), so F_eq >= F1 + F2 - F1*F2; and SER / a falls as b
    grows, with b <= 1 for every PSK.  So the kernel (weight a/2) turns an
    inner CDF error of tol times this floor into at most tol * SER, whatever
    the modulation.  All links run as one loose batch.
    """
    def integrand(u: np.ndarray, owner: np.ndarray) -> np.ndarray:
        out = np.exp(-u * u)
        # The public, checked cdf per link: ser_sweep's only public law calls,
        # which bench/test_bench.py's traced fading layer counts (ROADMAP item 4).
        for k in np.unique(owner):
            f1, f2 = d1s[k].cdf(u[owner == k] ** 2), d2s[k].cdf(u[owner == k] ** 2)
            out[owner == k] *= f1 + f2 - f1 * f2
        return out

    loose = 1e-3
    result = integrate_semi_infinite_batch(integrand, np.zeros(len(d1s)), loose)
    bound = 2.0 / math.sqrt(math.pi) * (result.value * (1.0 - loose) - result.error_estimate)
    return np.where(result.converged, np.maximum(bound, 1e-300), 1e-300)


def ser_sweep(links, mods, tol: float = DEFAULT_SER_TOL) -> np.ndarray:
    """Analytical SER of each of ``mods`` on each of ``links``, as one batch.

    ``links`` are LinkScenarios whose hops carry their mean SNRs, all with
    one combiner.  Returns an array of shape ``(len(mods), len(links))``:
    row i holds ``mods[i]``.  All ``len(mods) * len(links)`` SER integrals
    run as one ``ser_from_cdf`` batch, whose end-to-end CDF runs
    ``NESTED_TIGHTENING`` times tighter than the SER.  Every SER integral
    maps gamma = u^2 onto the same dyadic grid in t, so modulations on one
    link request many of the same floats; each (link, gamma) is computed
    once, and a round's missing pairs go to one ``end_to_end_cdf`` batch,
    whose values equal the values computed alone.  An integral whose
    quadrature does not converge is NaN instead of aborting the sweep.
    Each link's inner CDFs stop at an absolute error of its ``_inner_floor``
    times their tolerance, which adds at most ``2 * tol / NESTED_TIGHTENING``
    to the relative error of every SER.
    """
    links, mods = tuple(links), tuple(mods)
    combiners = {link.combiner for link in links}
    if len(combiners) != 1:
        raise ValueError("links must be nonempty and share one combiner")
    combiner, = combiners
    d1s = [effective_distribution(link.hop1) for link in links]
    d2s = [effective_distribution(link.hop2) for link in links]
    floor = _inner_floor(d1s, d2s)
    memo: dict[tuple[int, float], float] = {}

    def cdf(g, owner):
        keys = list(zip((owner % len(links)).tolist(), g.tolist()))
        missing = [k for k in dict.fromkeys(keys) if k not in memo]
        if missing:
            law, gammas = (np.array(column) for column in zip(*missing))
            values = end_to_end_cdf(d1s, d2s, gammas, combiner, tol / NESTED_TIGHTENING,
                                    law=law, floor=floor)
            memo.update(zip(missing, values.tolist()))
        return np.array([memo[k] for k in keys])

    ser = ser_from_cdf([mod for mod in mods for _ in links], cdf, tol)
    return ser.reshape(len(mods), len(links))

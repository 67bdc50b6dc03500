"""Symbol error rate of the link from its end-to-end SNR distribution.

For coherent M-PSK the symbol error probability at known SNR gamma is
a*Q(sqrt(2*b*gamma)) — exact for BPSK (a=1, b=1), the standard
nearest-neighbour approximation with a=2, b=sin^2(pi/M) for M >= 4.
Averaging over the SNR law and integrating by parts gives

    SER = (a/2) * sqrt(b/pi) * integral_0^inf gamma^(-1/2) e^(-b*gamma) F(gamma) d(gamma),

which needs only the CDF.  The substitution gamma = u^2 removes the
integrable singularity at the origin, leaving the smooth integrand
a*sqrt(b/pi) * e^(-b*u^2) * F(u^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diversity import effective_distribution
from .fading import HopDistribution
from .numerics import DEFAULT_SER_TOL, NESTED_TIGHTENING, gaussian_q, integrate_semi_infinite
from .relay import Combiner, ConvergenceError, LinkScenario, end_to_end_cdf

__all__ = [
    "PskModulation",
    "SweepPoint",
    "SerCurve",
    "conditional_sep",
    "ser_from_cdf",
    "ser_direct",
    "ser_sweep",
    "shared_cdf",
]


def _constants_for(order: int) -> tuple[float, float]:
    if order < 2 or order & (order - 1):
        raise ValueError(f"order must be a power of two >= 2, got {order}")
    if order == 2:
        return 1.0, 1.0
    return 2.0, math.sin(math.pi / order) ** 2


@dataclass(frozen=True)
class PskModulation:
    """PSK constellation with its SEP kernel constants (a, b)."""

    order: int
    a: float
    b: float

    def __post_init__(self):
        expected_a, expected_b = _constants_for(self.order)
        if not (math.isclose(self.a, expected_a, rel_tol=1e-12)
                and math.isclose(self.b, expected_b, rel_tol=1e-12)):
            raise ValueError(
                f"(a, b) = ({self.a}, {self.b}) do not match order {self.order}")

    @property
    def label(self) -> str:
        return "BPSK" if self.order == 2 else f"PSK{self.order}"

    @classmethod
    def psk(cls, order: int) -> "PskModulation":
        a, b = _constants_for(order)
        return cls(order=order, a=a, b=b)

    @classmethod
    def bpsk(cls) -> "PskModulation":
        return cls.psk(2)

    @classmethod
    def from_label(cls, label: str) -> "PskModulation":
        token = label.strip().upper()
        if token == "BPSK":
            return cls.psk(2)
        if token.startswith("PSK") and token[3:].isdigit():
            order = int(token[3:])
            if order >= 4:
                return cls.psk(order)
        raise ValueError(f"unknown modulation {label!r}")


def conditional_sep(mod: PskModulation, snr):
    """Symbol error probability a*Q(sqrt(2*b*snr)) at known SNR."""
    values = np.asarray(snr, dtype=float)
    if np.any(values < 0):
        raise ValueError("snr must be nonnegative")
    out = mod.a * gaussian_q(np.sqrt(2.0 * mod.b * values))
    if np.ndim(snr) == 0:
        return float(out)
    return out


def ser_from_cdf(mod: PskModulation, cdf, tol: float = DEFAULT_SER_TOL) -> float:
    """Average SEP from a CDF callable via the kernel integral.

    ``cdf`` maps an ndarray of linear SNRs to probabilities of the same
    shape.  Raises ConvergenceError when the quadrature misses ``tol``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    b = mod.b

    def integrand(u: np.ndarray) -> np.ndarray:
        weight = np.exp(-b * u * u)
        out = np.zeros_like(u)
        live = weight > 0.0
        if live.any():
            u_live = u[live]
            out[live] = weight[live] * np.asarray(cdf(u_live * u_live), dtype=float)
        return out

    result = integrate_semi_infinite(integrand, 0.0, tol)
    value = mod.a * math.sqrt(b / math.pi) * result.value
    value = min(max(value, 0.0), mod.a / 2.0)
    if not result.converged:
        raise ConvergenceError(
            f"SER quadrature did not converge (best estimate {value:.6g}, "
            f"error estimate {result.error_estimate:.3g})",
            value, result.error_estimate)
    return value


def ser_direct(mod: PskModulation, dist, tol: float = DEFAULT_SER_TOL) -> float:
    """Average SEP by direct expectation.

    ``dist`` is either a distribution exposing ``pdf`` (quadrature over
    the density, the integration-by-parts counterpart of ser_from_cdf) or
    a 1-D array of SNR samples (mean of the conditional SEP).
    """
    if hasattr(dist, "pdf"):
        root_2b = math.sqrt(2.0 * mod.b)

        def integrand(u: np.ndarray) -> np.ndarray:
            return gaussian_q(root_2b * u) * np.asarray(dist.pdf(u * u)) * 2.0 * u

        result = integrate_semi_infinite(integrand, 0.0, tol)
        value = mod.a * result.value
        value = min(max(value, 0.0), mod.a / 2.0)
        if not result.converged:
            raise ConvergenceError(
                f"direct SER quadrature did not converge (best estimate {value:.6g})",
                value, result.error_estimate)
        return value

    samples = np.asarray(dist, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("sample input must be a nonempty 1-D array")
    return float(np.mean(conditional_sep(mod, samples)))


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row; ``mc_*`` fields are filled only when a MC run is attached."""

    hop2_snr_db: float
    ser_analytical: float
    converged: bool = True
    mc_ser: float | None = None
    mc_halfwidth: float | None = None


@dataclass(frozen=True)
class SerCurve:
    modulation: PskModulation
    hop1_snr_db: float
    points: tuple[SweepPoint, ...]


def shared_cdf(d1: HopDistribution, d2: HopDistribution,
               combiner: Combiner = Combiner.EXACT,
               ser_tol: float = DEFAULT_SER_TOL):
    """End-to-end CDF for SER quadratures of tolerance ``ser_tol``, memoized by gamma.

    The CDF runs ``NESTED_TIGHTENING`` times tighter than the SER (at most
    1e-2).  Every SER integral maps gamma = u^2 onto the same dyadic grid
    in t, so modulations evaluated at one operating point request many of
    the same floats; each is computed once, in one batch per request, and
    a batched value equals the value computed alone.
    """
    cdf_tol = min(ser_tol / NESTED_TIGHTENING, 1e-2)
    memo: dict[float, float] = {}

    def cdf(g):
        keys = np.asarray(g, dtype=float).reshape(-1).tolist()
        missing = [k for k in dict.fromkeys(keys) if k not in memo]
        if missing:
            values = end_to_end_cdf(d1, d2, np.array(missing), combiner, cdf_tol)
            memo.update(zip(missing, values.tolist()))
        return np.array([memo[k] for k in keys]).reshape(np.shape(g))

    return cdf


def ser_sweep(scenario: LinkScenario, mods, hop2_mean_db_grid,
              hop1_mean_db: float, tol: float = DEFAULT_SER_TOL):
    """Analytical SER across hop-2 mean SNRs at a fixed hop-1 mean (both dB).

    ``mods`` is one PskModulation, giving one SerCurve, or a sequence,
    giving a tuple of SerCurves in the same order; the modulations share
    one ``shared_cdf`` per sweep point.  The scenario's per-branch means
    act as placeholders; each sweep point rebuilds the hop laws at the
    requested means.  Non-convergent points are recorded with
    converged=False and a NaN value instead of aborting the sweep.
    """
    single = isinstance(mods, PskModulation)
    mods = (mods,) if single else tuple(mods)
    if not mods:
        raise ValueError("at least one modulation is required")
    grid = np.asarray(hop2_mean_db_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("hop2_mean_db_grid must be a nonempty 1-D sequence")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("hop2_mean_db_grid must be strictly increasing")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    d1 = effective_distribution(
        replace(scenario.hop1, mean_branch_snr=10.0 ** (hop1_mean_db / 10.0)))

    rows: list[list[SweepPoint]] = [[] for _ in mods]
    for db in grid:
        d2 = effective_distribution(
            replace(scenario.hop2, mean_branch_snr=10.0 ** (db / 10.0)))
        cdf = shared_cdf(d1, d2, scenario.combiner, tol)
        for row, mod in zip(rows, mods):
            try:
                value = ser_from_cdf(mod, cdf, tol)
                row.append(SweepPoint(hop2_snr_db=float(db), ser_analytical=value))
            except ConvergenceError:
                row.append(SweepPoint(hop2_snr_db=float(db),
                                      ser_analytical=math.nan, converged=False))
    curves = tuple(SerCurve(modulation=mod, hop1_snr_db=float(hop1_mean_db),
                            points=tuple(row)) for mod, row in zip(mods, rows))
    return curves[0] if single else curves

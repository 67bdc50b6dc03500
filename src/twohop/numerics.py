"""Adaptive quadrature and special functions shared by the distribution and SER modules.

The integration engine is a vectorized adaptive Gauss-Kronrod 7/15 scheme
with interval bisection, run on a batch of integrands at once; the scalar
integrators are its one-integrand case.  All quadrature nodes are interior,
so integrands may be singular (or merely undefined) at interval endpoints
as long as the integral itself is finite.  Integrands must accept a 1-D
ndarray of abscissae and return a same-shaped ndarray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

__all__ = [
    "QuadratureResult",
    "BatchQuadrature",
    "integrate_batch",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
    "gaussian_q",
    "regularized_lower_gamma",
    "DEFAULT_CDF_TOL",
    "DEFAULT_SER_TOL",
    "NESTED_TIGHTENING",
]

#: Default relative tolerance for inner (CDF) quadratures.
DEFAULT_CDF_TOL = 1e-8
#: Default relative tolerance for the outer SER quadrature.
DEFAULT_SER_TOL = 1e-7
#: Factor by which an inner tolerance is tightened when nested inside another
#: quadrature, keeping the outer error estimate honest.
NESTED_TIGHTENING = 100.0

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
# Nodes ascending; the Gauss subset sits at the odd indices.
_XGK_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
])
_WGK_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
])
_WG_HALF = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
])

_NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF, [0.209482141084728], _WGK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF, [0.417959183673469], _WG_HALF[::-1]])


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration.

    ``converged`` guarantees ``error_estimate <= tol * max(|value|, floor)``
    for the tolerance and floor the integral was requested with.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class BatchQuadrature:
    """Per-integrand outcome of one ``integrate_batch`` call (1-D arrays).

    ``converged`` carries the QuadratureResult guarantee.  ``stuck`` marks
    integrands that ran out of intervals (or of splittable width) first;
    the batch stops in the round where that happens, so integrands with
    neither flag were left unfinished and hold their estimate so far.
    """

    value: np.ndarray
    error_estimate: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    stuck: np.ndarray


# Intervals per integrand call: bounds the live node array however many
# integrands a batch holds.
_RULE_CHUNK = 4096


def _apply_rule(f: Callable, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """Evaluate the Kronrod/Gauss pair on a batch of intervals at once.

    Row sums rather than a BLAS product keep each interval's value
    independent of how many other intervals share the call.
    """
    vals = np.empty(a.size)
    errs = np.empty(a.size)
    for start in range(0, a.size, _RULE_CHUNK):
        part = slice(start, start + _RULE_CHUNK)
        mid = 0.5 * (a[part] + b[part])
        half = 0.5 * (b[part] - a[part])
        x = mid[:, None] + half[:, None] * _NODES[None, :]
        y = np.asarray(f(x.reshape(-1), np.repeat(owner[part], _NODES.size)),
                       dtype=float).reshape(x.shape)
        vals[part] = half * (y * _WK).sum(axis=1)
        errs[part] = np.abs(vals[part] - half * (y[:, 1::2] * _WG).sum(axis=1))
    bad = ~np.isfinite(vals)
    vals[bad] = 0.0
    errs[bad] = np.inf
    return vals, errs


def integrate_batch(f: Callable, lo, hi, tol: float, *,
                    abs_floor: float = 1e-12,
                    max_intervals: int = 2048) -> BatchQuadrature:
    """Integrate a batch of integrands, the i-th over ``[lo[i], hi[i]]``.

    ``f(x, owner)`` returns the integrands at the abscissae ``x``, where
    ``owner[j]`` is the batch index of the integrand that ``x[j]`` belongs
    to.  Each integrand keeps its own interval set, starting as
    ``[lo[i], hi[i]]``, and every refinement round bisects all of its
    intervals whose local error exceeds an equal share of half the
    remaining budget (at least the worst one), so flat regions are left
    alone while problem spots are chased.  An integrand retires once its
    summed local errors drop below ``tol * max(|value|, abs_floor)``.  One
    that first reaches ``max_intervals`` (or has no interval left wider
    than rounding) stops the whole batch, with the best estimates returned
    rather than raised.  Every decision and sum is per integrand, so an
    integrand's result does not depend on the rest of the batch.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be 1-D arrays of one length")
    valid = np.isfinite(lo) & np.isfinite(hi) & (lo < hi)
    if not valid.all():
        bad = int(np.argmin(valid))
        raise ValueError(f"invalid integration interval [{lo[bad]}, {hi[bad]}]")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    n = lo.size
    value = np.zeros(n)
    error = np.zeros(n)
    converged = np.zeros(n, dtype=bool)
    stuck = np.zeros(n, dtype=bool)
    count = np.ones(n, dtype=np.int64)          # live intervals per integrand
    evaluated = np.ones(n, dtype=np.int64)      # intervals evaluated so far
    width_floor = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0) * 1e-15

    # owner[j] is the integrand of live interval j.  Each integrand's
    # intervals keep the relative order a one-integrand run gives them, and
    # bincount adds them in that order, so its sums do not see the batch.
    owner = np.arange(n)
    a, b = lo.copy(), hi.copy()
    vals, errs = _apply_rule(f, a, b, owner)

    while owner.size:
        active = np.zeros(n, dtype=bool)
        active[owner] = True
        total = np.bincount(owner, vals, minlength=n)
        total_err = np.bincount(owner, errs, minlength=n)
        target = tol * np.maximum(np.abs(total), abs_floor)
        value[active] = total[active]
        error[active] = total_err[active]
        done = active & (total_err <= target)
        converged |= done
        if done.any():
            keep = ~done[owner]
            a, b, vals, errs, owner = a[keep], b[keep], vals[keep], errs[keep], owner[keep]
            active &= ~done
            if not owner.size:
                break

        splittable = (b - a) > width_floor[owner]
        blocked = active & ((count >= max_intervals)
                            | (np.bincount(owner[splittable], minlength=n) == 0))
        if blocked.any():
            stuck |= blocked
            break

        pick = splittable & (errs > (target / (2.0 * count))[owner])
        for i in np.flatnonzero(active & (np.bincount(owner[pick], minlength=n) == 0)):
            mine = np.flatnonzero(owner == i)
            pick[mine[np.argmax(np.where(splittable[mine], errs[mine], -1.0))]] = True
        budget = max_intervals - count
        for i in np.flatnonzero(np.bincount(owner[pick], minlength=n) > budget):
            chosen = np.flatnonzero(pick & (owner == i))
            pick[chosen] = False
            pick[chosen[np.argsort(errs[chosen], kind="stable")[::-1][:budget[i]]]] = True

        picked = np.bincount(owner[pick], minlength=n)
        count += picked
        evaluated += 2 * picked
        pa, pb, po = a[pick], b[pick], owner[pick]
        mid = 0.5 * (pa + pb)
        sub_a = np.concatenate([pa, mid])
        sub_b = np.concatenate([mid, pb])
        sub_owner = np.concatenate([po, po])
        sub_vals, sub_errs = _apply_rule(f, sub_a, sub_b, sub_owner)
        rest = ~pick
        a = np.concatenate([a[rest], sub_a])
        b = np.concatenate([b[rest], sub_b])
        owner = np.concatenate([owner[rest], sub_owner])
        vals = np.concatenate([vals[rest], sub_vals])
        errs = np.concatenate([errs[rest], sub_errs])

    return BatchQuadrature(value, error, evaluated * _NODES.size, converged, stuck)


def integrate_finite(f: Callable, lo: float, hi: float, tol: float, *,
                     abs_floor: float = 1e-12,
                     max_intervals: int = 2048) -> QuadratureResult:
    """Integrate ``f`` over ``[lo, hi]`` to relative tolerance ``tol``.

    The one-integrand case of ``integrate_batch``: when refinement reaches
    ``max_intervals`` the best estimate comes back with ``converged=False``
    rather than raising.
    """
    r = integrate_batch(lambda x, _: f(x), lo, hi, tol,
                        abs_floor=abs_floor, max_intervals=max_intervals)
    return QuadratureResult(float(r.value[0]), float(r.error_estimate[0]),
                            int(r.evaluations[0]), bool(r.converged[0]))


def _unit_interval(f: Callable, lo, scale) -> Callable:
    """``f(x, owner)`` on ``[lo, inf)`` as an integrand of t on [0, 1).

    The substitution is ``x = lo + scale*t/(1-t)``, with ``lo`` and
    ``scale`` taken per owner.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    scale = np.atleast_1d(np.asarray(scale, dtype=float))
    if not np.all(np.isfinite(lo)):
        raise ValueError(f"lower limit must be finite, got {lo}")
    if not np.all((0.0 < scale) & (scale < math.inf)):
        raise ValueError(f"scale must be positive and finite, got {scale}")

    def mapped(t: np.ndarray, owner) -> np.ndarray:
        one_minus = 1.0 - t
        s = scale[owner]
        x = lo[owner] + s * t / one_minus
        return f(x, owner) * (s / one_minus ** 2)

    return mapped


def integrate_semi_infinite(f: Callable, lo: float, tol: float, *,
                            scale: float = 1.0,
                            abs_floor: float = 1e-12,
                            max_intervals: int = 2048) -> QuadratureResult:
    """Integrate ``f`` over ``[lo, inf)`` via ``x = lo + scale*t/(1-t)`` on [0, 1).

    ``scale`` sets the substitution's characteristic length (the t = 1/2
    node lands at lo + scale).  Pass the location of the integrand's mass
    when it sits far from lo + O(1); otherwise the mass is compressed
    against t = 1 where the initial nodes may see only zeros and adaptive
    refinement never finds it.
    """
    # Through integrate_finite, which bench/tracing.py counts by name.
    mapped = _unit_interval(lambda x, _: f(x), lo, scale)
    return integrate_finite(lambda t: mapped(t, 0), 0.0, 1.0, tol,
                            abs_floor=abs_floor, max_intervals=max_intervals)


def integrate_semi_infinite_batch(f: Callable, lo, tol: float, *, scale,
                                  abs_floor: float = 1e-12,
                                  max_intervals: int = 2048) -> BatchQuadrature:
    """``integrate_semi_infinite`` for a batch: ``f(x, owner)`` over ``[lo[i], inf)``.

    ``lo`` and ``scale`` are 1-D arrays, one entry per integrand; the
    batch runs through ``integrate_batch``, with its early stop.
    """
    n = np.size(lo)
    return integrate_batch(_unit_interval(f, lo, scale), np.zeros(n), np.ones(n), tol,
                           abs_floor=abs_floor, max_intervals=max_intervals)


_SQRT2 = math.sqrt(2.0)


def gaussian_q(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x} = erfc(x/sqrt(2))/2."""
    out = 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)
    if np.ndim(x) == 0:
        return float(out)
    return out


def regularized_lower_gamma(k, x):
    """Regularized lower incomplete gamma P(k, x) for k > 0, x >= 0."""
    kv = np.asarray(k, dtype=float)
    xv = np.asarray(x, dtype=float)
    if np.any(kv <= 0):
        raise ValueError("shape parameter k must be positive")
    if np.any(xv < 0):
        raise ValueError("x must be nonnegative")
    out = special.gammainc(kv, xv)
    if np.ndim(k) == 0 and np.ndim(x) == 0:
        return float(out)
    return out

"""Adaptive quadrature and special functions shared by the distribution and SER modules.

The integration engine is a vectorized adaptive Gauss-Kronrod 10/21 scheme
with interval bisection, run on a batch of integrands at once; the scalar
integrators are its one-integrand case.  Quadrature nodes are interior, so
integrands may be singular (or merely undefined) at interval endpoints as
long as the integral itself is finite; a node that rounds onto t = 1 of the
semi-infinite map (x = inf) counts 0 and is not evaluated.  Integrands must
accept a 1-D ndarray of abscissae and return a same-shaped ndarray.

Every integrand starts from the same fixed partition of its interval,
``START_PARTITION``: the pieces ``[0, 1/2], [1/2, 3/4], [3/4, 7/8],
[7/8, 1]`` of ``[lo, hi]``, which bisection would reach after three rounds
on the upper side.  Under the ``[0, 1)`` map of the semi-infinite
integrators, ``x = lo + t/(1-t)``, they are ``x - lo`` in ``[0, 1],
[1, 3], [3, 7], [7, inf)``, a geometric start.  Reported evaluation
counts include the start pieces.

Each integrand ends either converged, once its error estimate is at most
``tol * max(|value|, floor)`` (relative unless its caller passes a
``floor``), or not: one that runs out of room retires with its best
estimate and ``converged=False`` while the rest of the batch goes on.
Callers turn that flag into NaN; nothing here raises on non-convergence.

Each refinement round ranks an integrand's splittable intervals by error,
largest first, and bisects those above an equal share of half its
remaining error budget: at least one, and at most what ``MAX_INTERVALS``
leaves room for, the earlier of two equal errors first.  Results are
written once, in the round an integrand retires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

__all__ = [
    "QuadratureResult",
    "integrate_batch",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
    "gaussian_q",
    "regularized_lower_gamma",
    "DEFAULT_CDF_TOL",
    "DEFAULT_SER_TOL",
    "NESTED_TIGHTENING",
    "START_PARTITION",
    "MAX_INTERVALS",
]

#: Default relative tolerance for inner (CDF) quadratures.
DEFAULT_CDF_TOL = 1e-8
#: Default relative tolerance for the outer SER quadrature.
DEFAULT_SER_TOL = 1e-7
#: Factor by which an inner tolerance is tightened when nested inside another
#: quadrature, keeping the outer error estimate honest.
NESTED_TIGHTENING = 100.0
#: Breakpoints, as fractions of ``[lo, hi]``, of the pieces every integrand
#: starts from: bisection's first three rounds on the upper side.
START_PARTITION = (0.0, 0.5, 0.75, 0.875, 1.0)
#: Most intervals one integrand may hold: one that reaches it retires
#: unconverged with its best estimate.
MAX_INTERVALS = 2048

# QUADPACK's qk21 (Piessens et al. 1983): the 21-point Kronrod rule with
# its embedded 10-point Gauss rule on [-1, 1].  Nodes ascending; the Gauss
# subset sits at the odd indices.
_XGK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_WG_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

_NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF, [0.149445554002916905664936468389821], _WGK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF, _WG_HALF[::-1]])


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration: 1-D arrays, one entry per
    integrand, from the batch integrators; floats from the one-integrand ones.

    ``converged`` guarantees ``error_estimate <= tol * max(|value|, floor)``
    for the tolerance and floor the integral was requested with; where it
    is False the integrand ran out of intervals (or of splittable width)
    and holds its best estimate.
    """

    value: np.ndarray | float
    error_estimate: np.ndarray | float
    evaluations: np.ndarray | int
    converged: np.ndarray | bool


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
    # An infinite value is refined away; a NaN one stays, to retire its integrand.
    bad = np.isinf(vals)
    vals[bad] = 0.0
    errs[bad] = np.inf
    return vals, errs


def _pick_splits(owner, errs, splittable, threshold, room):
    """Mask of the intervals to bisect (module docstring); ``threshold``, ``room`` per owner."""
    above = np.bincount(owner[splittable & (errs > threshold[owner])], minlength=threshold.size)
    order = np.lexsort((-np.where(splittable, errs, -1.0), owner))
    rank = np.empty(owner.size, dtype=np.intp)
    rank[order] = np.arange(owner.size) - np.searchsorted(owner[order], owner[order])
    return splittable & (rank < np.minimum(np.maximum(above, 1), room)[owner])


def integrate_batch(f: Callable, lo, hi, tol: float, *, floor=1e-300) -> QuadratureResult:
    """Integrate a batch of integrands, the i-th over ``[lo[i], hi[i]]``.

    ``f(x, owner)`` returns the integrands at the abscissae ``x``, where
    ``owner[j]`` is the batch index of the integrand that ``x[j]`` belongs
    to.  Each integrand keeps its own interval set, starting as the
    ``START_PARTITION`` pieces of ``[lo[i], hi[i]]``; every round bisects,
    largest local error first (ties in interval order), its splittable
    intervals above an equal share of half the remaining budget, at least
    one and at most what ``MAX_INTERVALS`` leaves room for, so flat regions
    are left alone while problem spots are chased.  An integrand
    retires converged once its summed local errors drop below
    ``tol * max(|value|, floor[i])`` (``floor`` is one nonnegative value
    for all, or one per integrand), and unconverged, with its best
    estimate, once it reaches ``MAX_INTERVALS`` or has no interval left
    wider than rounding.  A NaN integrand value retires its integrand
    unconverged, with value NaN, in the round that meets it; an infinite
    one counts as value 0 with an infinite error, to be refined.  Every
    decision and sum is per integrand, so an integrand's result does not
    depend on the rest of the batch; its results are written once, in the
    round it retires.  ``evaluations`` counts every node evaluated, the
    start pieces' included.
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
    floor = np.broadcast_to(np.asarray(floor, dtype=float), lo.shape)
    if not np.all((0.0 <= floor) & (floor < math.inf)):
        raise ValueError(f"floor must be nonnegative and finite, got {floor}")

    pieces = len(START_PARTITION) - 1
    n = lo.size
    value, error = np.zeros(n), np.zeros(n)
    converged = np.zeros(n, dtype=bool)
    count = np.full(n, pieces, dtype=np.int64)  # live intervals; a split adds 1, evaluates 2
    width_floor = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0) * 1e-15

    # owner[j] is the integrand of live interval j.  Each integrand's
    # intervals keep the relative order a one-integrand run gives them, and
    # bincount adds them in that order, so its sums do not see the batch.
    edges = lo[:, None] + (hi - lo)[:, None] * np.array(START_PARTITION)
    edges[:, -1] = hi  # lo + (hi - lo) need not round to hi
    owner = np.repeat(np.arange(n), pieces)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    vals, errs = _apply_rule(f, a, b, owner)

    while owner.size:
        total = np.bincount(owner, vals, minlength=n)
        total_err = np.bincount(owner, errs, minlength=n)
        target = tol * np.maximum(np.abs(total), floor)
        ok = total_err <= target
        splittable = (b - a) > width_floor[owner]
        retire = (ok | (count >= MAX_INTERVALS) | np.isnan(total)
                  | (np.bincount(owner[splittable], minlength=n) == 0))[owner]
        i = owner[retire]
        value[i], error[i], converged[i] = total[i], total_err[i], ok[i]
        keep = ~retire
        a, b, vals, errs, owner = a[keep], b[keep], vals[keep], errs[keep], owner[keep]
        splittable = splittable[keep]
        if not owner.size:
            break

        pick = _pick_splits(owner, errs, splittable, target / (2.0 * count), MAX_INTERVALS - count)
        count += np.bincount(owner[pick], minlength=n)
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

    return QuadratureResult(value, error, (2 * count - pieces) * _NODES.size, converged)


def integrate_finite(f: Callable, lo: float, hi: float, tol: float) -> QuadratureResult:
    """Integrate ``f`` over ``[lo, hi]``: the one-integrand case of ``integrate_batch``."""
    r = integrate_batch(lambda x, _: f(x), lo, hi, tol)
    return QuadratureResult(float(r.value[0]), float(r.error_estimate[0]),
                            int(r.evaluations[0]), bool(r.converged[0]))


def _unit_interval(f: Callable, lo) -> Callable:
    """``f(x, owner)`` on ``[lo, inf)`` as an integrand of t on [0, 1): x = lo + t/(1-t)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    if not np.all(np.isfinite(lo)):
        raise ValueError(f"lower limit must be finite, got {lo}")

    def mapped(t: np.ndarray, owner) -> np.ndarray:
        # t = 1, a node rounded onto the end, is x = inf: it counts 0, and f sees a stand-in.
        inside = t < 1.0
        one_minus = np.where(inside, 1.0 - t, 1.0)
        return np.where(inside, f(lo[owner] + t / one_minus, owner) * (1.0 / one_minus ** 2),
                        0.0)

    return mapped


def integrate_semi_infinite(f: Callable, lo: float, tol: float) -> QuadratureResult:
    """Integrate ``f`` over ``[lo, inf)`` via ``x = lo + t/(1-t)`` on [0, 1)."""
    # Through integrate_finite, which bench/tracing.py counts by name.
    mapped = _unit_interval(lambda x, _: f(x), lo)
    return integrate_finite(lambda t: mapped(t, 0), 0.0, 1.0, tol)


def integrate_semi_infinite_batch(f: Callable, lo, tol: float) -> QuadratureResult:
    """``integrate_semi_infinite`` for a batch: ``f(x, owner)`` over ``[lo[i], inf)``.

    ``lo`` is a 1-D array, one entry per integrand; the batch runs through
    ``integrate_batch``.
    """
    n = np.size(lo)
    return integrate_batch(_unit_interval(f, lo), np.zeros(n), np.ones(n), tol)


_SQRT2 = math.sqrt(2.0)


def gaussian_q(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x} = erfc(x/sqrt(2))/2."""
    values = np.asarray(x, dtype=float)
    out = np.divide(values, _SQRT2, out=np.empty_like(values))
    special.erfc(out, out=out)
    out *= 0.5
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

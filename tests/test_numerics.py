"""Quadrature engine and special functions against known closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohop.numerics import (
    _NODES,
    _WG,
    _WK,
    START_PARTITION,
    QuadratureResult,
    _pick_splits,
    gaussian_q,
    integrate_batch,
    integrate_finite,
    integrate_semi_infinite,
    regularized_lower_gamma,
)

# (description, integrator call, exact value) — every entry has a textbook
# closed form.  Shared with the acceptance suite.
KNOWN_INTEGRALS = [
    ("x^2 on [0,1]",
     lambda tol: integrate_finite(lambda x: x * x, 0.0, 1.0, tol), 1.0 / 3.0),
    ("constant 1 on [0,1]",
     lambda tol: integrate_finite(lambda x: np.ones_like(x), 0.0, 1.0, tol), 1.0),
    ("sin on [0,pi]",
     lambda tol: integrate_finite(np.sin, 0.0, math.pi, tol), 2.0),
    ("cos on [0,pi/2]",
     lambda tol: integrate_finite(np.cos, 0.0, math.pi / 2.0, tol), 1.0),
    ("e^x on [0,1]",
     lambda tol: integrate_finite(np.exp, 0.0, 1.0, tol), math.e - 1.0),
    ("x^5 on [0,1]",
     lambda tol: integrate_finite(lambda x: x ** 5, 0.0, 1.0, tol), 1.0 / 6.0),
    ("1/(1+x^2) on [-1,1]",
     lambda tol: integrate_finite(lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, tol),
     math.pi / 2.0),
    ("log(1+x) on [0,1]",
     lambda tol: integrate_finite(lambda x: np.log1p(x), 0.0, 1.0, tol),
     2.0 * math.log(2.0) - 1.0),
    ("1/(1+x) on [0,1]",
     lambda tol: integrate_finite(lambda x: 1.0 / (1.0 + x), 0.0, 1.0, tol),
     math.log(2.0)),
    ("4/(1+x^2) on [0,1]",
     lambda tol: integrate_finite(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, tol),
     math.pi),
    ("sin^2 on [0,pi]",
     lambda tol: integrate_finite(lambda x: np.sin(x) ** 2, 0.0, math.pi, tol),
     math.pi / 2.0),
    ("x^3 on [0,2]",
     lambda tol: integrate_finite(lambda x: x ** 3, 0.0, 2.0, tol), 4.0),
    ("x^-2 on [1,inf)",
     lambda tol: integrate_semi_infinite(lambda x: x ** -2.0, 1.0, tol), 1.0),
    ("e^-x on [0,inf)",
     lambda tol: integrate_semi_infinite(lambda x: np.exp(-x), 0.0, tol), 1.0),
    ("x e^-x on [0,inf)",
     lambda tol: integrate_semi_infinite(lambda x: x * np.exp(-x), 0.0, tol), 1.0),
    ("x^2 e^-x on [0,inf)",
     lambda tol: integrate_semi_infinite(lambda x: x * x * np.exp(-x), 0.0, tol),
     2.0),
    ("e^{-x^2} on [0,inf)",
     lambda tol: integrate_semi_infinite(lambda x: np.exp(-x * x), 0.0, tol),
     math.sqrt(math.pi) / 2.0),
    ("e^-x sin x on [0,inf)",
     lambda tol: integrate_semi_infinite(lambda x: np.exp(-x) * np.sin(x), 0.0, tol),
     0.5),
    ("e^-2x on [0,inf)",
     lambda tol: integrate_semi_infinite(lambda x: np.exp(-2.0 * x), 0.0, tol),
     0.5),
    ("x^3 e^{-x^2} on [0,inf)",
     lambda tol: integrate_semi_infinite(lambda x: x ** 3 * np.exp(-x * x), 0.0, tol),
     0.5),
]


def test_known_integrals():
    for name, run, exact in KNOWN_INTEGRALS:
        result = run(1e-9)
        assert result.converged, name
        assert abs(result.value - exact) <= 1e-8, (name, result.value, exact)


def test_result_fields_are_consistent():
    result = integrate_finite(np.sin, 0.0, math.pi, 1e-10)
    assert isinstance(result, QuadratureResult)
    assert result.evaluations >= 15
    assert result.error_estimate >= 0.0
    # converged promises the error estimate honoured the request
    assert result.error_estimate <= 1e-10 * max(abs(result.value), 1e-12)


def test_endpoint_singularity_is_integrable():
    # 1/sqrt(x) is infinite at the left endpoint; nodes are interior, so
    # the engine can still dig in by bisection and certify a moderate
    # tolerance (machine-level ones would need sub-float interval widths).
    result = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 4.0, 1e-7,
                              max_intervals=8192)
    assert result.converged
    assert abs(result.value - 4.0) < 1e-6


def test_budget_exhaustion_reports_instead_of_raising():
    result = integrate_finite(lambda x: np.sin(1.0 / x), 1e-9, 1.0, 1e-15,
                              max_intervals=8)
    assert not result.converged
    assert result.error_estimate > 0.0
    assert math.isfinite(result.value)


def _bump(mu: float, k: float = 9.0):
    """Gamma(k, mu/k) density: a steep polynomial rise, all mass near mu."""
    coeff = (k / mu) ** k / math.gamma(k)
    return lambda x: coeff * x ** (k - 1.0) * np.exp(-k * x / mu)


def test_start_partition_finds_mass_a_million_scales_out():
    # The start piece [7, inf) puts nodes far enough out that refinement
    # finds a bump at 1e6.
    found = integrate_semi_infinite(_bump(1e6), 0.0, 1e-9)
    assert found.converged
    assert abs(found.value - 1.0) < 1e-11


def test_relative_stopping_rule_finds_mass_a_billion_scales_out():
    # While the integral seen so far is tiny, only a relative stopping rule
    # keeps refining towards the tail, so a bump at 1e9 is found too.
    found = integrate_semi_infinite(_bump(1e9), 0.0, 1e-9)
    assert found.converged
    assert abs(found.value - 1.0) < 1e-9


def test_a_node_rounded_onto_infinity_never_reaches_the_integrand():
    # At a bump 1e13 out, intervals near t = 1 shrink to a few ulps and a
    # node rounds onto t = 1; it counts 0 instead of f(inf) / 0 = NaN.
    infinite = []

    def density(x):
        infinite.append(bool(np.isinf(x).any()))
        return _bump(1e13)(x)

    found = integrate_semi_infinite(density, 0.0, 1e-8)
    assert not any(infinite)
    assert math.isfinite(found.value) and math.isfinite(found.error_estimate)
    assert not found.converged or abs(found.value - 1.0) <= 1e-8


def test_rule_integrates_polynomials_to_its_degree():
    # Gauss-Kronrod 10/21: the Kronrod rule is exact through degree 31,
    # its embedded Gauss rule (the odd-index nodes) through degree 19.
    assert _NODES.size == 21 and np.all(np.diff(_NODES) > 0)
    assert math.isclose(_WK.sum(), 2.0, rel_tol=1e-15)
    assert math.isclose(_WG.sum(), 2.0, rel_tol=1e-15)
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs((_WK * _NODES ** k).sum() - exact) <= 1e-15, k
        if k <= 19:
            assert abs((_WG * _NODES[1::2] ** k).sum() - exact) <= 1e-15, k


def test_rule_constants_match_scipy_qk21(monkeypatch):
    # SciPy keeps QUADPACK's qk21 table inside _quadrature_gk21: nodes
    # descending, the 10-point Gauss weights, then the 21-point weights.
    from scipy.integrate import _quad_vec

    monkeypatch.setattr(_quad_vec, "_quadrature_gk", lambda a, b, f, norm, x, w, v: (x, w, v))
    x, w, v = _quad_vec._quadrature_gk21(-1.0, 1.0, None, None)
    assert _NODES.tolist() == [float(node) for node in x[::-1]]
    assert _WK.tolist() == list(v) and _WG.tolist() == list(w)


def test_evaluations_count_the_start_pieces():
    # x^2 is exact on every start piece, so nothing is refined
    result = integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-9)
    assert result.converged
    assert result.evaluations == (len(START_PARTITION) - 1) * 21 == 84


def test_rejects_fewer_intervals_than_start_pieces():
    pieces = len(START_PARTITION) - 1
    with pytest.raises(ValueError, match="max_intervals"):
        integrate_batch(lambda x, _: x, [0.0], [1.0], 1e-8, max_intervals=pieces - 1)
    assert integrate_finite(lambda x: x, 0.0, 1.0, 1e-8, max_intervals=pieces).converged


BATCH_INTEGRANDS = [
    (lambda x: x * x, 0.0, 1.0),
    (np.sin, 0.0, math.pi),
    (lambda x: 1.0 / (1.0 + 1e4 * x * x), -1.0, 1.0),
    (lambda x: np.sin(1.0 / x), 1e-3, 1.0),
    (lambda x: np.exp(-x * x), -3.0, 5.0),
]


def _batched(x, owner):
    out = np.empty_like(x)
    for i, (f, _, _) in enumerate(BATCH_INTEGRANDS):
        mine = owner == i
        out[mine] = f(x[mine])
    return out


def test_batch_matches_one_integrand_calls_bit_for_bit():
    lo = [c[1] for c in BATCH_INTEGRANDS]
    hi = [c[2] for c in BATCH_INTEGRANDS]
    batch = integrate_batch(_batched, lo, hi, 1e-9, max_intervals=4096)
    assert batch.converged.all()
    for i, (f, a, b) in enumerate(BATCH_INTEGRANDS):
        alone = integrate_finite(f, a, b, 1e-9, max_intervals=4096)
        assert alone.converged
        assert (batch.value[i], batch.error_estimate[i], batch.evaluations[i]) == (
            alone.value, alone.error_estimate, alone.evaluations)


def test_stuck_integrand_retires_alone():
    # sin(1/x) near 1e-9 exhausts 64 intervals while the others go on
    # refining; every integrand ends as its one-integrand call does
    cases = [(lambda x: x * x, 0.0, 1.0),
             (lambda x: np.sin(1.0 / x), 1e-9, 1.0),
             (lambda x: 1.0 / np.sqrt(x), 0.0, 4.0)]

    def f(x, owner):
        return np.choose(owner, [g(x) for g, _, _ in cases])

    batch = integrate_batch(f, [c[1] for c in cases], [c[2] for c in cases], 1e-12,
                            max_intervals=64)
    assert not batch.converged[1]
    for i, (g, a, b) in enumerate(cases):
        alone = integrate_finite(g, a, b, 1e-12, max_intervals=64)
        assert (batch.value[i], batch.error_estimate[i], batch.evaluations[i],
                batch.converged[i]) == (alone.value, alone.error_estimate,
                                        alone.evaluations, alone.converged)


def _poisoned(bad: float):
    """x^2 on [0, 0.9], then ``bad``: the start piece [7/8, 1] meets it at once."""
    return lambda x: np.where(x > 0.9, bad, x * x)


def test_nan_integrand_retires_at_once_and_alone():
    # A NaN value retires its integrand unconverged after the start pieces;
    # an infinite one is bisected until the budget runs out.
    start = (len(START_PARTITION) - 1) * 21
    with np.errstate(invalid="ignore"):  # inf - inf in the infinite pieces' errors
        nan_alone = integrate_finite(_poisoned(math.nan), 0.0, 1.0, 1e-9, max_intervals=64)
        inf_alone = integrate_finite(_poisoned(math.inf), 0.0, 1.0, 1e-9, max_intervals=64)
    assert not nan_alone.converged and math.isnan(nan_alone.value)
    assert nan_alone.evaluations == start < inf_alone.evaluations
    assert not inf_alone.converged

    cases = [(lambda x: x * x, 0.0, 1.0), (_poisoned(math.nan), 0.0, 1.0),
             (lambda x: np.sin(1.0 / x), 1e-3, 1.0)]

    def f(x, owner):
        return np.choose(owner, [g(x) for g, _, _ in cases])

    batch = integrate_batch(f, [c[1] for c in cases], [c[2] for c in cases], 1e-9,
                            max_intervals=4096)
    assert batch.converged.tolist() == [True, False, True]
    for i, (g, a, b) in enumerate(cases):
        alone = integrate_finite(g, a, b, 1e-9, max_intervals=4096)
        assert np.array_equal([batch.value[i], batch.error_estimate[i]],
                              [alone.value, alone.error_estimate], equal_nan=True)
        assert (batch.evaluations[i], batch.converged[i]) == (alone.evaluations,
                                                              alone.converged)


def _three_step_pick(owner, errs, splittable, threshold, room):
    """The round's picks as three steps, owner by owner: each splittable interval
    above the threshold; else the first worst splittable one; then, past the
    room, only the largest errors."""
    pick = np.zeros(owner.size, dtype=bool)
    for i in np.unique(owner):
        mine = np.flatnonzero((owner == i) & splittable)
        chosen = mine[errs[mine] > threshold[i]]
        if not chosen.size:
            chosen = mine[[np.argmax(errs[mine])]]
        if chosen.size > room[i]:
            chosen = chosen[np.argsort(errs[chosen], kind="stable")[::-1][:room[i]]]
        pick[chosen] = True
    return pick


def test_pick_splits_matches_the_three_step_owner_loop():
    rng = np.random.default_rng(4)
    seen = {"threshold": 0, "fallback": 0, "capped": 0, "unsplittable": 0}
    for _ in range(50):
        n = int(rng.integers(1, 12))
        owner = rng.integers(0, n, 300)
        owner[:n] = np.arange(n)  # every owner has a live interval
        errs = rng.permutation(300) * rng.uniform(1e-12, 1.0)  # distinct errors
        splittable = rng.random(300) < 0.8
        splittable[:n] = True  # and a splittable one, as every live owner does
        threshold = errs.max() * rng.uniform(0.5, 1.02, n)
        room = rng.integers(1, 30, n)
        pick = _pick_splits(owner, errs, splittable, threshold, room)
        assert pick.tolist() == _three_step_pick(owner, errs, splittable, threshold,
                                                 room).tolist()
        for i in range(n):
            mine = owner == i
            above = np.count_nonzero(mine & splittable & (errs > threshold[i]))
            seen["threshold"] += 0 < above <= room[i]
            seen["fallback"] += above == 0
            seen["capped"] += above > room[i]
            # an interval the threshold would take were it splittable
            seen["unsplittable"] += bool(np.any(mine & ~splittable & (errs > threshold[i])))
    assert min(seen.values()) > 0


def test_fallback_picks_in_one_round_match_one_integrand_calls():
    # 1/sqrt|x - c|: once nodes land on c (a bisection point, or 0.3 once
    # intervals shrink to rounding width), the interval there has an
    # infinite error and no splittable width, and every other interval is
    # below its share of the budget.  From then on such an integrand
    # refines only through the fallback pick, its worst splittable
    # interval; the first four poles do so in the same rounds, while the
    # last one converges.
    poles = np.array([0.5, 0.25, 0.75, 0.3, 0.375])

    def f(x, owner):
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(np.abs(x - poles[owner]))

    with np.errstate(invalid="ignore"):  # inf - inf in a stuck interval's error
        batch = integrate_batch(f, np.zeros(poles.size), np.ones(poles.size), 1e-9,
                                max_intervals=200)
    assert batch.converged.tolist() == [False, False, False, False, True]
    for i in range(poles.size):
        with np.errstate(invalid="ignore"):
            alone = integrate_batch(lambda x, _: f(x, np.full(x.size, i)), 0.0, 1.0, 1e-9,
                                    max_intervals=200)
        assert (batch.value[i], batch.error_estimate[i], batch.evaluations[i],
                batch.converged[i]) == (alone.value[0], alone.error_estimate[0],
                                        alone.evaluations[0], alone.converged[0])


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0),
                                   (math.nan, 1.0), (0.0, math.inf)])
def test_rejects_bad_interval(lo, hi):
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, lo, hi, 1e-8)


def test_rejects_bad_tolerance_floor_and_lower_limit():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, 1.0, -1e-8)
    for floor in (-1e-12, math.nan, math.inf, [1e-12, -1.0]):
        with pytest.raises(ValueError, match="floor"):
            integrate_batch(lambda x, _: x, [0.0, 0.0], [1.0, 1.0], 1e-8, floor=floor)
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda x: x, math.inf, 1e-8)


@settings(deadline=None, max_examples=50)
@given(
    coeffs=st.tuples(*(st.floats(-5.0, 5.0) for _ in range(4))),
    lo=st.floats(-3.0, 3.0),
    width=st.floats(0.1, 5.0),
)
def test_cubic_polynomials_integrate_exactly(coeffs, lo, width):
    c0, c1, c2, c3 = coeffs
    hi = lo + width

    def antiderivative(x):
        return c0 * x + c1 * x ** 2 / 2 + c2 * x ** 3 / 3 + c3 * x ** 4 / 4

    result = integrate_finite(
        lambda x: c0 + c1 * x + c2 * x ** 2 + c3 * x ** 3, lo, hi, 1e-10)
    exact = antiderivative(hi) - antiderivative(lo)
    assert result.converged
    assert math.isclose(result.value, exact, rel_tol=1e-9, abs_tol=1e-9)


def test_gaussian_q_spot_values():
    assert gaussian_q(0.0) == 0.5
    assert math.isclose(gaussian_q(1.0), 0.15865525393145707, rel_tol=1e-12)
    assert math.isclose(gaussian_q(3.0), 0.0013498980316300957, rel_tol=1e-12)
    assert math.isclose(gaussian_q(-1.0), 0.8413447460685429, rel_tol=1e-12)


def test_gaussian_q_symmetry_and_shape():
    xs = np.linspace(-6.0, 6.0, 41)
    values = gaussian_q(xs)
    assert values.shape == xs.shape
    assert np.all(np.abs(values + gaussian_q(-xs) - 1.0) < 1e-10)
    assert np.all(np.diff(values) < 0)  # strictly decreasing
    assert isinstance(gaussian_q(1.5), float)


def test_regularized_lower_gamma_values():
    # P(2, x) = 1 - e^-x (1 + x); at x = 2 this is 1 - 3 e^-2
    assert math.isclose(regularized_lower_gamma(2.0, 2.0),
                        0.5939941502901619, rel_tol=1e-12)
    assert regularized_lower_gamma(3.5, 0.0) == 0.0
    assert regularized_lower_gamma(3.5, np.inf) == 1.0
    xs = np.linspace(0.0, 30.0, 200)
    values = regularized_lower_gamma(1.7, xs)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= 0)


def test_regularized_lower_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        regularized_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(-2.0, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(1.0, -0.5)

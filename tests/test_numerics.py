"""Quadrature engine and special functions against known closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohop.numerics import (
    QuadratureResult,
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


def test_distant_mass_needs_matching_scale():
    # Density-like integrand (steep polynomial rise, all mass near 1e6):
    # with the substitution scale matched to the bump location the initial
    # nodes straddle it and the unit integral comes out; with the default
    # scale every node lands far left of the rise, so the result is either
    # flagged as non-converged or silently near zero.
    mu, k = 1e6, 9.0
    coeff = (k / mu) ** k / math.gamma(k)

    def bump(x):
        return coeff * x ** (k - 1.0) * np.exp(-k * x / mu)

    matched = integrate_semi_infinite(bump, 0.0, 1e-9, scale=mu)
    assert matched.converged
    assert abs(matched.value - 1.0) < 1e-8

    blind = integrate_semi_infinite(bump, 0.0, 1e-9)
    assert (not blind.converged) or abs(blind.value - 1.0) > 0.5


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
    assert batch.converged.all() and not batch.stuck.any()
    for i, (f, a, b) in enumerate(BATCH_INTEGRANDS):
        alone = integrate_finite(f, a, b, 1e-9, max_intervals=4096)
        assert alone.converged
        assert (batch.value[i], batch.error_estimate[i], batch.evaluations[i]) == (
            alone.value, alone.error_estimate, alone.evaluations)


def test_batch_stops_when_one_integrand_is_stuck():
    # sin(1/x) near 1e-9 exhausts 64 intervals; x^2 converges at once; the
    # endpoint singularity is still refining when the batch stops
    lo, hi = [0.0, 1e-9, 0.0], [1.0, 1.0, 4.0]

    def f(x, owner):
        return np.choose(owner, [x * x, np.sin(1.0 / x), 1.0 / np.sqrt(x)])

    batch = integrate_batch(f, lo, hi, 1e-12, max_intervals=64)
    assert batch.converged.tolist() == [True, False, False]
    assert batch.stuck.tolist() == [False, True, False]
    stuck = integrate_finite(lambda x: np.sin(1.0 / x), 1e-9, 1.0, 1e-12,
                             max_intervals=64)
    assert batch.value[1] == stuck.value
    assert batch.evaluations[1] == stuck.evaluations
    unfinished = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 4.0, 1e-12,
                                  max_intervals=64)
    assert batch.evaluations[2] <= unfinished.evaluations


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0),
                                   (math.nan, 1.0), (0.0, math.inf)])
def test_rejects_bad_interval(lo, hi):
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, lo, hi, 1e-8)


def test_rejects_bad_tolerance_and_scale():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, 1.0, -1e-8)
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda x: x, 0.0, 1e-8, scale=0.0)
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda x: x, 0.0, 1e-8, scale=math.inf)
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

import inspect
from dataclasses import replace
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def fail_inner_quadratures(monkeypatch):
    """``fail(picks)`` makes chosen inner CDF quadratures report no convergence.

    It wraps ``relay.integrate_batch``: an element for which
    ``picks(mean, gamma)`` holds, with ``mean`` its hop-2 law's mean bound
    (candidates * mean), keeps its value but comes back unconverged.  Which
    elements fail then rests on the inputs alone, not on the quadrature's path.
    """
    import twohop.relay as relay_module

    real_batch = relay_module.integrate_batch

    def fail(picks):
        def failing_batch(integrand, *args, **kwargs):
            result = real_batch(integrand, *args, **kwargs)
            # the integrand's closure holds the batch's elements and their links
            cells = inspect.getclosurevars(integrand).nonlocals
            chosen = picks(cells["hop2"].mean_bound[cells["law"]], cells["gamma"])
            return replace(result, converged=result.converged & ~chosen)

        monkeypatch.setattr(relay_module, "integrate_batch", failing_batch)

    return fail

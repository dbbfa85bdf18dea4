import numpy as np
import pytest
from hypothesis import settings

from ditsim import THZ, SystemParams

# a long run of the property tests that set no example count of their own
# (the formatter tests): ``pytest --hypothesis-profile=soak``
settings.register_profile("soak", max_examples=20_000, deadline=None)


@pytest.fixture
def make_params():
    """Factory taking rates in THz, matching how configs are written."""

    def make(gamma=1.0, g=0.33, tau=0.001, kappa=0.1, delta=0.0, omega0=0.0):
        return SystemParams(
            gamma=gamma * THZ,
            g=g * THZ,
            tau=tau * THZ,
            kappa=kappa * THZ,
            delta=delta * THZ,
            omega0=omega0 * THZ,
        )

    return make


@pytest.fixture
def baseline(make_params):
    """Reference operating point used throughout: strong-Purcell drop filter."""
    return make_params()


@pytest.fixture
def draw_params():
    """Random valid parameter sets, rates log-uniform over 1e-3..1e1 THz."""

    def draw(rng: np.random.Generator) -> SystemParams:
        gamma, g, tau, kappa = (10.0 ** rng.uniform(-3, 1, size=4)) * THZ
        delta = rng.uniform(-5.0, 5.0) * THZ
        return SystemParams(gamma=gamma, g=g, tau=tau, kappa=kappa, delta=delta)

    return draw

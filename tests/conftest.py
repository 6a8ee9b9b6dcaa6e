"""Shared fixtures: the reference parameter point and a sampler for accepted regimes."""

import numpy as np
import pytest

from pfcircuit import Model, normalized

REFERENCE_MU = 0.5
REFERENCE_GAMMA = 3.0


def sample_accepted(rng, n):
    """Yield n random (mu, gamma) pairs inside the accepted regime.

    The regime is gamma^2 > 2*alpha*(1 + sqrt(1 - mu^2)) with 0 < mu^2 < 1;
    gamma is drawn a random factor above the threshold.
    """
    out = []
    while len(out) < n:
        mu = float(rng.uniform(0.05, 0.9))
        alpha = 1.0 / (1.0 - mu * mu)
        threshold = 2.0 * alpha * (1.0 + np.sqrt(1.0 - mu * mu))
        gamma = float(np.sqrt(threshold * rng.uniform(1.2, 4.0)))
        out.append((mu, gamma))
    return out


@pytest.fixture(scope="session")
def reference_model():
    return Model(normalized(REFERENCE_MU, REFERENCE_GAMMA, i1=1.0))


@pytest.fixture(scope="session")
def reference_params(reference_model):
    return reference_model.params


@pytest.fixture(scope="session")
def reference_derived(reference_model):
    return reference_model.derived


@pytest.fixture(scope="session")
def reference_spectrum(reference_model):
    return reference_model.spec


@pytest.fixture(scope="session")
def reference_generator(reference_model):
    return reference_model.generator


@pytest.fixture(scope="session")
def reference_T(reference_model):
    return reference_model.T


@pytest.fixture(scope="session")
def reference_pf(reference_model):
    return reference_model.pf


@pytest.fixture(scope="session")
def reference_pair(reference_model):
    return reference_model.pair


@pytest.fixture(scope="session")
def reference_coefficients(reference_model):
    return reference_model.coeffs

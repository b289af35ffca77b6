"""Shared fixtures: config isolation, common frames, hypothesis profiles.

Two hypothesis profiles, selectable with ``--hypothesis-profile``:

- ``ci`` (the default): derandomized and bounded, so every run replays
  the same examples in seconds;
- ``soak``: a long randomized run of the stateful oracle
  (``tests/service/test_oracle.py``) for local soak testing.

Tests that pin ``max_examples`` in their own ``@settings`` keep it under
either profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import LuxDataFrame, config_overlay

settings.register_profile(
    "ci",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=12,
    stateful_step_count=8,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "soak",
    deadline=None,
    max_examples=200,
    stateful_step_count=20,
    suppress_health_check=[HealthCheck.too_slow],
)
# The hypothesis plugin loads a --hypothesis-profile after this module.
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _config_isolation():
    """Every test runs against pristine config and restores it afterwards."""
    with config_overlay():
        yield
        from repro.core.optimizer.scheduler import drain_all

        drain_all()


@pytest.fixture
def employees() -> LuxDataFrame:
    """A small mixed-type frame used across core tests."""
    rng = np.random.default_rng(42)
    n = 400
    return LuxDataFrame(
        {
            "Age": np.round(rng.normal(40, 10, n), 1),
            "MonthlyIncome": np.round(rng.lognormal(8.5, 0.6, n), 2),
            "HourlyRate": np.round(rng.uniform(20, 120, n), 2),
            "Education": rng.choice(["HS", "BS", "MS", "PhD"], n).tolist(),
            "Department": rng.choice(["Sales", "Eng", "Ops"], n, p=[0.5, 0.3, 0.2]).tolist(),
            "Attrition": rng.choice(["Yes", "No"], n, p=[0.2, 0.8]).tolist(),
            "Country": rng.choice(
                ["France", "Germany", "Japan", "Brazil", "Kenya"], n
            ).tolist(),
        }
    )


@pytest.fixture
def tiny() -> LuxDataFrame:
    return LuxDataFrame(
        {
            "city": ["a", "b", "a", "c", None],
            "pop": [1.0, 2.0, 3.0, None, 5.0],
            "n": [1, 2, 3, 4, 5],
        }
    )

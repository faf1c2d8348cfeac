"""Shared benchmark fixtures.

The study is generated once per session, so the ablation benches measure
only the design choice they compare, never study synthesis.
"""

import pytest

from repro.core import build_default_study


@pytest.fixture(scope="session")
def study():
    """Benchmark-scale study: both cohorts + a 6-month telemetry window."""
    return build_default_study(
        seed=2024, n_baseline=150, n_current=200, months=6, jobs_per_day=200
    )

"""Golden-artifact regression suite.

Regenerates every registered experiment from the same full-scale seeded
study that produced the checked-in ``artifacts/`` renderings (see
``examples/full_reproduction.py``) and asserts the text output matches
byte-for-byte. This pins the entire analysis stack — synthesis, scheduler
simulation, statistics, rendering — to a known-good output, so no refactor
can silently change results.

The comparison itself lives in :mod:`repro.audit.digests`
(``render_artifact``/``load_golden``/``compare_to_goldens``) and is shared
with the ``repro audit`` CLI, so this suite and the user-facing audit can
never disagree about what "byte-identical" means.

The study build dominates the cost (~25s), so everything shares one
module-scoped study; the artifact comparisons themselves are cheap.
"""

from pathlib import Path

import pytest

from repro.audit.digests import compare_to_goldens, golden_ids, load_golden, render_artifact
from repro.core import build_default_study
from repro.report import EXPERIMENTS, run_all_experiments

ARTIFACT_DIR = Path(__file__).resolve().parents[2] / "artifacts"

# Must mirror examples/full_reproduction.py, which wrote the goldens.
FULL_SCALE = dict(seed=888, n_baseline=120, n_current=300, months=24, jobs_per_day=450)

GOLDEN_IDS = golden_ids(ARTIFACT_DIR)


@pytest.fixture(scope="module")
def full_study():
    return build_default_study(**FULL_SCALE)


@pytest.fixture(scope="module")
def sequential_artifacts(full_study):
    return run_all_experiments(full_study)


def test_goldens_exist_for_every_experiment():
    assert GOLDEN_IDS, f"no golden artifacts found under {ARTIFACT_DIR}"
    missing = sorted(set(EXPERIMENTS) - set(GOLDEN_IDS))
    assert not missing, f"experiments without golden artifacts: {missing}"


def test_no_orphan_goldens():
    orphans = sorted(set(GOLDEN_IDS) - set(EXPERIMENTS))
    assert not orphans, f"golden artifacts without a registered experiment: {orphans}"


@pytest.mark.parametrize("eid", GOLDEN_IDS)
def test_golden_artifact_byte_identical(sequential_artifacts, eid):
    golden = load_golden(ARTIFACT_DIR, eid)
    regenerated = render_artifact(sequential_artifacts[eid])
    assert regenerated == golden, (
        f"{eid} drifted from artifacts/{eid}.txt — if the change is "
        f"intentional, regenerate goldens with examples/full_reproduction.py"
    )


def test_compare_to_goldens_matches_per_id_checks(sequential_artifacts):
    results = compare_to_goldens(sequential_artifacts, ARTIFACT_DIR)
    assert sorted(results) == GOLDEN_IDS
    assert all(results.values()), [eid for eid, ok in results.items() if not ok]


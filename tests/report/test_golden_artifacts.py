"""Golden-artifact regression suite.

Regenerates every registered experiment from the same full-scale seeded
study that produced the checked-in ``artifacts/`` (``GOLDEN_STUDY``, which
``examples/full_reproduction.py`` builds too) and asserts that every
committed file — the ``.txt`` rendering and, for a figure, its ``.json``
data and ``.svg`` plot — matches byte-for-byte. This pins the entire
analysis stack — synthesis, scheduler simulation, statistics, rendering —
to a known-good output, so no refactor can silently change results.

The study arguments and the bytes of each file live in
:mod:`repro.audit.digests` (``GOLDEN_STUDY``/``artifact_files``/
``compare_to_goldens``), shared with the example script and the
``repro audit`` package, so the suite, the script and the user-facing
audit can never disagree about what "byte-identical" means.

The study build dominates the cost, so everything shares one
module-scoped study; the artifact comparisons themselves are cheap.
"""

from pathlib import Path

import pytest

from repro.audit.digests import GOLDEN_STUDY, artifact_files, compare_to_goldens, golden_ids
from repro.core import build_default_study
from repro.report import EXPERIMENTS, run_all_experiments

ARTIFACT_DIR = Path(__file__).resolve().parents[2] / "artifacts"

GOLDEN_IDS = golden_ids(ARTIFACT_DIR)


@pytest.fixture(scope="module")
def full_study():
    return build_default_study(**GOLDEN_STUDY)


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


def test_every_committed_file_is_written_by_the_script(sequential_artifacts):
    written = {
        name for eid, artifact in sequential_artifacts.items() for name in artifact_files(eid, artifact)
    }
    committed = {path.name for path in ARTIFACT_DIR.iterdir()}
    assert committed == written, {
        "committed, not written": sorted(committed - written),
        "written, not committed": sorted(written - committed),
    }


@pytest.mark.parametrize("eid", GOLDEN_IDS)
def test_golden_artifact_byte_identical(sequential_artifacts, eid):
    for name, regenerated in artifact_files(eid, sequential_artifacts[eid]).items():
        golden = (ARTIFACT_DIR / name).read_text(encoding="utf-8")
        assert regenerated == golden, (
            f"artifacts/{name} drifted — if the change is intentional, "
            f"regenerate goldens with examples/full_reproduction.py"
        )


def test_compare_to_goldens_matches_per_id_checks(sequential_artifacts):
    results = compare_to_goldens(sequential_artifacts, ARTIFACT_DIR)
    assert sorted(results) == GOLDEN_IDS
    assert all(results.values()), [eid for eid, ok in results.items() if not ok]

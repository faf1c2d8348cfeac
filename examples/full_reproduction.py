#!/usr/bin/env python
"""Full reproduction: regenerate every table and figure at paper scale.

Run:
    python examples/full_reproduction.py [output_dir]

Builds the full-scale study (cohort sizes comparable to the predecessor
survey, 24 months of telemetry; :data:`repro.audit.GOLDEN_STUDY`) with
the seeding every ``repro`` command uses, and writes every artifact:

* ``<id>.txt``  — ASCII rendering (tables and figures);
* ``<id>.json`` — figure data for external plotting;
* ``<id>.svg``  — standalone SVG plots (no plotting stack required).

This is the script behind EXPERIMENTS.md and the committed ``artifacts/``,
which ``tests/report/test_golden_artifacts.py`` checks file for file.
"""

import sys
import time
from pathlib import Path

from repro.audit import GOLDEN_STUDY, artifact_files
from repro.core import build_default_study
from repro.report import EXPERIMENTS, run_all_experiments


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("artifacts")
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"building full-scale study ({GOLDEN_STUDY['months']} months of telemetry)...")
    t0 = time.time()
    study = build_default_study(**GOLDEN_STUDY)
    print(f"  built in {time.time() - t0:.1f}s: "
          f"{len(study.responses)} responses, {len(study.telemetry)} jobs")

    t0 = time.time()
    artifacts = run_all_experiments(study)
    print(f"  all {len(artifacts)} experiments regenerated in {time.time() - t0:.1f}s\n")

    for eid in sorted(artifacts):
        for name, text in artifact_files(eid, artifacts[eid]).items():
            (out_dir / name).write_text(text, encoding="utf-8")
        print(f"[{eid}] {EXPERIMENTS[eid].title}: wrote {out_dir / f'{eid}.txt'}")

    print(f"\nartifacts in {out_dir}/ — see EXPERIMENTS.md for the index")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Full reproduction: regenerate every table and figure at paper scale.

Run:
    python examples/full_reproduction.py [output_dir]

Builds the full-scale study (cohort sizes comparable to the predecessor
survey, 24 months of telemetry) and writes every artifact:

* ``<id>.txt``  — ASCII rendering (tables and figures);
* ``<id>.json`` — figure data for external plotting;
* ``<id>.svg``  — standalone SVG plots (no plotting stack required).

This is the script behind EXPERIMENTS.md.
"""

import json
import sys
import time
from pathlib import Path

from repro.core import build_default_study
from repro.report import EXPERIMENTS, FigureSeries, figure_to_svg, run_all_experiments


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("artifacts")
    out_dir.mkdir(parents=True, exist_ok=True)

    print("building full-scale study (24 months of telemetry)...")
    t0 = time.time()
    study = build_default_study(
        seed=888,
        n_baseline=120,   # the 2011 survey interviewed ~114 researchers
        n_current=300,    # the revisit wave is larger (online instrument)
        months=24,
        jobs_per_day=450,
    )
    print(f"  built in {time.time() - t0:.1f}s: "
          f"{len(study.responses)} responses, {len(study.telemetry)} jobs")

    t0 = time.time()
    artifacts = run_all_experiments(study)
    print(f"  all {len(artifacts)} experiments regenerated in {time.time() - t0:.1f}s\n")

    for eid in sorted(artifacts):
        artifact = artifacts[eid]
        text_path = out_dir / f"{eid}.txt"
        text_path.write_text(artifact.render_ascii() + "\n", encoding="utf-8")
        if isinstance(artifact, FigureSeries):
            json_path = out_dir / f"{eid}.json"
            json_path.write_text(
                json.dumps(artifact.to_dict(), indent=2), encoding="utf-8"
            )
            (out_dir / f"{eid}.svg").write_text(
                figure_to_svg(artifact), encoding="utf-8"
            )
        print(f"[{eid}] {EXPERIMENTS[eid].title}: wrote {text_path}")

    print(f"\nartifacts in {out_dir}/ — see EXPERIMENTS.md for the index")


if __name__ == "__main__":
    main()

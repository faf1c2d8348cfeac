"""Command-line interface.

Subcommands mirror the workflows a research-computing group runs:

* ``generate``   — synthesize the study's raw data (responses + accounting);
* ``validate``   — QA a JSONL response export against the instrument;
* ``audit``      — reproducibility audit (perturbation matrix + report
  card), or QA a sacct accounting export when given a path;
* ``codebook``   — print the instrument codebook;
* ``experiment`` — regenerate one table/figure by id;
* ``report``     — render the full markdown report;
* ``trace``      — run (or load) a traced report build and analyze it;
* ``bench``      — wall-clock substrate benchmarks (perf trajectory);
* ``serve``      — study-as-a-service: durable row ingestion + incremental
  recompute + admission-controlled artifact serving (see docs/API.md);
* ``power``      — design-stage power calculations.

All randomness flows from ``--seed``; every command is deterministic.
Every subcommand takes ``-v/--verbose`` (repeatable) and ``-q/--quiet``;
structured run-id-tagged logs go to stderr so stdout stays parseable.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Computation-for-research practice study toolkit",
    )
    # Shared verbosity flags: one parent parser instead of per-command
    # duplicates, so `repro <anything> -v` always works the same way.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress to stderr (-v = info, -vv = debug)",
    )
    common.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="only log errors to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    gen = command("generate", help="synthesize survey + telemetry data")
    gen.add_argument("--seed", type=int, default=2024)
    gen.add_argument("--baseline", type=int, default=120, help="2011 cohort size")
    gen.add_argument("--current", type=int, default=200, help="2024 cohort size")
    gen.add_argument("--months", type=int, default=6, help="telemetry window")
    gen.add_argument("--jobs-per-day", type=float, default=200.0)
    gen.add_argument("--out", type=Path, default=Path("study-data"))

    val = command("validate", help="validate a JSONL response export")
    val.add_argument("path", type=Path)
    val.add_argument(
        "--on-bad-rows",
        choices=("raise", "skip"),
        default="raise",
        help="skip = tolerate malformed rows (skipped tally is reported)",
    )

    aud = command(
        "audit",
        help=(
            "audit reproducibility (re-run the study under a perturbation "
            "matrix), or audit a sacct accounting export when PATH is given"
        ),
    )
    aud.add_argument(
        "path",
        type=Path,
        nargs="?",
        default=None,
        help="sacct export to audit (omit to run the reproducibility audit)",
    )
    aud.add_argument(
        "--on-bad-rows",
        choices=("raise", "skip"),
        default="raise",
        help="skip = tolerate malformed accounting rows (skipped tally is reported)",
    )
    aud.add_argument(
        "--quick",
        action="store_true",
        help="quick study scale (CI smoke: small cohorts, 1-month telemetry)",
    )
    aud.add_argument("--seed", type=int, default=None)
    aud.add_argument("--baseline", type=int, default=None, help="2011 cohort size")
    aud.add_argument("--current", type=int, default=None, help="2024 cohort size")
    aud.add_argument("--months", type=int, default=None, help="telemetry window")
    aud.add_argument("--jobs-per-day", type=float, default=None)
    aud.add_argument(
        "--experiments",
        default=None,
        metavar="IDS",
        help="comma-separated experiment ids to audit (default: all registered)",
    )
    aud.add_argument(
        "--matrix",
        default=None,
        metavar="LEGS",
        help=(
            "comma-separated perturbation legs (baseline,thread,process,"
            "crash-resume,faults,warm-cache); baseline is always included"
        ),
    )
    aud.add_argument(
        "--drift",
        default="",
        metavar="SCENARIO",
        help=(
            "declared drift scenario applied to every non-baseline leg "
            "(see repro.synth.scenario.DRIFT_SCENARIOS); divergence it "
            "causes is attributed instead of flagged unexplained"
        ),
    )
    aud.add_argument(
        "--durable",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "keep each leg's cache + journal sandbox under DIR instead of "
            "a temporary directory (inspect artifacts after the audit)"
        ),
    )
    aud.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse a prior --durable audit's per-leg caches: completed "
            "steps replay instead of recomputing (requires --durable DIR)"
        ),
    )
    aud.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="DIR",
        help="write each leg's Chrome/Perfetto trace_event JSON into DIR",
    )
    aud.add_argument(
        "--normalize",
        action="store_true",
        help=(
            "strip timing/host/run-dependent fields from the report card "
            "and traces (byte-identical across executor modes)"
        ),
    )
    aud.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the report card to FILE instead of stdout",
    )

    command("codebook", help="print the instrument codebook")

    command("experiments", help="list registered experiments")

    exp = command("experiment", help="regenerate one table/figure")
    exp.add_argument("id", help="experiment id (T1..T8, F1..F8)")
    exp.add_argument("--seed", type=int, default=2024)
    exp.add_argument("--baseline", type=int, default=120)
    exp.add_argument("--current", type=int, default=200)
    exp.add_argument("--months", type=int, default=6)
    exp.add_argument("--jobs-per-day", type=float, default=200.0)

    rep = command("report", help="render the full markdown report")
    rep.add_argument("--seed", type=int, default=2024)
    rep.add_argument("--baseline", type=int, default=120)
    rep.add_argument("--current", type=int, default=200)
    rep.add_argument("--months", type=int, default=6)
    rep.add_argument("--jobs-per-day", type=float, default=200.0)
    rep.add_argument("--out", type=Path, default=None, help="write to file instead of stdout")
    rep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker count (default 1: every step runs in this process; "
            "N > 1 runs the report DAG on the --executor pool; the fleet "
            "size for --executor dist)"
        ),
    )
    rep.add_argument(
        "--executor",
        choices=("auto", "sequential", "thread", "process", "dist"),
        default="auto",
        help=(
            "the pool --jobs N runs the report DAG on (auto = processes when "
            "every step pickles); dist runs it on a --jobs-worker "
            "coordinator/worker fleet over a shared cache directory"
        ),
    )
    rep.add_argument(
        "--timings",
        action="store_true",
        help="print per-step executor timings and outcomes after the report",
    )
    rep.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "degrade gracefully: render placeholder sections for failed "
            "experiments instead of aborting (exit code 3 on partial success)"
        ),
    )
    rep.add_argument(
        "--durable",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "run the report as a journaled, cache-addressed pipeline rooted "
            "at DIR (DIR/cache + DIR/journals); an interrupted run can be "
            "recovered with --resume"
        ),
    )
    rep.add_argument(
        "--resume",
        nargs="?",
        const="latest",
        default=None,
        metavar="RUN_ID",
        help=(
            "resume an interrupted --durable run: replay journal-completed "
            "steps from the cache, re-execute only the in-flight frontier "
            "(omit RUN_ID to resume the most recent journal)"
        ),
    )
    rep.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "trace the report build and write a Chrome/Perfetto "
            "trace_event JSON to FILE; a critical-path summary is printed "
            "after the report (composes with --durable/--resume)"
        ),
    )

    trc = command(
        "trace", help="trace a report build (or analyze an exported trace)"
    )
    trc.add_argument(
        "--load",
        type=Path,
        default=None,
        metavar="FILE",
        help="analyze an existing trace_event JSON instead of running",
    )
    trc.add_argument("--seed", type=int, default=2024)
    trc.add_argument("--baseline", type=int, default=40, help="2011 cohort size")
    trc.add_argument("--current", type=int, default=60, help="2024 cohort size")
    trc.add_argument("--months", type=int, default=3, help="telemetry window")
    trc.add_argument("--jobs-per-day", type=float, default=60.0)
    trc.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="report DAG worker count (default: all cores)",
    )
    trc.add_argument(
        "--executor",
        choices=("auto", "sequential", "thread", "process"),
        default="auto",
        help="the pool the report DAG runs on (auto = process pool when possible)",
    )
    trc.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the Perfetto trace_event JSON here",
    )
    trc.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the run's metrics registry as Prometheus text here",
    )
    trc.add_argument(
        "--resources",
        action="store_true",
        help="record per-span CPU / peak-RSS / Python-heap deltas",
    )
    trc.add_argument(
        "--check-schema",
        action="store_true",
        help="validate the trace_event schema; exit 1 on problems",
    )
    trc.add_argument(
        "--top",
        type=int,
        default=10,
        help="critical-path steps to list in the summary",
    )

    rob = command(
        "robustness", help="seed-sweep the headline claims (EXPERIMENTS.md check)"
    )
    rob.add_argument("--seeds", type=int, default=5, help="number of seeds to sweep")
    rob.add_argument("--baseline", type=int, default=120)
    rob.add_argument("--current", type=int, default=200)
    rob.add_argument("--alpha", type=float, default=0.05)

    ben = command(
        "bench", help="time the generative substrates (perf trajectory)"
    )
    ben.add_argument(
        "--scale",
        choices=("full", "quick"),
        default="full",
        help="operating point: full = tracked trajectory, quick = CI smoke",
    )
    ben.add_argument("--label", default="run", help="tag stored on the run record")
    ben.add_argument("--repeats", type=int, default=None, help="min-of-k repeat count")
    ben.add_argument(
        "--json", type=Path, default=None, help="BENCH_*.json file to append the run to"
    )
    ben.add_argument(
        "--check",
        type=Path,
        default=None,
        help=(
            "committed trajectory file: gate the fresh record against every "
            "applicable row of the gate table (repro.core.bench.GATES) — "
            "with --scale-sweep, also the file's latest committed sweep "
            "record; exit 1 if any row fails"
        ),
    )
    ben.add_argument(
        "--scale-sweep",
        action="store_true",
        help=(
            "run the 1x/10x/100x job-volume scale sweep (simulate + "
            "analysis wall and peak RSS per point) instead of the "
            "standard benchmark battery"
        ),
    )
    ben.add_argument(
        "--sweep-factors",
        default=None,
        help="comma-separated job-volume multipliers (default per scale: full=1,10,100 quick=1,10)",
    )

    wkr = command(
        "worker", help="join a fleet-mode run as an external worker process"
    )
    wkr.add_argument(
        "--dir",
        dest="run_dir",
        type=Path,
        required=True,
        metavar="RUN_DIR",
        help=(
            "the run directory to join: <cache_root>/.dist/<run_id>, on a "
            "filesystem shared with the coordinator"
        ),
    )
    wkr.add_argument(
        "--id",
        dest="worker_id",
        required=True,
        metavar="WORKER_ID",
        help="unique worker name within the run (e.g. hostA-1)",
    )
    wkr.add_argument(
        "--join-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for the coordinator to publish the run spec",
    )

    srv = command(
        "serve",
        help=(
            "study-as-a-service: ingest rows into the durable WAL, refresh "
            "only the dirty DAG subtree, serve warm artifacts"
        ),
    )
    srv.add_argument(
        "--root",
        type=Path,
        required=True,
        metavar="DIR",
        help="service root (holds wal/, cache/, journals/, state.json)",
    )
    srv.add_argument("--months", type=int, default=3, help="study telemetry window")
    srv.add_argument(
        "--experiments",
        default=None,
        metavar="IDS",
        help="comma-separated experiment ids to serve (default: all registered)",
    )
    srv.add_argument(
        "--ingest-responses",
        type=Path,
        action="append",
        default=None,
        metavar="FILE",
        help="append a JSONL response export to the ingest WAL (repeatable)",
    )
    srv.add_argument(
        "--ingest-sacct",
        type=Path,
        action="append",
        default=None,
        metavar="FILE",
        help="append a sacct accounting export to the ingest WAL (repeatable)",
    )
    srv.add_argument(
        "--batch",
        default=None,
        metavar="ID",
        help=(
            "idempotency key for this ingest (default: the file path); "
            "re-sending the same batch after a lost ack never duplicates rows"
        ),
    )
    srv.add_argument(
        "--refresh",
        action="store_true",
        help="run one incremental refresh cycle (only dirty subtrees recompute)",
    )
    srv.add_argument(
        "--force", action="store_true", help="refresh ignoring cache and quarantine"
    )
    srv.add_argument(
        "--request",
        default=None,
        metavar="ID",
        help="request one experiment artifact (admission-controlled)",
    )
    srv.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "patience for --request: a recompute estimated to take longer "
            "is shed and the last-good artifact served STALE"
        ),
    )
    srv.add_argument(
        "--loop",
        type=int,
        default=None,
        metavar="N",
        help=(
            "resident mode: run N refresh cycles, sleeping --interval "
            "between; SIGTERM drains (flush WAL + state) and exits 0"
        ),
    )
    srv.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="sleep between --loop cycles",
    )
    srv.add_argument("--queue-size", type=int, default=8, help="admission queue bound")
    srv.add_argument(
        "--status",
        action="store_true",
        help=(
            "probe the service root's status.json (no service is started): "
            "exit 0 serving, 3 degraded (read-only/draining, SLO breached, "
            "or the probe file is stale vs its refresh interval), 2 no status"
        ),
    )

    top = command(
        "top",
        help=(
            "live text dashboard over a serve root and/or a fleet run dir "
            "(reads only on-disk observability files; never touches the "
            "live processes)"
        ),
    )
    top.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="serve root to watch (status.json + slo.json + metrics/)",
    )
    top.add_argument(
        "--dist-dir",
        type=Path,
        default=None,
        metavar="RUN_DIR",
        help=(
            "fleet run dir to watch (<cache_root>/.dist/<run_id>; "
            "heartbeats, assignments, spine segments)"
        ),
    )
    top.add_argument(
        "--cache-root",
        type=Path,
        default=None,
        metavar="DIR",
        help="watch the most recent run dir under this cache root's .dist/",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (the CI / scripting mode)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh cadence in watch mode",
    )

    pwr = command("power", help="two-proportion power calculations")
    pwr.add_argument("--p1", type=float, required=True, help="baseline proportion")
    pwr.add_argument("--p2", type=float, required=True, help="expected proportion")
    pwr.add_argument("--n1", type=int, default=None)
    pwr.add_argument("--n2", type=int, default=None)
    pwr.add_argument("--power", type=float, default=0.8)
    pwr.add_argument("--alpha", type=float, default=0.05)
    return parser


def _study_args(args) -> dict:
    """The study a command's ``--seed`` and size flags name, as keywords."""
    return dict(
        seed=args.seed,
        n_baseline=args.baseline,
        n_current=args.current,
        months=args.months,
        jobs_per_day=args.jobs_per_day,
    )


def _build_study(args):
    """The study ``repro report`` renders for the same arguments."""
    from repro.core import build_default_study

    return build_default_study(**_study_args(args))


def _cmd_generate(args, out) -> int:
    from repro.cluster import write_sacct
    from repro.io import write_responses_jsonl

    study = _build_study(args)
    args.out.mkdir(parents=True, exist_ok=True)
    responses_path = args.out / "responses.jsonl"
    accounting_path = args.out / "accounting.sacct"
    write_responses_jsonl(study.responses, responses_path)
    write_sacct(study.telemetry, accounting_path)
    print(f"wrote {len(study.responses)} responses to {responses_path}", file=out)
    print(f"wrote {len(study.telemetry)} job records to {accounting_path}", file=out)
    return 0


def _cmd_validate(args, out) -> int:
    from repro.core import build_instrument
    from repro.io import ResponseIOError, read_responses_jsonl
    from repro.survey import validate_response_set

    questionnaire = build_instrument()
    skipped = []
    try:
        responses = read_responses_jsonl(
            questionnaire, Path(args.path),
            on_bad_rows=args.on_bad_rows, skipped=skipped,
        )
    except (ResponseIOError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    for row in skipped[:20]:
        print(f"  skipped line {row.lineno}: {row.reason}", file=out)
    if len(skipped) > 20:
        print(f"  ... and {len(skipped) - 20} more skipped rows", file=out)
    if skipped:
        print(f"skipped {len(skipped)} malformed row(s)", file=out)
    report = validate_response_set(responses)
    print(f"{len(responses)} responses; {len(report.issues)} issues", file=out)
    for issue in report.issues[:20]:
        print(
            f"  [{issue.kind.value}] {issue.respondent_id} / {issue.question_key}: "
            f"{issue.message}",
            file=out,
        )
    if len(report.issues) > 20:
        print(f"  ... and {len(report.issues) - 20} more", file=out)
    print("ingest ok" if report.ok else "FATAL issues present", file=out)
    return 0 if report.ok else 1


def _cmd_audit(args, out) -> int:
    """Dispatch between the two audits sharing the subcommand.

    With a positional PATH the historical behaviour — auditing a sacct
    accounting export — is unchanged; without one the command runs the
    reproducibility audit (``repro.audit.run_audit``).
    """
    if args.path is None:
        return _cmd_audit_repro(args, out)
    return _cmd_audit_sacct(args, out)


def _cmd_audit_repro(args, out) -> int:
    from repro.audit import QUICK_SCALE, default_matrix, run_audit, select_matrix
    from repro.report import EXPERIMENTS
    from repro.report.document import render_report_card
    from repro.synth.scenario import DRIFT_SCENARIOS

    if args.resume and args.durable is None:
        print("error: --resume requires --durable DIR", file=out)
        return 2
    if args.drift and args.drift not in DRIFT_SCENARIOS:
        print(
            f"error: unknown drift scenario {args.drift!r}; known: "
            f"{', '.join(sorted(DRIFT_SCENARIOS))}",
            file=out,
        )
        return 2
    if args.matrix is not None:
        names = [n.strip() for n in args.matrix.split(",") if n.strip()]
        try:
            matrix = select_matrix(names)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
    else:
        matrix = default_matrix()
    experiment_ids = None
    if args.experiments is not None:
        experiment_ids = sorted(
            {e.strip().upper() for e in args.experiments.split(",") if e.strip()}
        )
        unknown = [eid for eid in experiment_ids if eid not in EXPERIMENTS]
        if unknown:
            print(
                f"error: unknown experiments {unknown}; known: "
                f"{', '.join(sorted(EXPERIMENTS))}",
                file=out,
            )
            return 2
    scale = dict(QUICK_SCALE) if args.quick else {}
    for key, value in (
        ("seed", args.seed),
        ("n_baseline", args.baseline),
        ("n_current", args.current),
        ("months", args.months),
        ("jobs_per_day", args.jobs_per_day),
    ):
        if value is not None:
            scale[key] = value
    report = run_audit(
        root=args.durable,
        matrix=matrix,
        experiment_ids=experiment_ids,
        drift=args.drift,
        study_kwargs=scale or None,
        reuse=args.resume,
        trace_dir=args.trace,
        normalize_traces=args.normalize,
    )
    card = render_report_card(report, normalize=args.normalize)
    if args.out is not None:
        Path(args.out).write_text(card, encoding="utf-8")
        print(f"wrote report card to {args.out}", file=out)
    else:
        print(card, file=out, end="")
    if args.trace is not None:
        print(f"wrote per-leg Perfetto traces to {args.trace}", file=out)
    if report.concordant:
        print(f"audit ok: {len(report.runs)} runs concordant", file=out)
        return 0
    first = report.first_divergence
    print(
        f"audit DIVERGENT: {len(report.divergent_steps)} step(s), "
        f"first at {first!r}"
        + (f" (drift {report.drift!r} attributed)" if report.verdict == "drift" else ""),
        file=out,
    )
    return EXIT_PARTIAL


def _cmd_audit_sacct(args, out) -> int:
    from repro.cluster import audit_table, parse_sacct
    from repro.cluster.partitions import DEFAULT_CLUSTER
    from repro.cluster.sacct import SacctFormatError

    skipped = []
    try:
        table = parse_sacct(
            Path(args.path), on_bad_rows=args.on_bad_rows, skipped=skipped
        )
    except (SacctFormatError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    for row in skipped[:20]:
        print(f"  skipped line {row.lineno}: {row.reason}", file=out)
    if len(skipped) > 20:
        print(f"  ... and {len(skipped) - 20} more skipped rows", file=out)
    if skipped:
        print(f"skipped {len(skipped)} malformed row(s)", file=out)
    report = audit_table(table, DEFAULT_CLUSTER)
    print(f"{report.n_jobs} jobs audited; {len(report.issues)} issues", file=out)
    for kind, count in sorted(report.summary().items()):
        print(f"  {kind}: {count}", file=out)
    for issue in report.issues[:20]:
        print(f"  job {issue.job_id}: {issue.message}", file=out)
    print("accounting ok" if report.ok else "accounting has issues", file=out)
    return 0 if report.ok else 1


def _cmd_codebook(args, out) -> int:
    from repro.core import build_instrument
    from repro.survey import build_codebook

    print(build_codebook(build_instrument()).render(), file=out)
    return 0


def _cmd_experiments(args, out) -> int:
    from repro.report import EXPERIMENTS

    def sort_key(eid: str):
        return (eid[0], int(eid[1:]))

    for eid in sorted(EXPERIMENTS, key=sort_key):
        experiment = EXPERIMENTS[eid]
        print(f"{eid:<4} [{experiment.kind:<6}] {experiment.title}: "
              f"{experiment.description}", file=out)
    return 0


def _cmd_experiment(args, out) -> int:
    from repro.report import EXPERIMENTS, run_experiment

    eid = args.id.upper()
    if eid not in EXPERIMENTS:
        print(f"error: unknown experiment {args.id!r}; known: "
              f"{', '.join(sorted(EXPERIMENTS))}", file=out)
        return 2
    study = _build_study(args)
    print(run_experiment(eid, study).render_ascii(), file=out)
    return 0


#: Exit code for a report that rendered but with placeholder sections
#: (some experiments failed under --keep-going). Distinct from 0 (clean),
#: 1 (validation issues), and 2 (usage/input errors) so scripted callers
#: can tell "usable but degraded" from both success and hard failure.
EXIT_PARTIAL = 3

#: Exit code for a run cut short by Ctrl-C, following the shell convention
#: (128 + SIGINT). The journal is flushed first, so a --durable run prints
#: a one-line resume hint instead of a traceback.
EXIT_INTERRUPTED = 130


def _cmd_report(args, out) -> int:
    """``repro report``: run :func:`~repro.report.experiments.report_pipeline`
    and render its outputs.

    ``--jobs 1`` (the default) runs every step in this process;
    ``--jobs N`` runs the DAG on the ``--executor`` pool, and ``--executor
    dist`` on a ``--jobs``-worker fleet. The cache is in memory unless
    ``--durable DIR`` roots a journaled, disk cache-addressed run there
    (resumable with ``--resume``); ``--trace FILE`` exports the run's
    spans. All of these compose: a traced durable dist run correlates its
    root span with the journal run id and renders per-worker lanes in the
    Perfetto export. Fleet mode needs a disk cache, so without
    ``--durable`` it runs against a throwaway cache directory.
    """
    from repro.core.pipeline import ArtifactCache
    from repro.core.trace import Tracer, analyze_perfetto
    from repro.report.document import render_report
    from repro.report.experiments import report_pipeline

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=out)
        return 2
    if args.resume is not None and args.durable is None:
        print("error: --resume requires --durable DIR", file=out)
        return 2
    journal = None
    resume_state = None
    scratch = None
    if args.durable is not None:
        from repro.core.journal import (
            JournalError,
            RunJournal,
            latest_run_id,
            load_resume_state,
        )

        durable = Path(args.durable)
        journal_dir = durable / "journals"
        if args.resume is not None:
            run_id = args.resume
            if run_id == "latest":
                run_id = latest_run_id(journal_dir)
                if run_id is None:
                    print(f"error: no journals to resume under {journal_dir}", file=out)
                    return 2
            try:
                resume_state = load_resume_state(journal_dir, run_id)
            except JournalError as exc:
                print(f"error: {exc}", file=out)
                return 2
        cache = ArtifactCache(durable / "cache")
        journal = RunJournal.open(journal_dir)
    elif args.executor == "dist":
        # Fleet workers coordinate through the cache filesystem, so the
        # in-memory default is not an option; a throwaway directory gives
        # ad-hoc dist runs somewhere to meet.
        scratch = tempfile.TemporaryDirectory(prefix="repro-dist-")
        cache = ArtifactCache(Path(scratch.name) / "cache")
    else:
        cache = ArtifactCache()
    tracer = Tracer() if args.trace is not None else None
    pipeline = report_pipeline(cache, **_study_args(args))
    try:
        try:
            results, report = pipeline.run_with_report(
                max_workers=args.jobs,
                executor=args.executor,
                on_error="keep_going" if args.keep_going else "raise",
                journal=journal,
                resume=resume_state,
                trace=tracer,
            )
        except KeyboardInterrupt:
            # The dist coordinator has already released its leases,
            # stopped the fleet, and swept the run directory on its way
            # out (its cleanup runs in a finally before this propagates).
            if journal is not None:
                journal.flush()
                print(
                    f"interrupted — resume with --resume {journal.run_id}",
                    file=out,
                )
            else:
                print("interrupted", file=out)
            return EXIT_INTERRUPTED
    finally:
        if journal is not None:
            journal.close()
        if scratch is not None:
            scratch.cleanup()
    if tracer is not None:
        tracer.write_perfetto(args.trace)
        print(f"wrote Perfetto trace to {args.trace}", file=out)
    if "study" not in results:
        print("error: the study stages failed; nothing to render", file=out)
        if pipeline.last_report is not None:
            print(pipeline.last_report.render(), file=out)
        return 1
    artifacts = {
        name.removeprefix("exp:"): value
        for name, value in results.items()
        if name.startswith("exp:")
    }
    failures = {
        o.name.removeprefix("exp:"): o.error
        for o in report.outcomes
        if o.name.startswith("exp:") and not o.succeeded
    }
    text = render_report(results["study"], artifacts, failures)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote report to {args.out}", file=out)
    else:
        print(text, file=out)
    if args.timings:
        print(pipeline.last_metrics.render(), file=out)
        print(report.render(), file=out)
    if tracer is not None:
        print(analyze_perfetto(tracer.to_perfetto()).render(), file=out)
    if failures:
        print(
            f"warning: report degraded — {len(failures)} experiment(s) failed: "
            f"{', '.join(sorted(failures))}",
            file=out,
        )
        return EXIT_PARTIAL
    return 0


def _cmd_trace(args, out) -> int:
    """``repro trace``: traced quick-scale report build + critical path.

    Two modes: ``--load FILE`` analyzes a previously exported trace;
    otherwise a fresh (default quick-scale) report build runs under a
    tracer. Either way the command prints the DAG critical path, per-step
    slack, and parallel-efficiency summary.
    """
    from repro.core.trace import (
        TraceError,
        Tracer,
        analyze_perfetto,
        load_perfetto,
        validate_perfetto,
    )

    if args.load is not None:
        run_only = {
            "--out": args.out is not None,
            "--metrics-out": args.metrics_out is not None,
            "--resources": args.resources,
            "--jobs": args.jobs is not None,
        }
        for flag, given in run_only.items():
            if given:
                print(f"error: {flag} applies to a traced run, not to --load", file=out)
                return 2
        try:
            data = load_perfetto(args.load)
        except (TraceError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=out)
            return 2
    else:
        from repro.core.pipeline import ArtifactCache
        from repro.obs.registry import registry_from_metrics
        from repro.report.experiments import report_pipeline

        if args.jobs is not None and args.jobs < 1:
            print(f"error: --jobs must be >= 1, got {args.jobs}", file=out)
            return 2
        tracer = Tracer(resources=args.resources)
        pipeline = report_pipeline(ArtifactCache(), **_study_args(args))
        pipeline.run(
            max_workers=args.jobs,
            executor=args.executor,
            on_error="keep_going",
            trace=tracer,
        )
        data = tracer.to_perfetto()
        if args.out is not None:
            tracer.write_perfetto(args.out)
            print(f"wrote Perfetto trace to {args.out}", file=out)
        if args.metrics_out is not None:
            registry = registry_from_metrics(pipeline.last_metrics, tracer)
            args.metrics_out.write_text(registry.to_text(), encoding="utf-8")
            print(f"wrote Prometheus metrics to {args.metrics_out}", file=out)
    if args.check_schema:
        problems = validate_perfetto(data)
        if problems:
            for problem in problems:
                print(f"  schema: {problem}", file=out)
            print(f"INVALID trace ({len(problems)} problem(s))", file=out)
            return 1
        print("trace schema ok", file=out)
    print(analyze_perfetto(data).render(top=args.top), file=out)
    return 0


def _cmd_bench(args, out) -> int:
    from repro.core.bench import (
        GATES,
        append_run,
        evaluate_gate,
        load_runs,
        render_record,
        render_scale_sweep,
        run_benchmarks,
        run_scale_sweep,
    )

    if args.repeats is not None and args.repeats < 1:
        print(f"error: --repeats must be >= 1, got {args.repeats}", file=out)
        return 2
    factors = None
    if args.sweep_factors is not None:
        try:
            factors = tuple(
                int(part) for part in args.sweep_factors.split(",") if part.strip()
            )
        except ValueError:
            print(
                f"error: --sweep-factors must be comma-separated integers, "
                f"got {args.sweep_factors!r}",
                file=out,
            )
            return 2
    # Read the gate's trajectory before timing anything: a bad file is a
    # usage error, not a verdict after minutes of benchmarks.
    runs = None
    if args.check is not None:
        try:
            runs = load_runs(args.check)
        except (OSError, ValueError) as exc:
            print(f"error: --check: {exc}", file=out)
            return 2

    if args.scale_sweep:
        try:
            record = run_scale_sweep(
                scale=args.scale,
                label=args.label,
                factors=factors,
                repeats=args.repeats or 1,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
        print(render_scale_sweep(record), file=out)
    else:
        record = run_benchmarks(scale=args.scale, label=args.label, repeats=args.repeats)
        print(render_record(record), file=out)
    if args.json is not None:
        append_run(args.json, record)
        print(f"appended run to {args.json}", file=out)
    if runs is None:
        return 0

    to_gate = [("", record)]
    if args.scale_sweep:
        # Re-check the committed sweep too, so a regressive sweep record
        # cannot be committed silently.
        committed = next(
            (r for r in reversed(runs) if "scale_sweep" in r.get("benchmarks", {})),
            None,
        )
        if committed is not None:
            to_gate.append((f"committed ({args.check}): ", committed))
    all_ok = True
    for origin, rec in to_gate:
        for gate in GATES:
            if gate.benchmark in rec.get("benchmarks", {}):
                ok, message = evaluate_gate(gate, rec, runs)
                all_ok = all_ok and ok
                print(("ok: " if ok else "REGRESSION: ") + origin + message, file=out)
    return 0 if all_ok else 1


def _cmd_robustness(args, out) -> int:
    from repro.analysis import headline_robustness

    results = headline_robustness(
        seeds=list(range(1, args.seeds + 1)),
        n_baseline=args.baseline,
        n_current=args.current,
        alpha=args.alpha,
    )
    print(
        f"headline claims over {args.seeds} seeds "
        f"(n={args.baseline}/{args.current}, alpha={args.alpha}):",
        file=out,
    )
    for r in results:
        print(
            f"  {r.claim:<22} direction {r.direction_held}/{r.n_seeds}  "
            f"significant {r.significant}/{r.n_seeds}  "
            f"mean change {r.mean_delta:+.1%}",
            file=out,
        )
    weakest = min(results, key=lambda r: (r.direction_rate, r.significance_rate))
    print(
        f"weakest claim: {weakest.claim} "
        f"({weakest.direction_rate:.0%} direction, "
        f"{weakest.significance_rate:.0%} significant)",
        file=out,
    )
    return 0


def _cmd_power(args, out) -> int:
    from repro.stats import required_n_per_group, two_proportion_power

    try:
        if args.n1 is not None and args.n2 is not None:
            power = two_proportion_power(args.p1, args.p2, args.n1, args.n2, args.alpha)
            print(
                f"power to detect {args.p1:.0%} -> {args.p2:.0%} at "
                f"n={args.n1}/{args.n2}: {power:.1%}",
                file=out,
            )
        else:
            n = required_n_per_group(args.p1, args.p2, args.power, args.alpha)
            print(
                f"need n={n} per group for {args.power:.0%} power to detect "
                f"{args.p1:.0%} -> {args.p2:.0%}",
                file=out,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    return 0


def _cmd_worker(args, out) -> int:
    from repro.dist.worker import worker_main

    code = worker_main(
        args.run_dir, args.worker_id, join_timeout=args.join_timeout
    )
    if code == 2:
        print(
            f"error: no run spec under {args.run_dir} after "
            f"{args.join_timeout:.0f}s — is the coordinator running?",
            file=out,
        )
    elif code == EXIT_INTERRUPTED:
        print("interrupted — leases released, coordinator will reassign", file=out)
    return code


def _cmd_serve(args, out) -> int:
    """``repro serve``: one-shot or resident study serving.

    Exit-code contract (documented in README/docs/API.md): ``0`` clean —
    including a SIGTERM-initiated drain; ``3`` degraded — the service is
    read-only, a refresh left failed/quarantined subtrees, or a requested
    artifact could only be answered STALE/UNAVAILABLE; ``2`` usage errors;
    ``130`` SIGINT. ``--status`` probes without starting a service.
    """
    import json
    import signal
    import time

    from repro.serve import (
        ServeConfig,
        ServiceDraining,
        ServiceReadOnly,
        StudyService,
        read_status,
    )

    if args.status:
        status = read_status(args.root)
        if status is None:
            print(f"error: no service status under {args.root}", file=out)
            return 2
        print(json.dumps(status, indent=2, sort_keys=True), file=out)
        code = 0 if status.get("mode") in ("serving", "empty") else EXIT_PARTIAL
        if status.get("slo") == "breached":
            detail = status.get("slo_detail") or {}
            broken = sorted(k for k, c in detail.items() if not c.get("ok"))
            print("slo: breached" + (f" ({', '.join(broken)})" if broken else ""), file=out)
            code = EXIT_PARTIAL
        # Stale-probe detection: a resident service promises a status
        # write every cycle; a probe file much older than the declared
        # interval means the service is wedged, not merely quiet.
        interval = status.get("refresh_interval_seconds")
        if interval:
            try:
                mtime = (Path(args.root) / "status.json").stat().st_mtime
            except OSError:
                mtime = None
            if mtime is not None:
                age = time.time() - mtime
                if age > max(3.0 * float(interval), float(interval) + 2.0):
                    print(
                        f"stale probe: status.json is {age:.1f}s old against a "
                        f"{float(interval):.1f}s refresh interval — service wedged?",
                        file=out,
                    )
                    code = EXIT_PARTIAL
        return code

    experiments = None
    if args.experiments:
        experiments = tuple(
            s.strip().upper() for s in args.experiments.split(",") if s.strip()
        )
    try:
        config = ServeConfig(
            months=args.months,
            experiments=experiments,
            queue_size=args.queue_size,
            default_deadline=args.deadline,
            status_interval=args.interval if args.loop is not None else None,
        )
        service = StudyService(args.root, config)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 2

    class _Drain(Exception):
        pass

    def _on_term(signum, frame):  # pragma: no cover - delivered via os.kill in tests
        raise _Drain()

    previous = signal.signal(signal.SIGTERM, _on_term)
    degraded = False
    try:
        try:
            for kind, paths in (
                ("responses", args.ingest_responses or []),
                ("sacct", args.ingest_sacct or []),
            ):
                for path in paths:
                    try:
                        lines = Path(path).read_text(encoding="utf-8").splitlines()
                    except OSError as exc:
                        print(f"error: {exc}", file=out)
                        return 2
                    batch = args.batch if args.batch is not None else str(path)
                    try:
                        receipt = service.ingest(kind, lines, batch=batch)
                    except (ServiceReadOnly, ServiceDraining) as exc:
                        print(f"ingest refused: {exc}", file=out)
                        degraded = True
                        continue
                    print(
                        f"ingested {receipt.accepted} {kind} row(s) "
                        f"({receipt.deduped} deduped) from {path}",
                        file=out,
                    )
            cycles = args.loop if args.loop is not None else (1 if args.refresh else 0)
            for i in range(cycles):
                result = service.refresh(force=args.force)
                if result.ran:
                    statuses: dict[str, int] = {}
                    if result.report is not None:
                        for o in result.report.outcomes:
                            statuses[o.status] = statuses.get(o.status, 0) + 1
                    summary = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
                    print(f"refreshed in {result.seconds:.2f}s ({summary})", file=out)
                else:
                    print(f"refresh skipped: {result.reason}", file=out)
                if result.failed or result.excluded or result.reason == "read_only":
                    degraded = True
                if args.loop is not None and i < cycles - 1:
                    time.sleep(args.interval)
            if args.request is not None:
                try:
                    res = service.request(args.request.upper(), deadline=args.deadline)
                except KeyError as exc:
                    print(f"error: {exc.args[0]}", file=out)
                    return 2
                tag = res.status.upper()
                note = f" ({res.reason})" if res.reason else ""
                behind = f", {res.behind} row(s) behind" if res.behind else ""
                print(f"[{tag}]{note}{behind}", file=out)
                if res.artifact is not None:
                    print(res.artifact.render_ascii(), file=out)
                if res.status != "fresh":
                    degraded = True
        except _Drain:
            service.drain()
            print("drained: WAL flushed, state saved", file=out)
            return 0
        if service.read_only:
            degraded = True
        print(
            json.dumps(service.publish_status(), indent=2, sort_keys=True), file=out
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
        service.close()
    return EXIT_PARTIAL if degraded else 0


def _cmd_top(args, out) -> int:
    """``repro top``: live text dashboard (disk-state only; see repro.obs.top)."""
    import time

    from repro.obs.top import latest_run_dir, render_top

    dist_dir = args.dist_dir
    if dist_dir is None and args.cache_root is not None:
        dist_dir = latest_run_dir(args.cache_root)
        if dist_dir is None:
            print(f"error: no .dist run dirs under {args.cache_root}", file=out)
            return 2
    if args.once:
        print(render_top(args.root, dist_dir), end="", file=out)
        return 0
    while True:
        frame = render_top(args.root, dist_dir)
        print("\x1b[2J\x1b[H" + frame, end="", file=out, flush=True)
        time.sleep(args.interval)


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "audit": _cmd_audit,
    "experiments": _cmd_experiments,
    "robustness": _cmd_robustness,
    "codebook": _cmd_codebook,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "power": _cmd_power,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    A Ctrl-C during the long-running commands (``report``, ``trace``,
    ``bench``, ``audit``, ``worker``, ``serve``, ``top``) exits ``130`` (128 +
    SIGINT) with a one-line notice instead of a traceback; the
    ``--durable`` report path additionally flushes its journal and prints
    the ``--resume`` hint, and a fleet worker releases its leases and lets
    the coordinator reassign, before this handler sees anything. A
    SIGTERM to ``repro serve`` is the graceful-drain path instead: the
    WAL and state are flushed and the exit code is ``0``.
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    from repro.core.logging import setup_cli_logging

    setup_cli_logging(args.verbose - args.quiet)
    try:
        return _COMMANDS[args.command](args, out)
    except KeyboardInterrupt:
        if args.command in ("report", "trace", "bench", "audit", "worker", "serve", "top"):
            print("interrupted", file=out)
            return EXIT_INTERRUPTED
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

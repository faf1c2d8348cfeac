"""``repro top``: a one-screen text dashboard over serve roots and fleets.

Renders entirely from the on-disk observability surfaces — ``status.json``
+ ``slo.json`` + the ``metrics/`` ring for a serve root, heartbeat /
assignment / spine-segment files for a dist run dir — so watching a
service or a fleet never touches the live processes (the same
out-of-process discipline as ``repro serve --status``).

:func:`render_top` is a pure disk-state → text function; the CLI loop
around it (``repro top``) just reprints it every interval, and
``repro top --once`` prints one frame (the CI round-trip mode).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from repro.obs.registry import MetricsRegistry
from repro.obs.ring import read_ring_snapshot
from repro.obs.slo import load_slo

__all__ = ["render_top", "latest_run_dir", "read_status"]


def _ms(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value * 1e3:.1f}ms" if value < 1.0 else f"{value:.2f}s"


def read_status(root: str | Path) -> dict[str, Any] | None:
    """Read a service root's probe snapshot (None when absent/torn).

    This is the out-of-process probe used by ``repro serve --status`` and
    ``repro top``: it never touches the WAL or cache, so probing cannot
    interfere with a live (or crashed) service.
    """
    try:
        raw = json.loads(
            (Path(root) / "status.json").read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return None
    return raw if isinstance(raw, dict) else None


def latest_run_dir(cache_root: str | Path) -> Path | None:
    """The most recently modified ``.dist/<run_id>`` run dir, or None."""
    dist = Path(cache_root) / ".dist"
    try:
        runs = [p for p in dist.iterdir() if p.is_dir()]
    except OSError:
        return None
    if not runs:
        return None
    return max(runs, key=lambda p: p.stat().st_mtime if p.exists() else 0.0)


def render_top(
    serve_root: str | Path | None = None,
    dist_dir: str | Path | None = None,
    clock: Any = time.time,
) -> str:
    """One dashboard frame over the given serve root and/or dist run dir."""
    lines: list[str] = [f"repro top — {time.strftime('%H:%M:%S', time.localtime(clock()))}"]
    if serve_root is None and dist_dir is None:
        lines.append("nothing to watch (pass --root and/or --dist-dir)")
        return "\n".join(lines) + "\n"
    if serve_root is not None:
        lines.extend(_serve_section(Path(serve_root)))
    if dist_dir is not None:
        lines.extend(_fleet_section(Path(dist_dir)))
    return "\n".join(lines) + "\n"


# -- serve ---------------------------------------------------------------------


def _serve_section(root: Path) -> list[str]:
    lines = [f"== serve: {root} =="]
    status = read_status(root)
    if status is None:
        lines.append("  no status.json (service never started here?)")
        return lines
    staleness = status.get("staleness_seconds")
    lines.append(
        f"  mode {status.get('mode', '?')}  ready {'yes' if status.get('ready') else 'no'}"
        f"  cycle {status.get('cycle', 0)}"
        f"  dirty {'yes' if status.get('dirty') else 'no'}"
        f"  uptime {float(status.get('uptime_seconds') or 0.0):.1f}s"
        f"  staleness {'-' if staleness is None else f'{float(staleness):.1f}s'}"
    )
    admission = status.get("admission") or {}
    shed = int(admission.get("shed_queue_full", 0)) + int(
        admission.get("shed_deadline", 0)
    )
    lines.append(
        f"  admission: waiting {admission.get('waiting', 0)}"
        f"  requests {admission.get('requests', 0)}"
        f"  fresh {admission.get('served_fresh', 0)}"
        f"  stale {admission.get('served_stale', 0)}"
        f"  shed {shed} (queue {admission.get('shed_queue_full', 0)},"
        f" deadline {admission.get('shed_deadline', 0)})"
    )
    quarantined = status.get("quarantined") or []
    lines.append(
        "  breaker open: " + (", ".join(quarantined) if quarantined else "none")
    )
    snapshot = read_ring_snapshot(root)
    if snapshot is not None:
        registry = MetricsRegistry.from_snapshot(snapshot)
        pct = registry.percentiles("repro_request_seconds")
        count = registry.histogram_count("repro_request_seconds")
        behind = registry.value("repro_staleness_rows_behind")
        lines.append(
            f"  latency: p50 {_ms(pct['p50'])}  p95 {_ms(pct['p95'])}"
            f"  p99 {_ms(pct['p99'])}  (n={count})"
            f"  behind {int(behind)} row(s)"
        )
    slo = status.get("slo")
    if slo is None:
        lines.append(
            "  slo: declared" if load_slo(root) is not None else "  slo: none declared"
        )
    else:
        detail = status.get("slo_detail") or {}
        parts = [
            f"{name} {check.get('actual')}/{check.get('limit')}"
            f" {'ok' if check.get('ok') else 'BREACH'}"
            for name, check in sorted(detail.items())
        ]
        lines.append(f"  slo: {slo}" + (f"  [{'; '.join(parts)}]" if parts else ""))
    return lines


# -- fleet ---------------------------------------------------------------------


def _fleet_section(run_dir: Path) -> list[str]:
    from repro.dist.heartbeats import read_heartbeat
    from repro.obs.spine import load_segments

    lines = [f"== fleet: {run_dir} =="]
    if not run_dir.is_dir():
        lines.append("  run dir gone (run finished and was swept)")
        return lines
    beats: list[str] = []
    hb_dir = run_dir / "heartbeats"
    try:
        hb_paths = sorted(hb_dir.glob("*.hb"))
    except OSError:
        hb_paths = []
    for path in hb_paths:
        beat = read_heartbeat(path)
        wid = path.name[: -len(".hb")]
        if beat is None:
            beats.append(f"{wid} (torn)")
        else:
            beats.append(f"{wid} pid {beat.pid} hb {beat.counter}")
    lines.append("  workers: " + ("  ".join(beats) if beats else "none yet"))
    assigns: list[str] = []
    try:
        assign_paths = sorted((run_dir / "assign").glob("*.task"))
    except OSError:
        assign_paths = []
    from repro.dist.leases import read_assignment

    for path in assign_paths:
        assignment = read_assignment(run_dir, path.name[: -len(".task")])
        if assignment is not None:
            assigns.append(
                f"{assignment.step} -> {','.join(assignment.workers)}"
                f" (epoch {assignment.epoch})"
            )
    lines.append("  assignments: " + ("  ".join(assigns) if assigns else "none"))
    segments = load_segments(run_dir)
    if segments:
        merged = MetricsRegistry()
        parts = []
        for segment in segments:
            registry = segment.get("registry")
            if isinstance(registry, dict):
                merged.merge(registry)
            tasks = sum(
                1 for s in segment.get("spans") or [] if s.get("cat") == "wtask"
            )
            parts.append(f"{segment['worker']} {tasks} task(s)")
        pct = merged.percentiles("repro_step_wall_seconds")
        lines.append("  spine: " + "  ".join(parts))
        lines.append(
            f"  step wall: p50 {_ms(pct['p50'])}  p95 {_ms(pct['p95'])}"
            f"  p99 {_ms(pct['p99'])}"
            f"  (n={merged.histogram_count('repro_step_wall_seconds')})"
        )
    return lines

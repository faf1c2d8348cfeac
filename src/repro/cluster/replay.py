"""What-if replays: the same workload on alternative clusters.

X9 projects when demand outgrows the machine; this module answers the
follow-up — "what would waits look like if we doubled the GPU partition?" —
by replaying the recorded submission stream against modified capacity
models and comparing wait/utilization outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.partitions import ClusterConfig, Partition
from repro.cluster.scheduler import simulate_schedule
from repro.cluster.workload import SubmissionTable, SubmittedJob

__all__ = ["ScenarioOutcome", "scaled_partition", "compare_what_if"]


def scaled_partition(cluster: ClusterConfig, name: str, node_factor: float) -> ClusterConfig:
    """New cluster with one partition's node count scaled by ``node_factor``.

    Node counts round to at least one node; all other partitions are shared.
    """
    if name not in cluster:
        raise KeyError(f"no partition {name!r} in cluster {cluster.name!r}")
    if node_factor <= 0:
        raise ValueError("node_factor must be positive")
    partitions = []
    for partition in cluster:
        if partition.name == name:
            partitions.append(
                Partition(
                    name=partition.name,
                    nodes=max(1, int(round(partition.nodes * node_factor))),
                    cores_per_node=partition.cores_per_node,
                    gpus_per_node=partition.gpus_per_node,
                    max_walltime=partition.max_walltime,
                )
            )
        else:
            partitions.append(partition)
    return ClusterConfig(f"{cluster.name}[{name}x{node_factor:g}]", tuple(partitions))


@dataclass(frozen=True)
class ScenarioOutcome:
    """One replay's headline outcomes.

    Attributes
    ----------
    scenario:
        Scenario label.
    mean_wait_h, p95_wait_h:
        Over all jobs.
    gpu_mean_wait_h:
        Over GPU-partition jobs (nan when the scenario has none).
    """

    scenario: str
    mean_wait_h: float
    p95_wait_h: float
    gpu_mean_wait_h: float


def _outcome(label: str, table) -> ScenarioOutcome:
    waits_h = table.wait / 3600.0
    gpu = table.by_partition("gpu") if "gpu" in table.partitions() else None
    return ScenarioOutcome(
        scenario=label,
        mean_wait_h=float(waits_h.mean()),
        p95_wait_h=float(np.quantile(waits_h, 0.95)),
        gpu_mean_wait_h=float(gpu.wait.mean() / 3600.0) if gpu is not None and len(gpu) else float("nan"),
    )


def compare_what_if(
    jobs: SubmissionTable | Sequence[SubmittedJob],
    scenarios: Mapping[str, ClusterConfig],
    seed: int = 0,
    **schedule_kwargs,
) -> dict[str, ScenarioOutcome]:
    """Replay one submission stream against several capacity scenarios.

    Each scenario is scheduled with an identically-seeded terminal-state
    stream so outcome differences are purely capacity effects. Jobs that can
    never fit a scenario's partitions raise, as in ``simulate_schedule`` —
    shrink scenarios with care.
    """
    if not scenarios:
        raise ValueError("no scenarios given")
    if not isinstance(jobs, SubmissionTable):
        jobs = SubmissionTable.from_jobs(jobs)  # once, not per scenario
    outcomes: dict[str, ScenarioOutcome] = {}
    for label, cluster in scenarios.items():
        result = simulate_schedule(
            jobs, cluster, rng=np.random.default_rng(seed), **schedule_kwargs
        )
        outcomes[label] = _outcome(label, result.table)
    return outcomes

"""Running FDW workloads on the simulated OSPool.

:func:`run_fdw_batch` is the experiment driver every benchmark uses: it
takes one or more FDW configurations (one per concurrent DAGMan),
submits them to a fresh :class:`~repro.osg.pool.OSPoolSimulator`, runs
to completion, and returns the metrics plus per-DAGMan summaries and the
HTCondor-style user logs, as recorded :class:`~repro.condor.events.UserLog`
objects (``render()`` gives the text). It builds the DAGs and runs the
pool with the cyclic collector paused (:mod:`repro.gcpause`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import SimulationError
from repro.condor.dagman import DagmanOptions
from repro.condor.events import UserLog
from repro.core.config import FdwConfig
from repro.core.workflow import build_fdw_dag
from repro.gcpause import collector_paused
from repro.osg.capacity import CapacityProcess
from repro.osg.metrics import PoolMetrics
from repro.osg.pool import OSPoolConfig, OSPoolSimulator
from repro.units import jobs_per_minute

__all__ = ["FdwBatchResult", "run_fdw_batch"]


@dataclass(frozen=True)
class FdwBatchResult:
    """Outcome of one pool run of one or more concurrent DAGMans."""

    metrics: PoolMetrics
    user_logs: dict[str, UserLog] = field(repr=False, default_factory=dict)
    #: Rescue files written for DAGMans that failed terminally (only
    #: populated when the batch ran with a ``rescue_dir``).
    rescue_files: dict[str, Path] = field(default_factory=dict)

    @property
    def dagman_names(self) -> list[str]:
        """Names of the DAGMans in the batch."""
        return sorted(self.metrics.dagmans)

    def runtime_s(self, dagman: str) -> float:
        """Total runtime of one DAGMan."""
        return self.metrics.dagmans[dagman].runtime_s

    def throughput_jpm(self, dagman: str) -> float:
        """Total throughput (jobs/min) of one DAGMan — eq. (2) term."""
        return self.metrics.dagmans[dagman].throughput_jpm

    def batch_makespan_s(self) -> float:
        """Time from first submit to last completion across the batch."""
        subs = [d.submit_time for d in self.metrics.dagmans.values()]
        ends = [d.end_time for d in self.metrics.dagmans.values()]
        return max(ends) - min(subs)

    def batch_throughput_jpm(self) -> float:
        """Aggregate jobs/min across the whole batch."""
        n = sum(d.n_jobs for d in self.metrics.dagmans.values())
        return jobs_per_minute(n, self.batch_makespan_s())


@collector_paused()
def run_fdw_batch(
    configs: list[FdwConfig] | FdwConfig,
    pool_config: OSPoolConfig | None = None,
    capacity: CapacityProcess | None = None,
    seed: int = 0,
    stagger_s: float = 0.0,
    rescue_dir: str | Path | None = None,
    transfer_faults: "object | None" = None,
) -> FdwBatchResult:
    """Run FDW configuration(s) as concurrent DAGMans on a fresh pool.

    Parameters
    ----------
    configs:
        One config (single DAGMan) or a list (concurrent DAGMans, e.g.
        from :func:`~repro.core.partition.partition_config`).
    pool_config, capacity:
        Pool model overrides.
    seed:
        Pool-side randomness seed (capacity, runtimes, transfers). The
        workflow-side seed lives in each config.
    stagger_s:
        Submission stagger between successive DAGMans ("launch
        simultaneously" is 0, the paper's setup).
    rescue_dir:
        When given, the pool snapshots a rescue file for any DAGMan
        that dies (see :mod:`repro.condor.rescue`); the written paths
        come back in :attr:`FdwBatchResult.rescue_files` for a
        follow-up ``recover`` run.
    transfer_faults:
        Optional :class:`~repro.faults.TransferFaults` chaos model on
        the pool's Stash delivery path (see
        :class:`~repro.osg.transfer.StashCache`).
    """
    if isinstance(configs, FdwConfig):
        configs = [configs]
    if not configs:
        raise SimulationError("need at least one FDW configuration")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate DAGMan names in batch: {names}")
    if stagger_s < 0:
        raise SimulationError(f"stagger_s must be >= 0, got {stagger_s}")

    pool = OSPoolSimulator(
        config=pool_config,
        capacity=capacity,
        seed=seed,
        rescue_dir=rescue_dir,
        transfer_faults=transfer_faults,
    )
    for i, config in enumerate(configs):
        dag = build_fdw_dag(config)
        pool.submit_dagman(
            dag,
            options=DagmanOptions(max_idle=config.max_idle),
            name=config.name,
            at_time=i * stagger_s,
        )
    metrics = pool.run()
    logs = {name: run.user_log for name, run in pool.dagman_runs.items()}
    rescues = {
        name: run.rescue_file
        for name, run in pool.dagman_runs.items()
        if run.rescue_file is not None
    }
    return FdwBatchResult(metrics=metrics, user_logs=logs, rescue_files=rescues)

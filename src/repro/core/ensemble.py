"""Repeated-run experiment aggregation.

The paper runs every configuration three times and reports eq. (1)/(2)
averages with standard deviations. This module is that experimental
protocol as a library: :func:`run_repeated` executes N independent pool
runs of a configuration (derived seeds) and returns a
:class:`RepeatedRuns` exposing exactly the statistics the paper tables
use. The figure exporters and benchmarks build on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.core.config import FdwConfig
from repro.core.partition import partition_config
from repro.core.stats import (
    SeriesSummary,
    average_total_runtime,
    average_total_throughput,
    summarize,
)
from repro.core.submit_osg import FdwBatchResult, run_fdw_batch
from repro.osg.capacity import CapacityProcess
from repro.osg.pool import OSPoolConfig
from repro.rng import derive_seed
from repro.units import jobs_per_minute, to_hours

__all__ = ["RepeatedRuns", "run_repeated"]


@dataclass(frozen=True)
class RepeatedRuns:
    """Aggregated outcome of N repeats of one experiment point.

    Per-DAGMan values are pooled across repeats (with k concurrent
    DAGMans and N repeats there are k*N samples), matching how the
    paper aggregates its partitioned batches.
    """

    config: FdwConfig
    n_dagmans: int
    results: tuple[FdwBatchResult, ...]
    runtimes_s: tuple[float, ...]
    job_counts: tuple[int, ...]

    def average_total_runtime_s(self) -> float:
        """Eq. (1)/(3)."""
        return average_total_runtime(list(self.runtimes_s))

    def average_total_throughput_jpm(self) -> float:
        """Eq. (2)/(4)."""
        return average_total_throughput(list(self.job_counts), list(self.runtimes_s))

    def runtime_summary_h(self) -> SeriesSummary:
        """Mean/SD/min/max of runtimes in hours (the paper's unit)."""
        return summarize([to_hours(r) for r in self.runtimes_s])

    def throughput_summary_jpm(self) -> SeriesSummary:
        """Mean/SD/min/max of per-DAGMan throughputs."""
        return summarize(
            [jobs_per_minute(j, r) for j, r in zip(self.job_counts, self.runtimes_s)]
        )

    def row(self) -> tuple[float, float, float, float]:
        """(runtime_h, runtime_sd_h, jpm, jpm_sd) — one table row."""
        r = self.runtime_summary_h()
        t = self.throughput_summary_jpm()
        return (r.mean, r.sd, t.mean, t.sd)


def run_repeated(
    config: FdwConfig,
    repeats: int = 3,
    n_dagmans: int = 1,
    seed: tuple[int | str, ...] | str | None = None,
    pool_config: OSPoolConfig | None = None,
    capacity: CapacityProcess | None = None,
) -> RepeatedRuns:
    """Run one experiment point ``repeats`` times with derived seeds.

    Parameters
    ----------
    config:
        The workload (total waveforms across all DAGMans).
    repeats:
        Independent pool runs (the paper uses 3).
    n_dagmans:
        Concurrency level; the workload is partitioned evenly.
    seed:
        Pool-seed path: repeat ``i`` runs with ``derive_seed(*seed, i)``.
        A bare key stands for ``(0xE5, key, n_dagmans)``; the default key
        is the config name, so same-named experiments reproduce and
        differently-named ones are independent.
    """
    if repeats < 1:
        raise SimulationError(f"repeats must be >= 1, got {repeats}")
    if not isinstance(seed, tuple):
        seed = (0xE5, seed or config.name, n_dagmans)
    parts = partition_config(config, n_dagmans)
    results = []
    runtimes: list[float] = []
    jobs: list[int] = []
    for repeat in range(repeats):
        result = run_fdw_batch(
            parts,
            pool_config=pool_config,
            capacity=capacity,
            seed=derive_seed(*seed, repeat),
        )
        results.append(result)
        for name in result.dagman_names:
            runtimes.append(result.runtime_s(name))
            jobs.append(result.metrics.dagmans[name].n_jobs)
    return RepeatedRuns(
        config=config,
        n_dagmans=n_dagmans,
        results=tuple(results),
        runtimes_s=tuple(runtimes),
        job_counts=tuple(jobs),
    )

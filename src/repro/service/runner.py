"""Execution backends behind the portal service: one ``Runner`` protocol.

The refactor that lets a request land on any backend: the service layer
talks to a :class:`Runner` and nothing else, so the same submission can
execute on the simulated OSPool (:class:`PoolRunner`), on a single
machine computing real waveforms (:class:`LocalBackend`), on the
OSG+VDC bursting model (:class:`BurstingRunner`), or against a pure
virtual-cost model for service-layer benchmarks
(:class:`SimulatedRunner`). Every backend returns the same
:class:`RunnerOutcome` shape — simulated wall seconds, completed job
count, a human report — which is all the fair-share dispatcher needs to
run its virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.config import FdwConfig
from repro.core.phases import count_jobs

__all__ = [
    "RunnerOutcome",
    "Runner",
    "PoolRunner",
    "LocalBackend",
    "BurstingRunner",
    "SimulatedRunner",
]


@dataclass(frozen=True)
class RunnerOutcome:
    """What one backend execution produced.

    Attributes
    ----------
    backend:
        Which runner executed (``"pool"``, ``"local"``, ``"burst"``,
        ``"sim"``).
    elapsed_s:
        Simulated wall seconds of the execution — how long the
        submission occupies a service worker on the virtual clock.
    n_jobs:
        Jobs (or chunks) completed.
    report:
        Human monitoring text (what ``Portal.status`` renders).
    details:
        The backend-native result object
        (:class:`~repro.core.submit_osg.FdwBatchResult`,
        :class:`~repro.core.local.LocalRunResult`,
        :class:`~repro.bursting.simulator.BurstingResult`, or ``None``).
    """

    backend: str
    elapsed_s: float
    n_jobs: int
    report: str
    details: object | None = field(default=None, repr=False, compare=False)


@runtime_checkable
class Runner(Protocol):
    """An execution backend the service can place a submission on."""

    #: Stable backend name; part of the coalescing key, so identical
    #: configs submitted to different backends never share an execution.
    name: str

    def execute(self, config: FdwConfig, seed: int) -> RunnerOutcome:
        """Run one configuration to completion (synchronous, simulated)."""
        ...


class PoolRunner:
    """OSPool-backed execution (the portal's classic backend).

    Wraps :func:`~repro.core.submit_osg.run_fdw_batch` with the pool
    model overrides the portal already takes.
    """

    name = "pool"

    def __init__(
        self,
        pool_config: "object | None" = None,
        capacity: "object | None" = None,
    ) -> None:
        self.pool_config = pool_config
        self.capacity = capacity

    def execute(self, config: FdwConfig, seed: int) -> RunnerOutcome:
        from repro.core.monitor import DagmanStats
        from repro.core.submit_osg import run_fdw_batch

        result = run_fdw_batch(
            config,
            pool_config=self.pool_config,  # type: ignore[arg-type]
            capacity=self.capacity,  # type: ignore[arg-type]
            seed=seed,
        )
        stats = DagmanStats.from_log_text(
            result.user_logs[config.name], source=config.name
        )
        summary = result.metrics.dagmans[config.name]
        return RunnerOutcome(
            backend=self.name,
            elapsed_s=summary.runtime_s,
            n_jobs=summary.n_jobs,
            report=stats.report(config.name),
            details=result,
        )


class LocalBackend:
    """Single-machine execution computing real waveform products.

    Wraps :class:`~repro.core.local.LocalRunner` (with all its caches
    and checkpoint machinery available through the wrapped instance).
    The submission's pool seed is ignored: a local run is fully
    determined by the config, whose own ``seed`` drives every phase.
    """

    name = "local"

    def __init__(self, runner: "object | None" = None) -> None:
        self._runner = runner

    def execute(self, config: FdwConfig, seed: int) -> RunnerOutcome:
        from repro.core.local import LocalRunner

        if self._runner is None:
            self._runner = LocalRunner()
        result = self._runner.run(config)  # type: ignore[attr-defined]
        n_jobs = sum(result.chunks_executed.values()) + sum(
            result.chunks_skipped.values()
        )
        phase_text = ", ".join(
            f"{phase} {seconds:.2f}s"
            for phase, seconds in result.phase_seconds.items()
        )
        return RunnerOutcome(
            backend=self.name,
            elapsed_s=result.total_seconds,
            n_jobs=n_jobs,
            report=(
                f"local run {config.name}: {result.n_waveform_sets} waveform "
                f"sets in {result.total_seconds:.2f}s ({phase_text})"
            ),
            details=result,
        )


class BurstingRunner:
    """OSG-with-VDC-bursting execution (§5.3's hybrid backend).

    Runs the pool simulation, then replays its trace through the
    bursting simulator under Policies 1–3, charging the *bursted*
    makespan — a submission placed here finishes sooner than on the
    plain pool whenever the policies would have bursted to VDC.
    """

    name = "burst"

    def __init__(
        self,
        pool_config: "object | None" = None,
        capacity: "object | None" = None,
        policies: "list | None" = None,
        max_burst_fraction: float | None = None,
    ) -> None:
        self.pool_config = pool_config
        self.capacity = capacity
        self.policies = policies
        self.max_burst_fraction = max_burst_fraction

    def execute(self, config: FdwConfig, seed: int) -> RunnerOutcome:
        from repro.bursting import (
            BurstingSimulator,
            LowThroughputPolicy,
            QueueTimePolicy,
            SubmissionGapPolicy,
            render_report,
        )
        from repro.core.submit_osg import run_fdw_batch
        from repro.core.traces import metrics_to_batch_trace

        result = run_fdw_batch(
            config,
            pool_config=self.pool_config,  # type: ignore[arg-type]
            capacity=self.capacity,  # type: ignore[arg-type]
            seed=seed,
        )
        trace = metrics_to_batch_trace(result.metrics, config.name)
        policies = (
            self.policies
            if self.policies is not None
            else [LowThroughputPolicy(), QueueTimePolicy(), SubmissionGapPolicy()]
        )
        burst = BurstingSimulator(
            trace,
            policies=policies,
            max_burst_fraction=self.max_burst_fraction,
        ).run()
        return RunnerOutcome(
            backend=self.name,
            elapsed_s=burst.runtime_s,
            n_jobs=burst.n_jobs,
            report=render_report(burst),
            details=burst,
        )


class SimulatedRunner:
    """Virtual-cost backend for service benchmarks and demos.

    Charges a seeded, deterministic simulated makespan scaled to the
    workload size without running a pool simulation, so service-layer
    benchmarks measure the *service* (queueing, coalescing, fair share),
    not the backend. Products still deposit through the portal exactly
    as with the real backends.
    """

    name = "sim"

    def __init__(self, base_s: float = 3600.0, jitter: float = 0.25) -> None:
        from repro.errors import ServiceError

        if base_s <= 0:
            raise ServiceError(f"base_s must be positive, got {base_s}")
        if not (0.0 <= jitter < 1.0):
            raise ServiceError(f"jitter must be in [0, 1), got {jitter}")
        self.base_s = base_s
        self.jitter = jitter

    def execute(self, config: FdwConfig, seed: int) -> RunnerOutcome:
        import numpy as np

        from repro.rng import derive_seed

        n_jobs = count_jobs(config)
        rng = np.random.default_rng(
            derive_seed(seed, "service-sim", config.content_digest())
        )
        scale = config.n_waveforms / 1024.0
        elapsed = self.base_s * scale * (
            1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        )
        return RunnerOutcome(
            backend=self.name,
            elapsed_s=elapsed,
            n_jobs=n_jobs,
            report=(
                f"simulated run {config.name}: {n_jobs} jobs in "
                f"{elapsed:.0f}s (virtual)"
            ),
            details=None,
        )

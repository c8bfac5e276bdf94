"""The OSPool simulator facade.

:class:`OSPoolSimulator` wires the event core, capacity process,
negotiator, Stash cache, and runtime model together and runs one or
more DAGMan engines to completion, producing:

* a :class:`~repro.osg.metrics.PoolMetrics` with every job record,
* an HTCondor-style user log per DAGMan (the input to the monitoring
  pipeline of :mod:`repro.core.monitor`).

Mechanisms modelled (each is load-bearing for a figure — see DESIGN.md):
time-varying capacity with preemption, negotiation cycles with
fair round-robin across DAGMans and a per-cycle match limit, DAGMan
submit cycles with idle throttling, cold/warm input staging, lognormal
execution times, and rare job failure with DAG-level retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.condor.dagfile import DagDescription
from repro.condor.dagman import DagmanEngine, DagmanOptions
from repro.condor.events import JobEventType, UserLog
from repro.condor.jobs import JobState
from repro.condor.rescue import apply_rescue, read_rescue_file, rescue_path, write_rescue_file
from repro.osg.capacity import CapacityProcess, default_ospool_capacity
from repro.osg.des import Simulator
from repro.osg.jobtable import JobTable
from repro.osg.metrics import DagmanSummary, JobRecord, PoolMetrics
from repro.osg.negotiator import NegotiatorConfig, negotiate_vectorized
from repro.osg.runtimes import RuntimeModel
from repro.osg.schedd import ScheddQueue
from repro.osg.transfer import StashCache, TransferConfig
from repro.rng import RngFactory, block_stream

__all__ = [
    "OSPoolConfig",
    "OSPoolSimulator",
    "DagmanRun",
    "resubmit_with_rescue",
]

# Enum members the pool passes to its job table and user logs, bound
# once: reading one off its class costs an enum-metaclass lookup.
_IDLE = JobState.IDLE
_RUNNING = JobState.RUNNING
_COMPLETED = JobState.COMPLETED
_FAILED = JobState.FAILED
_EXECUTE = JobEventType.EXECUTE
_TERMINATED = JobEventType.TERMINATED


@dataclass(frozen=True)
class OSPoolConfig:
    """Pool-wide configuration.

    Attributes
    ----------
    negotiator:
        Matchmaking cadence and per-cycle limit.
    dagman_cycle_s:
        Seconds between DAGMan submit cycles.
    transfer:
        Stash-cache bandwidths/overheads.
    runtime:
        Job execution-time model.
    success_prob:
        Per-attempt success probability (OSG jobs do occasionally fail;
        DAG retries absorb them).
    max_sim_time_s:
        Hard guard against deadlocked configurations.
    """

    negotiator: NegotiatorConfig = field(default_factory=NegotiatorConfig)
    dagman_cycle_s: float = 30.0
    transfer: TransferConfig = field(default_factory=TransferConfig)
    runtime: RuntimeModel = field(default_factory=RuntimeModel)
    success_prob: float = 0.985
    max_sim_time_s: float = 30.0 * 86400.0

    def __post_init__(self) -> None:
        if self.dagman_cycle_s <= 0:
            raise SimulationError("dagman_cycle_s must be positive")
        if not (0.0 < self.success_prob <= 1.0):
            raise SimulationError(f"success_prob must be in (0, 1], got {self.success_prob}")
        if self.max_sim_time_s <= 0:
            raise SimulationError("max_sim_time_s must be positive")


class _OpenCount:
    """How many of a pool's DAGMans have not finished."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


class DagmanRun:
    """Live state of one submitted DAGMan.

    ``end_time`` is set once, when the DAG completes or fails
    terminally, by whichever code ends the run. Setting it takes the
    run off its pool's count of unfinished DAGMans, so the pool's done
    check after every event reads one integer instead of scanning its
    runs.
    """

    __slots__ = (
        "name", "engine", "queue", "user_log", "submit_time", "dead",
        "rescue_file", "_end_time", "_open",
    )

    def __init__(
        self,
        name: str,
        engine: DagmanEngine,
        queue: ScheddQueue,
        user_log: UserLog,
        submit_time: float,
        open_count: _OpenCount,
    ) -> None:
        self.name = name
        self.engine = engine
        self.queue = queue
        self.user_log = user_log
        self.submit_time = submit_time
        self.dead = False  # terminal failure (retries exhausted)
        self.rescue_file: Path | None = None
        self._end_time: float | None = None
        self._open = open_count
        open_count.n += 1

    @property
    def end_time(self) -> float | None:
        """When the run finished (simulation seconds), or None."""
        return self._end_time

    @end_time.setter
    def end_time(self, value: float) -> None:
        if self._end_time is None and value is not None:
            self._open.n -= 1
        self._end_time = value

    @property
    def finished(self) -> bool:
        """Completed or terminally failed."""
        return self._end_time is not None

    @property
    def n_jobs(self) -> int:
        """DAG size (the paper's per-DAGMan job count j_n)."""
        return len(self.engine.dag)


class OSPoolSimulator:
    """Run DAGMan workflows on a simulated OSPool.

    The engine is struct-of-arrays: jobs live in a
    :class:`~repro.osg.jobtable.JobTable`, each negotiation cycle is one
    O(matches) fair round-robin (:func:`~repro.osg.negotiator.negotiate`),
    the running set is an O(1)-removal token map, and jobs of one cycle
    with equal finish times share one coalesced completion event.
    Per-job RNG draws (transfer site, runtime, failure) are taken *in
    match order*, each from its own stream; the site and failure
    streams are drawn in blocks (:func:`~repro.rng.block_stream`),
    which yield the scalar sequence exactly. The output equals, bit for
    bit, that of the one-object-per-job engine it replaced (frozen as a
    test oracle).

    Parameters
    ----------
    config:
        Pool configuration; defaults are the calibrated OSPool model.
    capacity:
        Capacity process; defaults to the calibrated Markov-modulated
        OSPool process. Passed separately from the config because the
        process object is stateful.
    seed:
        Root seed for all stochastic components.
    rescue_dir:
        When set, the simulator writes a rescue file (DONE-node
        snapshot, see :mod:`repro.condor.rescue`) whenever a DAGMan
        dies terminally — the recovery input for
        :func:`resubmit_with_rescue`.
    transfer_faults:
        Optional :class:`~repro.faults.TransferFaults` chaos model for
        the Stash delivery path; see :class:`~repro.osg.transfer.StashCache`.
    """

    def __init__(
        self,
        config: OSPoolConfig | None = None,
        capacity: CapacityProcess | None = None,
        seed: int = 0,
        rescue_dir: str | Path | None = None,
        transfer_faults: "object | None" = None,
    ) -> None:
        self.config = config or OSPoolConfig()
        self.rescue_dir = Path(rescue_dir) if rescue_dir is not None else None
        self.capacity_process = capacity or default_ospool_capacity()
        self.rngs = RngFactory(seed)
        self._rng_capacity = self.rngs.generator("capacity")
        self._rng_runtime = self.rngs.generator("runtime")
        self._rng_transfer = self.rngs.generator("transfer")
        self._rng_failure = self.rngs.generator("failure")
        self._transfer_sites = block_stream(
            self._rng_transfer.integers, self.config.transfer.n_cache_sites
        )
        self._failure_draws = block_stream(self._rng_failure.random)
        self.sim = Simulator()
        # transfer_faults takes a repro.faults.TransferFaults model
        # (chaos injection); None keeps the delivery path — and every
        # RNG stream — bit-identical to the fault-free simulator.
        self.cache = StashCache(
            self.config.transfer,
            faults=transfer_faults,  # type: ignore[arg-type]
            retry_seed=seed,
        )
        self._dagmans: dict[str, DagmanRun] = {}
        self._open = _OpenCount()
        # Running set: token -> (run, node, row). Tokens increase with
        # start time, so dict order doubles as newest-last preemption
        # order, and a token absent from the map makes a stale coalesced
        # completion a no-op.
        self._running: dict[int, tuple[DagmanRun, str, int]] = {}
        self._next_token = 0
        self._table = JobTable()
        self._records: list[JobRecord] = []
        self._capacity = 0
        self._capacity_trace: list[tuple[float, int]] = []
        self._next_slot = 1
        # Cluster ids count per pool, so user logs are reproducible
        # whatever else the process has simulated.
        self._next_cluster = 1
        self._started = False

    # -- submission -------------------------------------------------------

    def submit_dagman(
        self,
        dag: DagDescription,
        options: DagmanOptions | None = None,
        name: str | None = None,
        at_time: float = 0.0,
    ) -> DagmanRun:
        """Register a DAGMan to start at ``at_time`` (simulation seconds)."""
        return self.submit_engine(
            DagmanEngine(dag, options), name=name or dag.name, at_time=at_time
        )

    def submit_engine(
        self,
        engine: DagmanEngine,
        name: str,
        at_time: float = 0.0,
    ) -> DagmanRun:
        """Register a pre-built DAGMan engine.

        This is the rescue path: an engine fast-forwarded with
        :func:`repro.condor.rescue.apply_rescue` resubmits only the
        remaining nodes.
        """
        if self._started:
            raise SimulationError("cannot submit after run() started")
        if at_time < 0:
            raise SimulationError(f"at_time must be >= 0, got {at_time}")
        if name in self._dagmans:
            raise SimulationError(f"duplicate DAGMan name {name!r}")
        run = DagmanRun(name, engine, ScheddQueue(name), UserLog(), at_time, self._open)
        if engine.is_complete:
            # A fully-rescued DAG has nothing to run.
            run.end_time = at_time
        self._dagmans[name] = run
        self.sim.schedule_at(at_time, partial(self._dagman_cycle, run))
        return run

    # -- event handlers ------------------------------------------------------

    def _all_done(self) -> bool:
        return not self._open.n

    def _dagman_cycle(self, run: DagmanRun) -> None:
        """One DAGMan submit cycle: release ready nodes into the queue.

        Nodes with a PRE script run it first (on the submit host); a
        failing PRE fails the node without ever submitting the job —
        DAGMan semantics.
        """
        if run.finished:
            return
        engine = run.engine
        batch = engine.pull_submissions(run.queue.n_idle)
        if batch:
            nodes = engine.nodes
            plain: list[str] = []
            for node_name in batch:
                script = nodes[node_name].pre_script
                if script is None:
                    # Plain nodes batch into one table append below; PRE
                    # nodes take their cluster ids at script completion,
                    # so deferring keeps the id sequence identical.
                    plain.append(node_name)
                elif script.succeeds:
                    self.sim.schedule(
                        script.duration_s, partial(self._enqueue_single, run, node_name)
                    )
                else:
                    self.sim.schedule(
                        script.duration_s,
                        partial(self._report_result, run, node_name, False),
                    )
            if plain:
                self._enqueue_batch(run, plain)
        self.sim.schedule(self.config.dagman_cycle_s, partial(self._dagman_cycle, run))

    def _enqueue_batch(self, run: DagmanRun, node_names: list[str]) -> None:
        """Append one submit batch to the job table, the log and the queue."""
        now = self.sim.now
        nodes = run.engine.nodes
        n = len(node_names)
        first_cluster = self._next_cluster
        self._next_cluster = first_cluster + n
        specs = [nodes[name].spec for name in node_names]
        rows = self._table.add_batch(specs, first_cluster, now)
        run.user_log.record_submits(first_cluster, n, now, f"schedd-{run.name}")
        run.queue.enqueue_many(list(zip(node_names, rows)))

    def _enqueue_single(self, run: DagmanRun, node_name: str) -> None:
        """Queue one PRE-cleared node."""
        if run.finished:
            return
        self._enqueue_batch(run, [node_name])

    def _negotiator_cycle(self) -> None:
        """One negotiation cycle across all active DAGMans."""
        if self._all_done():
            return
        free = max(0, self._capacity - len(self._running))
        queues = [d.queue for d in self._dagmans.values() if not d.finished]
        matches = negotiate_vectorized(queues, free, self.config.negotiator)
        if obs.enabled():
            obs.counter_add("repro_pool_negotiation_cycles_total", 1)
            if matches:
                obs.counter_add("repro_pool_matches_total", len(matches))
        if matches:
            now = self.sim.now
            dagmans = self._dagmans
            # Coalesce: all matches of this cycle sharing a finish time
            # complete through one heap event, members in match order —
            # the order one event per job would fire them in.
            groups: dict[float, list[int]] = {}
            for queue, node_name, row in matches:
                run = dagmans[queue.name]
                finish, token = self._claim(run, node_name, row, now)
                group = groups.get(finish)
                if group is None:
                    groups[finish] = [token]
                else:
                    group.append(token)
            schedule_at = self.sim.schedule_at
            for finish, tokens in groups.items():
                schedule_at(finish, partial(self._complete_batch, tokens))
        self.sim.schedule(self.config.negotiator.cycle_s, self._negotiator_cycle)

    def _claim(
        self, run: DagmanRun, node_name: str, row: int, now: float
    ) -> tuple[float, int]:
        """Start a matched job; returns (finish time, running-set token)."""
        table = self._table
        slot = self._next_slot
        self._next_slot = slot + 1
        table.transition(row, _RUNNING, now)
        # The log keeps the slot number; it names the host slot-<number>.
        run.user_log.record(_EXECUTE, table.cluster_id[row], now, slot)
        spec = table.specs[row]
        duration = self.cache.transfer_time(
            spec, next(self._transfer_sites)
        ) + self.config.runtime.sample_seconds(spec, self._rng_runtime)
        token = self._next_token
        self._next_token = token + 1
        self._running[token] = (run, node_name, row)
        return now + duration, token

    def _complete_batch(self, tokens: list[int]) -> None:
        """Finish a coalesced batch of jobs sharing one finish time.

        Each member runs the whole completion protocol in turn —
        running-set removal, claim reuse, failure draw, terminate,
        record, POST/report — so the event order and RNG streams are
        those of one event per job. A token no longer in the running map
        belongs to a job evicted after this event was scheduled: stale
        members are skipped, which is how the pool "cancels" completions
        without touching the heap.
        """
        # Coalesced members are rare (a cycle's finish times are mostly
        # distinct, and a reused claim's completion is its own event), so
        # this is the per-job path: it binds only what it reads.
        running = self._running
        table = self._table
        config = self.config
        now = self.sim.now
        for token in tokens:
            entry = running.pop(token, None)
            if entry is None:
                continue
            run, node_name, row = entry
            # Claim reuse (HTCondor default): the freed slot immediately
            # runs the submitter's next idle job instead of idling until
            # the next negotiation cycle. This is what lets short
            # small-input jobs sustain the paper's high throughputs. The
            # reused claim's completion is its own (uncoalesced) event.
            if len(running) < self._capacity and run.queue.n_idle > 0:
                next_node, next_row = run.queue.pop()
                finish, next_token = self._claim(run, next_node, next_row, now)
                self.sim.schedule_at(finish, partial(self._complete_batch, [next_token]))
            success = next(self._failure_draws) < config.success_prob
            table.transition(row, _COMPLETED if success else _FAILED, now)
            cluster = table.cluster_id[row]
            run.user_log.record(_TERMINATED, cluster, now, "", 0 if success else 1)
            payload = table.specs[row].payload
            self._records.append(
                JobRecord(
                    node_name,
                    run.name,
                    payload.phase if payload else "generic",
                    cluster,
                    table.submit_time[row],
                    table.start_time[row],
                    now,
                    table.n_evictions[row],
                    success,
                )
            )
            post_script = run.engine.nodes[node_name].post_script
            if post_script is not None:
                # DAGMan semantics: the POST script's exit code becomes
                # the node result (masking or overriding the job's own).
                self.sim.schedule(
                    post_script.duration_s,
                    partial(self._report_result, run, node_name, post_script.succeeds),
                )
            else:
                self._report_result(run, node_name, success)

    def _evict_entries(self, entries: list[tuple[DagmanRun, str, int]]) -> None:
        """Return running entries (tokens already popped) to the queue fronts."""
        now = self.sim.now
        table = self._table
        for run, node_name, row in entries:
            table.transition(row, _IDLE, now)
            run.user_log.record(JobEventType.EVICTED, table.cluster_id[row], now)
            table.n_evictions[row] += 1
            run.queue.enqueue(node_name, row, front=True)

    def _pop_newest(self, count: int) -> list[tuple[DagmanRun, str, int]]:
        """Remove and return the ``count`` newest running entries.

        Tokens are issued in start order, so the map's insertion order
        is the start-time order (stable on ties).
        """
        items = list(self._running.items())[-count:] if count > 0 else []
        for token, _ in items:
            del self._running[token]
        return [entry for _, entry in items]

    def _report_result(self, run: DagmanRun, node_name: str, success: bool) -> None:
        """Deliver a node's final result to its DAGMan engine."""
        if run._end_time is not None:  # finished
            return
        engine = run.engine
        engine.on_node_result(node_name, success)
        if engine.is_complete:
            run.end_time = self.sim.now
        elif engine.has_failed and self._no_inflight(run):
            run.end_time = self.sim.now
            run.dead = True
            self._write_rescue(run)

    def _no_inflight(self, run: DagmanRun) -> bool:
        if run.queue.n_idle > 0 or run.engine.n_ready > 0:
            return False
        return all(entry[0] is not run for entry in self._running.values())

    def _write_rescue(self, run: DagmanRun) -> None:
        """Snapshot a DAGMan's DONE nodes into the next free rescue file."""
        if self.rescue_dir is None:
            return
        base = self.rescue_dir / f"{run.name}.dag"
        attempt = 1
        while rescue_path(base, attempt).exists():
            attempt += 1
        run.rescue_file = write_rescue_file(run.engine, rescue_path(base, attempt), attempt)

    def _capacity_step(self, first: bool = False) -> None:
        if first:
            self._capacity = self.capacity_process.initial(self._rng_capacity)
        self._capacity_trace.append((self.sim.now, self._capacity))
        dwell, new_capacity = self.capacity_process.next_change(self._rng_capacity)

        def change() -> None:
            self._capacity = new_capacity
            self._preempt_to_capacity()
            self._capacity_step()

        self.sim.schedule(dwell, change)

    def _preempt_to_capacity(self) -> None:
        # Evict the newest claims first (glideins that just vanished).
        overflow = len(self._running) - self._capacity
        if overflow > 0:
            self._evict_entries(self._pop_newest(overflow))

    # -- running -----------------------------------------------------------------

    def run(self) -> PoolMetrics:
        """Run to completion; returns the metrics.

        Raises
        ------
        SimulationError
            If no DAGMan was submitted, or the simulation hits the
            ``max_sim_time_s`` guard without completing.
        """
        if not self._dagmans:
            raise SimulationError("no DAGMans submitted")
        if self._started:
            raise SimulationError("run() already called")
        self._started = True
        self._capacity_step(first=True)
        self.sim.schedule_at(0.0, self._negotiator_cycle)
        horizon = self.config.max_sim_time_s
        try:
            self.sim.run(until=horizon, stop_when=self._all_done)
        finally:
            # The pool never runs again, and its pending callbacks (the
            # next negotiator cycle, capacity change and DAGMan cycles)
            # hold it: dropping them lets reference counting free a
            # finished pool instead of leaving it to a full collection.
            self.sim.clear()
        if not self._all_done():
            unfinished = [n for n, d in self._dagmans.items() if not d.finished]
            raise SimulationError(
                f"simulation hit the {horizon}s guard with unfinished "
                f"DAGMans: {unfinished}"
            )
        metrics = PoolMetrics(
            records=list(self._records),
            dagmans={
                name: DagmanSummary(
                    name=name,
                    submit_time=d.submit_time,
                    end_time=d.end_time,
                    n_jobs=d.n_jobs,
                )
                for name, d in self._dagmans.items()
            },
            capacity_trace=list(self._capacity_trace),
        )
        self._observe_run(metrics)
        return metrics

    def _observe_run(self, metrics: PoolMetrics) -> None:
        """Emit the finished run's telemetry (virtual time).

        Per-DAGMan spans carry *simulation* timestamps, and the queue
        waits / exec times come from the final records — so the trace is
        a pure function of the seeded simulation, byte-identical across
        repeats.
        """
        if not obs.enabled():
            return
        self.cache.observe_flush()
        for name in sorted(metrics.dagmans):
            s = metrics.dagmans[name]
            obs.complete(
                f"dagman:{name}",
                ts=s.submit_time,
                dur=max(0.0, s.end_time - s.submit_time),
                category="pool",
                track=f"dagman:{name}",
                args={"n_jobs": s.n_jobs},
            )
        if metrics.records:
            obs.histogram_observe_many(
                "repro_pool_queue_wait_seconds",
                np.fromiter((r.wait_s for r in metrics.records), dtype=float,
                            count=len(metrics.records)),
            )
            obs.histogram_observe_many(
                "repro_pool_exec_seconds",
                np.fromiter((r.exec_s for r in metrics.records), dtype=float,
                            count=len(metrics.records)),
            )
            n_success = sum(1 for r in metrics.records if r.success)
            if n_success:
                obs.counter_add("repro_pool_jobs_total", n_success,
                                {"outcome": "success"})
            if n_success < len(metrics.records):
                obs.counter_add("repro_pool_jobs_total",
                                len(metrics.records) - n_success,
                                {"outcome": "failed"})

    # -- introspection --------------------------------------------------------------

    @property
    def dagman_runs(self) -> dict[str, DagmanRun]:
        """Submitted DAGMan states (for logs and assertions)."""
        return dict(self._dagmans)



# -- recovery ------------------------------------------------------------------


def resubmit_with_rescue(
    dag: DagDescription,
    rescue_file: str | Path,
    *,
    options: DagmanOptions | None = None,
    name: str | None = None,
    config: OSPoolConfig | None = None,
    capacity: CapacityProcess | None = None,
    seed: int = 0,
    rescue_dir: str | Path | None = None,
) -> tuple[OSPoolSimulator, DagmanRun]:
    """Resubmit a DAG from a rescue file on a fresh pool.

    Constructs a fresh :class:`~repro.condor.dagman.DagmanEngine`,
    fast-forwards the rescue file's DONE nodes via
    :func:`~repro.condor.rescue.apply_rescue`, and submits it to a new
    :class:`OSPoolSimulator` — the driver then calls ``run()`` on the
    returned simulator. Passing ``rescue_dir`` lets the resubmission
    itself write further rescue files, chaining attempts.
    """
    dagman_engine = DagmanEngine(dag, options)
    apply_rescue(dagman_engine, read_rescue_file(rescue_file))
    pool = OSPoolSimulator(
        config=config, capacity=capacity, seed=seed, rescue_dir=rescue_dir
    )
    run = pool.submit_engine(dagman_engine, name=name or dag.name)
    return pool, run

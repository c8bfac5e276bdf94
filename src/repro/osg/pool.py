"""The OSPool simulator facade.

:class:`OSPoolSimulator` wires the event core, capacity process,
negotiator, Stash cache, and runtime model together and runs one or
more DAGMan engines to completion, producing:

* a :class:`~repro.osg.metrics.PoolMetrics` with every job record,
* an HTCondor-style user log per DAGMan (the input to the monitoring
  pipeline of :mod:`repro.core.monitor`).

Mechanisms modelled (each is load-bearing for a figure — see DESIGN.md):
time-varying capacity with optional preemption, negotiation cycles with
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
from repro.osg.jobtable import JobTable, JobView
from repro.osg.metrics import DagmanSummary, JobRecord, PoolMetrics
from repro.osg.negotiator import NegotiatorConfig, negotiate_vectorized
from repro.osg.runtimes import RuntimeModel
from repro.osg.schedd import ScheddQueue
from repro.osg.transfer import StashCache, TransferConfig
from repro.rng import RngFactory

__all__ = [
    "OSPoolConfig",
    "OSPoolSimulator",
    "DagmanRun",
    "resubmit_with_rescue",
    "verify_exactly_once",
]


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
    preemption:
        Evict the newest running jobs when capacity drops below the
        running count (glidein churn).
    max_job_holds:
        When > 0, a job failure that would exhaust the node's DAG-level
        retries is instead put on HOLD (up to this many times per node)
        and released after ``hold_release_s`` — HTCondor's last line of
        defence before the DAG fails terminally. 0 (default) disables
        holds, preserving the pre-hold simulator behaviour exactly.
    hold_release_s:
        Seconds a held job waits before automatic release back to IDLE.
    max_sim_time_s:
        Hard guard against deadlocked configurations.
    """

    negotiator: NegotiatorConfig = field(default_factory=NegotiatorConfig)
    dagman_cycle_s: float = 30.0
    transfer: TransferConfig = field(default_factory=TransferConfig)
    runtime: RuntimeModel = field(default_factory=RuntimeModel)
    success_prob: float = 0.985
    preemption: bool = True
    max_job_holds: int = 0
    hold_release_s: float = 300.0
    max_sim_time_s: float = 30.0 * 86400.0

    def __post_init__(self) -> None:
        if self.dagman_cycle_s <= 0:
            raise SimulationError("dagman_cycle_s must be positive")
        if not (0.0 < self.success_prob <= 1.0):
            raise SimulationError(f"success_prob must be in (0, 1], got {self.success_prob}")
        if self.max_job_holds < 0:
            raise SimulationError(f"max_job_holds must be >= 0, got {self.max_job_holds}")
        if self.hold_release_s <= 0:
            raise SimulationError("hold_release_s must be positive")
        if self.max_sim_time_s <= 0:
            raise SimulationError("max_sim_time_s must be positive")


@dataclass
class DagmanRun:
    """Live state of one submitted DAGMan.

    ``jobs`` holds one :class:`~repro.osg.jobtable.JobView` per attempt,
    in submission order: a row of the pool's job table behind the
    :class:`~repro.condor.jobs.Job` attribute surface.
    """

    name: str
    engine: DagmanEngine
    queue: ScheddQueue
    user_log: UserLog
    submit_time: float
    index: int = 0  # submission ordinal (the JobTable's dagman column)
    end_time: float | None = None
    dead: bool = False  # terminal failure (retries exhausted)
    jobs: dict[str, list[JobView]] = field(default_factory=dict)
    rescue_file: Path | None = None
    holds: dict[str, int] = field(default_factory=dict)  # node -> times held
    held: list[tuple[str, JobView]] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """Completed or terminally failed."""
        return self.end_time is not None

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
    Per-job RNG draws (transfer site, runtime, failure) stay scalar *in
    match order* — batching them would interleave the streams
    differently — so the output equals, bit for bit, that of the
    one-object-per-job engine it replaced (frozen as a test oracle).

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
        dies terminally, is killed with :meth:`kill_dagman`, or is left
        unfinished by a bounded ``run(until=...)`` — the recovery input
        for :func:`resubmit_with_rescue`.
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
        # Running set: token -> (run, node, view). Tokens increase with
        # start time, so dict order doubles as newest-last preemption
        # order, and a token absent from the map makes a stale coalesced
        # completion a no-op.
        self._running: dict[int, tuple[DagmanRun, str, JobView]] = {}
        self._next_token = 0
        self._table = JobTable()
        self._records: list[JobRecord] = []
        self._capacity = 0
        self._capacity_trace: list[tuple[float, int]] = []
        self._next_slot = 1
        # Per-pool cluster ids keep user logs reproducible run-to-run
        # (the Job default draws from a process-global counter).
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
        run = DagmanRun(
            name=name,
            engine=engine,
            queue=ScheddQueue(name),
            user_log=UserLog(),
            submit_time=at_time,
            index=len(self._dagmans),
        )
        if engine.is_complete:
            # A fully-rescued DAG has nothing to run.
            run.end_time = at_time
        self._dagmans[name] = run
        self.sim.schedule_at(at_time, partial(self._dagman_cycle, run))
        return run

    # -- event handlers ------------------------------------------------------

    def _all_done(self) -> bool:
        return all(d.finished for d in self._dagmans.values())

    def _dagman_cycle(self, run: DagmanRun) -> None:
        """One DAGMan submit cycle: release ready nodes into the queue.

        Nodes with a PRE script run it first (on the submit host); a
        failing PRE fails the node without ever submitting the job —
        DAGMan semantics.
        """
        if run.finished:
            return
        batch = run.engine.pull_submissions(run.queue.n_idle)
        if batch:
            dag_node = run.engine.dag.node
            plain: list[str] = []
            for node_name in batch:
                node = dag_node(node_name)
                if node.pre_script is not None:
                    script = node.pre_script
                    if script.succeeds:
                        self.sim.schedule(
                            script.duration_s,
                            partial(self._enqueue_single, run, node_name),
                        )
                    else:
                        self.sim.schedule(
                            script.duration_s,
                            partial(self._report_result, run, node_name, False),
                        )
                else:
                    # Plain nodes batch into one table append below; PRE
                    # nodes take their cluster ids at script completion,
                    # so deferring keeps the id sequence identical.
                    plain.append(node_name)
            if plain:
                self._enqueue_batch(run, plain)
        self.sim.schedule(self.config.dagman_cycle_s, partial(self._dagman_cycle, run))

    def _enqueue_batch(self, run: DagmanRun, node_names: list[str]) -> None:
        """Append one submit batch to the job table and the queue."""
        now = self.sim.now
        dag_node = run.engine.dag.node
        specs = [dag_node(n).spec for n in node_names]
        first_cluster = self._next_cluster
        self._next_cluster += len(node_names)
        table = self._table
        rows = table.add_batch(node_names, specs, run.index, first_cluster, now)
        record = run.user_log.record
        host = f"schedd-{run.name}"
        jobs = run.jobs
        entries: list[tuple[str, JobView]] = []
        cluster = first_cluster
        for row, node_name in zip(rows, node_names):
            view = JobView(table, row)
            record(JobEventType.SUBMIT, cluster, now, host=host)
            cluster += 1
            jobs.setdefault(node_name, []).append(view)
            entries.append((node_name, view))
        run.queue.enqueue_many(entries)

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
            for queue, node_name, view in matches:
                run = dagmans[queue.name]
                finish, token = self._claim(run, node_name, view, now)
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
        self, run: DagmanRun, node_name: str, view: JobView, now: float
    ) -> tuple[float, int]:
        """Start a matched job; returns (finish time, running-set token)."""
        table = self._table
        row = view.index
        slot = self._next_slot
        self._next_slot += 1
        table.transition(row, JobState.RUNNING, now)
        table.slot[row] = slot
        run.user_log.record(
            JobEventType.EXECUTE,
            int(table.cluster_id[row]),
            now,
            host=f"slot-{slot}",
        )
        duration = self.cache.transfer_time(
            view.spec, self._rng_transfer
        ) + self.config.runtime.sample_seconds(view.spec, self._rng_runtime)
        table.runtime_s[row] = duration
        token = self._next_token
        self._next_token = token + 1
        self._running[token] = (run, node_name, view)
        return now + duration, token

    def _start_single(self, run: DagmanRun, node_name: str, view: JobView) -> None:
        """Claim-reuse start: one job, its own (uncoalesced) completion."""
        now = self.sim.now
        finish, token = self._claim(run, node_name, view, now)
        self.sim.schedule_at(finish, partial(self._complete_batch, [token]))

    def _complete_batch(self, tokens: list[int]) -> None:
        """Finish a coalesced batch of jobs sharing one finish time.

        Each member runs the whole completion protocol in turn —
        running-set removal, claim reuse, failure draw,
        hold-or-terminate, record, POST/report — so the event order and
        RNG streams are those of one event per job. A token no longer in
        the running map belongs to a job evicted/held/removed after this
        event was scheduled: stale members are skipped, which is how the
        pool "cancels" completions without touching the heap.
        """
        running = self._running
        table = self._table
        config = self.config
        now = self.sim.now
        for token in tokens:
            entry = running.pop(token, None)
            if entry is None:
                continue
            run, node_name, view = entry
            row = view.index
            # Claim reuse (HTCondor default): the freed slot immediately
            # runs the submitter's next idle job instead of idling until
            # the next negotiation cycle. This is what lets short
            # small-input jobs sustain the paper's high throughputs.
            if len(running) < self._capacity and run.queue.n_idle > 0:
                next_node, next_view = run.queue.pop()
                self._start_single(run, next_node, next_view)
            success = bool(self._rng_failure.random() < config.success_prob)
            if (
                not success
                and config.max_job_holds > 0
                and run.engine.retries_left(node_name) == 0
                and run.holds.get(node_name, 0) < config.max_job_holds
            ):
                # The failure would exhaust the node's DAG retries: hold
                # the job instead of failing the DAG (HTCondor's
                # ON_EXIT_HOLD / periodic-release pattern). No TERMINATED
                # event, no record — like an eviction, the attempt is not
                # terminal.
                self._hold_job(run, node_name, view)
                continue
            table.transition(
                row, JobState.COMPLETED if success else JobState.FAILED, now
            )
            cluster = int(table.cluster_id[row])
            run.user_log.record(
                JobEventType.TERMINATED,
                cluster,
                now,
                return_value=0 if success else 1,
            )
            spec = table.specs[row]
            submit = table.submit_time[row]
            start = table.start_time[row]
            self._records.append(
                JobRecord(
                    node_name=node_name,
                    dagman=run.name,
                    phase=spec.payload.phase if spec.payload else "generic",
                    cluster_id=cluster,
                    submit_time=float(submit) if submit == submit else 0.0,
                    start_time=float(start) if start == start else 0.0,
                    end_time=now,
                    n_evictions=int(table.n_evictions[row]),
                    success=success,
                )
            )
            node = run.engine.dag.node(node_name)
            if node.post_script is not None:
                # DAGMan semantics: the POST script's exit code becomes
                # the node result (masking or overriding the job's own).
                final = node.post_script.succeeds
                self.sim.schedule(
                    node.post_script.duration_s,
                    partial(self._report_result, run, node_name, final),
                )
            else:
                self._report_result(run, node_name, success)

    def _evict_entries(self, entries: list[tuple[DagmanRun, str, JobView]]) -> None:
        """Return running entries (tokens already popped) to the queue fronts."""
        now = self.sim.now
        table = self._table
        for run, node_name, view in entries:
            row = view.index
            table.transition(row, JobState.IDLE, now)
            run.user_log.record(
                JobEventType.EVICTED, int(table.cluster_id[row]), now
            )
            table.n_evictions[row] += 1
            run.queue.enqueue(node_name, view, front=True)

    def _pop_newest(self, count: int) -> list[tuple[DagmanRun, str, JobView]]:
        """Remove and return the ``count`` newest running entries.

        Tokens are issued in start order, so the map's insertion order
        is the start-time order (stable on ties).
        """
        items = list(self._running.items())[-count:] if count > 0 else []
        for token, _ in items:
            del self._running[token]
        return [entry for _, entry in items]

    def _hold_job(self, run: DagmanRun, node_name: str, job: JobView) -> None:
        """Put a job on HOLD; it auto-releases after ``hold_release_s``."""
        now = self.sim.now
        job.transition(JobState.HELD, now)
        run.user_log.record(JobEventType.HELD, job.cluster_id, now)
        run.holds[node_name] = run.holds.get(node_name, 0) + 1
        run.held.append((node_name, job))
        self.sim.schedule(
            self.config.hold_release_s,
            lambda: self._release_job(run, node_name, job),
        )

    def _release_job(self, run: DagmanRun, node_name: str, job: JobView) -> None:
        """Release a held job back to IDLE (front of its queue)."""
        if run.finished or job.state is not JobState.HELD:
            return  # the DAGMan ended (e.g. killed) while the job was held
        now = self.sim.now
        run.held.remove((node_name, job))
        job.transition(JobState.IDLE, now)
        run.user_log.record(JobEventType.RELEASED, job.cluster_id, now)
        run.queue.enqueue(node_name, job, front=True)

    def _report_result(self, run: DagmanRun, node_name: str, success: bool) -> None:
        """Deliver a node's final result to its DAGMan engine."""
        if run.finished:
            return
        now = self.sim.now
        run.engine.on_node_result(node_name, success)
        if run.engine.is_complete:
            run.end_time = now
        elif run.engine.has_failed and self._no_inflight(run):
            run.end_time = now
            run.dead = True
            self._write_rescue(run)

    def _no_inflight(self, run: DagmanRun) -> bool:
        if run.queue.n_idle > 0 or run.engine.n_ready > 0 or run.held:
            return False
        return all(entry[0] is not run for entry in self._running.values())

    def _write_rescue(self, run: DagmanRun) -> Path | None:
        """Snapshot a DAGMan's DONE nodes into the next free rescue file."""
        if self.rescue_dir is None:
            return None
        base = self.rescue_dir / f"{run.name}.dag"
        attempt = 1
        while rescue_path(base, attempt).exists():
            attempt += 1
        run.rescue_file = write_rescue_file(run.engine, rescue_path(base, attempt), attempt)
        return run.rescue_file

    def _capacity_step(self, first: bool = False) -> None:
        if first:
            self._capacity = self.capacity_process.initial(self._rng_capacity)
        self._capacity_trace.append((self.sim.now, self._capacity))
        dwell, new_capacity = self.capacity_process.next_change(self._rng_capacity)

        def change() -> None:
            self._capacity = new_capacity
            if self.config.preemption:
                self._preempt_to_capacity()
            self._capacity_step()

        self.sim.schedule(dwell, change)

    def _preempt_to_capacity(self) -> None:
        # Evict the newest claims first (glideins that just vanished).
        overflow = len(self._running) - self._capacity
        if overflow > 0:
            self._evict_entries(self._pop_newest(overflow))

    # -- fault injection ---------------------------------------------------------

    def inject_eviction(self, count: int = 1) -> int:
        """Forcibly evict the ``count`` newest running jobs.

        Fault-injection hook (used by :mod:`repro.faults`): behaves
        exactly like a capacity-drop preemption, independent of the
        capacity process. Returns how many jobs were actually evicted.
        """
        if count < 1:
            raise SimulationError(f"count must be >= 1, got {count}")
        victims = self._pop_newest(count)
        self._evict_entries(victims)
        return len(victims)

    def inject_hold(self, count: int = 1, dagman: str | None = None) -> int:
        """Forcibly put the ``count`` newest running jobs on HOLD.

        Fault-injection hook: the jobs release automatically after
        ``hold_release_s`` like any held job. Returns how many jobs
        were actually held.
        """
        if count < 1:
            raise SimulationError(f"count must be >= 1, got {count}")
        items = [
            (token, entry)
            for token, entry in self._running.items()
            if dagman is None or entry[0].name == dagman
        ]
        victims = items[-count:]
        for token, (run, node_name, view) in victims:
            del self._running[token]
            self._hold_job(run, node_name, view)
        return len(victims)

    def kill_dagman(self, name: str) -> Path | None:
        """Abort a DAGMan mid-flight (``condor_rm`` of the DAGMan job).

        Running jobs are cancelled and REMOVED (ABORTED in the user
        log), idle and held jobs likewise; the run is marked dead and —
        when a ``rescue_dir`` is configured — a rescue file snapshotting
        the DONE nodes is written and returned.

        Raises
        ------
        SimulationError
            If no DAGMan has that name, or it has already finished.
        """
        run = self._dagmans.get(name)
        if run is None:
            raise SimulationError(f"unknown DAGMan {name!r}")
        if run.finished:
            raise SimulationError(f"DAGMan {name!r} already finished")
        now = self.sim.now
        tokens = [token for token, entry in self._running.items() if entry[0] is run]
        for token in tokens:
            _, _, view = self._running.pop(token)
            view.transition(JobState.REMOVED, now)
            run.user_log.record(JobEventType.ABORTED, view.cluster_id, now)
        while run.queue.n_idle:
            _, job = run.queue.pop()
            job.transition(JobState.REMOVED, now)
            run.user_log.record(JobEventType.ABORTED, job.cluster_id, now)
        for _, job in run.held:
            job.transition(JobState.REMOVED, now)
            run.user_log.record(JobEventType.ABORTED, job.cluster_id, now)
        run.held.clear()
        run.end_time = now
        run.dead = True
        return self._write_rescue(run)

    # -- running -----------------------------------------------------------------

    def run(self, until: float | None = None) -> PoolMetrics:
        """Run to completion (or ``until``); returns the metrics.

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
        horizon = until if until is not None else self.config.max_sim_time_s
        self.sim.run(until=horizon, stop_when=self._all_done)
        if not self._all_done():
            if until is None:
                unfinished = [n for n, d in self._dagmans.items() if not d.finished]
                raise SimulationError(
                    f"simulation hit the {horizon}s guard with unfinished "
                    f"DAGMans: {unfinished}"
                )
            # Bounded run interrupted mid-flight: snapshot each unfinished
            # DAGMan's progress so a later attempt can resume from it.
            for d in self._dagmans.values():
                if not d.finished:
                    self._write_rescue(d)
        metrics = PoolMetrics(
            records=list(self._records),
            dagmans={
                name: DagmanSummary(
                    name=name,
                    submit_time=d.submit_time,
                    end_time=d.end_time if d.end_time is not None else self.sim.now,
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

    @property
    def current_capacity(self) -> int:
        """Capacity at the current simulation time."""
        return self._capacity

    def mean_capacity(self) -> float:
        """Time-weighted mean capacity over the recorded trace."""
        if len(self._capacity_trace) < 2:
            return float(self._capacity)
        times = np.array([t for t, _ in self._capacity_trace] + [self.sim.now])
        caps = np.array([c for _, c in self._capacity_trace], dtype=float)
        dt = np.diff(times)
        if dt.sum() <= 0:
            return float(caps[-1])
        return float(np.sum(caps * dt) / dt.sum())


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


def verify_exactly_once(
    dag: DagDescription, metrics: PoolMetrics, dagman: str | None = None
) -> None:
    """Assert every DAG node succeeded exactly once across attempts.

    ``metrics`` is typically :meth:`PoolMetrics.merged` over the
    original attempt and its rescue resubmissions. Failed attempts of a
    node are expected (retries); *successful* records must number
    exactly one per node — zero means lost work, more than one means a
    rescue re-ran completed work.

    Raises
    ------
    SimulationError
        Listing the offending nodes and their success counts.
    """
    successes: dict[str, int] = {name: 0 for name in dag.node_names}
    for record in metrics.records:
        if dagman is not None and record.dagman != dagman:
            continue
        if record.success and record.node_name in successes:
            successes[record.node_name] += 1
    problems = {name: n for name, n in successes.items() if n != 1}
    if problems:
        raise SimulationError(
            f"nodes did not succeed exactly once across attempts: {problems}"
        )

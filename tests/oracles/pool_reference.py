"""Oracle: the one-object-per-job OSPool engine the vector engine replaced.

``ReferencePoolSimulator`` is ``OSPoolSimulator(engine="reference")`` as
it shipped while the pool carried two engines, frozen here so the
equivalence tests can hold the product engine to it bit for bit. Each
job is a full :class:`Job`, every start schedules its own completion
event, the running set is a list rebuilt on each completion, and
evictions, holds and kills cancel the victim's completion through the
handle the slab loop returns. It runs on the frozen slab loop of
:mod:`tests.oracles.des_slab`, so it shares no event-loop code with the
product.

:class:`Job` is the dynamic job record and state machine the program
carried before its job table became the only one, frozen verbatim; this
engine is its only user, and the job-table tests hold
``JobTable.transition``'s error message to it.

The handlers below are the reference handlers verbatim, plus the
reference halves of the methods that used to branch on the engine
(``_no_inflight``, ``_preempt_to_capacity``, ``inject_eviction``,
``inject_hold``, ``kill_dagman``) and of the hold and release the two
engines shared (``_hold_job``, ``_release_job``) as they ran on
``Job``-like records. Everything else — submission, capacity steps,
node results, rescue files, ``run`` and telemetry — is inherited from
the product class, exactly as the two engines shared it. Because the
product's handlers carry the same names (``_dagman_cycle``,
``_negotiator_cycle``), the inherited ``submit_engine`` and ``run``
dispatch to the reference ones here.

:func:`on_reference_pool` calls an entry point that builds its own pool
(``replay_instance``, ``replay_study``, ``resubmit_with_rescue``,
``run_fdw_batch`` and with it ``PoolRunner.execute``) with this class in
place of the product's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro import obs
from repro.condor.events import JobEventType
from repro.condor.jobs import _TRANSITIONS, JobSpec, JobState
from repro.core import submit_osg
from repro.errors import JobStateError, SimulationError
from repro.osg import pool as pool_module
from repro.osg.metrics import JobRecord
from repro.osg.negotiator import negotiate
from repro.osg.pool import DagmanRun, OSPoolSimulator
from repro.wf import replay as replay_module
from tests.oracles.des_slab import EventHandle, Simulator

__all__ = ["Job", "ReferencePoolSimulator", "on_reference_pool"]


_cluster_counter = itertools.count(1)


@dataclass
class Job:
    """Dynamic job record tracked by the schedd and the simulator.

    Timestamps are simulation seconds; ``None`` until the corresponding
    event happens. ``submit_time``/``start_time``/``end_time`` are what
    the bursting-trace CSVs export.
    """

    spec: JobSpec
    cluster_id: int = field(default_factory=lambda: next(_cluster_counter))
    state: JobState = JobState.UNSUBMITTED
    submit_time: float | None = None
    start_time: float | None = None
    end_time: float | None = None
    slot_name: str | None = None
    n_retries: int = 0
    owner: str = "fdw"

    def transition(self, new_state: JobState, time: float) -> None:
        """Move to ``new_state`` at simulation time ``time``.

        Updates the timestamp that corresponds to the entered state and
        enforces the legal-transition table.
        """
        allowed = _TRANSITIONS[self.state]
        if new_state not in allowed:
            raise JobStateError(
                f"job {self.spec.name} (cluster {self.cluster_id}): illegal "
                f"transition {self.state.value} -> {new_state.value}"
            )
        if new_state is JobState.IDLE and self.state is JobState.UNSUBMITTED:
            self.submit_time = time
        elif new_state is JobState.IDLE and self.state in (
            JobState.RUNNING,
            JobState.FAILED,
            JobState.HELD,
        ):
            # Re-queue (eviction, retry, or release): clear the execution record.
            self.start_time = None
            self.slot_name = None
        elif new_state is JobState.RUNNING:
            self.start_time = time
        elif new_state in (JobState.COMPLETED, JobState.FAILED, JobState.REMOVED):
            self.end_time = time
        self.state = new_state

    # -- derived --------------------------------------------------------------

    @property
    def wait_time(self) -> float | None:
        """Queue wait (start - submit) in seconds, when both are known."""
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def execution_time(self) -> float | None:
        """Execution wall time (end - start) in seconds, when known."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def is_terminal(self) -> bool:
        """True in COMPLETED or REMOVED (no further transitions expected)."""
        return self.state in (JobState.COMPLETED, JobState.REMOVED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.spec.name}, cluster={self.cluster_id}, "
            f"state={self.state.value})"
        )


class ReferencePoolSimulator(OSPoolSimulator):
    """The reference pool engine on the frozen slab event loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sim = Simulator()
        # (start, run, node, job, completion handle) tuples, rebuilt on
        # every completion.
        self._running: list[tuple[float, DagmanRun, str, Job, EventHandle]] = []
        self._evictions: dict[int, int] = {}

    def _dagman_cycle(self, run: DagmanRun) -> None:
        """One DAGMan submit cycle: release ready nodes into the queue.

        Nodes with a PRE script run it first (on the submit host); a
        failing PRE fails the node without ever submitting the job —
        DAGMan semantics.
        """
        if run.finished:
            return
        batch = run.engine.pull_submissions(run.queue.n_idle)
        for node_name in batch:
            node = run.engine.dag.node(node_name)
            if node.pre_script is not None:
                script = node.pre_script
                if script.succeeds:
                    self.sim.schedule(
                        script.duration_s,
                        lambda r=run, n=node_name: self._enqueue_job(r, n),
                    )
                else:
                    self.sim.schedule(
                        script.duration_s,
                        lambda r=run, n=node_name: self._report_result(r, n, False),
                    )
            else:
                self._enqueue_job(run, node_name)
        self.sim.schedule(self.config.dagman_cycle_s, lambda: self._dagman_cycle(run))

    def _enqueue_job(self, run: DagmanRun, node_name: str) -> None:
        """Create and queue the job for a (PRE-cleared) node."""
        if run.finished:
            return
        now = self.sim.now
        spec = run.engine.dag.node(node_name).spec
        job = Job(spec, cluster_id=self._next_cluster)
        self._next_cluster += 1
        job.transition(JobState.IDLE, now)
        run.user_log.record(
            JobEventType.SUBMIT, job.cluster_id, now, host=f"schedd-{run.name}"
        )
        run.queue.enqueue(node_name, job)

    def _negotiator_cycle(self) -> None:
        """One negotiation cycle across all active DAGMans."""
        if self._all_done():
            return
        free = max(0, self._capacity - len(self._running))
        queues = [d.queue for d in self._dagmans.values() if not d.finished]
        matches = negotiate(queues, free, self.config.negotiator)
        if obs.enabled():
            obs.counter_add("repro_pool_negotiation_cycles_total", 1,
                            {"engine": "reference"})
            if matches:
                obs.counter_add("repro_pool_matches_total", len(matches),
                                {"engine": "reference"})
        for queue, node_name, job in matches:
            run = self._dagmans[queue.name]
            self._start_job(run, node_name, job)
        self.sim.schedule(self.config.negotiator.cycle_s, self._negotiator_cycle)

    def _start_job(self, run: DagmanRun, node_name: str, job: Job) -> None:
        now = self.sim.now
        slot = f"slot-{self._next_slot}"
        self._next_slot += 1
        job.transition(JobState.RUNNING, now)
        job.slot_name = slot
        run.user_log.record(JobEventType.EXECUTE, job.cluster_id, now, host=slot)
        site = int(self._rng_transfer.integers(self.config.transfer.n_cache_sites))
        duration = self.cache.transfer_time(
            job.spec, site
        ) + self.config.runtime.sample_seconds(job.spec, self._rng_runtime)
        handle = self.sim.schedule(
            duration, lambda: self._finish_job(run, node_name, job)
        )
        self._running.append((now, run, node_name, job, handle))

    def _finish_job(self, run: DagmanRun, node_name: str, job: Job) -> None:
        now = self.sim.now
        self._running = [entry for entry in self._running if entry[3] is not job]
        # Claim reuse (HTCondor default): the freed slot immediately runs
        # the submitter's next idle job instead of idling until the next
        # negotiation cycle. This is what lets short small-input jobs
        # sustain the paper's high throughputs.
        if len(self._running) < self._capacity and run.queue.n_idle > 0:
            next_node, next_job = run.queue.pop()
            self._start_job(run, next_node, next_job)
        success = bool(self._rng_failure.random() < self.config.success_prob)
        if (
            not success
            and self.config.max_job_holds > 0
            and run.engine.retries_left(node_name) == 0
            and run.holds.get(node_name, 0) < self.config.max_job_holds
        ):
            # The failure would exhaust the node's DAG retries: hold the
            # job instead of failing the DAG (HTCondor's ON_EXIT_HOLD /
            # periodic-release pattern). No TERMINATED event, no record —
            # like an eviction, the attempt is not terminal.
            self._hold_job(run, node_name, job)
            return
        job.transition(JobState.COMPLETED if success else JobState.FAILED, now)
        run.user_log.record(
            JobEventType.TERMINATED,
            job.cluster_id,
            now,
            return_value=0 if success else 1,
        )
        self._records.append(
            JobRecord(
                node_name=node_name,
                dagman=run.name,
                phase=job.spec.payload.phase if job.spec.payload else "generic",
                cluster_id=job.cluster_id,
                submit_time=job.submit_time or 0.0,
                start_time=job.start_time or 0.0,
                end_time=now,
                n_evictions=self._evictions.get(job.cluster_id, 0),
                success=success,
            )
        )
        node = run.engine.dag.node(node_name)
        if node.post_script is not None:
            # DAGMan semantics: the POST script's exit code becomes the
            # node result (masking or overriding the job's own).
            final = node.post_script.succeeds
            self.sim.schedule(
                node.post_script.duration_s,
                lambda: self._report_result(run, node_name, final),
            )
        else:
            self._report_result(run, node_name, success)

    def _hold_job(self, run: DagmanRun, node_name: str, job: Job) -> None:
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

    def _release_job(self, run: DagmanRun, node_name: str, job: Job) -> None:
        """Release a held job back to IDLE (front of its queue)."""
        if run.finished or job.state is not JobState.HELD:
            return  # the DAGMan ended (e.g. killed) while the job was held
        now = self.sim.now
        run.held.remove((node_name, job))
        job.transition(JobState.IDLE, now)
        run.user_log.record(JobEventType.RELEASED, job.cluster_id, now)
        run.queue.enqueue(node_name, job, front=True)

    def _no_inflight(self, run: DagmanRun) -> bool:
        if run.queue.n_idle > 0 or run.engine.n_ready > 0 or run.held:
            return False
        return all(entry[1] is not run for entry in self._running)

    def _evict_entries(
        self, victims: list[tuple[float, DagmanRun, str, Job, EventHandle]]
    ) -> None:
        now = self.sim.now
        for _, run, node_name, job, handle in victims:
            Simulator.cancel(handle)
            job.transition(JobState.IDLE, now)
            run.user_log.record(JobEventType.EVICTED, job.cluster_id, now)
            self._evictions[job.cluster_id] = self._evictions.get(job.cluster_id, 0) + 1
            run.queue.enqueue(node_name, job, front=True)

    def _preempt_to_capacity(self) -> None:
        overflow = len(self._running) - self._capacity
        if overflow <= 0:
            return
        # Evict the newest claims first (glideins that just vanished).
        self._running.sort(key=lambda entry: entry[0])
        victims = self._running[-overflow:]
        del self._running[-overflow:]
        self._evict_entries(victims)

    def inject_eviction(self, count: int = 1) -> int:
        if count < 1:
            raise SimulationError(f"count must be >= 1, got {count}")
        self._running.sort(key=lambda entry: entry[0])
        victims = self._running[-count:]
        del self._running[len(self._running) - len(victims):]
        self._evict_entries(victims)
        return len(victims)

    def inject_hold(self, count: int = 1, dagman: str | None = None) -> int:
        if count < 1:
            raise SimulationError(f"count must be >= 1, got {count}")
        candidates = [
            entry for entry in self._running
            if dagman is None or entry[1].name == dagman
        ]
        candidates.sort(key=lambda entry: entry[0])
        victims = candidates[-count:]
        for entry in victims:
            self._running.remove(entry)
            _, run, node_name, job, handle = entry
            Simulator.cancel(handle)
            self._hold_job(run, node_name, job)
        return len(victims)

    def kill_dagman(self, name: str) -> Path | None:
        run = self._dagmans.get(name)
        if run is None:
            raise SimulationError(f"unknown DAGMan {name!r}")
        if run.finished:
            raise SimulationError(f"DAGMan {name!r} already finished")
        now = self.sim.now
        victims = [entry for entry in self._running if entry[1] is run]
        self._running = [entry for entry in self._running if entry[1] is not run]
        for _, _, _, job, handle in victims:
            Simulator.cancel(handle)
            job.transition(JobState.REMOVED, now)
            run.user_log.record(JobEventType.ABORTED, job.cluster_id, now)
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


def on_reference_pool(entry, *args, **kwargs):
    """``entry(*args, **kwargs)``, with every pool it builds the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (pool_module, replay_module, submit_osg):
            mp.setattr(module, "OSPoolSimulator", ReferencePoolSimulator)
        return entry(*args, **kwargs)

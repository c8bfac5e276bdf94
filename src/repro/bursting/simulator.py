"""The VDC bursting replay simulator (paper §3.1.1).

The main loop "iterates through each second of a DAGMan run analyzing
OSG job times to detect completion" while the policies decide which jobs
to offload. The replay semantics:

* a non-bursted job completes exactly when the trace says it did;
* a *tail* burst removes the not-yet-submitted trace job with the
  latest submission time (phases A/C only) and runs it on VDC starting
  now;
* a *queued* burst removes the longest-waiting currently-idle burstable
  job from the OSG queue and runs it on VDC starting now;
* a VDC job completes after the constant phase time (287 s / 144 s);
* the batch ends when every job (OSG or VDC) has completed — bursting
  the tail is what shortens the makespan.

Each replayed second is O(1) amortized plus its events (sorted
pointers, an idle heap, and a VDC completion heap), so multi-hour
batches replay in well under a second.

The replay is *event-driven between policy-relevant seconds*: whenever
no policy can possibly fire — no policies configured, or the burst cap
already reached — the loop jumps straight to the next second at which
``completed`` can change (a trace end event or a VDC completion) and
fills the skipped seconds of the throughput series analytically with
the exact same float expression the per-second update uses. The series
and the full :class:`BurstingResult` are bit-identical to a loop that
replays every second, the reference the tests hold it to.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import PolicyError, TraceError
from repro.bursting.cloud import CloudJobModel
from repro.bursting.policies import BurstingPolicy, BurstRequest
from repro.core.stats import average_instant_throughput
from repro.core.traces import BatchTrace, JobTrace

__all__ = ["BurstingResult", "BurstingSimulator"]


@dataclass(frozen=True)
class BurstingResult:
    """Everything §5.3 reports for one bursting simulation."""

    batch: str
    runtime_s: float
    original_runtime_s: float
    n_jobs: int
    n_bursted: int
    bursts_by_policy: dict[str, int]
    cloud_seconds: float
    cost_usd: float
    throughput_series_jpm: np.ndarray = field(repr=False)

    @property
    def average_instant_throughput_jpm(self) -> float:
        """Eq. (6) over the per-second series."""
        return average_instant_throughput(self.throughput_series_jpm)

    @property
    def vdc_usage_percent(self) -> float:
        """Share of jobs executed on VDC instead of OSG, in percent."""
        return 100.0 * self.n_bursted / self.n_jobs

    @property
    def runtime_reduction_percent(self) -> float:
        """Makespan improvement over the original OSG run, in percent."""
        return 100.0 * (1.0 - self.runtime_s / self.original_runtime_s)


class _ReplayState:
    """Mutable per-second replay state; doubles as the policies' view."""

    def __init__(self, trace: BatchTrace, cloud: CloudJobModel) -> None:
        self.cloud = cloud
        self.t0 = trace.submit_s
        self.by_submit: list[JobTrace] = sorted(
            trace.jobs, key=lambda j: (j.submit_s, j.node)
        )
        self.by_start: list[JobTrace] = sorted(self.by_submit, key=lambda j: j.start_s)
        self.by_end: list[JobTrace] = sorted(self.by_submit, key=lambda j: j.end_s)
        self.n_jobs = len(self.by_submit)
        self.submit_ptr = 0
        self.start_ptr = 0
        self.end_ptr = 0
        self.tail_ptr = self.n_jobs - 1
        self.started_nodes: set[str] = set()
        self.bursted: set[str] = set()
        self.idle_heap: list[tuple[float, int]] = []  # (submit_s, by_submit index)
        self.vdc_heap: list[float] = []  # relative completion times
        self.completed = 0
        self.now_s = 0.0
        self.instant_throughput_jpm = 0.0

    # -- per-second event processing --------------------------------------

    def advance_to(self, now: float) -> None:
        """Process all trace events with timestamps <= t0 + now.

        Raises
        ------
        TraceError
            If ``now <= 0``: the instant-throughput update divides by
            ``now``, so second 0 is not a valid replay instant (the run
            loop always starts at second 1).
        """
        if now <= 0.0:
            raise TraceError(f"advance_to requires now > 0, got {now}")
        self.now_s = now
        abs_now = self.t0 + now
        while (
            self.submit_ptr < self.n_jobs
            and self.by_submit[self.submit_ptr].submit_s <= abs_now
        ):
            job = self.by_submit[self.submit_ptr]
            if job.node not in self.bursted and self.cloud.is_burstable(job.phase):
                heapq.heappush(self.idle_heap, (job.submit_s, self.submit_ptr))
            self.submit_ptr += 1
        while (
            self.start_ptr < self.n_jobs
            and self.by_start[self.start_ptr].start_s <= abs_now
        ):
            job = self.by_start[self.start_ptr]
            if job.node not in self.bursted:
                self.started_nodes.add(job.node)
            self.start_ptr += 1
        while (
            self.end_ptr < self.n_jobs and self.by_end[self.end_ptr].end_s <= abs_now
        ):
            if self.by_end[self.end_ptr].node not in self.bursted:
                self.completed += 1
            self.end_ptr += 1
        while self.vdc_heap and self.vdc_heap[0] <= now:
            heapq.heappop(self.vdc_heap)
            self.completed += 1
        self.instant_throughput_jpm = self.completed / (now / 60.0)

    def next_completion_event_s(self) -> float | None:
        """Relative time of the next event that can change ``completed``.

        Only trace end events and VDC completions move the counter;
        submit/start events merely update the policies' queue view, so
        when no policy can fire the replay may skip straight past them.
        ``None`` when nothing is pending (an inconsistent trace).
        """
        candidates: list[float] = []
        if self.end_ptr < self.n_jobs:
            candidates.append(self.by_end[self.end_ptr].end_s - self.t0)
        if self.vdc_heap:
            candidates.append(self.vdc_heap[0])
        return min(candidates) if candidates else None

    # -- policy view properties -----------------------------------------------

    def _queue_head(self) -> tuple[float, int] | None:
        """Oldest idle burstable job still in the OSG queue."""
        while self.idle_heap:
            submit_s, idx = self.idle_heap[0]
            node = self.by_submit[idx].node
            if node in self.bursted or node in self.started_nodes:
                heapq.heappop(self.idle_heap)
                continue
            return submit_s, idx
        return None

    @property
    def oldest_queued_wait_s(self) -> float | None:
        """Queue age of the longest-waiting idle burstable job."""
        head = self._queue_head()
        if head is None:
            return None
        return (self.t0 + self.now_s) - head[0]

    @property
    def last_submission_age_s(self) -> float | None:
        """Seconds since the most recent OSG submission."""
        if self.submit_ptr == 0:
            return None
        return (self.t0 + self.now_s) - self.by_submit[self.submit_ptr - 1].submit_s

    def _tail_candidate(self) -> int | None:
        """Index of the last unsubmitted burstable job, advancing the
        persistent tail pointer past consumed entries."""
        while self.tail_ptr >= self.submit_ptr:
            job = self.by_submit[self.tail_ptr]
            if job.node not in self.bursted and self.cloud.is_burstable(job.phase):
                return self.tail_ptr
            self.tail_ptr -= 1
        return None

    @property
    def has_unsubmitted_burstable(self) -> bool:
        """True while tail jobs remain available to burst."""
        return self._tail_candidate() is not None

    # -- burst resolution -------------------------------------------------------

    def take_for_burst(self, request: BurstRequest) -> JobTrace | None:
        """Resolve a burst request to a concrete job and consume it."""
        if request.kind == "tail":
            idx = self._tail_candidate()
            if idx is None:
                return None
            job = self.by_submit[idx]
        else:  # queued
            head = self._queue_head()
            if head is None:
                return None
            heapq.heappop(self.idle_heap)
            job = self.by_submit[head[1]]
        self.bursted.add(job.node)
        return job


class BurstingSimulator:
    """Replay one traced batch under a set of bursting policies.

    Parameters
    ----------
    trace:
        The batch to replay (from :func:`repro.core.traces.read_traces`
        or exported directly from a pool run).
    policies:
        Policy objects evaluated each second, in order. An empty list
        replays the control (pure OSG) behaviour.
    cloud:
        Cloud execution/cost model.
    max_burst_fraction:
        Optional cap on the fraction of jobs that may be bursted (the
        paper's cost experiment enforces 0.30); ``None`` is uncapped.
    """

    def __init__(
        self,
        trace: BatchTrace,
        policies: list[BurstingPolicy] | None = None,
        cloud: CloudJobModel | None = None,
        max_burst_fraction: float | None = None,
    ) -> None:
        self.trace = trace
        self.policies = list(policies or [])
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise PolicyError(f"duplicate policy names: {names}")
        self.cloud = cloud or CloudJobModel()
        if max_burst_fraction is not None and not (0.0 <= max_burst_fraction <= 1.0):
            raise PolicyError(
                f"max_burst_fraction must be in [0, 1], got {max_burst_fraction}"
            )
        self.max_burst_fraction = max_burst_fraction

    def run(self) -> BurstingResult:
        """Execute the replay; returns the result bundle.

        The loop skips ahead between policy-relevant seconds (see the
        module docstring).
        """
        state = _ReplayState(self.trace, self.cloud)
        n_jobs = state.n_jobs
        max_bursts = (
            n_jobs
            if self.max_burst_fraction is None
            else int(np.floor(self.max_burst_fraction * n_jobs))
        )
        bursts_by_policy = {p.name: 0 for p in self.policies}
        n_bursted = 0
        cloud_seconds = 0.0
        series: list[float] = []
        now = 0.0
        horizon = (
            self.trace.runtime_s
            + max(self.cloud.rupture_seconds, self.cloud.waveform_seconds)
            + 2.0
        )

        while state.completed < n_jobs:
            if not self.policies or n_bursted >= max_bursts:
                # No policy can fire from here on this second range, so
                # nothing observable changes until the next completion
                # event. Fill the series analytically up to (not
                # including) the second that processes it; stateful
                # policies are never skipped past (they must see every
                # second to update their estimators).
                nxt = state.next_completion_event_s()
                if nxt is None:
                    stop = np.floor(horizon) + 1.0  # run into the horizon check
                else:
                    stop = max(float(np.ceil(nxt)), now + 1.0)
                s = now + 1.0
                while s < stop and s <= horizon:
                    # identical float expression to advance_to's update
                    series.append(state.completed / (s / 60.0))
                    s += 1.0
                now = s - 1.0
            now += 1.0
            if now > horizon:
                raise TraceError(
                    f"bursting replay exceeded horizon {horizon}s; inconsistent trace?"
                )
            state.advance_to(now)
            series.append(state.instant_throughput_jpm)
            if n_bursted >= max_bursts:
                continue
            for policy in self.policies:
                request = policy.evaluate(state)
                if request is None:
                    continue
                job = state.take_for_burst(request)
                if job is None:
                    continue
                n_bursted += 1
                bursts_by_policy[request.policy] += 1
                duration = self.cloud.duration_s(job.phase)
                cloud_seconds += duration
                heapq.heappush(state.vdc_heap, now + duration)
                if obs.enabled():
                    # Provision -> terminate in the replay's virtual
                    # clock: the burst span starts the second the policy
                    # fires and ends at the constant VDC phase time.
                    obs.complete(
                        f"burst:{job.node}",
                        ts=now,
                        dur=duration,
                        category="bursting",
                        track=f"vdc:{request.policy}",
                        args={"phase": job.phase, "policy": request.policy},
                    )
                    obs.counter_add(
                        "repro_burst_jobs_total", 1, {"policy": request.policy}
                    )
                    obs.counter_add(
                        "repro_burst_cloud_seconds_total",
                        duration,
                        {"policy": request.policy},
                    )
                if n_bursted >= max_bursts:
                    break

        cost_usd = self.cloud.cost_usd(cloud_seconds)
        if obs.enabled():
            obs.counter_add(
                "repro_burst_cost_usd_total", cost_usd, {"batch": self.trace.dagman}
            )
            obs.gauge_set(
                "repro_burst_makespan_seconds", now, {"batch": self.trace.dagman}
            )
        return BurstingResult(
            batch=self.trace.dagman,
            runtime_s=now,
            original_runtime_s=self.trace.runtime_s,
            n_jobs=n_jobs,
            n_bursted=n_bursted,
            bursts_by_policy=bursts_by_policy,
            cloud_seconds=cloud_seconds,
            cost_usd=cost_usd,
            throughput_series_jpm=np.asarray(series),
        )

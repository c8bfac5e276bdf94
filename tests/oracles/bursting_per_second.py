"""Oracle: the bursting replay's per-second loop.

``BurstingSimulator.run`` once took ``event_driven``: ``True`` (the
default) skipped ahead between policy-relevant seconds, ``False`` ran
the loop below, one :meth:`_ReplayState.advance_to` per replayed second.
No caller chose ``False``, so the product keeps the skip-ahead loop, and
the per-second loop is frozen here as the reference the
``test_event_driven_bit_identical_*`` tests hold it to. The body is
``run`` as it shipped without the skip-ahead block, which only
``event_driven=True`` entered; every other line is unchanged.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import obs
from repro.bursting.simulator import BurstingResult, BurstingSimulator, _ReplayState
from repro.errors import TraceError

__all__ = ["PerSecondSimulator"]


class PerSecondSimulator(BurstingSimulator):
    """A :class:`BurstingSimulator` that replays every second in turn."""

    def run(self) -> BurstingResult:
        """Execute the replay one second at a time."""
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

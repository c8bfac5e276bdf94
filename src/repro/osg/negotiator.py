"""The negotiator: periodic fair matchmaking across submitter queues.

HTCondor's negotiator runs in cycles: each cycle it computes how many
slots are free and hands them out across submitters by fair share. Two
properties matter for the paper's results and are modelled here:

* **fair interleaving** — with k active DAGMans, each receives roughly
  1/k of the matches per cycle (round-robin), which is the mechanism
  behind the per-DAGMan throughput collapse of Fig 3;
* **per-cycle match limit** — a cap on matches per cycle bounds the
  claim ramp-up rate, producing the gradual running-job ramps (rather
  than instant jumps to capacity) seen in Fig 4.

:func:`negotiate` is the one matcher; the pool and the portal service
both call it. It costs O(matches) per cycle, which beat a closed-form
array version (now a test oracle) at tenant and at pool scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.condor.jobs import Job
from repro.osg.schedd import ScheddQueue

__all__ = ["NegotiatorConfig", "negotiate"]


@dataclass(frozen=True)
class NegotiatorConfig:
    """Matchmaking knobs.

    Attributes
    ----------
    cycle_s:
        Seconds between negotiation cycles.
    match_limit_per_cycle:
        Maximum matches per cycle across all submitters.
    """

    cycle_s: float = 60.0
    match_limit_per_cycle: int = 400

    def __post_init__(self) -> None:
        if self.cycle_s <= 0:
            raise SimulationError(f"cycle_s must be positive, got {self.cycle_s}")
        if self.match_limit_per_cycle < 1:
            raise SimulationError("match_limit_per_cycle must be >= 1")


def negotiate(
    queues: list[ScheddQueue],
    free_slots: int,
    config: NegotiatorConfig,
) -> list[tuple[ScheddQueue, str, Job]]:
    """Run one negotiation cycle.

    Round-robins over the queues, taking the oldest idle job from each
    in turn, until free slots run out, the cycle match limit trips, or
    every queue is empty. Returns the matches as
    ``(queue, node_name, job)`` tuples; the caller starts the jobs.
    """
    if free_slots < 0:
        raise SimulationError(f"free_slots must be >= 0, got {free_slots}")
    budget = min(free_slots, config.match_limit_per_cycle)
    matches: list[tuple[ScheddQueue, str, Job]] = []
    active = [q for q in queues if q.n_idle > 0]
    while budget > 0 and active:
        next_round: list[ScheddQueue] = []
        for queue in active:
            if budget == 0:
                break
            node_name, job = queue.pop()
            matches.append((queue, node_name, job))
            budget -= 1
            if queue.n_idle > 0:
                next_round.append(queue)
        active = [q for q in next_round if q.n_idle > 0]
    return matches


#: The name :mod:`repro.osg.pool` calls; the e2e benchmark times pool
#: negotiation by patching this name where the pool looks it up.
negotiate_vectorized = negotiate

"""Struct-of-arrays job state for the pool engine.

:class:`JobTable` is the program's only dynamic job record: one row per
job attempt, stored columnwise — typed :class:`array.array` columns for
state, submit and start times, evictions and cluster id, plus a Python
list of specs. Queues, the running set and held lists carry row ints,
and the pool reads and transitions rows here directly. The columns hold
the widths numpy columns would, but a row read returns a Python ``int``
or ``float``, so the pool's per-job path never touches a numpy scalar.

:meth:`JobTable.transition` is the HTCondor job state machine: the legal
moves are :data:`repro.condor.jobs._TRANSITIONS`, an illegal one raises
:class:`~repro.errors.JobStateError`, entering RUNNING stamps the start
time and a re-queue to IDLE clears it. Rows enter the table already
IDLE, stamped with their submit time. The pool equivalence tests hold
the engine bit for bit to a frozen one-``Job``-per-attempt oracle, and
a unit test holds the error message to that oracle's.
"""

from __future__ import annotations

import math
from array import array

from repro.errors import JobStateError
from repro.condor.jobs import JobSpec, JobState, _TRANSITIONS

__all__ = ["JobTable"]

#: Fixed state encoding: index into this tuple == the int8 code stored
#: in ``JobTable.state``. Order matches the JobState declaration so code
#: 0 is UNSUBMITTED.
STATES: tuple[JobState, ...] = tuple(JobState)
#: Member name -> code. Keyed by name because a str key hashes in C,
#: while a JobState key calls Enum.__hash__, a Python method.
_CODE: dict[str, int] = {s.name: i for i, s in enumerate(STATES)}
_ALLOWED: tuple[frozenset[int], ...] = tuple(
    frozenset(_CODE[t.name] for t in _TRANSITIONS[s]) for s in STATES
)

_IDLE = _CODE["IDLE"]
_RUNNING = _CODE["RUNNING"]

#: (column, array typecode, value of an unset row).
_COLUMNS: tuple[tuple[str, str, float], ...] = (
    ("state", "b", _CODE["UNSUBMITTED"]),
    ("submit_time", "d", math.nan),
    ("start_time", "d", math.nan),
    ("n_evictions", "i", 0),
    ("cluster_id", "q", 0),
)


class JobTable:
    """Columnar dynamic job state (one row per job attempt).

    Unset timestamps are NaN. Rows are append-only; columns grow by
    doubling so a million adds amortize to O(n).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise JobStateError(f"capacity must be >= 1, got {capacity}")
        self.n = 0
        for column, typecode, unset in _COLUMNS:
            setattr(self, column, array(typecode, [unset]) * capacity)
        self.specs: list[JobSpec] = []

    def __len__(self) -> int:
        return self.n

    def _grow_to(self, need: int) -> None:
        cap = len(self.state)
        if need <= cap:
            return
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        for column, typecode, unset in _COLUMNS:
            getattr(self, column).extend(array(typecode, [unset]) * (new_cap - cap))

    def add_batch(
        self, specs: list[JobSpec], cluster_start: int, submit_time: float
    ) -> range:
        """Append one submit-cycle batch of jobs, already IDLE.

        The jobs are submitted at ``submit_time`` with consecutive
        cluster ids from ``cluster_start``. Returns the row index range.
        """
        k = len(specs)
        start, end = self.n, self.n + k
        self._grow_to(end)
        self.state[start:end] = array("b", [_IDLE]) * k
        self.submit_time[start:end] = array("d", [submit_time]) * k
        self.cluster_id[start:end] = array("q", range(cluster_start, cluster_start + k))
        self.specs.extend(specs)
        self.n = end
        return range(start, end)

    def transition(self, index: int, new_state: JobState, time: float) -> None:
        """Move row ``index`` to ``new_state`` at simulation time ``time``.

        RUNNING stamps the start time; IDLE (a re-queue after eviction,
        retry or release) clears it.
        """
        code = self.state[index]
        new_code = _CODE[new_state._name_]
        if new_code not in _ALLOWED[code]:
            raise JobStateError(
                f"job {self.specs[index].name} (cluster {self.cluster_id[index]}): "
                f"illegal transition {STATES[code].value} -> {new_state.value}"
            )
        if new_code == _RUNNING:
            self.start_time[index] = time
        elif new_code == _IDLE:
            self.start_time[index] = math.nan
        self.state[index] = new_code

"""Struct-of-arrays job state for the pool engine.

At million-job scale, one :class:`~repro.condor.jobs.Job` dataclass per
job attempt dominates memory and allocator time. :class:`JobTable`
stores the dynamic record columnwise instead — typed
:class:`array.array` columns for state, timestamps, retries,
evictions, slot, cluster id, and owning DAGMan index, plus parallel
Python lists for the spec and node name — and :class:`JobView` is a
two-word handle that duck-types ``Job`` over one row. Everything
downstream of the simulator (schedd queues, held-job lists, metrics,
rescue, fault injection) accepts a view wherever it accepted a
``Job``. The columns hold the widths numpy columns would, but a row
read returns a Python ``int`` or ``float``, so the pool's per-job path
never touches a numpy scalar.

The state machine is *identical* to ``Job.transition``: same legal
transition table, same timestamp side effects (submit set on first
IDLE, start set on RUNNING, start/slot cleared on re-queue, end set on
the terminal states), same :class:`~repro.errors.JobStateError` on
illegal moves. The pool equivalence tests, which hold the engine to a
frozen one-``Job``-per-attempt oracle bit for bit, lean on this
equivalence.
"""

from __future__ import annotations

import math
from array import array

from repro.errors import JobStateError
from repro.condor.jobs import JobSpec, JobState, _TRANSITIONS

__all__ = ["JobTable", "JobView"]

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

_UNSUBMITTED = _CODE["UNSUBMITTED"]
_IDLE = _CODE["IDLE"]
_RUNNING = _CODE["RUNNING"]
_COMPLETED = _CODE["COMPLETED"]
_FAILED = _CODE["FAILED"]
_HELD = _CODE["HELD"]
_REMOVED = _CODE["REMOVED"]
_REQUEUE_FROM = frozenset({_RUNNING, _FAILED, _HELD})
_TERMINAL = frozenset({_COMPLETED, _FAILED, _REMOVED})

#: (column, array typecode, value of an unset row).
_COLUMNS: tuple[tuple[str, str, float], ...] = (
    ("state", "b", _UNSUBMITTED),
    ("submit_time", "d", math.nan),
    ("start_time", "d", math.nan),
    ("end_time", "d", math.nan),
    ("retries", "i", 0),  # re-queues (evict/release)
    ("n_evictions", "i", 0),
    ("slot", "q", 0),
    ("cluster_id", "q", 0),
    ("dagman", "i", 0),  # index of the owning run
)


class JobTable:
    """Columnar dynamic job state (one row per job attempt).

    Unset timestamps are NaN; slot 0 means "no slot". Rows are append-
    only; columns grow by doubling so a million adds amortize to O(n).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise JobStateError(f"capacity must be >= 1, got {capacity}")
        self.n = 0
        for column, typecode, unset in _COLUMNS:
            setattr(self, column, array(typecode, [unset]) * capacity)
        self.specs: list[JobSpec] = []
        self.node_names: list[str] = []

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
        self,
        node_names: list[str],
        specs: list[JobSpec],
        dagman_index: int,
        cluster_start: int,
        submit_time: float,
    ) -> range:
        """Append one submit-cycle batch of jobs, already IDLE.

        Jobs enter the table the way the scalar path creates them —
        freshly submitted at ``submit_time`` with consecutive cluster
        ids from ``cluster_start`` — skipping the UNSUBMITTED->IDLE
        transition they would all take immediately. Returns the row
        index range.
        """
        if len(node_names) != len(specs):
            raise JobStateError("node_names and specs must be equal length")
        k = len(node_names)
        start, end = self.n, self.n + k
        self._grow_to(end)
        self.state[start:end] = array("b", [_IDLE]) * k
        self.submit_time[start:end] = array("d", [submit_time]) * k
        self.cluster_id[start:end] = array("q", range(cluster_start, cluster_start + k))
        self.dagman[start:end] = array("i", [dagman_index]) * k
        self.node_names.extend(node_names)
        self.specs.extend(specs)
        self.n = end
        return range(start, end)

    def transition(self, index: int, new_state: JobState, time: float) -> None:
        """Row-wise ``Job.transition`` with identical rules and effects."""
        code = self.state[index]
        new_code = _CODE[new_state._name_]
        if new_code not in _ALLOWED[code]:
            raise JobStateError(
                f"job {self.specs[index].name} (cluster {self.cluster_id[index]}): "
                f"illegal transition {STATES[code].value} -> {new_state.value}"
            )
        if new_code == _IDLE and code == _UNSUBMITTED:
            self.submit_time[index] = time
        elif new_code == _IDLE and code in _REQUEUE_FROM:
            self.start_time[index] = math.nan
            self.slot[index] = 0
            self.retries[index] += 1
        elif new_code == _RUNNING:
            self.start_time[index] = time
        elif new_code in _TERMINAL:
            self.end_time[index] = time
        self.state[index] = new_code


class JobView:
    """Thin ``Job``-compatible window onto one :class:`JobTable` row.

    Two words of state (table reference + row index); every attribute
    the rest of the simulator reads off a ``Job`` resolves against the
    columns. Views compare by identity, matching how the pool tracks
    job objects in queues and held lists.
    """

    __slots__ = ("_table", "index")

    owner = "fdw"

    def __init__(self, table: JobTable, index: int) -> None:
        self._table = table
        self.index = index

    @property
    def spec(self) -> JobSpec:
        return self._table.specs[self.index]

    @property
    def cluster_id(self) -> int:
        return self._table.cluster_id[self.index]

    @property
    def state(self) -> JobState:
        return STATES[self._table.state[self.index]]

    @property
    def submit_time(self) -> float | None:
        t = self._table.submit_time[self.index]
        return None if t != t else t  # NaN: unset

    @property
    def start_time(self) -> float | None:
        t = self._table.start_time[self.index]
        return None if t != t else t  # NaN: unset

    @property
    def end_time(self) -> float | None:
        t = self._table.end_time[self.index]
        return None if t != t else t  # NaN: unset

    @property
    def slot_name(self) -> str | None:
        slot = self._table.slot[self.index]
        return None if slot == 0 else f"slot-{slot}"

    @property
    def n_retries(self) -> int:
        return self._table.retries[self.index]

    def transition(self, new_state: JobState, time: float) -> None:
        self._table.transition(self.index, new_state, time)

    # -- derived (mirrors Job) ---------------------------------------------

    @property
    def wait_time(self) -> float | None:
        """Queue wait (start - submit) in seconds, when both are known."""
        submit, start = self.submit_time, self.start_time
        if submit is None or start is None:
            return None
        return start - submit

    @property
    def execution_time(self) -> float | None:
        """Execution wall time (end - start) in seconds, when known."""
        start, end = self.start_time, self.end_time
        if start is None or end is None:
            return None
        return end - start

    @property
    def is_terminal(self) -> bool:
        """True in COMPLETED or REMOVED (no further transitions expected)."""
        return self._table.state[self.index] in (_COMPLETED, _REMOVED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobView({self.spec.name}, cluster={self.cluster_id}, "
            f"state={self.state.value})"
        )

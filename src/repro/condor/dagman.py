"""The DAGMan engine: dependency-driven job release with throttles.

DAGMan's job is simple but load-bearing for the paper's results: it only
submits a node once all its parents completed, it throttles how many
idle jobs it keeps in the schedd queue (``DAGMAN_MAX_JOBS_IDLE``), and
it submits in periodic batches rather than all at once. Those throttles
are one of the mechanisms behind the partitioned-DAGMan behaviour in
Figs 3-4 (each concurrent DAGMan keeps its own idle window, but the pool
drains all windows from a shared capacity).

The engine is time-free: the pool simulator (or any driver) repeatedly
calls :meth:`pull_submissions` and reports results with
:meth:`on_node_result`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.errors import DagError
from repro.condor.dagfile import DagDescription

__all__ = ["NodeStatus", "DagmanOptions", "DagmanEngine"]


class NodeStatus(enum.Enum):
    """Lifecycle of a DAG node inside the engine."""

    WAITING = "waiting"  # parents not yet done
    READY = "ready"  # eligible, not yet submitted
    SUBMITTED = "submitted"  # handed to the schedd
    DONE = "done"
    FAILED = "failed"  # terminal failure (retries exhausted)


# Members bound once: reading one off the class (``NodeStatus.DONE``)
# costs an enum-metaclass lookup, and the engine does it per job.
_WAITING = NodeStatus.WAITING
_READY = NodeStatus.READY
_SUBMITTED = NodeStatus.SUBMITTED
_DONE = NodeStatus.DONE
_FAILED = NodeStatus.FAILED


@dataclass(frozen=True)
class DagmanOptions:
    """Engine throttles.

    Attributes
    ----------
    max_idle:
        Maximum jobs the engine keeps idle in the queue at once (0
        disables the cap). HTCondor's modern default is 1000; the FDW
        runs with 500, fitted to the paper's wait-time statistics (see
        DESIGN.md).
    submit_batch:
        Maximum submissions per :meth:`pull_submissions` call, modelling
        DAGMan's per-cycle submit rate.
    """

    max_idle: int = 500
    submit_batch: int = 200

    def __post_init__(self) -> None:
        if self.max_idle < 0:
            raise DagError(f"max_idle must be >= 0, got {self.max_idle}")
        if self.submit_batch < 1:
            raise DagError(f"submit_batch must be >= 1, got {self.submit_batch}")


class DagmanEngine:
    """Executable state of one DAGMan instance.

    Parameters
    ----------
    dag:
        The workflow structure. It is validated here, once: an empty or
        cyclic DAG raises :class:`~repro.errors.DagError` before any
        node is released.
    options:
        Throttling configuration.
    """

    def __init__(self, dag: DagDescription, options: DagmanOptions | None = None) -> None:
        dag.validate()
        self.dag = dag
        self.options = options or DagmanOptions()
        #: Name -> :class:`~repro.condor.dagfile.DagNode`: the DAG's own
        #: map, which the pool reads per job instead of the validating
        #: ``dag.node()``.
        self.nodes = dag.nodes
        self._status: dict[str, NodeStatus] = {}
        self._remaining_parents: dict[str, int] = {}
        # Node -> its children, sorted once here from the parent lists
        # (``dag.children()`` order); a leaf has no entry.
        self._children: dict[str, list[str]] = {}
        # Only a node that has failed has a counter; until then its
        # budget is the DagNode's own ``retries``.
        self._retries_left: dict[str, int] = {}
        # A deque: at million-root scale, pull_submissions slicing a
        # list left-shifts every remaining name each cycle (quadratic).
        self._ready_fifo: deque[str] = deque()
        self._n_done = 0
        self._n_failed = 0
        # Roots enter the ready FIFO in insertion order, which is where
        # the topological order puts them too.
        children = self._children
        for name, parents in dag.parent_lists.items():
            self._remaining_parents[name] = len(parents)
            if parents:
                self._status[name] = _WAITING
                for parent in parents:
                    kids = children.get(parent)
                    if kids is None:
                        children[parent] = [name]
                    else:
                        kids.append(name)
            else:
                self._status[name] = _READY
                self._ready_fifo.append(name)
        for kids in children.values():
            kids.sort()

    # -- queries ------------------------------------------------------------

    def status(self, name: str) -> NodeStatus:
        """Status of one node."""
        try:
            return self._status[name]
        except KeyError:
            raise DagError(f"unknown DAG node {name!r}") from None

    def counts(self) -> dict[NodeStatus, int]:
        """Node counts per status."""
        out = {status: 0 for status in NodeStatus}
        for status in self._status.values():
            out[status] += 1
        return out

    @property
    def is_complete(self) -> bool:
        """True when every node is DONE."""
        return self._n_done == len(self._status)

    @property
    def has_failed(self) -> bool:
        """True when any node failed terminally.

        Like real DAGMan, in-flight work may continue, but the DAG can
        no longer complete.
        """
        return self._n_failed > 0

    @property
    def n_ready(self) -> int:
        """Nodes currently eligible for submission."""
        return len(self._ready_fifo)

    def retries_left(self, name: str) -> int:
        """Remaining DAG-level retries for a node."""
        self.status(name)  # validates the name
        left = self._retries_left.get(name)
        return self.nodes[name].retries if left is None else left

    # -- driving ------------------------------------------------------------

    def pull_submissions(self, current_idle: int) -> list[str]:
        """Names to submit this cycle, FIFO within the throttles.

        Parameters
        ----------
        current_idle:
            How many of this DAGMan's jobs are currently idle in the
            schedd queue; used to honour ``max_idle``.
        """
        if current_idle < 0:
            raise DagError(f"current_idle must be >= 0, got {current_idle}")
        budget = self.options.submit_batch
        if self.options.max_idle:
            budget = min(budget, max(0, self.options.max_idle - current_idle))
        n = min(budget, len(self._ready_fifo))
        popleft = self._ready_fifo.popleft
        batch = [popleft() for _ in range(n)]
        for name in batch:
            self._status[name] = _SUBMITTED
        return batch

    def mark_done(self, name: str) -> list[str]:
        """Fast-forward a node to DONE without submitting it.

        Used by rescue-DAG application (:mod:`repro.condor.rescue`) to
        skip work a previous attempt already completed. Only WAITING or
        READY nodes can be fast-forwarded, and — as with a real
        completion — children become READY when their last parent is
        done; the newly ready names are returned.
        """
        status = self.status(name)
        if status not in (_WAITING, _READY):
            raise DagError(
                f"cannot fast-forward node {name!r} from state {status.value}"
            )
        if status is _READY:
            self._ready_fifo.remove(name)
        self._status[name] = _SUBMITTED  # legal path to DONE
        return self.on_node_result(name, success=True)

    def on_node_result(self, name: str, success: bool) -> list[str]:
        """Report a node's terminal job result.

        On success, children whose parents are now all done become
        READY (their names are returned). On failure, the node is
        re-queued while retries remain, else marked FAILED.
        """
        status = self._status
        current = status.get(name)
        if current is not _SUBMITTED:
            if current is None:
                raise DagError(f"unknown DAG node {name!r}")
            raise DagError(f"node {name!r} reported result while {current.value}")
        if not success:
            left = self._retries_left.get(name)
            if left is None:
                left = self.nodes[name].retries
            if left > 0:
                self._retries_left[name] = left - 1
                status[name] = _READY
                self._ready_fifo.append(name)
                return [name]
            status[name] = _FAILED
            self._n_failed += 1
            return []
        status[name] = _DONE
        self._n_done += 1
        newly_ready: list[str] = []
        kids = self._children.get(name)
        if kids is not None:
            remaining = self._remaining_parents
            for child in kids:
                left = remaining[child] - 1
                if left < 0:
                    raise DagError(f"parent accounting underflow on {child!r}")
                remaining[child] = left
                if left == 0 and status[child] is _WAITING:
                    status[child] = _READY
                    self._ready_fifo.append(child)
                    newly_ready.append(child)
        return newly_ready

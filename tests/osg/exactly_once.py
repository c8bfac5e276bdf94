"""The recovery invariant the rescue and fault tests assert."""

from __future__ import annotations

from repro.condor.dagfile import DagDescription
from repro.errors import SimulationError
from repro.osg.metrics import PoolMetrics


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

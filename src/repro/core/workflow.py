"""FDW DAG construction.

Wires the planned phase jobs into the DAGMan structure of paper §3.0.1:

* the optional distance bootstrap is the root; every A job depends on
  it (they consume the recyclable ``.npy`` pair),
* the single B job depends on every A job (phases run sequentially),
* every C job depends on the B job (C consumes the GF archive).

The resulting :class:`~repro.condor.dagfile.DagDescription` is engine-
and pool-agnostic: it can be written out as literal ``.dag`` + submit
files, run locally, or handed to the OSPool simulator.
"""

from __future__ import annotations

from repro.condor.dagfile import DagDescription
from repro.core.config import FdwConfig
from repro.core.phases import PhasePlan, plan_phases

__all__ = ["build_fdw_dag"]


def build_fdw_dag(config: FdwConfig, plan: PhasePlan | None = None) -> DagDescription:
    """Build the FDW DAG for a configuration.

    Parameters
    ----------
    config:
        The validated run configuration.
    plan:
        A pre-computed phase plan; planned from ``config`` when omitted
        (passing one avoids re-planning in partition studies).
    """
    plan = plan or plan_phases(config)
    dag = DagDescription(name=config.name)

    a_names: list[str] = []
    if plan.dist_job is not None:
        dag.add_job(plan.dist_job.name, plan.dist_job, retries=config.retries)
    for spec in plan.a_jobs:
        dag.add_job(spec.name, spec, retries=config.retries)
        a_names.append(spec.name)
        if plan.dist_job is not None:
            dag.add_edge(plan.dist_job.name, spec.name)

    dag.add_job(plan.b_job.name, plan.b_job, retries=config.retries)
    dag.add_edges(a_names, [plan.b_job.name])

    for spec in plan.c_jobs:
        dag.add_job(spec.name, spec, retries=config.retries)
        dag.add_edge(plan.b_job.name, spec.name)
    return dag

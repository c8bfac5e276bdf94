"""Memory budget of the pool path: bytes per task from generation to replay.

A seeded 5,000-task WfChef scale-up of the bundled fdw64 instance is
generated, imported and replayed in model mode, the ``pool-replay``
benchmark's shape at an eighth of its size (one slot per five tasks).
After one warm-up run, ``tracemalloc`` gives the peak of the Python
allocations a second run makes, with the instance, the DAG and the
replay's records all alive at its end.

Measured with CPython 3.11 and numpy 2.4: 1,854 bytes per task, against
2,425 before the per-task records were slotted, the write-only
bookkeeping (per-attempt job lists, retry counters of nodes that never
failed, manifests a model-mode replay never reads) was dropped, and a
DAG node without children stopped holding an empty dict. The budget is
the measured value plus 10 %.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

from repro.condor.dagman import DagmanOptions
from repro.osg.capacity import FixedCapacity
from repro.osg.negotiator import NegotiatorConfig
from repro.osg.pool import OSPoolConfig
from repro.wf import generate_instance, import_instance, load_instance, replay_instance

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"

N_TASKS = 5_000
SLOTS = N_TASKS // 5
#: Peak traced bytes per task: 1,854 measured, plus 10 %.
BUDGET_BYTES_PER_TASK = 2_040


def _pipeline(source):
    imported = import_instance(generate_instance(source, N_TASKS, seed=3))
    return replay_instance(
        imported,
        seed=3,
        runtime="model",
        config=OSPoolConfig(
            negotiator=NegotiatorConfig(cycle_s=60.0, match_limit_per_cycle=SLOTS)
        ),
        capacity=FixedCapacity(SLOTS),
        options=DagmanOptions(max_idle=0, submit_batch=N_TASKS),
    )


def test_pool_path_peak_bytes_per_task_within_budget():
    source = load_instance(EXAMPLE)
    _pipeline(source)  # warm-up: module-level caches, first-call allocations
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = _pipeline(source)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len({r.node_name for r in result.metrics.records if r.success}) == N_TASKS
    assert peak / N_TASKS <= BUDGET_BYTES_PER_TASK, (
        f"{peak / N_TASKS:.0f} bytes per task, budget {BUDGET_BYTES_PER_TASK}"
    )

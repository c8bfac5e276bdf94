"""Pinned pool outputs the frozen reference pool cannot guard.

``ReferencePoolSimulator`` (tests/oracles/pool_reference.py) inherits
the product's user log, DAGMan engine, Stash cache, runtime model and
done check, so the pool equivalence properties pass whatever those do.
These tests pin what they produce instead. The digests and stop points
were recorded on the commit before the pool's per-job path was cut
down (job records built in one step, an O(1) done check, SUBMIT rows
appended per batch, execute slots logged as numbers), and recorded again
without job holds and DAGMan kills on the commit before those were
deleted.
"""

import hashlib
from pathlib import Path

import pytest

from repro.condor.dagfile import DagDescription, ScriptSpec
from repro.condor.dagman import DagmanEngine
from repro.condor.jobs import JobPayload, JobSpec
from repro.core.monitor import DagmanStats
from repro.osg.capacity import FixedCapacity, MarkovModulatedCapacity
from repro.osg.pool import OSPoolConfig, OSPoolSimulator
from repro.osg.transfer import TransferConfig
from repro.wf import replay_instance
from tests.oracles.pool_reference import ReferencePoolSimulator

FDW64 = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_user_log_pinned(tmp_path):
    """The rendered user logs of a seeded replay with evictions and
    failed attempts, the events read back in process, the monitor's
    statistics and the written file, byte for byte."""
    result = replay_instance(
        FDW64,
        seed=4,
        runtime="model",
        config=OSPoolConfig(success_prob=0.4),
        capacity=MarkovModulatedCapacity(levels=[8, 2], mean_dwell_s=[300.0, 300.0]),
    )
    (name, log), = result.user_logs.items()
    text = log.render()
    kinds = {line[:3] for line in text.splitlines() if line[:3].isdigit()}
    # submit, execute, evicted, terminated
    assert kinds == {"000", "001", "004", "005"}
    assert _sha256(text) == "276e7b894f4eb638ab325a619abd0ad836a421c309949c1ab20f7c7d1181f4a8"
    assert _sha256(repr(log.events())) == (
        "bc600e47adb7e50d53ec49cfc2c8d01e0376b20d382d5fd57d1b74fe700207d0"
    )
    stats = DagmanStats.from_user_log(log)
    assert stats == DagmanStats.from_log_text(text)
    assert _sha256(repr(stats)) == (
        "6116649e1751dcce8c0f3d833fbca27d567b7c05cae6b0d129badd52898af077"
    )
    path = log.write(tmp_path / f"{name}.log")
    assert path.read_text() == text


def _chain(name: str, n: int, pre_fails_at: int | None = None) -> DagDescription:
    """A chain ``name_0 -> ... -> name_{n-1}`` of short Phase-A jobs with
    two retries each; the node at ``pre_fails_at`` has a PRE script that
    exits 1."""
    dag = DagDescription(name)
    for i in range(n):
        node = f"{name}_{i}"
        spec = JobSpec(name=node, payload=JobPayload("A", n_items=1, n_stations=2))
        dag.add_job(node, spec, retries=2)
        if i:
            dag.add_edge(f"{name}_{i - 1}", node)
    if pre_fails_at is not None:
        dag.set_script(f"{name}_{pre_fails_at}", "PRE", ScriptSpec("setup.sh", exit_code=1))
    return dag


def _done_check_pool(pool_cls):
    """Four DAGMans that end three ways: completion, terminal failure
    and full rescue at submit. The long chain ends last."""
    pool = pool_cls(
        config=OSPoolConfig(
            transfer=TransferConfig(setup_overhead_s=1.0, include_image=False),
            success_prob=0.9,
        ),
        capacity=FixedCapacity(3),
        seed=11,
    )
    pool.submit_dagman(_chain("ok", 6))
    pool.submit_dagman(_chain("fails", 5, pre_fails_at=2), at_time=40.0)
    pool.submit_dagman(_chain("long", 60), at_time=10.0)
    rescued = DagmanEngine(_chain("rescued", 4))
    for i in range(4):
        rescued.mark_done(f"rescued_{i}")
    pool.submit_engine(rescued, name="rescued", at_time=25.0)
    return pool


@pytest.mark.parametrize(
    "pool_cls, stop",
    [
        (OSPoolSimulator, ("0x1.04fbb60e9072ap+12", 316)),
        (ReferencePoolSimulator, ("0x1.04fbb60e9072ap+12", 316)),
    ],
    ids=["pool", "reference"],
)
def test_done_check_stops_where_it_did(pool_cls, stop):
    """The pool stops at the event after which its last DAGMan ended,
    counting events through the loop's stop predicate, and each run's
    end time and fate are as recorded."""
    pool = _done_check_pool(pool_cls)
    n_events = 0
    run_loop = pool.sim.run

    def counting_run(until=None, stop_when=None):
        def counted():
            nonlocal n_events
            n_events += 1
            return stop_when()

        return run_loop(until=until, stop_when=counted)

    pool.sim.run = counting_run
    pool.run()
    assert (pool.sim.now.hex(), n_events) == stop
    runs = pool.dagman_runs
    assert {name: (run.end_time.hex(), run.dead) for name, run in runs.items()} == {
        "ok": ("0x1.b6505778de144p+8", False),
        "fails": ("0x1.c200000000000p+7", True),
        "long": ("0x1.04fbb60e9072ap+12", False),
        "rescued": ("0x1.9000000000000p+4", False),
    }

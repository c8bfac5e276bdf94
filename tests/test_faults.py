"""Deterministic fault-injection plans (repro.faults)."""

import pytest

from repro.condor.dagfile import DagDescription
from repro.condor.jobs import JobPayload, JobSpec
from repro.core.monitor import DagmanStats
from repro.errors import ReproError
from repro.faults import ChunkCrash, FaultInjected, FaultPlan, PoolFault
from repro.osg.capacity import FixedCapacity
from repro.osg.pool import OSPoolConfig, OSPoolSimulator
from repro.osg.transfer import TransferConfig
from tests.osg.exactly_once import verify_exactly_once


def test_chunk_crash_validation():
    with pytest.raises(ReproError, match="phases A/C"):
        ChunkCrash("B", 1)
    with pytest.raises(ReproError, match=">= 1"):
        ChunkCrash("A", 0)


def test_pool_fault_validation():
    with pytest.raises(ReproError, match="unknown pool fault"):
        PoolFault("nuke", 10.0)
    with pytest.raises(ReproError, match=">= 0"):
        PoolFault("evict", -1.0)
    with pytest.raises(ReproError, match="requires a dagman"):
        PoolFault("kill-dagman", 10.0)


def test_seeded_plans_are_deterministic_and_mid_phase():
    a = FaultPlan.seeded(5, n_a_chunks=10, n_c_chunks=8)
    b = FaultPlan.seeded(5, n_a_chunks=10, n_c_chunks=8)
    assert a.crashes == b.crashes
    assert [c.phase for c in a.crashes] == ["A", "C"]
    for crash, n in zip(a.crashes, (10, 8)):
        assert 1 <= crash.after_chunks <= n - 1
    # Different seeds explore different crash points.
    assert any(
        FaultPlan.seeded(s, n_a_chunks=10, n_c_chunks=8).crashes != a.crashes
        for s in range(6, 20)
    )
    # Single-chunk phases get no crash (nothing mid-phase to hit).
    assert FaultPlan.seeded(5, n_a_chunks=1, n_c_chunks=1).crashes == ()


def test_chunk_crash_fires_exactly_once():
    plan = FaultPlan(crashes=(ChunkCrash("A", 2),))
    plan.chunk_completed("A")
    with pytest.raises(FaultInjected, match="2 completed A chunk"):
        plan.chunk_completed("A")
    # Counters keep advancing but the crash never refires (resume leg).
    for _ in range(5):
        plan.chunk_completed("A")
    plan.chunk_completed("C")  # other phases unaffected


def _flat_dag(n_jobs, name="f"):
    dag = DagDescription(name)
    for i in range(n_jobs):
        dag.add_job(
            f"{name}_{i}",
            JobSpec(name=f"{name}_{i}", payload=JobPayload(phase="A", n_items=1, n_stations=2)),
        )
    return dag


def test_install_schedules_pool_faults(tmp_path):
    """install() drives the simulator's injection hooks: the run sees the
    planned evictions and holds yet still completes every node once."""
    dag = _flat_dag(8)
    pool = OSPoolSimulator(
        config=OSPoolConfig(
            transfer=TransferConfig(setup_overhead_s=1.0, include_image=False),
            success_prob=1.0,
            hold_release_s=20.0,
        ),
        capacity=FixedCapacity(4),
        seed=0,
        rescue_dir=tmp_path,
    )
    pool.submit_dagman(dag)
    plan = FaultPlan(
        pool_faults=(
            PoolFault("evict", 30.0, count=2),
            PoolFault("hold", 60.0, count=1),
        )
    )
    plan.install(pool)
    metrics = pool.run()
    verify_exactly_once(dag, metrics)
    stats = DagmanStats.from_log_text(pool.dagman_runs["f"].user_log.render())
    assert sum(j.n_evictions for j in stats.jobs.values()) == 2
    assert sum(j.n_holds for j in stats.jobs.values()) == 1


def test_install_kill_dagman(tmp_path):
    dag = _flat_dag(12)
    pool = OSPoolSimulator(
        config=OSPoolConfig(
            transfer=TransferConfig(setup_overhead_s=1.0, include_image=False),
            success_prob=1.0,
        ),
        capacity=FixedCapacity(2),
        seed=0,
        rescue_dir=tmp_path,
    )
    pool.submit_dagman(dag)
    FaultPlan(pool_faults=(PoolFault("kill-dagman", 50.0, dagman="f"),)).install(pool)
    pool.run()
    run = pool.dagman_runs["f"]
    assert run.dead
    assert run.rescue_file is not None


def _two_dagman_pool(tmp_path):
    """``short`` (2 jobs) finishes long before ``long`` (40 jobs)."""
    pool = OSPoolSimulator(
        config=OSPoolConfig(
            transfer=TransferConfig(setup_overhead_s=1.0, include_image=False),
            success_prob=1.0,
        ),
        capacity=FixedCapacity(2),
        seed=0,
        rescue_dir=tmp_path,
    )
    pool.submit_dagman(_flat_dag(2, name="short"))
    pool.submit_dagman(_flat_dag(40, name="long"))
    return pool


def test_install_kill_of_finished_dagman_is_a_no_op(tmp_path):
    """Regression: a scheduled kill whose DAGMan already finished used to
    abort the whole run with "already finished" while others still ran."""
    pool = _two_dagman_pool(tmp_path)
    FaultPlan(
        pool_faults=(PoolFault("kill-dagman", 300.0, dagman="short"),)
    ).install(pool)
    metrics = pool.run()
    short, long = pool.dagman_runs["short"], pool.dagman_runs["long"]
    assert short.end_time < 300.0 < long.end_time
    assert not short.dead and not long.dead
    assert short.rescue_file is None
    assert sum(r.success for r in metrics.records) == 42


def test_install_rejects_unknown_dagman(tmp_path):
    """Regression: an unknown name used to surface only when the fault
    fired, mid-run; it is now rejected before anything is scheduled."""
    pool = _two_dagman_pool(tmp_path)
    for action in ("kill-dagman", "hold"):
        plan = FaultPlan(pool_faults=(PoolFault(action, 10.0, dagman="nope"),))
        with pytest.raises(ReproError, match="unknown DAGMan 'nope'"):
            plan.install(pool)
    assert pool.sim.pending == 2  # only the two submit cycles


def test_direct_kill_of_finished_dagman_still_raises(tmp_path):
    pool = _two_dagman_pool(tmp_path)
    pool.run()
    with pytest.raises(ReproError, match="already finished"):
        pool.kill_dagman("short")


# -- PR 8 fault models: flakes, storage faults, transfer faults, outages ------


def test_transient_fault_is_retryable_fault():
    from repro.faults import TransientFault
    from repro.resilience import is_retryable

    exc = TransientFault("flaky")
    assert isinstance(exc, FaultInjected)
    assert is_retryable(exc)
    assert not is_retryable(FaultInjected("crash"))  # crashes are terminal


def test_chunk_flake_validation():
    from repro.faults import ChunkFlake

    with pytest.raises(ReproError, match="phases A/C"):
        ChunkFlake("B", 0)
    with pytest.raises(ReproError, match="index"):
        ChunkFlake("A", -1)
    with pytest.raises(ReproError, match="times"):
        ChunkFlake("A", 0, times=0)


def test_chunk_attempt_fails_first_n_attempts_only():
    from repro.faults import ChunkFlake, TransientFault

    plan = FaultPlan(flakes=(ChunkFlake("A", 1, times=2),))
    plan.chunk_attempt("A", 0)  # other chunks unaffected
    plan.chunk_attempt("C", 1)  # other phases unaffected
    for attempt in (1, 2):
        with pytest.raises(TransientFault, match=f"attempt {attempt}"):
            plan.chunk_attempt("A", 1)
    plan.chunk_attempt("A", 1)  # third attempt succeeds


def test_storage_fault_bitflip_and_truncate(tmp_path):
    from repro.faults import StorageFault

    with pytest.raises(ReproError, match="unknown storage fault"):
        StorageFault("shred")
    original = bytes(range(256)) * 4
    flip_path = tmp_path / "a.npz"
    flip_path.write_bytes(original)
    StorageFault("bitflip", seed=3).apply(flip_path)
    flipped = flip_path.read_bytes()
    assert len(flipped) == len(original)
    assert sum(a != b for a, b in zip(flipped, original)) == 1  # one byte
    # Same seed, same filename -> same corruption (replayable chaos).
    flip_path.write_bytes(original)
    StorageFault("bitflip", seed=3).apply(flip_path)
    assert flip_path.read_bytes() == flipped

    cut_path = tmp_path / "b.npz"
    cut_path.write_bytes(original)
    StorageFault("truncate", seed=3).apply(cut_path)
    cut = cut_path.read_bytes()
    assert len(cut) < len(original)
    assert cut == original[: len(cut)]

    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    with pytest.raises(ReproError, match="empty"):
        StorageFault().apply(empty)


def test_transfer_faults_validation_and_draws():
    from repro.faults import TransferFaults

    with pytest.raises(ReproError):
        TransferFaults(failure_prob=1.0)
    with pytest.raises(ReproError):
        TransferFaults(slow_prob=-0.1)
    with pytest.raises(ReproError):
        TransferFaults(slow_factor=0.5)

    model = TransferFaults(failure_prob=0.4, slow_prob=0.3, slow_factor=5.0, seed=2)
    draws = [model.draw() for _ in range(50)]
    assert model.n_failures == sum(f for f, _ in draws)
    assert model.n_slow == sum(m != 1.0 for _, m in draws)
    assert {m for _, m in draws} <= {1.0, 5.0}
    assert 0 < model.n_failures < 50  # both outcomes explored
    # reset() rewinds the private stream exactly.
    model.reset()
    assert model.n_failures == 0
    assert [model.draw() for _ in range(50)] == draws


def test_site_outage_window():
    from repro.faults import SiteOutage

    with pytest.raises(ReproError):
        SiteOutage("", 0.0, 1.0)
    with pytest.raises(ReproError):
        SiteOutage("s", 5.0, 5.0)
    out = SiteOutage("s", 10.0, 20.0)
    assert not out.active(9.9)
    assert out.active(10.0)
    assert out.active(19.9)
    assert not out.active(20.0)  # half-open interval

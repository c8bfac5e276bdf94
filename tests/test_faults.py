"""Deterministic fault-injection plans (repro.faults)."""

import pytest

from repro.errors import ReproError
from repro.faults import ChunkCrash, FaultInjected, FaultPlan
from tests.seeded_faults import seeded_plan


def test_chunk_crash_validation():
    with pytest.raises(ReproError, match="phases A/C"):
        ChunkCrash("B", 1)
    with pytest.raises(ReproError, match=">= 1"):
        ChunkCrash("A", 0)


def test_seeded_plans_are_deterministic_and_mid_phase():
    a = seeded_plan(5, n_a_chunks=10, n_c_chunks=8)
    b = seeded_plan(5, n_a_chunks=10, n_c_chunks=8)
    assert a.crashes == b.crashes
    assert [c.phase for c in a.crashes] == ["A", "C"]
    for crash, n in zip(a.crashes, (10, 8)):
        assert 1 <= crash.after_chunks <= n - 1
    # Different seeds explore different crash points.
    assert any(
        seeded_plan(s, n_a_chunks=10, n_c_chunks=8).crashes != a.crashes
        for s in range(6, 20)
    )
    # Single-chunk phases get no crash (nothing mid-phase to hit).
    assert seeded_plan(5, n_a_chunks=1, n_c_chunks=1).crashes == ()


def test_chunk_crash_fires_exactly_once():
    plan = FaultPlan(crashes=(ChunkCrash("A", 2),))
    plan.chunk_completed("A")
    with pytest.raises(FaultInjected, match="2 completed A chunk"):
        plan.chunk_completed("A")
    # Counters keep advancing but the crash never refires (resume leg).
    for _ in range(5):
        plan.chunk_completed("A")
    plan.chunk_completed("C")  # other phases unaffected


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

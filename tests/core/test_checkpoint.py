"""Crash-consistent checkpoint/resume for LocalRunner."""

import json

import pytest

from repro.core.checkpoint import RunCheckpoint, atomic_write_bytes, config_digest
from repro.core.config import FdwConfig
from repro.core.local import LocalRunner
from repro.errors import CheckpointError, ConfigError
from repro.faults import ChunkCrash, FaultInjected, FaultPlan
from repro.integrity import write_digest


@pytest.fixture(scope="module")
def ckpt_config():
    # 3 A chunks and 3 C chunks: every crash point leaves both completed
    # chunks to skip and pending chunks to run.
    return FdwConfig(
        n_waveforms=6, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2, name="ckpt"
    )


def archive_bytes(root):
    """Every file in an archive tree, keyed by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# -- RunCheckpoint unit behaviour ---------------------------------------------


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "m.json"
    atomic_write_bytes(target, b"one")
    atomic_write_bytes(target, b"two")
    assert target.read_bytes() == b"two"
    assert list(tmp_path.iterdir()) == [target]


def test_fresh_checkpoint_discards_stale_state(tmp_path, ckpt_config):
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    ck.store_a_chunk(0, [])
    assert ck.n_done("A") == 1
    # resume=False wipes the old directory.
    ck2 = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    assert ck2.n_done("A") == 0
    assert not ck2._chunk_path("A", 0).exists()


def test_resume_validates_digest_and_plan(tmp_path, ckpt_config):
    RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    other = FdwConfig(
        n_waveforms=6, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2, name="other"
    )
    assert config_digest(other) != config_digest(ckpt_config)
    with pytest.raises(CheckpointError, match="different configuration"):
        RunCheckpoint(tmp_path, other, n_a_chunks=3, n_c_chunks=3, resume=True)
    with pytest.raises(CheckpointError, match="chunk plan"):
        RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=2, n_c_chunks=3, resume=True)


def test_resume_rejects_bad_manifest(tmp_path, ckpt_config):
    # Validation errors need a *validly signed* manifest — a bad digest
    # is corruption (quarantined, covered below), not a user mistake.
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    manifest = json.loads(ck.manifest_path.read_text())
    for version in (1, 99):  # 1: its products hold deflated records
        manifest["version"] = version
        ck.manifest_path.write_text(json.dumps(manifest))
        write_digest(ck.manifest_path)
        with pytest.raises(CheckpointError, match="version"):
            RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    manifest = json.loads(ck.manifest_path.read_text())
    manifest["version"] = RunCheckpoint.VERSION
    manifest["done_a"] = [7]
    ck.manifest_path.write_text(json.dumps(manifest))
    write_digest(ck.manifest_path)
    with pytest.raises(CheckpointError, match="out of range"):
        RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)


def test_resume_quarantines_corrupt_manifest(tmp_path, ckpt_config):
    """A manifest that fails its digest check (tampered bytes) or no
    longer parses degrades the resume to a fresh start — and the
    damaged manifest is preserved in quarantine, not deleted."""
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    ck.store_a_chunk(0, [])
    ck.manifest_path.write_text("{not json")
    write_digest(ck.manifest_path)
    ck2 = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    assert ck2.n_done("A") == 0
    assert len(ck2.quarantined) == 1
    assert ck2.quarantined[0].parent == tmp_path / RunCheckpoint.QUARANTINE_DIRNAME
    assert ck2.quarantined[0].read_text() == "{not json"

    # Tampered bytes under the original sidecar: digest mismatch.
    ck2.store_a_chunk(0, [])
    text = ck2.manifest_path.read_text()
    ck2.manifest_path.write_text(text.replace('"done_a"', '"done_x"'))
    ck3 = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    assert ck3.n_done("A") == 0 and len(ck3.quarantined) == 1


def test_corrupt_chunk_quarantined_and_redone(tmp_path, ckpt_config):
    """A damaged chunk file is quarantined, un-marked done, and
    reported as None so the runner re-executes just that chunk."""
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    ck.store_a_chunk(0, [])
    ck.store_a_chunk(1, [])
    path = ck._chunk_path("A", 1)
    path.write_bytes(path.read_bytes()[:-1])  # truncation
    assert ck.try_load_a_chunk(0) == []
    assert ck.try_load_a_chunk(1) is None
    assert not ck.is_done("A", 1) and ck.is_done("A", 0)
    assert len(ck.quarantined) == 1 and not path.exists()
    # The discard is durable: a resume sees the chunk as pending too.
    ck2 = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    assert ck2.done["A"] == {0}


def test_resume_without_manifest_starts_fresh(tmp_path, ckpt_config):
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    assert ck.n_done("A") == 0 and ck.n_done("C") == 0


def test_load_requires_done_and_products(tmp_path, ckpt_config):
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    with pytest.raises(CheckpointError, match="not checkpointed"):
        ck.load_a_chunk(0)
    ck.store_c_chunk(1, [("r1", 0.5, 7.0, "r1.npz")])
    with pytest.raises(CheckpointError, match="waveform missing"):
        ck.load_c_chunk(1)  # row recorded, product never landed
    (ck.waveforms_dir / "r1.npz").write_bytes(b"x")
    rows = ck.load_c_chunk(1)
    assert rows == [("r1", 0.5, 7.0, str(ck.waveforms_dir / "r1.npz"))]


def test_checkpoint_requires_archive_dir(ckpt_config):
    with pytest.raises(ConfigError, match="archive_dir"):
        LocalRunner().run(ckpt_config, checkpoint=True)


# -- end-to-end crash / resume ------------------------------------------------


def test_uninterrupted_checkpoint_run_matches_plain(tmp_path, ckpt_config):
    plain = LocalRunner().run(ckpt_config, archive_dir=tmp_path / "plain")
    ck = LocalRunner().run(ckpt_config, archive_dir=tmp_path / "ck", checkpoint=True)
    assert archive_bytes(tmp_path / "plain") == archive_bytes(tmp_path / "ck")
    assert ck.pgd_by_rupture == plain.pgd_by_rupture
    assert ck.chunks_executed == {"A": 3, "C": 3}
    assert ck.chunks_skipped == {"A": 0, "C": 0}
    assert not (tmp_path / "ck" / RunCheckpoint.DIRNAME).exists()


def test_crash_resume_yields_identical_archive(tmp_path, ckpt_config):
    """Acceptance: a run killed mid-Phase-A and again mid-Phase-C,
    resumed each time, produces a byte-identical archive to an
    uninterrupted run — with zero completed chunks re-executed."""
    plain = LocalRunner().run(ckpt_config, archive_dir=tmp_path / "plain")
    crash_dir = tmp_path / "crashed"

    with pytest.raises(FaultInjected, match="2 completed A chunk"):
        LocalRunner().run(
            ckpt_config,
            archive_dir=crash_dir,
            checkpoint=True,
            faults=FaultPlan(crashes=(ChunkCrash("A", 2),)),
        )
    # The crash left no product archive, only the checkpoint.
    assert not (crash_dir / "manifest.json").exists()

    with pytest.raises(FaultInjected, match="1 completed C chunk"):
        LocalRunner().run(
            ckpt_config,
            archive_dir=crash_dir,
            resume=True,
            faults=FaultPlan(crashes=(ChunkCrash("C", 1),)),
        )

    result = LocalRunner().run(ckpt_config, archive_dir=crash_dir, resume=True)
    # Manifest accounting: the final leg re-ran nothing already done
    # (2 A chunks before crash 1, the 3rd A chunk + 1 C chunk before
    # crash 2), and the three legs sum to the full chunk plan.
    assert result.chunks_skipped == {"A": 3, "C": 1}
    assert result.chunks_executed == {"A": 0, "C": 2}

    assert archive_bytes(tmp_path / "plain") == archive_bytes(crash_dir)
    assert result.pgd_by_rupture == plain.pgd_by_rupture
    assert result.n_waveform_sets == ckpt_config.n_waveforms
    assert not (crash_dir / RunCheckpoint.DIRNAME).exists()


def test_pooled_crash_resume_matches_sequential(tmp_path, ckpt_config):
    """The pooled paths checkpoint per chunk too: a pooled run crashed in
    both fanned-out phases and resumed pooled matches the sequential
    uninterrupted archive."""
    plain = LocalRunner().run(ckpt_config, archive_dir=tmp_path / "plain")
    crash_dir = tmp_path / "pooled"
    plan = FaultPlan.seeded(11, n_a_chunks=3, n_c_chunks=3)
    assert [c.phase for c in plan.crashes] == ["A", "C"]

    with LocalRunner(n_workers=2) as runner:
        with pytest.raises(FaultInjected):
            runner.run(
                ckpt_config, archive_dir=crash_dir, checkpoint=True, faults=plan
            )
        with pytest.raises(FaultInjected):
            runner.run(ckpt_config, archive_dir=crash_dir, resume=True, faults=plan)
        result = runner.run(ckpt_config, archive_dir=crash_dir, resume=True)

    assert sum(result.chunks_skipped.values()) + sum(
        result.chunks_executed.values()
    ) == 6
    assert result.pgd_by_rupture == plain.pgd_by_rupture
    plain_files = archive_bytes(tmp_path / "plain")
    pooled_files = archive_bytes(crash_dir)
    assert set(plain_files) == set(pooled_files)
    # .rupt and manifest bytes are exactly reproducible across the pool
    # boundary; .npz products are compared by bytes too (np.savez is
    # deterministic for identical arrays).
    assert plain_files == pooled_files

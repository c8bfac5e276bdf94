"""Crash-consistent checkpoint/resume for LocalRunner."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import RunCheckpoint, config_digest
from repro.core.config import FdwConfig
from repro.core.local import LocalRunner
from repro.errors import CheckpointError, ConfigError
from repro.faults import ChunkCrash, FaultInjected, FaultPlan, StorageFault
from repro.integrity import digest_path, write_digest
from tests.seeded_faults import seeded_plan


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


def test_fresh_checkpoint_discards_stale_state(tmp_path, ckpt_config):
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    ck.store_a_chunk(0, [])
    assert ck.restore("A", 0) == []
    # resume=False wipes the old directory.
    ck2 = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    assert ck2.restore("A", 0) is None
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
    # 1: its products hold deflated records; 2: no product digests.
    for version in (1, 2, 99):
        manifest["version"] = version
        ck.manifest_path.write_text(json.dumps(manifest))
        write_digest(ck.manifest_path)
        with pytest.raises(CheckpointError, match="version"):
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
    assert ck2.restore("A", 0) is None
    assert len(ck2.quarantined) == 1
    assert ck2.quarantined[0].parent == tmp_path / RunCheckpoint.QUARANTINE_DIRNAME
    assert ck2.quarantined[0].read_text() == "{not json"

    # Tampered bytes under the original sidecar: digest mismatch.
    ck2.store_a_chunk(0, [])
    text = ck2.manifest_path.read_text()
    ck2.manifest_path.write_text(text.replace('"n_a_chunks"', '"n_x_chunks"'))
    ck3 = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    assert ck3.restore("A", 0) is None and len(ck3.quarantined) == 1


def test_corrupt_chunk_quarantined_and_redone(tmp_path, ckpt_config):
    """A damaged chunk file is quarantined and reported as None so the
    runner re-executes just that chunk."""
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    ck.store_a_chunk(0, [])
    ck.store_a_chunk(1, [])
    path = ck._chunk_path("A", 1)
    path.write_bytes(path.read_bytes()[:-1])  # truncation
    assert ck.restore("A", 0) == []
    assert ck.restore("A", 1) is None
    assert len(ck.quarantined) == 1 and not path.exists()
    # The discard is durable: a resume sees the chunk as pending too.
    ck2 = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    assert ck2.restore("A", 0) == [] and ck2.restore("A", 1) is None
    assert ck2.quarantined == []


def test_resume_without_manifest_starts_fresh(tmp_path, ckpt_config):
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    assert all(ck.restore(phase, i) is None for phase in "AC" for i in range(3))


def test_load_requires_done_and_products(tmp_path, ckpt_config):
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    assert ck.restore("A", 0) is None  # never stored
    (ck.waveforms_dir / "r1.npz").write_bytes(b"x")
    ck.store_c_chunk(1, [("r1", 0.5, 7.0, "r1.npz")])
    rows = ck.restore("C", 1)
    assert rows == [("r1", 0.5, 7.0, str(ck.waveforms_dir / "r1.npz"))]


def test_chunk_without_sidecar_is_rerun_not_trusted(tmp_path, ckpt_config):
    """A record whose sidecar is missing (the process died between the
    two writes of one store) is pending: not trusted, not quarantined."""
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    ck.store_a_chunk(0, [])
    digest_path(ck._chunk_path("A", 0)).unlink()
    ck2 = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3, resume=True)
    assert ck2.restore("A", 0) is None
    assert ck2.quarantined == [] and ck2._chunk_path("A", 0).exists()


def test_store_makes_two_fsyncs_and_never_rewrites_manifest(
    tmp_path, ckpt_config, monkeypatch
):
    """One store is one signed record: the record and its sidecar, each
    fsynced. The manifest, written once at creation, is never touched."""
    ck = RunCheckpoint(tmp_path, ckpt_config, n_a_chunks=3, n_c_chunks=3)
    product = ck.waveforms_dir / "r1.npz"
    product.write_bytes(b"product")
    manifest = ck.manifest_path.stat()
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    ck.store_a_chunk(0, [])
    assert len(fsyncs) == 2
    ck.store_c_chunk(0, [("r1", 0.5, 7.0, str(product))])
    assert len(fsyncs) == 4
    after = ck.manifest_path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (manifest.st_ino, manifest.st_mtime_ns)


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
    plan = seeded_plan(11, n_a_chunks=3, n_c_chunks=3)
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


# -- damaged products on resume -----------------------------------------------


@pytest.fixture(scope="module")
def plain_archive(tmp_path_factory, ckpt_config):
    """The uninterrupted, uncheckpointed archive every resume must equal."""
    root = tmp_path_factory.mktemp("plain")
    LocalRunner().run(ckpt_config, archive_dir=root)
    return archive_bytes(root)


def products_archive(root):
    """``archive_bytes`` without the quarantined evidence."""
    return {
        rel: data
        for rel, data in archive_bytes(root).items()
        if not rel.startswith(RunCheckpoint.QUARANTINE_DIRNAME + "/")
    }


def crash_in_c(config, archive_dir, n_workers):
    with LocalRunner(n_workers=n_workers) as runner:
        with pytest.raises(FaultInjected):
            runner.run(
                config,
                archive_dir=archive_dir,
                checkpoint=True,
                faults=FaultPlan(crashes=(ChunkCrash("C", 2),)),
            )
    return sorted((archive_dir / RunCheckpoint.DIRNAME / "waveforms").glob("*.npz"))


@pytest.mark.parametrize("n_workers", [1, 2])
def test_torn_product_quarantined_and_rerun(tmp_path, ckpt_config, plain_archive, n_workers):
    """A checkpointed product torn after its chunk was recorded is
    quarantined with its chunk record, the chunk re-runs, and the
    archive is byte-identical to an uninterrupted run."""
    crash_dir = tmp_path / "crashed"
    torn = crash_in_c(ckpt_config, crash_dir, n_workers)[0]
    torn_bytes = torn.read_bytes()[:100]
    torn.write_bytes(torn_bytes)
    with LocalRunner(n_workers=n_workers) as runner:
        result = runner.run(ckpt_config, archive_dir=crash_dir, resume=True)
    assert result.chunks_executed["C"] == 2 and result.chunks_skipped["C"] == 1
    assert products_archive(crash_dir) == plain_archive
    quarantine = crash_dir / RunCheckpoint.QUARANTINE_DIRNAME
    assert (quarantine / torn.name).read_bytes() == torn_bytes
    assert (quarantine / "C_00000.pkl").exists()


def test_deleted_product_resume_completes(tmp_path, ckpt_config, plain_archive):
    """A product missing on resume re-runs its chunk instead of failing
    the resume."""
    crash_dir = tmp_path / "crashed"
    crash_in_c(ckpt_config, crash_dir, 1)[0].unlink()
    result = LocalRunner().run(ckpt_config, archive_dir=crash_dir, resume=True)
    assert result.chunks_executed["C"] == 2
    assert products_archive(crash_dir) == plain_archive
    # Only the chunk record is quarantined: there is no product to keep.
    quarantine = crash_dir / RunCheckpoint.QUARANTINE_DIRNAME
    assert sorted(p.name for p in quarantine.iterdir()) == [
        "C_00000.pkl", "C_00000.pkl.reason", "C_00000.pkl.sha256"
    ]


DAMAGES = (
    "none",
    "truncate-product",
    "bitflip-product",
    "delete-product",
    "truncate-chunk",
    "delete-sidecar",
)


def damage_checkpoint(checkpoint_dir, damage):
    """Apply one damage to a crashed run's checkpoint."""
    if damage == "none":
        return
    if damage.endswith("-product"):
        victim = sorted((checkpoint_dir / "waveforms").glob("*.npz"))[0]
    else:  # the last record: a C chunk when Phase C has begun
        victim = sorted(checkpoint_dir.glob("*.pkl"))[-1]
    if damage == "delete-product":
        victim.unlink()
    elif damage == "delete-sidecar":
        digest_path(victim).unlink()
    else:
        StorageFault(damage.split("-")[0], seed=5).apply(victim)


@st.composite
def crash_and_damage(draw):
    damage = draw(st.sampled_from(DAMAGES))
    phase = "C" if damage.endswith("-product") else draw(st.sampled_from("AC"))
    return ChunkCrash(phase, draw(st.integers(1, 2))), damage, draw(st.sampled_from((1, 2)))


@settings(max_examples=12, deadline=None)
@given(case=crash_and_damage())
def test_resume_after_any_damage_matches_uninterrupted(
    tmp_path_factory, ckpt_config, plain_archive, case
):
    """Property: whatever the crash point, the damage to the checkpoint
    and the worker count, the resumed archive equals the uninterrupted
    one, no temp file is left, and every quarantined file says why."""
    crash, damage, n_workers = case
    root = tmp_path_factory.mktemp("resume")
    with LocalRunner(n_workers=n_workers) as runner:
        with pytest.raises(FaultInjected):
            runner.run(
                ckpt_config,
                archive_dir=root,
                checkpoint=True,
                faults=FaultPlan(crashes=(crash,)),
            )
    damage_checkpoint(root / RunCheckpoint.DIRNAME, damage)
    with LocalRunner(n_workers=n_workers) as runner:
        runner.run(ckpt_config, archive_dir=root, resume=True)

    assert products_archive(root) == plain_archive
    assert [p for p in root.rglob(".*") if ".tmp" in p.name] == []
    quarantine = root / RunCheckpoint.QUARANTINE_DIRNAME
    evidence = [
        p for p in quarantine.glob("*") if not p.name.endswith((".reason", ".sha256"))
    ]
    for path in evidence:
        assert path.with_name(path.name + ".reason").exists()
    assert bool(evidence) == (damage not in ("none", "delete-sidecar"))

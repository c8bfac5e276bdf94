"""Tests for repro.integrity (digests, verified reads, quarantine)."""

import pytest

from repro.errors import IntegrityError
from repro.integrity import (
    DIGEST_SUFFIX,
    QUARANTINE_DIRNAME,
    atomic_write_bytes,
    digest_path,
    quarantine_artifact,
    read_digest,
    read_verified,
    sha256_bytes,
    verify_artifact,
    write_digest,
)


def artifact(tmp_path, data=b"payload bytes", name="bank.npz"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


# -- atomic writes ------------------------------------------------------------


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "m.json"
    atomic_write_bytes(target, b"one")
    atomic_write_bytes(target, b"two")
    assert target.read_bytes() == b"two"
    assert list(tmp_path.iterdir()) == [target]


# -- digests ------------------------------------------------------------------


def test_write_and_read_digest_roundtrip(tmp_path):
    path = artifact(tmp_path)
    side = write_digest(path)
    assert side == digest_path(path)
    assert side.name == "bank.npz" + DIGEST_SUFFIX
    assert read_digest(path) == sha256_bytes(b"payload bytes")
    # sha256sum format: "<hex>  <name>".
    hexdigest, name = side.read_text().split()
    assert (hexdigest, name) == (read_digest(path), "bank.npz")


def test_write_digest_accepts_precomputed(tmp_path):
    path = artifact(tmp_path)
    write_digest(path, digest=sha256_bytes(b"payload bytes"))
    assert read_verified(path) == b"payload bytes"


def test_read_digest_without_sidecar(tmp_path):
    assert read_digest(artifact(tmp_path)) is None


def test_malformed_sidecar_is_corruption(tmp_path):
    path = artifact(tmp_path)
    for junk in ("", "nothex" * 12, "deadbeef  bank.npz"):
        digest_path(path).write_text(junk)
        with pytest.raises(IntegrityError, match="malformed"):
            read_digest(path)
        with pytest.raises(IntegrityError):
            read_verified(path)


# -- verified reads -----------------------------------------------------------


def test_read_verified_happy_path(tmp_path):
    path = artifact(tmp_path)
    write_digest(path)
    assert read_verified(path) == b"payload bytes"


def test_read_verified_trust_on_first_use(tmp_path):
    # No sidecar: legacy entry, returned unverified.
    assert read_verified(artifact(tmp_path)) == b"payload bytes"


def test_read_verified_detects_bitflip_and_truncation(tmp_path):
    path = artifact(tmp_path)
    write_digest(path)
    path.write_bytes(b"payload byteX")
    with pytest.raises(IntegrityError, match="digest mismatch"):
        read_verified(path)
    path.write_bytes(b"payload")
    with pytest.raises(IntegrityError, match="digest mismatch"):
        read_verified(path)


def test_read_verified_missing_artifact(tmp_path):
    with pytest.raises(IntegrityError, match="unreadable"):
        read_verified(tmp_path / "gone.npz")


def test_verify_artifact(tmp_path):
    path = artifact(tmp_path)
    assert verify_artifact(path) is False  # no sidecar
    write_digest(path)
    assert verify_artifact(path) is True
    path.write_bytes(b"x")
    with pytest.raises(IntegrityError):
        verify_artifact(path)


# -- quarantine ---------------------------------------------------------------


def test_quarantine_moves_artifact_and_sidecar(tmp_path):
    path = artifact(tmp_path)
    write_digest(path)
    target = quarantine_artifact(path, reason="digest mismatch")
    assert not path.exists() and not digest_path(path).exists()
    assert target.parent == tmp_path / QUARANTINE_DIRNAME
    assert target.read_bytes() == b"payload bytes"  # preserved, not deleted
    assert target.with_name(target.name + DIGEST_SUFFIX).exists()
    reason = target.with_name(target.name + ".reason")
    assert reason.read_text() == "digest mismatch\n"


def test_quarantine_uniquifies_repeat_names(tmp_path):
    first = quarantine_artifact(artifact(tmp_path, b"one"))
    second = quarantine_artifact(artifact(tmp_path, b"two"))
    assert first.name == "bank.npz"
    assert second.name == "bank.npz.1"
    assert first.read_bytes() == b"one" and second.read_bytes() == b"two"


def test_quarantine_explicit_dir_and_no_reason(tmp_path):
    qdir = tmp_path / "elsewhere"
    target = quarantine_artifact(artifact(tmp_path), quarantine_dir=qdir)
    assert target.parent == qdir
    assert not target.with_name(target.name + ".reason").exists()


def test_verification_memo_hashes_once_per_file_version(tmp_path, monkeypatch):
    """Warm re-reads of an unmodified artifact skip the sha256 pass;
    any rewrite invalidates the stat fingerprint and re-verifies."""
    import repro.integrity as integrity

    hashed = []
    real = integrity.sha256_bytes
    monkeypatch.setattr(
        integrity, "sha256_bytes", lambda b: (hashed.append(None), real(b))[1]
    )
    path = artifact(tmp_path)
    write_digest(path)
    assert read_verified(path) == b"payload bytes"
    n_cold = len(hashed)
    assert read_verified(path) == b"payload bytes"
    assert read_verified(path) == b"payload bytes"
    assert len(hashed) == n_cold  # memoized: no re-hash
    path.write_bytes(b"tampered but same-ish")
    with pytest.raises(IntegrityError):
        read_verified(path)
    assert len(hashed) > n_cold  # the rewrite forced a fresh hash


def test_publish_artifact_fsyncs_payload_before_link(tmp_path, monkeypatch):
    """The payload is durable before its final name exists: the temp
    file's inode is fsynced before it is hard-linked as the artifact."""
    import os

    from repro.integrity import publish_artifact

    events = []
    real_fsync, real_link = os.fsync, os.link

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        return real_fsync(fd)

    def link(src, dst, *args, **kwargs):
        events.append(("link", os.stat(src).st_ino))
        return real_link(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "link", link)
    path = tmp_path / "bank.npz"
    publish_artifact(path, lambda tmp: tmp.write_bytes(b"payload bytes" * 64))
    monkeypatch.undo()

    inode = path.stat().st_ino
    assert ("link", inode) in events
    assert ("fsync", inode) in events
    assert events.index(("fsync", inode)) < events.index(("link", inode))
    assert read_verified(path) == b"payload bytes" * 64


def test_publish_artifact_streams_its_digest(tmp_path):
    """Publishing hashes the payload a block at a time: a 16 MiB artifact
    written without a copy (``ndarray.tofile``) peaks under 1 MiB of
    traced memory, and its sidecar matches the bytes on disk."""
    import tracemalloc

    import numpy as np

    from repro.integrity import publish_artifact

    payload = np.arange(2 * 2**20, dtype=np.float64)  # 16 MiB
    path = tmp_path / "bank.bin"
    tracemalloc.start()
    try:
        publish_artifact(path, payload.tofile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"publishing peaked at {peak / 2**20:.2f} MiB"
    data = read_verified(path)
    assert data == payload.tobytes()
    assert read_digest(path) == sha256_bytes(data)


@pytest.mark.parametrize("winner", ["same-bytes", "no-sidecar-yet"])
def test_publish_artifact_loser_leaves_a_consistent_winner(tmp_path, winner):
    """A writer that loses the race to a winner with its own bytes, or to
    one whose sidecar is not written yet, quarantines nothing."""
    from repro.integrity import publish_artifact

    path = tmp_path / "entry.npz"
    if winner == "same-bytes":
        publish_artifact(path, lambda tmp: tmp.write_bytes(b"entry bytes"))
    else:
        path.write_bytes(b"other bytes")
    publish_artifact(path, lambda tmp: tmp.write_bytes(b"entry bytes"))
    assert not (tmp_path / "quarantine").exists()
    assert path.exists()
    assert read_digest(path) == (sha256_bytes(b"entry bytes") if winner == "same-bytes" else None)


def test_publish_artifact_loser_quarantines_a_mismatched_winner(tmp_path):
    """A writer that loses the race to a winner whose sidecar records
    other bytes quarantines the published artifact, with a reason naming
    both digests, so the next lookup misses and recomputes."""
    from repro.integrity import publish_artifact

    path = tmp_path / "entry.npz"
    publish_artifact(path, lambda tmp: tmp.write_bytes(b"winner bytes"))
    publish_artifact(path, lambda tmp: tmp.write_bytes(b"loser bytes"))
    assert not path.exists() and not digest_path(path).exists()
    quarantine = tmp_path / "quarantine"
    assert (quarantine / "entry.npz").read_bytes() == b"winner bytes"
    reason = (quarantine / "entry.npz.reason").read_text()
    assert sha256_bytes(b"winner bytes") in reason
    assert sha256_bytes(b"loser bytes") in reason
    assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]

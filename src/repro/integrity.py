"""End-to-end artifact integrity: digests, verified reads, quarantine.

On a federated substrate (OSPool execute points, OSDF/Stash caches) a
cached artifact can be silently truncated or bit-flipped between the
write that produced it and the read that consumes it. The paper's VDC
concept leans on exactly such caches, so this module gives every on-disk
artifact the protections real federated storage applies:

* **Content digests** — :func:`write_digest` stores a sha256 sidecar
  (``<artifact>.sha256``, ``sha256sum`` format) next to the artifact,
  written atomically via temp-then-rename so the pair is never torn;
* **Verified reads** — :func:`read_verified` returns the artifact bytes
  only after the sidecar digest matches, raising a typed
  :class:`~repro.errors.IntegrityError` on any mismatch or truncation
  (the bytes are hashed from the single read, so verification costs one
  in-memory sha256 pass, not a second disk read);
* **Quarantine** — :func:`quarantine_artifact` moves a damaged artifact
  (and its sidecar) aside into a ``quarantine/`` directory instead of
  deleting it, preserving the evidence for post-mortems while freeing
  the cache slot for a rebuild-from-source.

The artifact cache (:mod:`repro.cache`, under the GF and K-L codecs)
and the checkpoint machinery (:mod:`repro.core.checkpoint`) route every
disk load through these helpers: a corrupted entry degrades to a
recompute, never a wrong answer or a crash.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections import OrderedDict
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

from repro.errors import IntegrityError

__all__ = [
    "DIGEST_SUFFIX",
    "QUARANTINE_DIRNAME",
    "sha256_bytes",
    "digest_path",
    "atomic_write_bytes",
    "write_artifact",
    "publish_artifact",
    "write_digest",
    "read_digest",
    "read_verified",
    "verify_artifact",
    "quarantine_artifact",
]

#: Sidecar suffix appended to the artifact filename (``bank.npz.sha256``).
DIGEST_SUFFIX = ".sha256"

#: Subdirectory (sibling of the artifact) damaged artifacts are moved into.
QUARANTINE_DIRNAME = "quarantine"


def sha256_bytes(data: bytes) -> str:
    """Hex sha256 of a byte string."""
    return hashlib.sha256(data).hexdigest()


def _sha256_file(fh: BinaryIO) -> str:
    """Hex sha256 of an open binary file, read a 256 KiB block at a time
    into one buffer, so hashing a file never holds a copy of it."""
    h = hashlib.sha256()
    buf = bytearray(1 << 18)
    view = memoryview(buf)
    while n := fh.readinto(buf):
        h.update(view[:n])
    return h.hexdigest()


def digest_path(path: str | Path) -> Path:
    """Sidecar location of an artifact's digest."""
    path = Path(path)
    return path.with_name(path.name + DIGEST_SUFFIX)


_TEMP_SEQ = itertools.count()


def _temp_path(path: Path, suffix: str = ".tmp") -> Path:
    """A same-directory temp name for one write of ``path``.

    The name carries the pid and a process-local counter, so concurrent
    writers of one artifact (threads, or forked pool workers) never
    share a temp file and never rename one another's bytes away. The
    leading dot keeps it out of the caches' ``<prefix>_*.npz`` globs.
    """
    return path.with_name(f".{path.name}.{os.getpid()}.{next(_TEMP_SEQ)}{suffix}")


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via an fsynced, uniquely named temp file
    in the same directory, then rename: ``path`` never exposes a torn
    write."""
    tmp = _temp_path(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def publish_artifact(path: Path, write: Callable[[Path], object]) -> None:
    """Create an artifact and its sidecar unless a writer got there first.

    ``write(tmp)`` produces the payload in a unique temp file
    (:func:`_temp_path`, ending in the artifact's own suffix so writers
    like ``np.savez`` keep the name). The temp is fsynced, as
    :func:`atomic_write_bytes` does, so ``path`` never names bytes that are
    not yet durable, and then hard-linked as ``path``, which fails if
    ``path`` exists: the first writer wins and
    writes the only sidecar, and a later writer of the same key discards
    its bytes. The artifact and sidecar therefore always describe one
    write, however many processes race on the key. Where hard links are
    unsupported the temp is renamed over ``path`` instead. The temp
    never outlives the call. The digest is streamed from the temp a
    block at a time, so publishing holds no second copy of the payload.

    A writer that loses the race checks the winner: when the winner's
    sidecar is already written and records another digest than the
    loser's bytes hash to, the published artifact is quarantined
    (:func:`quarantine_artifact`, a ``.reason`` naming both digests),
    so the next lookup misses and recomputes. Writers of one key are
    meant to produce the same bytes; a winner whose sidecar is not yet
    written is left alone. Only a losing writer pays for the check.
    """
    tmp = _temp_path(path, ".tmp" + path.suffix)
    try:
        write(tmp)
        with open(tmp, "rb") as fh:
            digest = _sha256_file(fh)
            os.fsync(fh.fileno())
        try:
            os.link(tmp, path)
        except FileExistsError:
            _check_winner(path, digest)
            return
        except OSError:
            os.replace(tmp, path)
        write_digest(path, digest)
    finally:
        tmp.unlink(missing_ok=True)


def _check_winner(path: Path, digest: str) -> None:
    """Quarantine the published ``path`` if its sidecar records another
    digest than ``digest``, the one a losing writer's bytes hash to."""
    try:
        winner = read_digest(path)
    except IntegrityError as exc:
        winner = f"unreadable ({exc})"
    if winner is None or winner == digest:
        return
    try:
        quarantine_artifact(
            path,
            reason=f"published digest {winner} differs from a concurrent "
            f"writer's {digest}",
        )
    except FileNotFoundError:  # another loser moved it first
        pass


def write_artifact(path: str | Path, data: bytes) -> Path:
    """Atomically write an artifact *and* its sha256 sidecar.

    The payload goes down via temp-then-rename (a crash mid-write can
    never leave a torn file under the final name), then the sidecar is
    written from the digest of the in-memory bytes. The artifact/sidecar
    pair therefore always agrees; a reader that observes the artifact
    without its fresh sidecar (crash between the two renames) falls back
    to trust-on-first-use or fails the digest check — never parses a
    half-written payload. Returns the artifact path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, data)
    write_digest(path, sha256_bytes(data))
    return path


def write_digest(path: str | Path, digest: str | None = None) -> Path:
    """Write the sha256 sidecar of an artifact, atomically.

    ``digest`` short-circuits the hash when the caller already computed
    it (e.g. over the bytes it just wrote); ``None`` hashes the file.
    Returns the sidecar path. The sidecar uses ``sha256sum`` format
    (``<hex>  <name>``) so standard tooling can check it too.
    """
    path = Path(path)
    if digest is None:
        with open(path, "rb") as fh:
            digest = _sha256_file(fh)
    side = digest_path(path)
    atomic_write_bytes(side, f"{digest}  {path.name}\n".encode("ascii"))
    return side


def read_digest(path: str | Path) -> str | None:
    """Recorded digest of an artifact, or ``None`` without a sidecar.

    A malformed sidecar raises :class:`IntegrityError` — a half-written
    or scribbled-on sidecar is itself corruption evidence.
    """
    side = digest_path(path)
    if not side.exists():
        return None
    text = side.read_text(errors="replace").strip()
    token = text.split()[0] if text else ""
    if len(token) != 64 or any(c not in "0123456789abcdef" for c in token):
        raise IntegrityError(f"malformed digest sidecar {side}: {text[:64]!r}")
    return token


#: Per-process memo of successful verifications: path -> (artifact
#: fingerprint, sidecar fingerprint, digest). A warm re-read of a file
#: whose stat fingerprints are unchanged since it last hashed clean
#: skips the sha256 pass entirely — the rsync-style quick check that
#: keeps digest overhead on warm cache hits in the noise (the
#: ``bench-resilience`` budget). Any rewrite bumps ``st_mtime_ns`` (or
#: the size/inode) and forces a full re-hash, so cross-process and
#: cross-leg corruption is always caught; the elision only trusts a
#: file this process already verified *and* that has not changed since.
_VERIFIED: OrderedDict[str, tuple] = OrderedDict()
_VERIFIED_MAX = 4096


def _fingerprint(path: Path) -> tuple | None:
    """Cheap change detector: ``(size, mtime_ns, inode)`` or ``None``."""
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_size, st.st_mtime_ns, st.st_ino)


def read_verified(path: str | Path) -> bytes:
    """Read an artifact's bytes, verifying the sidecar digest.

    Raises
    ------
    IntegrityError
        When the artifact is missing, or a sidecar exists and its digest
        does not match the bytes on disk (bit-flip, truncation, torn
        write). An artifact *without* a sidecar is returned unverified —
        trust-on-first-use for entries that predate the integrity layer;
        callers that parse the bytes still convert parse failures to
        :class:`IntegrityError`.

    Successful verifications are memoized per process against a stat
    fingerprint, so repeated warm reads of an unmodified artifact hash
    it once, not every time.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IntegrityError(f"unreadable artifact {path}: {exc}") from exc
    expected = read_digest(path)
    if expected is not None:
        key = str(path)
        fp = (_fingerprint(path), _fingerprint(digest_path(path)))
        memo = _VERIFIED.get(key)
        if (
            memo is not None
            and memo == (fp, expected)
            and fp[0] is not None
            and len(data) == fp[0][0]
        ):
            _VERIFIED.move_to_end(key)
            return data
        actual = sha256_bytes(data)
        if actual != expected:
            _VERIFIED.pop(key, None)
            raise IntegrityError(
                f"digest mismatch for {path}: stored {expected[:12]}..., "
                f"bytes hash to {actual[:12]}... "
                f"({len(data)} bytes on disk)"
            )
        _VERIFIED[key] = (fp, expected)
        while len(_VERIFIED) > _VERIFIED_MAX:
            _VERIFIED.popitem(last=False)
    return data


def verify_artifact(path: str | Path) -> bool:
    """Check an artifact against its sidecar without keeping the bytes.

    Returns ``True`` when verified, ``False`` when no sidecar exists;
    raises :class:`IntegrityError` on mismatch.
    """
    return read_digest(path) is not None and bool(read_verified(path))


def quarantine_artifact(
    path: str | Path,
    quarantine_dir: str | Path | None = None,
    reason: str = "",
) -> Path:
    """Move a damaged artifact aside — never delete it.

    The artifact and its sidecar (when present) are renamed into
    ``quarantine_dir`` (default: a ``quarantine/`` sibling of the
    artifact), uniquified with a numeric suffix if the name is taken. A
    ``<name>.reason`` note records why. Returns the quarantined
    artifact's new path.
    """
    path = Path(path)
    qdir = (
        Path(quarantine_dir)
        if quarantine_dir is not None
        else path.parent / QUARANTINE_DIRNAME
    )
    qdir.mkdir(parents=True, exist_ok=True)
    target = qdir / path.name
    n = 0
    while target.exists():
        n += 1
        target = qdir / f"{path.name}.{n}"
    os.replace(path, target)
    side = digest_path(path)
    if side.exists():
        os.replace(side, target.with_name(target.name + DIGEST_SUFFIX))
    if reason:
        target.with_name(target.name + ".reason").write_text(reason + "\n")
    return target

"""Concurrent writers of one artifact: processes racing on one key.

Pooled Phase-A workers share the disk K-L store, so two of them can
store the same basis at the same moment. Each writer must use its own
temp file; the store must end with one verified entry per key and no
temp files. Each writer reports exactly one outcome on a queue (``None``
or a traceback), which the parent drains before joining.
"""

import multiprocessing as mp
import traceback

import numpy as np

from repro.integrity import read_verified, write_artifact
from repro.seismo.klcache import KLCache
from repro.seismo.spectra import KarhunenLoeveBasis

N_WRITERS = 4
N_ROUNDS = 40

def _basis(round_: int) -> KarhunenLoeveBasis:
    rng = np.random.default_rng(round_)
    return KarhunenLoeveBasis(
        eigenvalues=np.sort(rng.random(8))[::-1].copy(),
        eigenvectors=rng.random((64, 8)),
    )


def _kl_writer(cache_dir, barrier, outcomes) -> None:
    try:
        for round_ in range(N_ROUNDS):
            cache = KLCache(cache_dir=cache_dir)
            barrier.wait()
            cache.put(f"key{round_:02d}", _basis(round_))
    except Exception:  # noqa: BLE001 - reported to the parent
        outcomes.put(traceback.format_exc())
        barrier.abort()  # release the other writers at once
    else:
        outcomes.put(None)


def _artifact_writer(path, barrier, outcomes) -> None:
    try:
        for round_ in range(N_ROUNDS):
            barrier.wait()
            write_artifact(path, f"round {round_}\n".encode() * 64)
    except Exception:  # noqa: BLE001 - reported to the parent
        outcomes.put(traceback.format_exc())
        barrier.abort()  # release the other writers at once
    else:
        outcomes.put(None)


def _race(target, *args) -> list[str]:
    """Run ``N_WRITERS`` processes of ``target``; return their errors."""
    ctx = mp.get_context("spawn")
    barrier = ctx.Barrier(N_WRITERS, timeout=60)
    outcomes = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(*args, barrier, outcomes))
        for _ in range(N_WRITERS)
    ]
    for proc in procs:
        proc.start()
    reported = [outcomes.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0
    return [error for error in reported if error is not None]


def test_racing_kl_puts_leave_one_verified_entry_per_key(tmp_path):
    assert _race(_kl_writer, str(tmp_path)) == []
    cache = KLCache(cache_dir=tmp_path)
    assert sorted(cache.disk_keys()) == [f"key{r:02d}" for r in range(N_ROUNDS)]
    for round_ in range(N_ROUNDS):
        path = cache.disk_path(f"key{round_:02d}")
        read_verified(path)  # raises on a payload/sidecar mismatch
        basis = cache.get(f"key{round_:02d}")
        np.testing.assert_array_equal(basis.eigenvectors, _basis(round_).eigenvectors)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert not [n for n in names if ".tmp" in n]
    assert len(names) == 2 * N_ROUNDS  # entries and their sidecars


def test_racing_artifact_writes_never_share_a_temp(tmp_path):
    path = tmp_path / "catalog.json"
    assert _race(_artifact_writer, path) == []
    assert read_verified(path) == f"round {N_ROUNDS - 1}\n".encode() * 64
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "catalog.json",
        "catalog.json.sha256",
    ]

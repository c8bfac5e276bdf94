"""Zero-copy sharing of a Green's-function bank across worker processes.

:func:`publish_shared_bank` copies a bank's two large arrays into
``multiprocessing.shared_memory`` segments and returns a small picklable
:class:`SharedBankHandle`; :func:`attach_shared_bank` maps them in a
worker as read-only arrays. A process pool synthesizing Phase-C chunks
so reads one physical copy instead of rebuilding
O(n_stations x n_subfaults) arrays per worker per chunk. A mapped
segment is closed once no array views it, so whoever holds the
attached bank decides how long the mapping lives.

The module needs numpy and the standard library only (the bank class
is imported where a worker builds one), so :mod:`repro.core.local`
binds these names at import without loading the seismic stack.
:mod:`repro.core.gfcache` re-exports them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CacheError

if TYPE_CHECKING:
    from repro.seismo.greens import GreensFunctionBank

__all__ = [
    "SharedBankHandle",
    "publish_shared_bank",
    "attach_shared_bank",
]


@dataclass(frozen=True)
class SharedBankHandle:
    """Picklable descriptor of a bank published into shared memory.

    Small enough to travel in every pool task; a worker attaches the
    named segments once per session (:mod:`repro.core.local`).
    """

    key: str
    statics_name: str
    travel_name: str
    statics_shape: tuple[int, int, int]
    travel_shape: tuple[int, int]
    dtype: str
    station_names: tuple[str, ...]
    fault_name: str


def publish_shared_bank(
    bank: GreensFunctionBank, key: str
) -> tuple[SharedBankHandle, list[shared_memory.SharedMemory]]:
    """Copy a bank's arrays into shared-memory segments.

    Returns the picklable handle plus the segment objects; the caller
    owns the segments and must ``close()``/``unlink()`` them when the
    pool is done (:class:`repro.core.local.LocalRunner` does this).
    """
    segments: list[shared_memory.SharedMemory] = []

    def _publish(arr: np.ndarray) -> shared_memory.SharedMemory:
        src = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(create=True, size=max(1, src.nbytes))
        dst = np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf)
        dst[...] = src
        segments.append(shm)
        return shm

    if bank.statics.dtype != bank.travel_time_s.dtype:
        raise CacheError(
            "statics and travel times must share a dtype to be published, "
            f"got {bank.statics.dtype} / {bank.travel_time_s.dtype}"
        )
    statics_shm = _publish(bank.statics)
    travel_shm = _publish(bank.travel_time_s)
    handle = SharedBankHandle(
        key=key,
        statics_name=statics_shm.name,
        travel_name=travel_shm.name,
        statics_shape=tuple(bank.statics.shape),  # type: ignore[arg-type]
        travel_shape=tuple(bank.travel_time_s.shape),  # type: ignore[arg-type]
        dtype=str(bank.statics.dtype),
        station_names=tuple(bank.station_names),
        fault_name=bank.fault_name,
    )
    return handle, segments


def _view(shm: shared_memory.SharedMemory, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """A read-only array over a segment that closes the segment once no
    array views it.

    Every view of the array keeps the array as its base, so the
    finalizer runs only after the last view is gone: closing under a
    live view would unmap memory the view still reads.
    """
    arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    arr.flags.writeable = False
    weakref.finalize(arr, _close, shm).atexit = False
    return arr


def _close(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except OSError:  # pragma: no cover - platform-dependent teardown
        pass


def attach_shared_bank(handle: SharedBankHandle) -> GreensFunctionBank:
    """Map a published bank in this process.

    The returned bank's arrays are **read-only views** over the shared
    segments — concurrent readers cannot corrupt them, and no copy of
    the O(n_stations x n_subfaults) data is made. Each call maps the
    segments anew; the mapping closes once the bank and every view of
    its arrays are gone.
    """
    from repro.seismo.greens import GreensFunctionBank

    try:
        statics_shm = shared_memory.SharedMemory(name=handle.statics_name)
        travel_shm = shared_memory.SharedMemory(name=handle.travel_name)
    except FileNotFoundError as exc:
        raise CacheError(
            f"shared GF bank {handle.key[:12]} is gone (segments unlinked?)"
        ) from exc
    dtype = np.dtype(handle.dtype)
    return GreensFunctionBank(
        statics=_view(statics_shm, handle.statics_shape, dtype),
        travel_time_s=_view(travel_shm, handle.travel_shape, dtype),
        station_names=handle.station_names,
        fault_name=handle.fault_name,
    )

"""Zero-copy sharing of a Green's-function bank across worker processes.

:func:`publish_shared_bank` copies a bank's two large arrays into
``multiprocessing.shared_memory`` segments and returns a small picklable
:class:`SharedBankHandle`; :func:`attach_shared_bank` maps them in a
worker as read-only arrays, once per process. A process pool
synthesizing Phase-C chunks so reads one physical copy instead of
rebuilding O(n_stations x n_subfaults) arrays per worker per chunk.

The module needs numpy and the standard library only (the bank class
is imported where a worker builds one), so :mod:`repro.core.local`
binds these names at import without loading the seismic stack.
:mod:`repro.core.gfcache` re-exports them.
"""

from __future__ import annotations

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
    "detach_shared_banks",
]


@dataclass(frozen=True)
class SharedBankHandle:
    """Picklable descriptor of a bank published into shared memory.

    Small enough to travel in every pool task; workers attach the named
    segments once and cache the attachment for the life of the process.
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


#: Worker-side attachment cache: handle key -> (bank, segments). Kept for
#: the life of the worker process so each bank is mapped exactly once.
_ATTACHED: dict[str, tuple[GreensFunctionBank, list[shared_memory.SharedMemory]]] = {}


def attach_shared_bank(handle: SharedBankHandle) -> GreensFunctionBank:
    """Map a published bank in this process (idempotent per key).

    The returned bank's arrays are **read-only views** over the shared
    segments — concurrent readers cannot corrupt them, and no copy of
    the O(n_stations x n_subfaults) data is made.
    """
    cached = _ATTACHED.get(handle.key)
    if cached is not None:
        return cached[0]
    from repro.seismo.greens import GreensFunctionBank

    try:
        statics_shm = shared_memory.SharedMemory(name=handle.statics_name)
        travel_shm = shared_memory.SharedMemory(name=handle.travel_name)
    except FileNotFoundError as exc:
        raise CacheError(
            f"shared GF bank {handle.key[:12]} is gone (segments unlinked?)"
        ) from exc
    dtype = np.dtype(handle.dtype)
    statics = np.ndarray(handle.statics_shape, dtype=dtype, buffer=statics_shm.buf)
    travel = np.ndarray(handle.travel_shape, dtype=dtype, buffer=travel_shm.buf)
    statics.flags.writeable = False
    travel.flags.writeable = False
    bank = GreensFunctionBank(
        statics=statics,
        travel_time_s=travel,
        station_names=handle.station_names,
        fault_name=handle.fault_name,
    )
    _ATTACHED[handle.key] = (bank, [statics_shm, travel_shm])
    return bank


def detach_shared_banks() -> None:
    """Drop this process's attachments (close segments, keep them linked)."""
    for _, segments in _ATTACHED.values():
        for shm in segments:
            try:
                shm.close()
            except OSError:  # pragma: no cover - platform-dependent teardown
                pass
    _ATTACHED.clear()

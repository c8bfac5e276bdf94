"""Zero-copy sharing of a Green's-function bank across worker processes.

The bank of a pooled run lives in two ``multiprocessing.shared_memory``
segments, its statics and its travel times, written by one process and
read by every other:

* :func:`publish_shared_bank` creates the segments, unfilled, and
  returns a small picklable :class:`SharedBankHandle` naming them. The
  process that calls it owns the segments and unlinks them when its
  pool is done (:class:`repro.core.local.LocalRunner`, the pool's
  parent, which never maps a bank itself).
* :func:`open_shared_bank` maps them writable in the one process that
  fills them: the pool worker running Phase B builds the bank, or
  copies a cached one, straight into these arrays.
* :func:`attach_shared_bank` maps them read-only in every Phase-C
  worker once the filler has returned.

A Phase-C chunk so reads one physical copy instead of rebuilding
O(n_stations x n_subfaults) arrays per worker per chunk. A mapped
segment is closed once no array views it, so whoever holds the mapped
arrays decides how long the mapping lives.

The module needs numpy and the standard library only (the bank class
is imported where a worker builds one), so :mod:`repro.core.local`
binds these names at import without loading the seismic stack.
:mod:`repro.core.gfcache` re-exports them.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
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
    "open_shared_bank",
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
    key: str,
    shape: tuple[int, int],
    dtype: str,
    station_names: Sequence[str],
    fault_name: str,
) -> tuple[SharedBankHandle, list[shared_memory.SharedMemory]]:
    """Create the unfilled segments of the bank ``key`` names.

    ``shape`` is ``(n_stations, n_subfaults)``; the segments hold the
    ``(n_stations, n_subfaults, 3)`` statics and the travel times in
    ``dtype``. Creating them touches no page: memory is taken as the
    filler writes (:func:`open_shared_bank`), and readers attach only
    after it has returned. Returns the picklable handle plus the
    segment objects; the caller owns the segments and must
    ``close()``/``unlink()`` them when the pool is done.
    """
    n_stations, n_subfaults = shape
    itemsize = np.dtype(dtype).itemsize
    segments: list[shared_memory.SharedMemory] = []
    try:
        for n_values in (n_stations * n_subfaults * 3, n_stations * n_subfaults):
            segments.append(
                shared_memory.SharedMemory(create=True, size=max(1, n_values * itemsize))
            )
    except OSError:
        for shm in segments:
            shm.close()
            shm.unlink()
        raise
    statics_shm, travel_shm = segments
    handle = SharedBankHandle(
        key=key,
        statics_name=statics_shm.name,
        travel_name=travel_shm.name,
        statics_shape=(n_stations, n_subfaults, 3),
        travel_shape=(n_stations, n_subfaults),
        dtype=str(np.dtype(dtype)),
        station_names=tuple(station_names),
        fault_name=fault_name,
    )
    return handle, segments


def _view(shm: shared_memory.SharedMemory, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """An array over a segment that closes the segment once no array
    views it.

    Every view of the array keeps the array as its base, so the
    finalizer runs only after the last view is gone: closing under a
    live view would unmap memory the view still reads.
    """
    arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    weakref.finalize(arr, _close, shm).atexit = False
    return arr


def _close(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except OSError:  # pragma: no cover - platform-dependent teardown
        pass


def open_shared_bank(handle: SharedBankHandle) -> tuple[np.ndarray, np.ndarray]:
    """Map a published bank writable, for the one process that fills it.

    Returns the ``(statics, travel_time_s)`` arrays, shaped and typed as
    the handle says, for a bank builder's ``out`` (see
    :meth:`repro.core.gfcache.GFCache.get_or_compute`). The mapping
    closes once both arrays and every view of them are gone.
    """
    try:
        statics_shm = shared_memory.SharedMemory(name=handle.statics_name)
        travel_shm = shared_memory.SharedMemory(name=handle.travel_name)
    except FileNotFoundError as exc:
        raise CacheError(
            f"shared GF bank {handle.key[:12]} is gone (segments unlinked?)"
        ) from exc
    dtype = np.dtype(handle.dtype)
    return (
        _view(statics_shm, handle.statics_shape, dtype),
        _view(travel_shm, handle.travel_shape, dtype),
    )


def attach_shared_bank(handle: SharedBankHandle) -> GreensFunctionBank:
    """Map a filled bank in this process.

    The returned bank's arrays are **read-only views** over the shared
    segments — concurrent readers cannot corrupt them, and no copy of
    the O(n_stations x n_subfaults) data is made. Each call maps the
    segments anew; the mapping closes once the bank and every view of
    its arrays are gone.
    """
    from repro.seismo.greens import GreensFunctionBank

    statics, travel = open_shared_bank(handle)
    statics.flags.writeable = travel.flags.writeable = False
    return GreensFunctionBank(
        statics=statics,
        travel_time_s=travel,
        station_names=handle.station_names,
        fault_name=handle.fault_name,
    )

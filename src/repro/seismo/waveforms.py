"""Kinematic GNSS waveform synthesis (the FDW Phase-C kernel).

Each subfault of a rupture contributes its static displacement through a
smooth slip ramp that arrives at ``onset + travel_time``; summing the
lagged, slip-weighted contributions over the patch gives the 3-component
displacement time series at every station — the characteristic "step
with overshoot-free ramp" shape of high-rate GNSS records of large
earthquakes. Optionally, realistic GNSS noise (white + random walk) is
added, following the noise characterization of Melgar et al. (2020).

Each station's record is one matmul over a (subfaults x samples) ramp
plane, taken over the station's active span only: from just before its
first arrival to just after its last ramp ends, outside which the
record is flat. Cost scales as O(n_stations * n_patch * span) — the
station-count scaling the paper's Phase C job runtimes exhibit (15-20
min at 121 stations vs. <1 min at 2).

Products (:meth:`WaveformSet.save`) exploit that shape. A clean record
is exactly zero until its first arrival and holds its final offset once
the last ramp ends, so each (station, component) record is stored as
the span from its first non-zero sample to its last changing one, in an
uncompressed ``.npz``:

============== ==================================================
key            content
============== ==================================================
rupture_id     0-d string
dt_s           0-d float
station_names  (n_stations,) strings
shape          ``(n_stations, 3, n_samples)``
first, stop    (n_records,) int32: the span ``[first, stop)``
final          (n_records,) the record's last sample
samples        the spans concatenated in record order
============== ==================================================

Records are ordered station-major, component-minor. ``first`` and
``stop`` compare bit patterns, not values: ``first`` is the first
sample that is not ``+0.0`` and ``stop`` one past the last sample whose
bits differ from the final sample's, so ``-0.0`` is stored as a sample.
A decoded record is ``+0.0`` before ``first``, the span, then ``final``
from ``stop`` on: the original bits, in the original dtype. A noisy
record never settles, so every sample but the last lands in its span:
it is stored raw, in the same layout. Clean products keep about a
quarter of their samples.
:meth:`WaveformSet.load` also reads the layout written before trimming
(one deflated ``data`` member).
"""

from __future__ import annotations

import io
import sys
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import WaveformError
from repro.seismo.greens import GreensFunctionBank
from repro.seismo.ruptures import Rupture

__all__ = ["WaveformSet", "WaveformSynthesizer", "GnssNoiseModel"]

COMPONENTS = ("east", "north", "up")


@dataclass(frozen=True)
class GnssNoiseModel:
    """Additive GNSS position-noise model.

    White noise plus a random-walk component, the standard first-order
    description of real-time GNSS position error.

    Attributes
    ----------
    white_sigma_m:
        Standard deviation of the per-sample white component (m).
    walk_sigma_m:
        Per-sqrt(second) amplitude of the random walk (m/sqrt(s)).
    """

    white_sigma_m: float = 0.005
    walk_sigma_m: float = 0.0005

    def __post_init__(self) -> None:
        if self.white_sigma_m < 0 or self.walk_sigma_m < 0:
            raise WaveformError("noise amplitudes must be non-negative")

    def sample(
        self, rng: np.random.Generator, shape: tuple[int, ...], dt_s: float
    ) -> np.ndarray:
        """Noise realization with time as the last axis."""
        white = rng.normal(0.0, self.white_sigma_m, shape)
        steps = rng.normal(0.0, self.walk_sigma_m * np.sqrt(dt_s), shape)
        walk = np.cumsum(steps, axis=-1)
        return white + walk


@dataclass(frozen=True)
class WaveformSet:
    """Synthesized displacement waveforms for one rupture.

    Attributes
    ----------
    rupture_id:
        Id of the generating rupture.
    data:
        (n_stations, 3, n_samples) displacement in metres; component
        axis ordered (east, north, up).
    dt_s:
        Sample interval in seconds (1.0 for 1 Hz GNSS).
    station_names:
        Axis-0 labels.
    """

    rupture_id: str
    data: np.ndarray
    dt_s: float
    station_names: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.data.ndim != 3 or self.data.shape[1] != 3:
            raise WaveformError(f"data must be (nsta, 3, nt), got {self.data.shape}")
        if self.data.shape[2] < 1:
            raise WaveformError("records must hold at least one sample")
        if len(self.station_names) != self.data.shape[0]:
            raise WaveformError("station_names length != data stations axis")
        if self.dt_s <= 0:
            raise WaveformError(f"dt must be positive, got {self.dt_s}")
        if not np.all(np.isfinite(self.data)):
            raise WaveformError("waveforms contain non-finite values")

    @property
    def n_stations(self) -> int:
        """Number of stations."""
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of time samples."""
        return self.data.shape[2]

    @property
    def times_s(self) -> np.ndarray:
        """Sample times in seconds from rupture origin."""
        return np.arange(self.n_samples) * self.dt_s

    def pgd_m(self) -> np.ndarray:
        """Peak ground displacement per station: max 3-D vector norm.

        The squared components are summed into one (n_stations,
        n_samples) buffer, east, then north, then up: the additions
        ``np.sum(data**2, axis=1)`` makes, in its order, without a
        squared copy of the whole record.
        """
        data = self.data
        norm = np.square(data[:, 0, :])
        square = np.empty_like(norm)
        for component in (1, 2):
            norm += np.square(data[:, component, :], out=square)
        return np.max(np.sqrt(norm, out=norm), axis=1)

    def station(self, name: str) -> np.ndarray:
        """(3, n_samples) series for one station by code."""
        try:
            idx = self.station_names.index(name)
        except ValueError:
            raise WaveformError(f"station {name!r} not in waveform set") from None
        return self.data[idx]

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the per-rupture product file to ``path`` and return it.

        Each record is trimmed to its changing span and stored
        uncompressed (the layout in the module docstring); the file is
        written at ``path`` as given, whatever its suffix.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = np.ascontiguousarray(self.data).reshape(-1, self.n_samples)
        bits = records.view(f"u{records.itemsize}")
        first = (bits != 0).argmax(axis=1)
        # Scan each record backwards for its last sample that differs
        # from the final one; a record that never differs has stop 0.
        backward = bits[:, ::-1]
        moving = backward != backward[:, :1]
        back = moving.argmax(axis=1)
        stop = np.where(moving[np.arange(len(back)), back], self.n_samples - back, 0)
        # Serialized in memory and written with one call: on a file,
        # np.savez seeks back to patch each member's header, and every
        # seek flushes the file's buffer.
        buffer = io.BytesIO()
        np.savez(
            buffer,
            rupture_id=np.array(self.rupture_id),
            dt_s=np.array(self.dt_s),
            station_names=np.array(self.station_names),
            shape=np.array(self.data.shape),
            first=first.astype(np.int32),
            stop=stop.astype(np.int32),
            final=records[:, -1],
            samples=records.reshape(-1)[_span_index(first, stop, self.n_samples)],
        )
        with open(path, "wb") as fh:
            fh.write(buffer.getbuffer())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "WaveformSet":
        """Read a product written by :meth:`save`, in either layout.

        Every member is read whole, so its CRC-32 is checked, and the
        trimmed layout's arrays are checked against each other before
        decoding.

        Raises
        ------
        WaveformError
            If the file is missing or is not a well-formed product.
        """
        path = Path(path)
        if not path.exists():
            raise WaveformError(f"waveform file not found: {path}")
        try:
            with zipfile.ZipFile(path) as zf:
                arrays = {
                    name.removesuffix(".npy"): np.lib.format.read_array(
                        io.BytesIO(zf.read(name)), allow_pickle=False
                    )
                    for name in zf.namelist()
                }
            return cls(
                rupture_id=str(arrays["rupture_id"]),
                data=_decode(arrays),
                dt_s=float(arrays["dt_s"]),
                station_names=tuple(str(n) for n in arrays["station_names"]),
            )
        except (WaveformError, *_PARSE_ERRORS) as exc:
            raise WaveformError(
                f"malformed waveform product {path}: {type(exc).__name__}: {exc}"
            ) from exc


#: What parsing a damaged or foreign ``.npz`` can raise: the zip
#: container (a CRC-32 mismatch included), a member compressed with an
#: unknown or encrypted method, and the ``.npy`` headers and payloads.
_PARSE_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, OSError,
    KeyError, RuntimeError, TypeError, ValueError,
)


def _span_index(first: np.ndarray, stop: np.ndarray, n_samples: int) -> np.ndarray:
    """Flat indices of every record's span ``[first, stop)``, record after
    record, into the (n_records, n_samples) records."""
    lengths = stop - first
    ends = np.cumsum(lengths)
    shift = np.arange(len(first)) * n_samples + first - (ends - lengths)
    return np.repeat(shift, lengths) + np.arange(lengths.sum())


def _decode(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The (n_stations, 3, n_samples) records of a product's members."""
    if "data" in arrays:  # the deflated whole-record layout
        data = arrays["data"]
        if data.dtype.kind != "f":
            raise WaveformError(f"records must be floats, got {data.dtype}")
        return data
    shape, first, stop, final, samples = (
        arrays[key] for key in ("shape", "first", "stop", "final", "samples")
    )
    if (
        shape.shape != (3,) or shape.dtype.kind not in "iu"
        or shape[0] < 0 or shape[1] != 3 or shape[2] < 1
    ):
        raise WaveformError(f"shape must be (n_stations, 3, n_samples >= 1), got {shape}")
    n_records, n_samples = int(shape[0]) * 3, int(shape[2])
    for name, bound in (("first", first), ("stop", stop)):
        if bound.shape != (n_records,) or bound.dtype.kind != "i":
            raise WaveformError(f"{name} must hold one integer per record")
    if not (np.all(first >= 0) and np.all(first <= stop) and np.all(stop <= n_samples)):
        raise WaveformError(f"spans must satisfy 0 <= first <= stop <= {n_samples}")
    if final.shape != (n_records,):
        raise WaveformError("final must hold one value per record")
    if final.dtype.kind != "f" or samples.dtype != final.dtype or samples.ndim != 1:
        raise WaveformError(
            f"final and samples must share a float dtype, got {final.dtype}/{samples.dtype}"
        )
    if samples.size != int(np.sum(stop - first, dtype=np.int64)):
        raise WaveformError("samples must hold exactly the spans")
    records = np.where(
        np.arange(n_samples) >= stop[:, None], final[:, None], np.zeros((), final.dtype)
    )
    records.reshape(-1)[_span_index(first, stop, n_samples)] = samples
    return records.reshape(int(shape[0]), 3, n_samples)


#: Stations whose rise windows are located and evaluated together. A
#: block amortizes the per-call cost of the window arithmetic while its
#: temporaries stay near 1 MB; the planes themselves are built one
#: station at a time, so each stays in cache from its gather to its
#: matmul.
_STATION_BLOCK = 8


def _ramp(x: np.ndarray) -> np.ndarray:
    """The cosine slip ramp ``0.5 * (1 - cos(pi * x))``, in place on ``x``.

    This is the integral shape of a raised-cosine slip-rate pulse — a
    smooth, band-limited source time function appropriate for 1 Hz GNSS
    displacement synthesis.

    For ``0 <= x <= 1`` these are the IEEE operations of the dense
    plane's ``0.5 * (1.0 - np.cos(np.pi * np.clip(x, 0.0, 1.0)))``, in
    the same order and dtype. Each is elementwise, so a cell's value does
    not depend on which other cells are evaluated with it.
    """
    np.multiply(np.pi, x, out=x)
    np.cos(x, out=x)
    np.subtract(1.0, x, out=x)
    np.multiply(0.5, x, out=x)
    return x


#: Random columns of the plane :func:`_spans_exact` probes with.
_PROBE_COLUMNS = 16

#: Per (dtype, patch size): the longest record known to allow narrow
#: products and the shortest known not to (see :func:`_spans_exact`).
#: The answers describe the process's BLAS, so the process keeps them;
#: they decide how records are computed, never their values.
_SPAN_BOUNDS: dict[tuple[np.dtype, int], list[int]] = {}


def _spans_exact(dtype: np.dtype, n_patch: int, nt: int) -> bool:
    """Whether BLAS computes a column of ``weights.T @ plane`` the same
    way for every plane width from 2 to ``nt`` columns.

    Only then do a record's active-span products equal its full-width
    ones. It is not so everywhere: OpenBLAS 0.3.31 on SkylakeX (numpy
    2.4.6) sums a column in one chain when ``3 * n_patch * columns <=
    10**6``, and in blocks of 384 (float64) or 448 (float32) subfaults
    above that, so a wider patch's columns then round differently. A
    probe multiplies random weights by a plane whose first
    :data:`_PROBE_COLUMNS` columns are random and the rest zero, at
    full width and two columns at a time, and compares the bits. Its
    answer covers every width in between, and every shorter (or, when
    it fails, longer) record of the same patch size, when the BLAS
    picks its method by a size that grows with the width, as OpenBLAS
    does; :data:`_SPAN_BOUNDS` keeps those answers.
    """
    bounds = _SPAN_BOUNDS.setdefault((dtype, n_patch), [2, sys.maxsize])
    if nt <= bounds[0] or nt >= bounds[1]:
        return nt <= bounds[0]
    rng = np.random.default_rng(0)
    weights = rng.random((n_patch, 3)).astype(dtype)
    plane = np.zeros((n_patch, nt), dtype)
    probe = min(nt, _PROBE_COLUMNS)
    plane[:, :probe] = rng.random((n_patch, probe))
    wide = np.matmul(weights.T, plane)
    bits = f"u{dtype.itemsize}"
    exact = all(
        np.array_equal(
            np.matmul(weights.T, np.ascontiguousarray(plane[:, j : j + 2])).view(bits),
            wide[:, j : j + 2].view(bits),
        )
        for j in range(0, probe - 1, 2)
    )
    bounds[0 if exact else 1] = nt
    return exact


class WaveformSynthesizer:
    """Phase-C kernel: rupture + GF bank -> station waveforms.

    Parameters
    ----------
    gf_bank:
        Precomputed Green's functions for the full fault mesh.
    dt_s:
        Output sample interval (1 s for high-rate GNSS).
    duration_s:
        Record length; ``None`` sizes it from the source duration plus
        the slowest travel time plus a tail.
    noise:
        Optional additive noise model; omit for clean synthetics.
    """

    def __init__(
        self,
        gf_bank: GreensFunctionBank,
        dt_s: float = 1.0,
        duration_s: float | None = None,
        noise: GnssNoiseModel | None = None,
    ) -> None:
        if dt_s <= 0:
            raise WaveformError(f"dt must be positive, got {dt_s}")
        if duration_s is not None and duration_s <= 0:
            raise WaveformError(f"duration must be positive, got {duration_s}")
        self.gf_bank = gf_bank
        self.dt_s = float(dt_s)
        self.duration_s = duration_s
        self.noise = noise

    @property
    def _work_dtype(self) -> np.dtype:
        """Dtype the synthesis runs in — the bank's own dtype.

        A float32 bank keeps the whole ramp/matmul pipeline in float32
        (half the memory traffic, sgemm instead of dgemm); float64 banks
        keep the historical bit-exact pipeline.
        """
        return self.gf_bank.statics.dtype

    def _record_length(self, rupture: Rupture, patch_tt: np.ndarray) -> int:
        if self.duration_s is not None:
            return max(2, int(np.ceil(self.duration_s / self.dt_s)))
        t_end = rupture.duration_s + float(np.max(patch_tt)) + 60.0
        return max(2, int(np.ceil(t_end / self.dt_s)) + 1)

    def synthesize(
        self,
        rupture: Rupture,
        rng: np.random.Generator | None = None,
    ) -> WaveformSet:
        """Synthesize the waveform set for one rupture.

        A one-rupture :meth:`synthesize_batch`.

        Raises
        ------
        WaveformError
            If the rupture references subfaults outside the GF bank, or
            noise is configured but no ``rng`` is supplied.
        """
        return self.synthesize_batch([rupture], rngs=rng)[0]

    def synthesize_batch(
        self,
        ruptures: list[Rupture],
        rngs: list[np.random.Generator | None]
        | np.random.Generator
        | None = None,
    ) -> list[WaveformSet]:
        """Phase-C kernel: synthesize the waveform sets of a chunk.

        Every rupture is validated (:meth:`check_batch`) before any is
        synthesized. Products are bit-identical to the dense per-station
        loop that evaluates every cell of every ramp plane (see
        :meth:`_clean_records`), and each depends only on its own
        rupture and generator, so a chunk's products equal those of
        one-rupture batches.

        Parameters
        ----------
        rngs:
            ``None`` (clean synthetics), one shared generator (noise
            drawn per rupture in catalog order, matching a
            :meth:`synthesize` loop), or one generator per rupture
            (the chunk-job mode where each rupture owns a keyed noise
            stream).

        Raises
        ------
        WaveformError
            As :meth:`check_batch`.
        """
        rng_list = self.check_batch(ruptures, rngs)
        return [self._synthesize_one(r, rng) for r, rng in zip(ruptures, rng_list)]

    def check_batch(
        self,
        ruptures: list[Rupture],
        rngs: list[np.random.Generator | None]
        | np.random.Generator
        | None = None,
    ) -> list[np.random.Generator | None]:
        """Validate a chunk; return the generator of each rupture.

        ``rngs`` takes the forms :meth:`synthesize_batch` accepts.

        Raises
        ------
        WaveformError
            If a rupture references subfaults outside the GF bank, the
            ``rngs`` list does not match the chunk, or noise is
            configured but a rupture has no generator.
        """
        if isinstance(rngs, np.random.Generator) or rngs is None:
            rng_list: list[np.random.Generator | None] = [rngs] * len(ruptures)
        else:
            rng_list = list(rngs)
            if len(rng_list) != len(ruptures):
                raise WaveformError(
                    f"got {len(rng_list)} rngs for {len(ruptures)} ruptures"
                )
        n_subfaults = self.gf_bank.n_subfaults
        for rupture in ruptures:
            patch = rupture.subfault_indices
            if patch.min() < 0 or patch.max() >= n_subfaults:
                raise WaveformError(
                    f"rupture {rupture.rupture_id} patch indices span "
                    f"{patch.min()}..{patch.max()}, outside GF bank with "
                    f"{n_subfaults} subfaults"
                )
        if self.noise is not None and any(r is None for r in rng_list):
            raise WaveformError("noise model configured but no rng supplied")
        return rng_list

    def _synthesize_one(
        self, rupture: Rupture, rng: np.random.Generator | None
    ) -> WaveformSet:
        """The waveform set of one validated rupture."""
        data = self._clean_records(rupture)
        if self.noise is not None:
            # The float64 draw is added in float64 and rounded once
            # into the working dtype.
            data += self.noise.sample(rng, data.shape, self.dt_s)  # type: ignore[arg-type]
        return WaveformSet(
            rupture_id=rupture.rupture_id,
            data=data,
            dt_s=self.dt_s,
            station_names=self.gf_bank.station_names,
            metadata={"target_mw": rupture.target_mw},
        )

    def _clean_records(self, rupture: Rupture) -> np.ndarray:
        """(n_stations, 3, nt) noise-free displacement of one rupture.

        Station ``i`` records ``(gf[i] * slip).T @ plane``. Row ``j`` of
        the (npatch, nt) ramp plane is subfault ``j``'s slip ramp
        ``T(clip((t - a) / rise, 0, 1))``, with ``T`` from :func:`_ramp`
        and ``a = onset + travel time`` its arrival at the station. A
        row is ``T(0)`` up to its arrival and ``T(1)`` once ``t - a``
        reaches the rise time (0 and 1 in IEEE arithmetic). Only the
        ~rise/dt samples in between need the division and the cosine.
        Each row's window is located on the record's own times:

        * ``lo``, the first sample with ``t > a``. Before it
          ``fl(t - a) <= 0``, so the clipped ratio is 0; from it on the
          ratio is positive.
        * ``hi``, the first sample with ``t >= fl(a + rise)``, plus one.
          From ``hi`` on, ``t - a >= rise`` even after the sum was
          rounded, because one sample spacing is far wider than half an
          ulp of ``a + rise``. Rounding is monotone, so the ratio is at
          least ``fl(rise / rise) = 1``.

        Only a station's active span of columns is built and multiplied:
        from one column before its earliest ``lo`` to one column after
        its latest ``hi``, and at least two columns (a one-column product
        may go to gemv). The columns before the span are all ``T(0)``,
        like the span's first, and those after it all ``T(1)``, like its
        last, so the record is filled there with copies of those two
        product columns: the bits BLAS gives such a column, zero signs
        included. That holds while BLAS computes a product column the
        same way whatever the number of columns in the call;
        :func:`_spans_exact` probes this for the record's dtype and
        shape, and where it fails every span is the whole record.

        A span plane starts as a gather of step rows, ``T(0)`` before
        ``lo`` and ``T(1)`` from ``lo`` on. One flat scatter then writes
        every window cell as ``T(min(ratio, 1))``, by the dense path's
        own subtract, divide and :func:`_ramp`: in the window ``t > a``,
        so the ratio is positive and the clip is a minimum. Every cell
        holds the value the dense plane holds, and the matmul gets the
        dense layout (Fortran-ordered ``(3, npatch)`` weights, a
        C-contiguous plane), so each product column has the dense bits.
        Windows are evaluated, and the bank's statics gathered and
        weighted, :data:`_STATION_BLOCK` stations at a time.
        """
        bank = self.gf_bank
        work = self._work_dtype
        patch = rupture.subfault_indices
        tt = bank.travel_time_s[:, patch]  # (nsta, npatch)
        nt = self._record_length(rupture, tt)
        times = (np.arange(nt) * self.dt_s).astype(work, copy=False)
        slip = rupture.slip_m.astype(work, copy=False)
        onset = rupture.onset_time_s.astype(work, copy=False)
        rise = np.maximum(rupture.rise_time_s, self.dt_s * 0.5).astype(
            work, copy=False
        )
        # steps[nt + s - e, :w] is columns [s, s + w) of a row that is
        # T(0) before column e and T(1) from e on.
        plateaus = _ramp(np.array([0.0, 1.0], dtype=work))
        steps = sliding_window_view(np.repeat(plateaus, nt), nt)

        n_sta, n_patch = tt.shape
        narrow = _spans_exact(work, n_patch, nt)
        out = np.empty((n_sta, 3, nt), dtype=work)
        for start in range(0, n_sta, _STATION_BLOCK):
            stop = min(start + _STATION_BLOCK, n_sta)
            arrival = onset + tt[start:stop]  # (b, npatch)
            lo = np.searchsorted(times, arrival, side="right")
            hi = np.searchsorted(times, arrival + rise, side="left") + 1
            np.minimum(hi, nt, out=hi)
            # Each station's span [begin, end), the whole record where
            # narrow products would round differently, and where its
            # plane starts in the block's planes laid end to end.
            if narrow:
                begin = np.clip(lo.min(axis=1) - 1, 0, nt - 2)
                end = np.maximum(np.minimum(hi.max(axis=1) + 1, nt), begin + 2)
            else:
                begin, end = np.zeros_like(lo[:, 0]), np.full_like(lo[:, 0], nt)
            base = np.concatenate(([0], np.cumsum((end - begin) * n_patch)))

            # Window cells [lo, hi) of every row of the block, row by row:
            # ``col`` is a cell's column, then its index into the block's
            # planes.
            width = (hi - lo).ravel()
            first = np.cumsum(width) - width
            col = np.arange(width.sum()) + np.repeat(lo.ravel() - first, width)
            x = times[col]
            x -= np.repeat(arrival, width)
            x /= np.repeat(np.broadcast_to(rise, arrival.shape), width)
            value = _ramp(np.minimum(x, 1.0, out=x))
            span = (end - begin)[:, None]
            row_start = span * np.arange(n_patch) + (base[:-1] - begin)[:, None]
            col += np.repeat(row_start.ravel(), width)
            cuts = np.searchsorted(col, base)

            weighted = bank.statics[start:stop, patch, :] * slip[:, None]  # (b, npatch, 3)
            for b in range(stop - start):
                s0, s1 = begin[b], end[b]
                plane = steps[nt + s0 - lo[b], : s1 - s0]  # (npatch, span)
                s, e = cuts[b], cuts[b + 1]
                plane.reshape(-1)[col[s:e] - base[b]] = value[s:e]
                record = out[start + b]  # (3, nt)
                np.matmul(weighted[b].T, plane, out=record[:, s0:s1])
                record[:, :s0] = record[:, s0 : s0 + 1]
                record[:, s1:] = record[:, s1 - 1 : s1]
        return out

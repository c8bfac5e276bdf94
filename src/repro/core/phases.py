"""Phase planning: turn an :class:`~repro.core.config.FdwConfig` into jobs.

The FDW has three sequential phases whose *jobs* run in parallel
(paper §3.0.1):

* **A** — rupture scenarios, ``chunk_a`` per job, preceded by a single
  distance-matrix bootstrap job when the ``.npy`` pair is not recycled;
* **B** — one Green's-function job whose cost scales with the station
  list and whose output is the large ``.mseed`` archive;
* **C** — waveform synthesis, ``chunk_c`` ruptures per job, each job
  pulling the GF archive (Stash-cached) plus its rupture chunk.

Input-file sizes are derived from the physical product shapes so the
transfer model charges realistic costs (e.g. the full-input GF archive
lands near the paper's ">1 GB").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.condor.jobs import JobPayload, JobSpec
from repro.core.config import FdwConfig

__all__ = ["PhasePlan", "plan_phases", "count_jobs", "chunk_bounds", "gf_product_id"]

#: Bytes per float64 sample; sizes below are reported in MB.
_B = 8
_MB = 1024.0 * 1024.0

#: Nominal samples per GF trace (used only for sizing the archive).
_GF_SAMPLES = 512
_COMPONENTS = 3


def chunk_bounds(total: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``total`` items into (start, count) chunks of size ``chunk``.

    The final chunk may be short. Deterministic, order-preserving — the
    same function the local runner and the OSG job payloads use, so any
    partition produces the identical catalog.
    """
    if total < 1 or chunk < 1:
        raise ConfigError(f"need positive total/chunk, got {total}/{chunk}")
    return [(start, min(chunk, total - start)) for start in range(0, total, chunk)]


def count_jobs(config: FdwConfig) -> int:
    """Jobs in the DAG of ``config``, without building its job specs.

    The bootstrap job unless distances are recycled, one A job per
    ``chunk_a`` waveforms, the B job, and one C job per ``chunk_c``
    waveforms (:func:`chunk_bounds` rounds each chunk count up).
    """
    n = config.n_waveforms
    return (
        (0 if config.recycle_distances else 1)
        + -(-n // config.chunk_a)
        + 1
        + -(-n // config.chunk_c)
    )


@dataclass(frozen=True)
class PhasePlan:
    """The complete job plan of one FDW instance."""

    config: FdwConfig
    dist_job: JobSpec | None
    a_jobs: list[JobSpec]
    b_job: JobSpec
    c_jobs: list[JobSpec]

    @property
    def n_jobs(self) -> int:
        """Total jobs in the DAG."""
        return count_jobs(self.config)


def _distance_npy_mb(config: FdwConfig) -> float:
    """Size of one distance ``.npy`` (n_subfaults^2 float64)."""
    n = config.n_subfaults
    return n * n * _B / _MB


def gf_archive_mb(config: FdwConfig) -> float:
    """Size of the Phase-B GF archive in MB.

    Modelled as full 3-component time-series banks per (station,
    subfault) pair, which is what MudPy's ``.mseed`` archives hold —
    121 stations x 450 subfaults gives ~0.64 GB, the ">1 GB" class of
    file the paper stages through Stash Cache.
    """
    return (
        config.n_stations * config.n_subfaults * _GF_SAMPLES * _COMPONENTS * _B / _MB
    )


def gf_product_id(config: FdwConfig) -> str:
    """Logical product id of the Phase-B GF archive.

    One name ties the delivery layers together: it is the staged input
    file of every C job (charged to the Stash transfer model), and the
    id the VDC catalog/storage layers register the archive under when
    they route its bytes through :mod:`repro.core.gfcache`.
    """
    return f"{config.name}_gf.mseed.npz"


def plan_phases(config: FdwConfig) -> PhasePlan:
    """Build every job spec for one FDW DAG.

    Chunks of one size share one :class:`JobPayload` (only a phase's
    final chunk can be shorter), as imported tasks with equal payloads
    do, so the runtime model computes each phase's mean once.
    """
    name = config.name
    dist_files = {
        f"{name}_distances_strike.npy": _distance_npy_mb(config),
        f"{name}_distances_dip.npy": _distance_npy_mb(config),
    }

    dist_job: JobSpec | None = None
    if not config.recycle_distances:
        dist_job = JobSpec(
            name=f"{name}_dist",
            arguments="--phase dist",
            payload=JobPayload(phase="dist", n_items=1, n_stations=config.n_stations),
            input_files={},
            request_memory_mb=16384,  # "up to 16GB ... large matrix files"
        )

    a_bounds = chunk_bounds(config.n_waveforms, config.chunk_a)
    a_payloads = {
        count: JobPayload(phase="A", n_items=count, n_stations=config.n_stations)
        for count in {count for _, count in a_bounds}
    }
    a_jobs = [
        JobSpec(
            name=f"{name}_A_{i:05d}",
            arguments=f"--phase A --start {start} --count {count}",
            payload=a_payloads[count],
            input_files=dict(dist_files),
        )
        for i, (start, count) in enumerate(a_bounds)
    ]

    b_job = JobSpec(
        name=f"{name}_B",
        arguments="--phase B",
        payload=JobPayload(phase="B", n_items=config.n_stations, n_stations=config.n_stations),
        input_files={f"{name}_stations.gflist": 0.01},
        request_memory_mb=16384,
    )

    gf_id = gf_product_id(config)
    gf_mb = gf_archive_mb(config)
    c_bounds = chunk_bounds(config.n_waveforms, config.chunk_c)
    c_payloads = {
        count: JobPayload(phase="C", n_items=count, n_stations=config.n_stations)
        for count in {count for _, count in c_bounds}
    }
    # Each C job stages the GF archive plus its rupture chunk (.rupt
    # files are small text tables).
    c_jobs = [
        JobSpec(
            name=f"{name}_C_{i:05d}",
            arguments=f"--phase C --start {start} --count {count}",
            payload=c_payloads[count],
            input_files={gf_id: gf_mb, f"{name}_ruptures_{i:05d}.tar": 0.2 * count},
        )
        for i, (start, count) in enumerate(c_bounds)
    ]

    return PhasePlan(
        config=config, dist_job=dist_job, a_jobs=a_jobs, b_job=b_job, c_jobs=c_jobs
    )

"""Stash/OSDF cache model: input-file delivery times.

Every FDW job ships a 928 MB Singularity image plus phase inputs (the
recyclable ``.npy`` matrices, and for Phase C the multi-GB ``.mseed`` GF
archives). The OSG distributes these through Stash Cache: the first
delivery of a file to a cache site pays origin bandwidth; subsequent
deliveries hit the regional cache and are much faster.

We model a configurable number of cache *sites*; each job lands at a
random site (the caller draws it), and the cache state is per (file,
site). A site never evicts: once delivered there, a file stays warm for
the rest of the campaign. Transfer time is ``size / bandwidth`` plus a
fixed per-job setup overhead (scheduling, container start). The
resulting cold-start ramp is visible in DAGMan instant-throughput
traces and is ablated by ``bench_ablation_cache``.

Resilience (PR 8): a cache built with a
:class:`~repro.faults.TransferFaults` model retries failed attempts
under a seeded :class:`~repro.resilience.RetryPolicy` — each failed
attempt costs its elapsed time plus a deterministic backoff delay, and
a job that exhausts its retries degrades to pulling everything straight
from the origin (slow, but the workflow always completes). Without a
fault model the delivery path is bit-identical to the pre-resilience
simulator.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import SimulationError
from repro.condor.jobs import JobSpec
from repro.resilience import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import TransferFaults

__all__ = ["TransferConfig", "StashCache", "SINGULARITY_IMAGE_MB"]

#: The MudPy Singularity image from the paper (Section 3).
SINGULARITY_IMAGE_MB = 928.0

_IMAGE = "singularity.sif"
_IMAGE_ENTRY = ((_IMAGE, SINGULARITY_IMAGE_MB),)


@dataclass(frozen=True)
class TransferConfig:
    """Bandwidths and overheads of the delivery path.

    Attributes
    ----------
    origin_mb_per_s:
        Origin (cold) bandwidth per transfer.
    cache_mb_per_s:
        Cache-hit (warm) bandwidth.
    n_cache_sites:
        Number of regional cache sites jobs can land near.
    setup_overhead_s:
        Fixed per-job overhead: claim activation, container start.
    include_image:
        Charge the Singularity image on every job (it is cached like any
        other file).
    """

    origin_mb_per_s: float = 25.0
    cache_mb_per_s: float = 250.0
    n_cache_sites: int = 12
    setup_overhead_s: float = 35.0
    include_image: bool = True

    def __post_init__(self) -> None:
        if self.origin_mb_per_s <= 0 or self.cache_mb_per_s <= 0:
            raise SimulationError("bandwidths must be positive")
        if self.n_cache_sites < 1:
            raise SimulationError("need at least one cache site")
        if self.setup_overhead_s < 0:
            raise SimulationError("setup overhead must be non-negative")


class StashCache:
    """Stateful cache: tracks which files are warm at which sites.

    Parameters
    ----------
    config:
        Bandwidths/overheads of the delivery path.
    faults:
        Optional :class:`~repro.faults.TransferFaults` model. ``None``
        (default) keeps the delivery path bit-identical to the
        fault-free simulator — no extra RNG draws, no retry loop.
    retry_policy:
        Backoff applied when an injected fault fails an attempt;
        default :class:`~repro.resilience.RetryPolicy`.
    retry_seed:
        Root of the deterministic per-job backoff schedules
        (``schedule(retry_seed, "transfer", job_name)``).
    """

    def __init__(
        self,
        config: TransferConfig | None = None,
        faults: "TransferFaults | None" = None,
        retry_policy: RetryPolicy | None = None,
        retry_seed: int = 0,
    ) -> None:
        self.config = config or TransferConfig()
        self.faults = faults
        self.retry_policy = retry_policy or RetryPolicy()
        self.retry_seed = retry_seed
        # Warm files per site.
        self._warm: dict[int, set[str]] = {}
        self.n_cold_transfers = 0
        self.n_warm_transfers = 0
        self.n_transfer_faults = 0
        self.n_transfer_retries = 0
        self.n_degraded_transfers = 0
        self.cold_mb_total = 0.0
        self.warm_mb_total = 0.0
        self.degraded_mb_total = 0.0
        self.total_transfer_seconds = 0.0
        self.total_backoff_seconds = 0.0
        self._obs_flushed: dict[str, float] = {}

    def reset(self) -> None:
        """Drop all cache state (a fresh campaign)."""
        self._warm.clear()
        self.n_cold_transfers = 0
        self.n_warm_transfers = 0
        self.n_transfer_faults = 0
        self.n_transfer_retries = 0
        self.n_degraded_transfers = 0
        self.cold_mb_total = 0.0
        self.warm_mb_total = 0.0
        self.degraded_mb_total = 0.0
        self.total_transfer_seconds = 0.0
        self.total_backoff_seconds = 0.0
        self._obs_flushed = {}
        if self.faults is not None:
            self.faults.reset()

    def is_warm(self, filename: str, site: int) -> bool:
        """True when ``filename`` is cached at ``site``."""
        return filename in self._warm.get(site, ())

    def _job_files(self, spec: JobSpec) -> tuple[Iterable[tuple[str, float]], ...]:
        """A job's (file, MB) entries in staging order, without a copy:
        the spec's inputs, then the image when it is charged and the
        spec does not list it."""
        files = spec.input_files
        if self.config.include_image and _IMAGE not in files:
            return files.items(), _IMAGE_ENTRY
        return (files.items(),)

    def _stage(
        self, files: tuple[Iterable[tuple[str, float]], ...], site: int
    ) -> float:
        """Stage a job's files (:meth:`_job_files`) at one site; returns
        elapsed seconds (including the setup overhead) and marks the
        files warm."""
        cfg = self.config
        setup = cfg.setup_overhead_s
        warm_bw = cfg.cache_mb_per_s
        cold_bw = cfg.origin_mb_per_s
        site_cache = self._warm.get(site)
        if site_cache is None:
            site_cache = self._warm[site] = set()
        n_warm = self.n_warm_transfers
        n_cold = self.n_cold_transfers
        warm_mb = self.warm_mb_total
        cold_mb = self.cold_mb_total
        total = setup
        try:
            for entries in files:
                for filename, size_mb in entries:
                    if size_mb < 0:
                        raise SimulationError(f"negative file size for {filename!r}")
                    if filename in site_cache:
                        n_warm += 1
                        warm_mb += size_mb
                        total += size_mb / warm_bw
                    else:
                        site_cache.add(filename)
                        n_cold += 1
                        cold_mb += size_mb
                        total += size_mb / cold_bw
        finally:
            self.n_warm_transfers = n_warm
            self.n_cold_transfers = n_cold
            self.warm_mb_total = warm_mb
            self.cold_mb_total = cold_mb
        # Bandwidth-bound time only; the fixed setup overhead is not a
        # transfer and would dilute cache-efficiency accounting.
        self.total_transfer_seconds += total - setup
        return total

    def observe_flush(self) -> None:
        """Emit obs counters for transfer activity since the last flush.

        The per-file delivery loop only bumps plain attributes (which it
        tracked already); obs counters are emitted here, once per pool
        run, so an observed replay's per-job hot path pays nothing —
        the obs-overhead budget could not absorb a counter per file.
        Deltas against the last flush keep repeated runs over one cache
        from double-counting.
        """
        if not obs.enabled():
            return
        for name, labels, value in (
            ("repro_transfer_files_total", {"temperature": "cold"},
             float(self.n_cold_transfers)),
            ("repro_transfer_files_total", {"temperature": "warm"},
             float(self.n_warm_transfers)),
            ("repro_transfer_mb_total", {"temperature": "cold"},
             self.cold_mb_total),
            ("repro_transfer_mb_total", {"temperature": "warm"},
             self.warm_mb_total),
            ("repro_transfer_mb_total", {"temperature": "degraded"},
             self.degraded_mb_total),
            ("repro_transfer_faults_total", {}, float(self.n_transfer_faults)),
            ("repro_transfer_retries_total", {},
             float(self.n_transfer_retries)),
            ("repro_transfer_degraded_total", {},
             float(self.n_degraded_transfers)),
            ("repro_transfer_backoff_seconds_total", {},
             self.total_backoff_seconds),
        ):
            key = name + "|" + "|".join(sorted(labels.values()))
            delta = value - self._obs_flushed.get(key, 0.0)
            if delta > 0.0:
                obs.counter_add(name, delta, labels)
                self._obs_flushed[key] = value

    def transfer_time(self, spec: JobSpec, site: int) -> float:
        """Seconds to stage all of a job's inputs at cache ``site``.

        The caller draws the site uniformly from
        ``range(config.n_cache_sites)`` (the job lands near a random
        cache). Marks each delivered file warm at that site, so later
        jobs landing there hit the cache. With a fault model installed,
        a failed attempt still costs its (possibly slowed) elapsed time,
        then the job backs off per its deterministic retry schedule and
        re-pulls at the *same* site (the job is pinned to its execute
        point; the re-pull is mostly warm). A job whose retries are all
        doomed falls back to a direct origin pull.
        """
        cfg = self.config
        if not 0 <= site < cfg.n_cache_sites:
            raise SimulationError(
                f"cache site {site!r} outside range({cfg.n_cache_sites})"
            )
        files = self._job_files(spec)
        if self.faults is None:
            return self._stage(files, site)
        total = 0.0
        delays = self.retry_policy.schedule(self.retry_seed, "transfer", spec.name)
        for attempt in range(self.retry_policy.max_attempts):
            elapsed = self._stage(files, site)
            fails, slow = self.faults.draw()
            # The multiplier degrades bandwidth, not the fixed setup.
            total += cfg.setup_overhead_s + (elapsed - cfg.setup_overhead_s) * slow
            if not fails:
                return total
            self.n_transfer_faults += 1
            if attempt < len(delays):
                self.n_transfer_retries += 1
                total += delays[attempt]
                self.total_backoff_seconds += delays[attempt]
        # Retries exhausted: the job pulls everything straight from the
        # origin, bypassing the cache path. Expensive but always lands.
        self.n_degraded_transfers += 1
        staged_mb = sum(size_mb for entries in files for _, size_mb in entries)
        self.degraded_mb_total += staged_mb
        direct = staged_mb / cfg.origin_mb_per_s
        self.total_transfer_seconds += direct
        return total + cfg.setup_overhead_s + direct

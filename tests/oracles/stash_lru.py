"""Oracle: the Stash cache model's capped LRU staging.

``TransferConfig.max_entries_per_site`` once capped the warm files of
each cache site: past the cap a site evicted its least-recently-used
file, which then paid origin bandwidth again. No caller set the cap, so
the product keeps one staging path, the one without a cap. The capped
path is frozen here as the reference
``test_uncapped_staging_matches_a_cap_above_every_file_count`` holds the
product to: with a cap no site reaches, the two must agree bit for bit.
``_stage_lru`` is the method as it shipped; :class:`LruStashCache`
runs it in place of the product's staging, behind the product's
``transfer_time``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.osg.transfer import StashCache, TransferConfig

__all__ = ["CappedTransferConfig", "LruStashCache"]


@dataclass(frozen=True)
class CappedTransferConfig(TransferConfig):
    """:class:`TransferConfig` with a cap on warm entries per cache site."""

    max_entries_per_site: int | None = None


class LruStashCache(StashCache):
    """A :class:`StashCache` whose sites keep their warm files in LRU
    order and evict past ``config.max_entries_per_site``."""

    def __init__(self, config: CappedTransferConfig, **kwargs: object) -> None:
        super().__init__(config, **kwargs)
        self.n_evictions = 0

    def _stage_lru(
        self, files: tuple[Iterable[tuple[str, float]], ...], site: int
    ) -> float:
        """Stage a job's files (:meth:`_job_files`) at one site of a
        capped cache; returns elapsed seconds (including the setup
        overhead), marks the files warm and evicts past the cap."""
        cfg = self.config
        total = cfg.setup_overhead_s
        site_cache = self._warm.setdefault(site, OrderedDict())
        for entries in files:
            for filename, size_mb in entries:
                if size_mb < 0:
                    raise SimulationError(f"negative file size for {filename!r}")
                if filename in site_cache:
                    bw = cfg.cache_mb_per_s
                    self.n_warm_transfers += 1
                    self.warm_mb_total += size_mb
                    site_cache.move_to_end(filename)
                else:
                    bw = cfg.origin_mb_per_s
                    site_cache[filename] = None
                    self.n_cold_transfers += 1
                    self.cold_mb_total += size_mb
                    if len(site_cache) > cfg.max_entries_per_site:
                        site_cache.popitem(last=False)
                        self.n_evictions += 1
                total += size_mb / bw
        # Bandwidth-bound time only; the fixed setup overhead is not a
        # transfer and would dilute cache-efficiency accounting.
        self.total_transfer_seconds += total - cfg.setup_overhead_s
        return total

    _stage = _stage_lru

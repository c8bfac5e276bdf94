"""Federated storage: sites, replicas, and cached retrieval times.

VDC federates storage across member institutions and "large datasets
will be able to be efficiently distributed via optimized caching systems
and even prefetched for users" (paper §6). The model: named sites with
capacities and bandwidths; products are placed on a primary site and may
be replicated; a retrieval from a user's *home site* is fast when a
replica (or prefetched copy) is local, else pays the inter-site
transfer and leaves a cached replica behind.

Products whose bytes the library actually has — Green's-function banks —
route through the shared :class:`~repro.core.gfcache.GFCache`: the site
model tracks *where* replicas live and charges delivery times, while a
single ``artifact_cache`` holds the one physical copy, mirroring OSDF's
single federated namespace behind many caches. ``LocalRunner`` and the
VDC therefore share one cache implementation (and, when both point at
the same directory, one store).

Resilience (PR 8): construct the storage with a
:class:`~repro.resilience.BreakerPolicy` and pass ``now=`` to
retrievals, and every site gets a per-site circuit breaker. A retrieval
first tries the home site's replica, then fails over across the
remaining replica sites from fastest WAN egress down; each *failed*
probe (a site inside a :class:`~repro.faults.SiteOutage` window) costs
``probe_cost_s`` and feeds its breaker, while an *open* breaker is
skipped instantly — the fail-fast that makes repeated retrievals cheap
during a long outage. When no replica is reachable the retrieval raises
the retryable :class:`~repro.errors.StorageUnavailableError`, and
:meth:`FederatedStorage.fetch_bank` can fall back to a caller-supplied
``rebuild`` (recompute from source). Without a breaker policy (or
without ``now=``) the same retrieval loop runs with those checks
skipped: every site counts as healthy, so the home replica or the
fastest-egress holder serves and no probe time is charged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro import obs
from repro.errors import StorageError, StorageUnavailableError
from repro.resilience import BreakerPolicy, CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.gfcache import GFCache
    from repro.faults import SiteOutage
    from repro.seismo.greens import GreensFunctionBank

__all__ = ["StorageSite", "FederatedStorage"]


@dataclass(frozen=True)
class StorageSite:
    """One federated storage member.

    Attributes
    ----------
    name:
        Unique site name.
    capacity_mb:
        Total capacity.
    local_mb_per_s:
        Bandwidth for site-local reads.
    wan_mb_per_s:
        Bandwidth for inter-site transfers.
    """

    name: str
    capacity_mb: float = 1e6
    local_mb_per_s: float = 500.0
    wan_mb_per_s: float = 40.0

    def __post_init__(self) -> None:
        if not self.name:
            raise StorageError("site name must be non-empty")
        if self.capacity_mb <= 0:
            raise StorageError(f"{self.name}: capacity must be positive")
        if self.local_mb_per_s <= 0 or self.wan_mb_per_s <= 0:
            raise StorageError(f"{self.name}: bandwidths must be positive")


class FederatedStorage:
    """Replica placement and retrieval across sites.

    Parameters
    ----------
    sites:
        The federation members.
    artifact_cache:
        Optional :class:`~repro.core.gfcache.GFCache` holding the real
        bytes of bank-valued products (see module docstring). Without
        it, :meth:`store_bank`/:meth:`fetch_bank` are unavailable and
        the storage is a pure placement model.
    breaker_policy:
        When set, every site gets a :class:`~repro.resilience.CircuitBreaker`
        and retrievals called with ``now=`` run the failover path of the
        module docstring. ``None`` (default) disables the resilience
        layer entirely.
    outages:
        :class:`~repro.faults.SiteOutage` windows (chaos injection);
        more can be added later with :meth:`add_outage`.
    """

    def __init__(
        self,
        sites: list[StorageSite],
        artifact_cache: "GFCache | None" = None,
        breaker_policy: BreakerPolicy | None = None,
        outages: "Iterable[SiteOutage]" = (),
    ) -> None:
        if not sites:
            raise StorageError("need at least one storage site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate site names: {names}")
        self.sites = {s.name: s for s in sites}
        self.artifact_cache = artifact_cache
        self.breaker_policy = breaker_policy
        self.breakers: dict[str, CircuitBreaker] = (
            {name: CircuitBreaker(name, breaker_policy) for name in self.sites}
            if breaker_policy is not None
            else {}
        )
        self.outages: list[SiteOutage] = list(outages)
        self.n_failovers = 0
        self.n_rebuilds = 0
        self._replicas: dict[str, set[str]] = {}  # product_id -> site names
        self._usage_mb: dict[str, float] = {name: 0.0 for name in self.sites}
        self._sizes: dict[str, float] = {}
        self._bank_keys: dict[str, str] = {}  # product_id -> GF cache key
        self._bank_dtypes: dict[str, str] = {}  # product_id -> bank dtype

    def site(self, name: str) -> StorageSite:
        """Site by name."""
        try:
            return self.sites[name]
        except KeyError:
            raise StorageError(f"unknown site {name!r}") from None

    # -- health -------------------------------------------------------------

    def add_outage(self, outage: "SiteOutage") -> None:
        """Schedule one site-outage window (validates the site name)."""
        self.site(outage.site)
        self.outages.append(outage)

    def in_outage(self, name: str, now: float) -> bool:
        """Whether a site is inside an injected outage window."""
        return any(o.site == name and o.active(now) for o in self.outages)

    def site_healthy(self, name: str, now: float) -> bool:
        """Non-mutating health query: outside every outage window and
        (when breakers are on) not fail-fasted by an open breaker.

        What prefetch uses to skip dark destinations; does not move any
        breaker's state machine.
        """
        self.site(name)
        if self.in_outage(name, now):
            return False
        breaker = self.breakers.get(name)
        return breaker is None or breaker.would_allow(now)

    def breaker_snapshots(self, now: float | None = None) -> list[dict]:
        """Per-site breaker states for campaign summaries (name order)."""
        return [
            self.breakers[name].snapshot(now) for name in sorted(self.breakers)
        ]

    # -- placement ----------------------------------------------------------

    def store(self, product_id: str, size_mb: float, site: str) -> None:
        """Place the primary replica of a product."""
        s = self.site(site)
        if size_mb < 0:
            raise StorageError(f"{product_id}: negative size")
        if product_id in self._replicas:
            raise StorageError(f"product {product_id!r} already stored")
        if self._usage_mb[site] + size_mb > s.capacity_mb:
            raise StorageError(f"site {site!r} over capacity storing {product_id!r}")
        self._replicas[product_id] = {site}
        self._sizes[product_id] = float(size_mb)
        self._usage_mb[site] += size_mb

    def replicate(self, product_id: str, site: str) -> None:
        """Add a replica (idempotent) — also used for prefetching."""
        self.site(site)
        if product_id not in self._replicas:
            raise StorageError(f"unknown product {product_id!r}")
        if site in self._replicas[product_id]:
            return
        size = self._sizes[product_id]
        if self._usage_mb[site] + size > self.sites[site].capacity_mb:
            raise StorageError(f"site {site!r} over capacity replicating {product_id!r}")
        self._replicas[product_id].add(site)
        self._usage_mb[site] += size

    def remove(self, product_id: str) -> None:
        """Remove a product entirely: every replica plus bookkeeping.

        The rollback primitive for transactional deposits: after a
        partial deposit fails, the portal calls this so the product id
        can be stored again on the next attempt (unlike
        :meth:`drop_replica`, which keeps the id registered). Also
        forgets any attached bank key — the artifact-cache bytes
        themselves are left alone, since content-addressed entries may
        be shared with other producers.
        """
        replicas = self._replicas.get(product_id)
        if replicas is None:
            raise StorageError(f"unknown product {product_id!r}")
        touched = set(replicas)
        del self._replicas[product_id]
        del self._sizes[product_id]
        self._bank_keys.pop(product_id, None)
        self._bank_dtypes.pop(product_id, None)
        for site in touched:
            self._recompute_usage(site)

    def drop_replica(self, product_id: str, site: str, force: bool = False) -> None:
        """Remove one replica.

        Dropping the *last* replica makes the product unretrievable
        (every later fetch must rebuild from source), so it is refused
        unless ``force=True`` — the guard against a cleanup script
        silently destroying the only copy of a product.
        """
        if product_id not in self._replicas:
            raise StorageError(f"unknown product {product_id!r}")
        replicas = self._replicas[product_id]
        if site not in replicas:
            raise StorageError(f"no replica of {product_id!r} at {site!r}")
        if len(replicas) == 1 and not force:
            raise StorageError(
                f"refusing to drop the last replica of {product_id!r} "
                f"(at {site!r}); pass force=True to destroy it"
            )
        replicas.remove(site)
        self._recompute_usage(site)

    def _recompute_usage(self, site: str) -> None:
        """Rebuild a site's usage from its replica set.

        Removals recompute instead of decrementing so repeated
        store/rollback cycles cannot accumulate float residue — an
        emptied site reads exactly 0.0 MB again.
        """
        self._usage_mb[site] = sum(
            self._sizes[pid]
            for pid, replicas in self._replicas.items()
            if site in replicas
        )

    # -- retrieval ------------------------------------------------------------

    def replicas(self, product_id: str) -> set[str]:
        """Sites holding the product."""
        if product_id not in self._replicas:
            raise StorageError(f"unknown product {product_id!r}")
        return set(self._replicas[product_id])

    def retrieval_time_s(
        self,
        product_id: str,
        home_site: str,
        cache: bool = True,
        now: float | None = None,
    ) -> float:
        """Seconds to deliver a product to a user at ``home_site``.

        A local replica reads at local bandwidth; otherwise the product
        crosses the WAN from a holding site and (with ``cache=True``)
        leaves a replica behind — the "optimized caching" behaviour.

        With a breaker policy configured *and* ``now=`` supplied, the
        resilient failover path runs instead: sources are tried home
        site first, then the other replica sites from fastest WAN
        egress down. A source whose breaker is open is skipped for
        free; a source that turns out to be dark (outage window) costs
        ``probe_cost_s`` and feeds its breaker. With every source dark
        the retrieval raises the retryable
        :class:`~repro.errors.StorageUnavailableError` carrying the
        probe time already sunk (``penalty_s``). Otherwise the breaker
        and outage checks are skipped, and every site counts as healthy.
        """
        home = self.site(home_site)
        size = self._sizes.get(product_id)
        if size is None:
            raise StorageError(f"unknown product {product_id!r}")
        replicas = self._replicas[product_id]
        if not replicas:
            exc = StorageUnavailableError(
                f"no replicas of {product_id!r} remain anywhere"
            )
            exc.penalty_s = 0.0
            raise exc
        resilient = now is not None and self.breaker_policy is not None
        candidates = sorted(
            replicas,
            key=lambda name: (
                name != home_site,  # home replica first (local read)
                -self.sites[name].wan_mb_per_s,  # then fastest egress
                name,
            ),
        )
        penalty = 0.0
        for source in candidates:
            if resilient:
                breaker = self.breakers[source]
                if not breaker.allow(now + penalty):
                    continue  # open breaker: fail fast, no probe cost
                if self.in_outage(source, now + penalty):
                    breaker.record_failure(now + penalty)
                    penalty += self.breaker_policy.probe_cost_s
                    continue
                breaker.record_success()
            if source != candidates[0]:
                self.n_failovers += 1
                obs.counter_add("repro_storage_failovers_total")
            if penalty > 0.0:
                obs.counter_add("repro_storage_probe_seconds_total", penalty)
            if source == home_site:
                obs.counter_add("repro_storage_transfer_mb_total", size,
                                {"path": "local"})
                return penalty + size / home.local_mb_per_s
            elapsed = penalty + size / home.wan_mb_per_s
            obs.counter_add("repro_storage_transfer_mb_total", size,
                            {"path": "wan"})
            if (
                cache
                and (not resilient or self.site_healthy(home_site, now + penalty))
                and self._usage_mb[home_site] + size <= home.capacity_mb
            ):
                replicas.add(home_site)
                self._usage_mb[home_site] += size
            return elapsed
        exc = StorageUnavailableError(
            f"no healthy replica of {product_id!r} reachable at t={now:.0f}s "
            f"(tried {len(candidates)} site(s), sunk {penalty:.0f}s probing)"
        )
        exc.penalty_s = penalty
        raise exc

    def usage_mb(self, site: str) -> float:
        """Bytes (MB) currently placed at a site."""
        self.site(site)
        return self._usage_mb[site]

    def product_size_mb(self, product_id: str) -> float:
        """Charged size of a product in MB (what every transfer pays)."""
        size = self._sizes.get(product_id)
        if size is None:
            raise StorageError(f"unknown product {product_id!r}")
        return size

    # -- bank-valued products (routed through the GF cache) -------------------

    def _require_cache(self) -> "GFCache":
        if self.artifact_cache is None:
            raise StorageError(
                "no artifact cache configured; pass artifact_cache=GFCache(...) "
                "to store real GF banks"
            )
        return self.artifact_cache

    def store_bank(
        self,
        product_id: str,
        bank: "GreensFunctionBank",
        site: str,
        key: str | None = None,
    ) -> float:
        """Place a GF bank: replica bookkeeping plus the real bytes.

        The site model records a primary replica sized from the bank's
        physical arrays; the bytes themselves go into the shared
        :attr:`artifact_cache` under ``key``. Pass the content-addressed
        :func:`~repro.core.gfcache.gf_bank_key` of the inputs to share
        the entry with in-process producers (``LocalRunner``); the
        default derives a key from the product id. Returns the charged
        size in MB.

        The charge is ``bank.nbytes``, so a float32 bank occupies (and
        every later WAN transfer of it pays for) half the bytes of its
        float64 twin — the Stash/OSDF transfer saving the opt-in dtype
        buys.
        """
        cache = self._require_cache()
        if key is None:
            key = hashlib.sha256(b"product\x1f" + product_id.encode("utf-8")).hexdigest()
        size_mb = bank.nbytes / (1024.0 * 1024.0)
        self.store(product_id, size_mb, site)
        self._bank_keys[product_id] = key
        self._bank_dtypes[product_id] = str(bank.dtype)
        cache.put(key, bank)
        return size_mb

    def bank_key(self, product_id: str) -> str | None:
        """GF-cache key of a bank-valued product, or ``None``."""
        return self._bank_keys.get(product_id)

    def bank_dtype(self, product_id: str) -> str | None:
        """Recorded dtype of a bank-valued product, or ``None``."""
        return self._bank_dtypes.get(product_id)

    def fetch_bank(
        self,
        product_id: str,
        home_site: str,
        now: float | None = None,
        rebuild: "Callable[[], GreensFunctionBank] | None" = None,
    ) -> "tuple[GreensFunctionBank, float]":
        """Deliver a bank to a home site: ``(bank, elapsed seconds)``.

        The elapsed time comes from :meth:`retrieval_time_s` (leaving a
        cached replica behind as usual); the bytes come from the one
        physical copy in the artifact cache.

        ``rebuild`` is the recompute-from-source fallback: when no
        healthy replica survives, or the cached bytes are gone (e.g.
        quarantined after failing their digest check), the bank is
        regenerated, re-seeded into the artifact cache, and returned —
        the elapsed time then covers only the probe penalty already
        sunk, since the recompute happens on the caller's clock.
        Without ``rebuild`` those conditions raise.
        """
        cache = self._require_cache()
        key = self._bank_keys.get(product_id)
        if key is None:
            raise StorageError(f"product {product_id!r} has no bank attached")
        try:
            elapsed = self.retrieval_time_s(product_id, home_site, now=now)
        except StorageUnavailableError as exc:
            if rebuild is None:
                raise
            bank = rebuild()
            cache.put(key, bank)
            self.n_rebuilds += 1
            obs.counter_add("repro_storage_rebuilds_total")
            return bank, float(getattr(exc, "penalty_s", 0.0))
        bank = cache.get(key)
        if bank is None:
            if rebuild is None:
                raise StorageError(
                    f"bank bytes for {product_id!r} are gone from the artifact cache"
                )
            bank = rebuild()
            cache.put(key, bank)
            self.n_rebuilds += 1
            obs.counter_add("repro_storage_rebuilds_total")
        return bank, elapsed

    def materialize(self, product_id: str) -> Path | None:
        """Make a bank-valued product durable in the cache's disk store.

        The in-process analog of prefetching the archive into an OSDF
        cache ahead of demand. No-op (``None``) for products without
        bank bytes or when the cache is memory-only.
        """
        key = self._bank_keys.get(product_id)
        if key is None or self.artifact_cache is None:
            return None
        return self.artifact_cache.ensure_on_disk(key)

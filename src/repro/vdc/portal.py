"""The VDC portal: launch accelerated FDW runs and serve their products.

"If needed, our workflow tool could be launched via the VDC portal's
graphical user interface" (paper §3); "The VDC serves to enhance MudPy
by providing a GUI-based platform for executing accelerated simulations
and monitoring their progress" (paper §6). :class:`Portal` is that
surface as an API: users submit an FDW configuration, the portal runs it
on the (simulated) OSG, monitors it, deposits the resulting products
into the catalog/storage, and answers discovery + retrieval requests —
the complete Fig 7 data flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PortalError
from repro.core.config import FdwConfig
from repro.core.monitor import DagmanStats
from repro.core.phases import count_jobs, gf_archive_mb
from repro.core.submit_osg import FdwBatchResult, run_fdw_batch
from repro.osg.capacity import CapacityProcess
from repro.osg.pool import OSPoolConfig
from repro.vdc.catalog import DataCatalog, ProductRecord, normalize_tags
from repro.vdc.prefetch import PrefetchService, QueryEvent
from repro.vdc.storage import FederatedStorage, StorageSite

__all__ = ["Portal", "PortalRun"]


@dataclass
class PortalRun:
    """One portal-launched workflow execution."""

    run_id: str
    config: FdwConfig
    result: FdwBatchResult
    stats: DagmanStats
    n_planned_jobs: int = 0
    product_ids: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Every planned DAG node completed (failed attempts may have
        been retried; each retry is a distinct cluster in the log)."""
        return self.stats.n_completed == self.n_planned_jobs


class Portal:
    """The VDC-facing API for running FDW and accessing its products.

    Parameters
    ----------
    catalog, storage:
        Shared VDC services; defaults build a fresh catalog and a
        three-site federation.
    pool_config, capacity:
        OSG model overrides forwarded to the pool simulator.
    """

    def __init__(
        self,
        catalog: DataCatalog | None = None,
        storage: FederatedStorage | None = None,
        pool_config: OSPoolConfig | None = None,
        capacity: CapacityProcess | None = None,
    ) -> None:
        # Explicit None checks: an empty DataCatalog is falsy (__len__),
        # so `catalog or DataCatalog()` would silently discard a shared
        # catalog that happens to have no records yet.
        self.catalog = catalog if catalog is not None else DataCatalog()
        self.storage = storage if storage is not None else FederatedStorage(
            [
                StorageSite("vdc-rutgers"),
                StorageSite("vdc-psu"),
                StorageSite("vdc-utah"),
            ]
        )
        self.pool_config = pool_config
        self.capacity = capacity
        self.prefetcher = PrefetchService(self.catalog, self.storage)
        self._runs: dict[str, PortalRun] = {}
        # Monotonic: run ids must never be reused, even when a launch
        # fails and leaves no entry in _runs (deriving the id from
        # len(_runs) made the next launch collide with the failed one's
        # deposited-then-rolled-back id).
        self._run_counter = 0

    # -- execution -----------------------------------------------------------

    def launch(
        self,
        config: FdwConfig,
        user: str = "anonymous",
        deposit_site: str | None = None,
        seed: int = 0,
    ) -> PortalRun:
        """Run an FDW configuration and deposit its products.

        The portal models product deposition at workflow granularity:
        one waveform-catalog product, one rupture-catalog product and
        one GF-bank product per run, tagged and annotated for
        discovery. (Per-rupture granularity lives in
        :class:`~repro.seismo.mudpy_io.ProductArchive`.)
        """
        site = deposit_site or next(iter(self.storage.sites))
        self.storage.site(site)  # validate early
        run_id = self.allocate_run_id(config)

        result = run_fdw_batch(
            config,
            pool_config=self.pool_config,
            capacity=self.capacity,
            seed=seed,
        )
        stats = DagmanStats.from_user_log(result.user_logs[config.name])

        run = PortalRun(
            run_id=run_id,
            config=config,
            result=result,
            stats=stats,
            n_planned_jobs=count_jobs(config),
        )
        run.product_ids.extend(
            self.deposit_products(run_id, config, site=site, user=user)
        )
        self._runs[run_id] = run
        return run

    def allocate_run_id(self, config: FdwConfig) -> str:
        """Hand out the next run id (monotonic, never reused)."""
        run_id = f"run-{self._run_counter:04d}-{config.name}"
        self._run_counter += 1
        return run_id

    def deposit_products(
        self,
        run_id: str,
        config: FdwConfig,
        site: str,
        user: str = "anonymous",
    ) -> list[str]:
        """Deposit one run's product set, all-or-nothing.

        Stores bytes and catalog records for the waveform/rupture/GF
        products of ``run_id``. If any step fails, every replica and
        record already placed for this run is rolled back before the
        error propagates — a half-deposited run never leaks orphan
        storage bytes or catalog entries. Shared by :meth:`launch` and
        the multi-tenant service layer (:mod:`repro.service`). Returns
        the deposited product ids.
        """
        # One tag set per run: the run's records share it (frozensets
        # are immutable, and curation replaces a record's set).
        tags = frozenset(("fdw", "chile", f"user:{user}"))
        n = config.n_waveforms
        mw_min, mw_max = config.mw_range
        n_stations = config.n_stations
        products = (
            ("waveforms", 0.25 * n, "n_waveforms", n),  # compressed per-set payloads
            ("ruptures", 0.02 * n, "n_ruptures", n),
            ("gf_bank", gf_archive_mb(config), "n_stations", n_stations),
        )
        stored: list[str] = []
        deposited: list[str] = []
        try:
            for kind, size_mb, meta_key, meta_value in products:
                product_id = f"{run_id}.{kind}"
                self.storage.store(product_id, size_mb, site)
                stored.append(product_id)
                metadata = {
                    "mw_min": mw_min, "mw_max": mw_max, "n_stations": n_stations
                }
                metadata[meta_key] = meta_value
                self.catalog.deposit(
                    ProductRecord(
                        product_id, kind, site, size_mb, tags, metadata, run_id
                    )
                )
                deposited.append(product_id)
        except Exception:
            for product_id in deposited:
                self.catalog.withdraw(product_id)
            for product_id in stored:
                self.storage.remove(product_id)
            raise
        return stored

    # -- monitoring ----------------------------------------------------------

    def status(self, run_id: str) -> str:
        """Monitoring report of a run (the portal's progress view)."""
        run = self._get_run(run_id)
        return run.stats.report(name=run_id)

    def runs(self) -> list[str]:
        """All run ids, oldest first."""
        return list(self._runs)

    def _get_run(self, run_id: str) -> PortalRun:
        try:
            return self._runs[run_id]
        except KeyError:
            raise PortalError(f"unknown run {run_id!r}") from None

    # -- discovery / retrieval -------------------------------------------------

    def discover(
        self, home_site: str | None = None, **query: object
    ) -> list[ProductRecord]:
        """Search the catalog (thin facade over
        :meth:`~repro.vdc.catalog.DataCatalog.search`).

        With ``home_site`` given, the query is recorded in that site's
        trace so the intelligent-delivery service can prefetch likely
        next retrievals (paper §6). ``tags`` is validated first
        (:func:`~repro.vdc.catalog.normalize_tags`), so a rejected query
        leaves no trace.
        """
        if "tags" in query:
            query["tags"] = normalize_tags(query["tags"])
        if home_site is not None:
            self.prefetcher.record_query(
                QueryEvent(
                    home_site=home_site,
                    kind=query.get("kind"),  # type: ignore[arg-type]
                    tags=query.get("tags") or frozenset(),  # type: ignore[arg-type]
                    ranges=dict(query.get("ranges") or {}),  # type: ignore[arg-type]
                    metadata={
                        k: v
                        for k, v in query.items()
                        if k not in ("kind", "tags", "ranges")
                    },
                )
            )
        return self.catalog.search(**query)  # type: ignore[arg-type]

    def retrieve(self, product_id: str, home_site: str) -> float:
        """Deliver a product to a user's home site; returns seconds.

        Retrieval leaves a cached replica at the home site, so repeated
        community access gets faster — the democratization mechanic.
        """
        self.catalog.get(product_id)  # existence check with a clear error
        return self.storage.retrieval_time_s(product_id, home_site)

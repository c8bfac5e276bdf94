"""The multi-tenant portal service: fair share, coalescing, quotas.

The paper's VDC portal (§6) serves a *community*, not one user. This
module is the gateway layer in front of the portal — the same layering
VERCE's seismology science gateway places between its users and the
shared compute/data substrate: a submission queue with per-tenant fair
share, request coalescing, per-tenant quotas with backpressure, and an
async results API over the VDC catalog/storage.

Design points:

* **Fair share reuses the pool machinery.** Each tenant gets a
  :class:`~repro.osg.schedd.ScheddQueue` of its pending executions;
  the dispatcher hands free workers out with the same
  :func:`~repro.osg.negotiator.negotiate` round-robin the OSPool model
  uses for concurrent DAGMans (rotated across cycles so no tenant is
  starved) — the Fig 3 interleaving, applied to people instead of
  DAGMans.
* **Coalescing is content-addressed.** A submission is keyed by
  ``(FdwConfig.content_digest(), seed, backend)`` — the same
  content-addressing that keys the GF-bank and K-L caches. Identical
  scenario requests from any number of tenants share one execution and
  every subscriber's ticket resolves to the same run id and product
  set.
* **Deterministic under a seed.** Time is the
  :class:`~repro.service.clock.VirtualClock`: executions occupy workers
  for their backend-reported simulated makespan and the clock advances
  only on completions, so the same submission trace produces the same
  placement, timestamps, and products every run.
* **Quota and backpressure are typed.** A tenant over its pending cap
  gets :class:`~repro.errors.QuotaExceededError` (not retryable — await
  your own tickets); a full shared queue gets
  :class:`~repro.errors.BackpressureError` (retryable — the queue
  drains), both on the :class:`~repro.errors.ReproError` taxonomy so
  :func:`repro.resilience.retry_call` classifies them correctly.
* **Results read verified.** Products deposit through
  :meth:`~repro.vdc.portal.Portal.deposit_products` (all-or-nothing)
  and are retrieved through the VDC catalog/storage; bank-valued
  products come back via :meth:`~repro.vdc.storage.FederatedStorage.fetch_bank`,
  whose disk loads run through the sha256-verified
  :func:`~repro.integrity.read_verified` path.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field

from repro import obs
from repro.core.config import FdwConfig
from repro.errors import BackpressureError, QuotaExceededError, ServiceError
from repro.obs.stats import percentile
from repro.osg.negotiator import NegotiatorConfig, negotiate
from repro.osg.schedd import ScheddQueue
from repro.service.clock import VirtualClock
from repro.service.runner import PoolRunner, Runner, RunnerOutcome
from repro.vdc.catalog import ProductRecord
from repro.vdc.portal import Portal

__all__ = [
    "ServiceQuota",
    "TraceEvent",
    "ServiceResult",
    "ServiceStats",
    "Ticket",
    "PortalService",
]


@dataclass(frozen=True)
class ServiceQuota:
    """Admission-control knobs.

    Attributes
    ----------
    max_pending_per_tenant:
        Outstanding (unfinished) tickets one tenant may hold; the
        per-tenant quota.
    max_queue_depth:
        Distinct executions that may wait in the shared submission
        queue across all tenants; the backpressure bound. Coalesced
        subscriptions never consume a slot.
    """

    max_pending_per_tenant: int = 8
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_pending_per_tenant < 1:
            raise ServiceError(
                f"max_pending_per_tenant must be >= 1, "
                f"got {self.max_pending_per_tenant}"
            )
        if self.max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One entry of the service's queue trace (the audit log)."""

    seq: int
    time: float
    event: str  # "submit" | "coalesce" | "start" | "finish" | "fail"
    tenant: str
    ticket_id: str
    entry_id: str


@dataclass(frozen=True, slots=True)
class ServiceResult:
    """What one resolved ticket delivers back to its tenant."""

    ticket_id: str
    tenant: str
    run_id: str
    product_ids: tuple[str, ...]
    backend: str
    coalesced: bool
    report: str
    submitted_at: float
    started_at: float
    finished_at: float

    @property
    def queue_wait_s(self) -> float:
        """Virtual seconds this ticket waited before its execution
        started (0 for a subscriber that joined a running execution)."""
        return max(0.0, self.started_at - self.submitted_at)

    @property
    def turnaround_s(self) -> float:
        """Submit-to-result virtual seconds for this ticket."""
        return self.finished_at - self.submitted_at


@dataclass
class ServiceStats:
    """Aggregate counters and queue-wait distribution of a service."""

    n_submitted: int = 0
    n_coalesced: int = 0
    n_executed: int = 0
    n_failed: int = 0
    n_quota_rejected: int = 0
    n_backpressure_rejected: int = 0
    queue_waits_s: list[float] = field(default_factory=list)

    @property
    def coalescing_hit_rate(self) -> float:
        """Share of accepted tickets served without a new execution."""
        if self.n_submitted == 0:
            return 0.0
        return self.n_coalesced / self.n_submitted

    def wait_percentile(self, p: float) -> float:
        """Nearest-rank percentile of the per-ticket queue waits.

        Validation stays on the service taxonomy (:class:`ServiceError`);
        the math is the shared :func:`repro.obs.stats.percentile`.
        """
        if not (0.0 <= p <= 100.0):
            raise ServiceError(f"percentile must be in [0, 100], got {p}")
        return percentile(self.queue_waits_s, p)


class _Entry:
    """One distinct execution (possibly shared by many tickets)."""

    __slots__ = (
        "entry_id",
        "key",
        "config",
        "seed",
        "tenant",
        "future",
        "tickets",
        "outcome",
        "error",
        "run_id",
        "product_ids",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        entry_id: str,
        key: tuple,
        config: FdwConfig,
        seed: int,
        tenant: str,
        future: asyncio.Future,
    ) -> None:
        self.entry_id = entry_id
        self.key = key
        self.config = config
        self.seed = seed
        self.tenant = tenant
        self.future = future
        self.tickets: list[Ticket] = []
        self.outcome: RunnerOutcome | None = None
        self.error: BaseException | None = None
        self.run_id = ""
        self.product_ids: tuple[str, ...] = ()
        self.started_at = float("nan")
        self.finished_at = float("nan")


class Ticket:
    """A tenant's handle on one submission; ``await`` it for the result.

    Coalesced tickets share their entry's execution: awaiting any of
    them yields the same run id and product ids.
    """

    __slots__ = ("ticket_id", "tenant", "submitted_at", "coalesced", "_entry")

    def __init__(
        self,
        ticket_id: str,
        tenant: str,
        entry: _Entry,
        submitted_at: float,
        coalesced: bool,
    ) -> None:
        self.ticket_id = ticket_id
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.coalesced = coalesced
        self._entry = entry

    @property
    def done(self) -> bool:
        """Whether the underlying execution has finished (or failed)."""
        return self._entry.future.done()

    async def result(self) -> ServiceResult:
        """Wait for the execution and build this ticket's result.

        The shared future is shielded so one subscriber cancelling its
        wait cannot cancel the execution out from under the others.
        """
        entry = await asyncio.shield(self._entry.future)
        outcome = entry.outcome
        assert outcome is not None  # future only resolves after success
        return ServiceResult(
            self.ticket_id,
            self.tenant,
            entry.run_id,
            entry.product_ids,
            outcome.backend,
            self.coalesced,
            outcome.report,
            self.submitted_at,
            entry.started_at,
            entry.finished_at,
        )

    def __await__(self):
        return self.result().__await__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Ticket({self.ticket_id}, tenant={self.tenant!r}, "
            f"coalesced={self.coalesced}, done={self.done})"
        )


class PortalService:
    """Asyncio facade multiplexing many tenants onto one portal.

    Parameters
    ----------
    portal:
        The VDC portal whose catalog/storage receive the products;
        defaults to a fresh :class:`~repro.vdc.portal.Portal`.
    runner:
        Execution backend; defaults to a
        :class:`~repro.service.runner.PoolRunner` sharing the portal's
        pool model overrides.
    n_workers:
        Executions that may run concurrently in virtual time.
    quota:
        Admission control (:class:`ServiceQuota`).
    negotiator:
        Fair-share knobs forwarded to
        :func:`~repro.osg.negotiator.negotiate`.
    deposit_site:
        Storage site receiving each run's primary replicas (default:
        the portal storage's first site).

    Use as an async context manager::

        async with PortalService(portal) as service:
            ticket = await service.submit("alice", config)
            result = await ticket
    """

    def __init__(
        self,
        portal: Portal | None = None,
        runner: Runner | None = None,
        *,
        n_workers: int = 2,
        quota: ServiceQuota | None = None,
        negotiator: NegotiatorConfig | None = None,
        deposit_site: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self.portal = portal or Portal()
        self.runner = runner or PoolRunner(
            pool_config=self.portal.pool_config, capacity=self.portal.capacity
        )
        self.quota = quota or ServiceQuota()
        self.negotiator = negotiator or NegotiatorConfig()
        self.clock = VirtualClock()
        self.n_workers = n_workers
        if deposit_site is not None:
            self.portal.storage.site(deposit_site)  # validate early
        self._deposit_site = deposit_site or next(iter(self.portal.storage.sites))
        self.stats = ServiceStats()

        #: Each tenant's queue, and its place in the round-robin ring
        #: (first-submission order).
        self._queues: dict[str, ScheddQueue] = {}
        self._ring: dict[str, int] = {}
        self._rr_offset = 0
        #: Tenants whose queue holds idle entries: the only ones a
        #: negotiation cycle can match.
        self._waiting: set[str] = set()
        self._entries: dict[str, _Entry] = {}
        self._by_key: dict[tuple, _Entry] = {}
        self._pending: dict[str, int] = {}
        self._running: list[tuple[float, int, _Entry]] = []
        self._free_workers = n_workers
        self._n_queued = 0
        self._seq = 0
        self._trace: list[TraceEvent] = []
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._dispatcher: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher task (idempotent; needs a running loop)."""
        if self._closed:
            raise ServiceError("service is closed")
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._run_dispatcher(), name="portal-service-dispatcher"
            )

    async def aclose(self) -> None:
        """Stop the dispatcher; unfinished tickets fail with ServiceError."""
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for entry in self._entries.values():
            if not entry.future.done():
                entry.future.set_exception(
                    ServiceError(
                        f"service closed before {entry.entry_id} finished"
                    )
                )
        # Nothing can run anymore: a closed service is trivially idle,
        # so a later drain() (e.g. from __aexit__) returns immediately.
        self._idle.set()

    async def __aenter__(self) -> "PortalService":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.drain()
        await self.aclose()

    async def drain(self) -> None:
        """Wait until every accepted submission has finished (or, after
        :meth:`aclose`, failed)."""
        if not self._closed:
            self.start()
            self._wake.set()
        await self._idle.wait()

    # -- submission ----------------------------------------------------------

    async def submit(
        self, tenant: str, config: FdwConfig, seed: int = 0
    ) -> Ticket:
        """Queue one scenario submission for a tenant.

        Identical submissions (same config content digest, seed, and
        backend) coalesce onto one execution while it is queued or
        running. Raises :class:`~repro.errors.QuotaExceededError` when
        the tenant is at its pending cap and
        :class:`~repro.errors.BackpressureError` when the shared queue
        is full.
        """
        if self._closed:
            raise ServiceError("service is closed")
        if not tenant or not isinstance(tenant, str):
            raise ServiceError(f"tenant must be a non-empty string, got {tenant!r}")
        self.start()
        now = self.clock.now()
        if self._pending.get(tenant, 0) >= self.quota.max_pending_per_tenant:
            self.stats.n_quota_rejected += 1
            self._count_admission(tenant, "quota_rejected")
            raise QuotaExceededError(
                f"tenant {tenant!r} has {self._pending[tenant]} pending "
                f"submission(s), the per-tenant quota "
                f"({self.quota.max_pending_per_tenant}); await an "
                f"outstanding ticket before submitting more"
            )
        key = (config.content_digest(), int(seed), self.runner.name)
        entry = self._by_key.get(key)
        if entry is not None and not entry.future.done():
            ticket = self._make_ticket(tenant, entry, now, coalesced=True)
            self.stats.n_coalesced += 1
            self._count_admission(tenant, "coalesced")
            self._record(now, "coalesce", tenant, ticket.ticket_id, entry.entry_id)
            return ticket
        if self._n_queued >= self.quota.max_queue_depth:
            self.stats.n_backpressure_rejected += 1
            self._count_admission(tenant, "backpressure_rejected")
            raise BackpressureError(
                f"submission queue is full ({self._n_queued} waiting, "
                f"cap {self.quota.max_queue_depth}); back off and retry"
            )
        entry_id = f"svc-{len(self._entries):05d}"
        entry = _Entry(
            entry_id=entry_id,
            key=key,
            config=config,
            seed=int(seed),
            tenant=tenant,
            future=asyncio.get_running_loop().create_future(),
        )
        self._entries[entry_id] = entry
        self._by_key[key] = entry
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = ScheddQueue(tenant)
            self._ring[tenant] = len(self._ring)
        queue.enqueue(entry_id, entry)
        self._waiting.add(tenant)
        self._n_queued += 1
        self._idle.clear()
        ticket = self._make_ticket(tenant, entry, now, coalesced=False)
        self._count_admission(tenant, "accepted")
        self._record(now, "submit", tenant, ticket.ticket_id, entry_id)
        self._wake.set()
        return ticket

    def _make_ticket(
        self, tenant: str, entry: _Entry, now: float, coalesced: bool
    ) -> Ticket:
        ticket = Ticket(
            f"tkt-{self.stats.n_submitted:05d}", tenant, entry, now, coalesced
        )
        entry.tickets.append(ticket)
        self._pending[tenant] = self._pending.get(tenant, 0) + 1
        self.stats.n_submitted += 1
        return ticket

    @staticmethod
    def _count_admission(tenant: str, outcome: str) -> None:
        # The label dict is built only when a session will read it.
        if obs.enabled():
            obs.counter_add(
                "repro_service_admissions_total", 1,
                {"tenant": tenant, "outcome": outcome},
            )

    # -- results API ---------------------------------------------------------

    async def discover(
        self, home_site: str | None = None, **query: object
    ) -> list[ProductRecord]:
        """Async catalog discovery (feeds the prefetch trace, ranges
        included, when ``home_site`` is given)."""
        return self.portal.discover(home_site=home_site, **query)

    async def retrieve(self, product_id: str, home_site: str) -> float:
        """Deliver a product to a tenant's home site; returns seconds."""
        return self.portal.retrieve(product_id, home_site)

    async def fetch_bank(
        self,
        product_id: str,
        home_site: str,
        rebuild: "object | None" = None,
    ) -> tuple:
        """Fetch a bank-valued product's real bytes, integrity-verified.

        Thin async facade over
        :meth:`~repro.vdc.storage.FederatedStorage.fetch_bank`: disk
        loads go through the sha256-verified read path, corrupt entries
        quarantine and (with ``rebuild``) recompute from source.
        """
        return self.portal.storage.fetch_bank(
            product_id, home_site, rebuild=rebuild  # type: ignore[arg-type]
        )

    def queue_trace(self) -> tuple[TraceEvent, ...]:
        """The full audit trace, oldest first."""
        return tuple(self._trace)

    def runs(self) -> list[str]:
        """Run ids deposited by this service, oldest first."""
        return [
            e.run_id
            for e in self._entries.values()
            if e.run_id and e.error is None
        ]

    # -- dispatcher ----------------------------------------------------------

    async def _run_dispatcher(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while True:
                self._start_ready()
                if not self._running:
                    break
                # Yield once so submissions already scheduled on the
                # loop can land (and coalesce) before virtual time
                # jumps to the next completion.
                await asyncio.sleep(0)
                if self._wake.is_set():
                    self._wake.clear()
                    continue
                self._complete_next()
            if self._n_queued == 0 and not self._running:
                self._idle.set()

    def _rotated_queues(self) -> list[ScheddQueue]:
        """The queues with idle entries, in ring order from the tenant
        after the last one matched."""
        ring, k, n = self._ring, self._rr_offset, len(self._ring)
        queues = self._queues
        return [
            queues[t] for t in sorted(self._waiting, key=lambda t: (ring[t] - k) % n)
        ]

    def _start_ready(self) -> None:
        while self._free_workers > 0 and self._n_queued > 0:
            matches = negotiate(
                self._rotated_queues(), self._free_workers, self.negotiator
            )
            if not matches:
                break
            for queue, _, entry in matches:
                if not queue.n_idle:
                    self._waiting.discard(queue.name)
                self._start_entry(entry)
            last_tenant = matches[-1][0].name
            self._rr_offset = (self._ring[last_tenant] + 1) % len(self._ring)

    def _start_entry(self, entry: _Entry) -> None:
        now = self.clock.now()
        entry.started_at = now
        self._free_workers -= 1
        self._n_queued -= 1
        self._record(now, "start", entry.tenant, "", entry.entry_id)
        try:
            entry.outcome = self.runner.execute(entry.config, entry.seed)
            finish = now + max(0.0, entry.outcome.elapsed_s)
        except Exception as exc:  # noqa: BLE001 - resolved via the future
            entry.error = exc
            finish = now
        self._seq += 1
        heapq.heappush(self._running, (finish, self._seq, entry))

    def _complete_next(self) -> None:
        finish, _, entry = heapq.heappop(self._running)
        self.clock.advance_to(finish)
        self._free_workers += 1
        entry.finished_at = finish
        if entry.error is None:
            try:
                run_id = self.portal.allocate_run_id(entry.config)
                entry.product_ids = tuple(
                    self.portal.deposit_products(
                        run_id,
                        entry.config,
                        site=self._deposit_site,
                        user=entry.tenant,
                    )
                )
                entry.run_id = run_id
            except Exception as exc:  # noqa: BLE001 - resolved via the future
                entry.error = exc
        if self._by_key.get(entry.key) is entry:
            del self._by_key[entry.key]
        for ticket in entry.tickets:
            self._pending[ticket.tenant] -= 1
        if entry.error is None:
            self.stats.n_executed += 1
            observing = obs.enabled()
            waits = self.stats.queue_waits_s
            started_at = entry.started_at
            for ticket in entry.tickets:
                wait = max(0.0, started_at - ticket.submitted_at)
                waits.append(wait)
                if observing:
                    obs.histogram_observe(
                        "repro_service_queue_wait_seconds", wait,
                        {"tenant": ticket.tenant},
                    )
            if observing and entry.outcome is not None:
                obs.counter_add(
                    "repro_service_runs_total", 1,
                    {"backend": entry.outcome.backend, "outcome": "success"},
                )
            self._record(finish, "finish", entry.tenant, "", entry.entry_id)
            entry.future.set_result(entry)
        else:
            self.stats.n_failed += 1
            obs.counter_add(
                "repro_service_runs_total", 1,
                {"backend": self.runner.name, "outcome": "failed"},
            )
            self._record(finish, "fail", entry.tenant, "", entry.entry_id)
            entry.future.set_exception(entry.error)

    def _record(
        self, time: float, event: str, tenant: str, ticket_id: str, entry_id: str
    ) -> None:
        trace = self._trace
        trace.append(
            TraceEvent(len(trace), time, event, tenant, ticket_id, entry_id)
        )

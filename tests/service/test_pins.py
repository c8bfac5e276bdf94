"""Pinned outputs of the portal service path.

Every value below was recorded before the service's hot path computed
each config's content digest and each scenario's virtual cost once, and
before its per-operation records were slotted. They pin what a user of
``PortalService`` sees, exactly:

* ``float.hex`` of :class:`~repro.service.runner.SimulatedRunner`'s
  virtual makespan over a grid of configs and seeds;
* for one seeded session that mixes submissions (some rejected by quota
  or backpressure) with ``discover``/``retrieve`` reads: the sha256 of
  ``repr(queue_trace())``, every :class:`~repro.service.service.ServiceStats`
  counter and its queue waits, the read hits, and the run ids.

The end-to-end benchmark pins the seed-0 ``portal-mixed`` session too,
but tier-1 does not run it.
"""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np
import pytest

from repro import obs
from repro.core.config import FdwConfig
from repro.errors import BackpressureError, QuotaExceededError
from repro.rng import derive_seed
from repro.service import PortalService, ServiceQuota, SimulatedRunner
from repro.vdc.portal import Portal

GRID_CONFIGS = (
    FdwConfig(),
    FdwConfig(n_waveforms=16, n_stations=4, mesh=(8, 5), name="scenario-00", seed=11),
    FdwConfig(n_waveforms=48, n_stations=2, chunk_a=8, chunk_c=4, name="p.q-r_s",
              seed=2**31 - 1),
    FdwConfig(n_waveforms=3000, recycle_distances=False, mw_range=(8.4, 8.6),
              gf_dtype="float32", name="wide"),
)
GRID_SEEDS = (0, 1, 7, 2**31 - 1)

#: ``float.hex(elapsed_s)`` per config (rows) and seed (columns), for
#: the default runner and for ``SimulatedRunner(base_s=600.0, jitter=0.5)``.
ELAPSED_HEX = {
    "default": (
        ("0x1.cdf6e45ab2a4bp+11", "0x1.f2e1ba01d6225p+11",
         "0x1.07b15b273e86dp+12", "0x1.9a02f90979be3p+11"),
        ("0x1.bb299b51b9798p+5", "0x1.8a2507e87de78p+5",
         "0x1.7ba568a4a8aa5p+5", "0x1.5c53cc88bc098p+5"),
        ("0x1.3d2d0931e9048p+7", "0x1.437e6011f8361p+7",
         "0x1.952a891356ad0p+7", "0x1.56a2b362218c0p+7"),
        ("0x1.863c9a6744d14p+13", "0x1.5428328abfffep+13",
         "0x1.1b2ee5e1424e8p+13", "0x1.88094444fd5f7p+13"),
    ),
    "tuned": (
        ("0x1.3bf3db2398dbap+9", "0x1.6d2cf80272d87p+9",
         "0x1.932e4868a6bccp+9", "0x1.ed5d42c3ef508p+8"),
        ("0x1.22e2246cf74cap+3", "0x1.c30d6a6bfa696p+2",
         "0x1.9c63c1b7171b8p+2", "0x1.48df76c1f56e9p+2"),
        ("0x1.8bcd6dda6d617p+4", "0x1.9ca6558540903p+4",
         "0x1.3b38b6c473915p+5", "0x1.cfb1de5b04203p+4"),
        ("0x1.2c96cddf066c5p+11", "0x1.d3a1dc1caaaa8p+10",
         "0x1.3bb3ba58b0d16p+10", "0x1.2efd05b151d4ap+11"),
    ),
}

#: The mixed session's outputs.
SESSION = {
    "trace_sha256": "31fcd0deba3a10633f14c7fcb6fdd6d3ca06e5af904d56435a7d3356461f4f43",
    "submitted": 478,
    "coalesced": 155,
    "executed": 323,
    "failed": 0,
    "quota_rejected": 20,
    "backpressure_rejected": 17,
    "queue_waits_sha256": "76a2b0ff8b63fec6baa8214f5addbd6a3ffb68a0546e993781d49a8c7eaa716e",
    "read_hits": 2210,
    "client_rejected": 37,
    "n_runs": 323,
    "runs_sha256": "7d01cda8c8948c317f4e56b8e0ae2f2021d0a6de5458f703406870ad9bdf2339",
    "results_sha256": "5d07ed32ce048fefb0e21308fb56176a452271c7f0729b43b75240ec4e28b6e2",
}

SITES = ("vdc-rutgers", "vdc-psu", "vdc-utah")


def _runner(kind: str) -> SimulatedRunner:
    return SimulatedRunner() if kind == "default" else SimulatedRunner(600.0, 0.5)


def _elapsed_grid(runner: SimulatedRunner) -> tuple[tuple[str, ...], ...]:
    return tuple(
        tuple(runner.execute(config, seed).elapsed_s.hex() for seed in GRID_SEEDS)
        for config in GRID_CONFIGS
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _session() -> dict:
    """One seeded session: 6 tenants, 5 scenarios x 2 seeds, 600
    operations of which about 15 % are reads, 2 workers, and a quota
    and queue cap tight enough that both turn submissions away."""
    configs = [
        FdwConfig(
            n_waveforms=16 * (1 + i % 3), n_stations=4, mesh=(8, 5),
            name=f"pin-{i}", seed=derive_seed(5, "pin-config", i) % (2**31),
        )
        for i in range(5)
    ]
    rng = np.random.default_rng(derive_seed(2026, "service-pins"))

    async def client() -> dict:
        service = PortalService(
            Portal(), SimulatedRunner(), n_workers=2,
            quota=ServiceQuota(max_pending_per_tenant=3, max_queue_depth=4),
        )
        tickets, hits, rejected = [], 0, 0
        async with service:
            for _ in range(600):
                k = int(rng.integers(6))
                tenant = f"tenant-{k}"
                if rng.random() < 0.85:
                    config = configs[int(rng.integers(len(configs)))]
                    try:
                        tickets.append(
                            await service.submit(tenant, config, int(rng.integers(2)))
                        )
                    except (QuotaExceededError, BackpressureError):
                        rejected += 1
                else:
                    home = SITES[k % len(SITES)]
                    found = await service.discover(
                        home, kind="waveforms", tags={f"user:{tenant}"}
                    )
                    for record in found[-2:]:
                        await service.retrieve(record.product_id, home)
                    hits += len(found)
                for _ in range(int(rng.integers(0, 3))):
                    await asyncio.sleep(0)
            results = [await ticket for ticket in tickets]
        stats = service.stats
        runs = service.runs()
        return {
            "trace_sha256": _sha256(repr(service.queue_trace())),
            "submitted": stats.n_submitted,
            "coalesced": stats.n_coalesced,
            "executed": stats.n_executed,
            "failed": stats.n_failed,
            "quota_rejected": stats.n_quota_rejected,
            "backpressure_rejected": stats.n_backpressure_rejected,
            "queue_waits_sha256": _sha256(repr(stats.queue_waits_s)),
            "read_hits": hits,
            "client_rejected": rejected,
            "n_runs": len(runs),
            "runs_sha256": _sha256("\n".join(runs)),
            "results_sha256": _sha256(repr(results)),
        }

    return asyncio.run(client())


@pytest.mark.parametrize("kind", sorted(ELAPSED_HEX))
def test_simulated_makespans_pinned(kind):
    assert _elapsed_grid(_runner(kind)) == ELAPSED_HEX[kind]


@pytest.mark.parametrize("kind", sorted(ELAPSED_HEX))
def test_repeated_pairs_keep_their_makespans(kind):
    """A runner that has seen every pair, in another order, answers the
    pinned grid, and so it does again."""
    runner = _runner(kind)
    for config in reversed(GRID_CONFIGS):
        for seed in reversed(GRID_SEEDS):
            runner.execute(config, seed)
    assert _elapsed_grid(runner) == ELAPSED_HEX[kind]
    assert _elapsed_grid(runner) == ELAPSED_HEX[kind]


def test_mixed_session_pinned():
    assert _session() == SESSION


def test_mixed_session_pinned_with_obs_enabled():
    with obs.observe() as session:
        outputs = _session()
    assert outputs == SESSION
    registry = session.registry
    assert registry.counter_total("repro_service_admissions_total") == (
        SESSION["submitted"] + SESSION["quota_rejected"]
        + SESSION["backpressure_rejected"]
    )
    waits = registry.snapshot()["repro_service_queue_wait_seconds"]["series"]
    assert sum(series["count"] for series in waits) == SESSION["submitted"]

"""Seeded chaos campaigns: prove the resilience layer end to end.

A chaos campaign runs the *same* workload twice — once fault-free, once
under a seeded storm of injected failures — and asserts the strongest
property the stack claims: **the final product archive is bit-identical
either way**. Corruption degrades to quarantine-and-recompute, flaky
chunks are retried on deterministic backoff, transfer glitches are
absorbed by the Stash retry path, and a site outage is ridden out by
circuit breakers failing retrievals over to healthy replicas (or a
recompute when none survive). Because every fault draw, retry delay,
and breaker transition is seed-derived, a campaign is exactly
replayable — chaos you can bisect.

Three stages, mirroring the three layers the faults target:

1. **Local runner** — a checkpointed run is crashed mid-phase, its
   GF-bank / K-L cache entries, one checkpoint chunk and one
   checkpointed waveform product are corrupted on disk, chunk flakes
   are injected, and the run is resumed. The resumed archive must match
   the fault-free baseline byte for byte (quarantine directories
   excluded — they hold the damaged evidence).
2. **OSPool / Stash** — the same DAGMan batch is simulated with and
   without :class:`~repro.faults.TransferFaults`; both must complete
   every job (no rescue files), the faulted one just pays retries,
   backoff, and the occasional degraded origin pull.
3. **VDC federation** — a bank-valued product is retrieved across a
   :class:`~repro.faults.SiteOutage` window under per-site circuit
   breakers: failover to the surviving replica, fail-fast while the
   breaker is open, half-open recovery after the outage, and a
   quarantine-triggered rebuild when the cached bytes are corrupted.

Run it from the CLI: ``repro chaos --seed 7``.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import FdwConfig
from repro.core.gfcache import GFCache
from repro.core.local import LocalRunner
from repro.core.workflow import build_fdw_dag
from repro.condor.dagman import DagmanOptions
from repro.osg.pool import OSPoolSimulator
from repro.faults import (
    ChunkCrash,
    ChunkFlake,
    FaultInjected,
    FaultPlan,
    SiteOutage,
    StorageFault,
    TransferFaults,
)
from repro.resilience import BreakerPolicy
from repro.rng import RngFactory
from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters
from repro.seismo.klcache import KLCache
from repro.vdc.storage import FederatedStorage, StorageSite

__all__ = ["ChaosConfig", "ChaosReport", "archive_bytes", "run_chaos_campaign"]


def archive_bytes(root: str | Path) -> dict[str, bytes]:
    """Every product file under an archive tree, keyed by relative path.

    Underscore-prefixed directories (``_quarantine``, ``_checkpoint``)
    are excluded: they hold operational state and damaged-artifact
    evidence, not products, so bit-identity is asserted over exactly
    what a consumer of the archive sees.
    """
    root = Path(root)
    out: dict[str, bytes] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if any(part.startswith("_") for part in rel.parts):
            continue
        out[str(rel)] = path.read_bytes()
    return out


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one campaign (all fault schedules derive from ``seed``)."""

    seed: int = 0
    transfer_failure_prob: float = 0.15
    transfer_slow_prob: float = 0.10
    outage_window: tuple[float, float] = (100.0, 400.0)
    breaker: BreakerPolicy = BreakerPolicy(
        failure_threshold=2, cooldown_s=120.0, probe_cost_s=5.0
    )


@dataclass
class ChaosReport:
    """Everything a campaign observed, plus the verdict."""

    seed: int
    bit_identical: bool
    n_products: int
    quarantined: list[str] = field(default_factory=list)
    chunk_retries: dict[str, int] = field(default_factory=dict)
    retry_backoff_s: float = 0.0
    pool_makespan_s: float = 0.0
    pool_makespan_faulted_s: float = 0.0
    n_transfer_faults: int = 0
    n_transfer_retries: int = 0
    n_degraded_transfers: int = 0
    transfer_backoff_s: float = 0.0
    n_failovers: int = 0
    n_rebuilds: int = 0
    breaker_events: list[str] = field(default_factory=list)
    breaker_snapshots: list[dict] = field(default_factory=list)

    def summary(self) -> str:
        """Human-readable campaign report (what the CLI prints)."""
        verdict = "BIT-IDENTICAL" if self.bit_identical else "DIVERGED"
        lines = [
            f"chaos campaign (seed {self.seed}): archive {verdict} "
            f"({self.n_products} product files)",
            f"  local: {sum(self.chunk_retries.values())} chunk retries "
            f"{dict(self.chunk_retries)}, "
            f"{self.retry_backoff_s:.2f}s backoff accounted",
            f"  quarantined artifacts ({len(self.quarantined)}):",
        ]
        lines += [f"    {name}" for name in self.quarantined]
        lines += [
            f"  stash: {self.n_transfer_faults} transfer faults, "
            f"{self.n_transfer_retries} retries "
            f"({self.transfer_backoff_s:.1f}s backoff), "
            f"{self.n_degraded_transfers} degraded to origin",
            f"  pool makespan: {self.pool_makespan_s:.0f}s fault-free "
            f"-> {self.pool_makespan_faulted_s:.0f}s under faults",
            f"  vdc: {self.n_failovers} failovers, {self.n_rebuilds} "
            f"rebuild(s) from source",
        ]
        for event in self.breaker_events:
            lines.append(f"    {event}")
        for snap in self.breaker_snapshots:
            lines.append(
                f"  breaker {snap['name']}: {snap['state']} "
                f"(opened {snap['n_opens']}x, rejected {snap['n_rejected']})"
            )
        return "\n".join(lines)


def _small_config(seed: int) -> FdwConfig:
    return FdwConfig(
        n_waveforms=6,
        n_stations=3,
        mesh=(8, 5),
        chunk_a=2,
        chunk_c=2,
        seed=seed,
        name="chaos",
    )


def _quarantine_names(workdir: Path) -> list[str]:
    return sorted(
        str(p.relative_to(workdir))
        for p in workdir.rglob("*")
        if p.is_file()
        and not p.name.endswith(".reason")
        and not p.name.endswith(".sha256")
        and any(part in ("quarantine", "_quarantine") for part in p.parts)
    )


def _local_stage(
    config: FdwConfig, chaos: ChaosConfig, workdir: Path, report: ChaosReport
) -> None:
    """Crash + corrupt + flake a checkpointed run; must match baseline."""
    base_dir = workdir / "baseline"
    chaos_dir = workdir / "chaos"
    with LocalRunner(
        gf_cache=GFCache(cache_dir=workdir / "base_gf"),
        kl_cache=KLCache(cache_dir=workdir / "base_kl"),
    ) as runner:
        runner.run(config, archive_dir=base_dir)

    rng = RngFactory(chaos.seed).generator("chaos", "local")
    gf_dir = workdir / "chaos_gf"
    kl_dir = workdir / "chaos_kl"
    # Leg 1: flaked early, crashed mid-Phase-C (after its chunks
    # checkpointed) — the deterministic stand-in for a process death.
    plan = FaultPlan(
        crashes=(ChunkCrash("C", 1),),
        flakes=(ChunkFlake("A", int(rng.integers(3)), times=1),),
    )
    with LocalRunner(
        gf_cache=GFCache(cache_dir=gf_dir), kl_cache=KLCache(cache_dir=kl_dir)
    ) as runner:
        try:
            runner.run(config, archive_dir=chaos_dir, checkpoint=True, faults=plan)
        except FaultInjected:
            pass
        else:  # pragma: no cover - the crash must fire
            raise AssertionError("injected ChunkCrash did not fire")

    # Storm between the legs: bit-flip the cached GF bank, truncate a
    # K-L basis, one checkpointed chunk and one checkpointed product.
    # All four must be caught by their digest checks (the product's is
    # kept in its C chunk's record), quarantined, and recomputed on
    # resume.
    for pattern, kind, where in (
        ("gf_*.npz", "bitflip", gf_dir),
        ("kl_*.npz", "truncate", kl_dir),
        ("A_*.pkl", "truncate", chaos_dir / "_checkpoint"),
        ("*.npz", "truncate", chaos_dir / "_checkpoint" / "waveforms"),
    ):
        victims = sorted(where.glob(pattern))
        if victims:
            StorageFault(kind, seed=chaos.seed).apply(victims[0])

    # Leg 2: resume through fresh caches (cold memory, corrupted disk),
    # with one more flake on the final C chunk's first attempt.
    resume_plan = FaultPlan(flakes=(ChunkFlake("C", 2, times=1),))
    with LocalRunner(
        gf_cache=GFCache(cache_dir=gf_dir), kl_cache=KLCache(cache_dir=kl_dir)
    ) as runner:
        result = runner.run(
            config, archive_dir=chaos_dir, resume=True, faults=resume_plan
        )

    report.chunk_retries = dict(result.chunk_retries)
    report.retry_backoff_s = result.retry_backoff_s
    baseline = archive_bytes(base_dir)
    chaotic = archive_bytes(chaos_dir)
    report.n_products = len(baseline)
    report.bit_identical = baseline == chaotic
    report.quarantined = _quarantine_names(workdir)


def _run_pool(
    config: FdwConfig, seed: int, transfer_faults: TransferFaults | None
) -> OSPoolSimulator:
    pool = OSPoolSimulator(seed=seed, transfer_faults=transfer_faults)
    pool.submit_dagman(
        build_fdw_dag(config),
        options=DagmanOptions(max_idle=config.max_idle),
        name=config.name,
    )
    pool.run()
    return pool


def _pool_stage(config: FdwConfig, chaos: ChaosConfig, report: ChaosReport) -> None:
    """Same DAGMan batch with and without transfer faults: both finish."""
    clean = _run_pool(config, chaos.seed, None)
    faults = TransferFaults(
        failure_prob=chaos.transfer_failure_prob,
        slow_prob=chaos.transfer_slow_prob,
        seed=chaos.seed,
    )
    faulted = _run_pool(config, chaos.seed, faults)
    for pool in (clean, faulted):
        if any(run.dead for run in pool.dagman_runs.values()):  # pragma: no cover
            raise AssertionError("chaos pool stage left dead DAGMans behind")
    report.pool_makespan_s = clean.sim.now
    report.pool_makespan_faulted_s = faulted.sim.now
    report.n_transfer_faults = faulted.cache.n_transfer_faults
    report.n_transfer_retries = faulted.cache.n_transfer_retries
    report.n_degraded_transfers = faulted.cache.n_degraded_transfers
    report.transfer_backoff_s = faulted.cache.total_backoff_seconds


def _vdc_stage(
    config: FdwConfig, chaos: ChaosConfig, workdir: Path, report: ChaosReport
) -> None:
    """Ride out a site outage on breakers; rebuild corrupted bytes."""
    params = FakeQuakesParameters(
        n_ruptures=config.n_waveforms,
        n_stations=config.n_stations,
        mw_range=config.mw_range,
        mesh=config.mesh,
        gf_dtype=config.gf_dtype,
        seed=config.seed,
    )
    fq = FakeQuakes.from_parameters(params)
    fq.phase_a_distances()
    bank = fq.phase_b_greens_functions()

    cache_dir = workdir / "vdc_cache"
    cache = GFCache(cache_dir=cache_dir)
    start, end = chaos.outage_window
    storage = FederatedStorage(
        [
            # The user's gateway is deliberately tiny: nothing can be
            # cached locally, so every retrieval probes the federation.
            StorageSite("gateway", capacity_mb=1e-6),
            StorageSite("origin", wan_mb_per_s=100.0),
            StorageSite("mirror", wan_mb_per_s=40.0),
        ],
        artifact_cache=cache,
        breaker_policy=chaos.breaker,
        outages=[SiteOutage("origin", start, end)],
    )
    storage.store_bank("gf/chaos", bank, site="origin")
    storage.replicate("gf/chaos", "mirror")

    def fetch(now: float) -> float:
        _, elapsed = storage.fetch_bank(
            "gf/chaos", "gateway", now=now, rebuild=fq.phase_b_greens_functions
        )
        return elapsed

    breaker = storage.breakers["origin"]
    timeline = [
        (0.0, "before the outage: served by origin"),
        (start + 10.0, "origin dark: probe fails, failover to mirror"),
        (start + 20.0, "origin dark again: breaker trips open"),
        (start + 30.0, "breaker open: origin skipped for free"),
        (start + 30.0 + chaos.breaker.cooldown_s, "half-open probe, still dark"),
        (end + chaos.breaker.cooldown_s * 2, "outage over: probe heals the breaker"),
    ]
    for now, label in timeline:
        fetch(now)
        report.breaker_events.append(
            f"t={now:6.0f}s {label} [origin breaker: {breaker.state}]"
        )

    # Corrupt the one physical copy; the next fetch must quarantine it
    # and transparently rebuild from source.
    cache.clear()  # drop the memory level; the disk bytes are the copy
    victims = sorted(cache_dir.glob("gf_*.npz"))
    StorageFault("bitflip", seed=chaos.seed).apply(victims[0])
    fetch(end + chaos.breaker.cooldown_s * 2 + 10.0)

    report.n_failovers = storage.n_failovers
    report.n_rebuilds = storage.n_rebuilds
    report.breaker_snapshots = storage.breaker_snapshots()
    report.quarantined = sorted(
        set(report.quarantined) | set(_quarantine_names(workdir))
    )


def run_chaos_campaign(
    workdir: str | Path,
    chaos: ChaosConfig | None = None,
    config: FdwConfig | None = None,
) -> ChaosReport:
    """Run the full three-stage campaign; see the module docstring.

    ``workdir`` is created (and wiped) for the campaign's archives and
    caches; quarantined artifacts are left in place for inspection.
    """
    chaos = chaos or ChaosConfig()
    config = config or _small_config(chaos.seed)
    workdir = Path(workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    report = ChaosReport(seed=chaos.seed, bit_identical=False, n_products=0)
    _local_stage(config, chaos, workdir, report)
    _pool_stage(config, chaos, report)
    _vdc_stage(config, chaos, workdir, report)
    return report

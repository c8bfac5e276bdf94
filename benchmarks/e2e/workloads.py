"""The benchmark's workloads, run one repetition per fresh interpreter.

``python workloads.py JOB.json`` is what ``run.py`` starts for every
repetition: it sets the workload up, times one call of the path under
test, computes the outputs the driver checks, and writes a result JSON.
A fresh interpreter per repetition matters because per-process memos
(the ``integrity.read_verified`` stat-fingerprint memo, the pool
workers' Phase-A sessions, attached shared-memory banks) would
otherwise let later repetitions measure a warmer program than
``repro run`` does.

Each workload derives its inputs from the driver's seed through
``repro.rng.derive_seed(seed, <workload name>)``; the program receives
only the generated inputs.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from repro.rng import derive_seed

ROOT = Path(__file__).resolve().parents[2]
FDW64 = ROOT / "examples" / "fdw64_wfformat.json"
HOME_SITES = ("vdc-rutgers", "vdc-psu", "vdc-utah")


def workload_seed(seed: int, name: str) -> int:
    """The workload's root seed (31 bits, like the service demo's)."""
    return derive_seed(seed, name) % (2**31)


def archive_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every file."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class FdwWorkload:
    """``LocalRunner.run`` of one configuration into a fresh archive.

    The ``reference`` role is the untimed correctness oracle: a
    sequential, non-checkpointed run on the same configuration with
    cold caches. When the workload runs warm, the reference writes the
    cache directory the timed repetitions then read.
    """

    def __init__(self, name: str, spec: dict, seed: int, work: Path, role: str, recorder) -> None:
        self.spec, self.work, self.role = spec, work, role
        self.seed = workload_seed(seed, name)
        self.reference = role == "reference"

    def setup(self) -> None:
        from repro.core.config import FdwConfig
        from repro.core.gfcache import GFCache
        from repro.seismo.klcache import KLCache

        spec = self.spec
        self.config = FdwConfig(
            n_waveforms=spec["n_waveforms"],
            n_stations=spec["n_stations"],
            mesh=tuple(spec["mesh"]),
            mw_range=tuple(spec["mw_range"]),
            seed=self.seed,
        )
        self.run_dir = self.work / f"{self.role}-{time.monotonic_ns()}"
        cache_dir = self.work / "caches" if spec["warm"] else self.run_dir / "caches"
        self.archive_dir = self.run_dir / "archive"
        self.n_workers = 1 if self.reference else spec["n_workers"]
        self.checkpoint = spec["checkpoint"] and not self.reference
        self.gf_cache = GFCache(cache_dir / "gf")
        self.kl_cache = KLCache(cache_dir=cache_dir / "kl")
        if spec["warm"] and not self.reference and not self.kl_cache.disk_keys():
            raise RuntimeError("warm workload started before its caches were primed")

    def timed(self) -> None:
        from repro.core.local import LocalRunner

        with LocalRunner(
            n_workers=self.n_workers, gf_cache=self.gf_cache, kl_cache=self.kl_cache
        ) as runner:
            self.result = runner.run(
                self.config, archive_dir=self.archive_dir, checkpoint=self.checkpoint
            )

    def outputs(self) -> dict:
        result = self.result
        out = {
            "n_waveform_sets": result.n_waveform_sets,
            "archive_sha256": archive_digest(self.archive_dir),
            "pgd": result.pgd_by_rupture,
            "phase_seconds": result.phase_seconds,
            "n_workers": self.n_workers,
        }
        shutil.rmtree(self.run_dir)
        return out


class PoolWorkload:
    """``replay_instance`` of a WfChef scale-up of the bundled fdw64
    instance, model runtimes, vector engine. Generating and importing
    the instance is set-up."""

    def __init__(self, name: str, spec: dict, seed: int, work: Path, role: str, recorder) -> None:
        self.spec = spec
        self.seed = workload_seed(seed, name)

    def setup(self) -> None:
        import repro.wf as wf
        from repro.condor.dagman import DagmanOptions
        from repro.osg.capacity import FixedCapacity
        from repro.osg.negotiator import NegotiatorConfig
        from repro.osg.pool import OSPoolConfig

        n, slots = self.spec["n_tasks"], self.spec["slots"]
        self.workflow = wf.import_instance(
            wf.generate_instance(wf.load_instance(FDW64), n, seed=self.seed)
        )
        self.kwargs = dict(
            seed=self.seed,
            runtime="model",
            engine="vector",
            config=OSPoolConfig(
                negotiator=NegotiatorConfig(cycle_s=60.0, match_limit_per_cycle=slots)
            ),
            capacity=FixedCapacity(slots),
            options=DagmanOptions(max_idle=0, submit_batch=n),
        )

    def timed(self) -> None:
        import repro.wf as wf

        self.result = wf.replay_instance(self.workflow, **self.kwargs)

    def outputs(self) -> dict:
        records = self.result.metrics.records
        tasks = {task.name for task in self.workflow.instance.tasks}
        completed = {r.node_name for r in records if r.success}
        digest = hashlib.sha256()
        for r in sorted(records, key=lambda r: (r.node_name, r.cluster_id)):
            digest.update(
                f"{r.node_name}|{r.cluster_id}|{r.start_time!r}|{r.end_time!r}|{r.success}\n".encode()
            )
        return {
            "missing_tasks": len(tasks - completed),
            "n_records": len(records),
            "makespan_s": self.result.makespan_s,
            "records_sha256": digest.hexdigest(),
        }


class PortalWorkload:
    """A seeded closed-loop client of ``PortalService`` (the ``repro
    serve`` path): one client, the next operation issued when the
    previous call returns, then 0-2 event-loop yields as in the service
    demo. Submissions draw zipf-weighted tenants and a few distinct
    scenarios; reads discover a tenant's waveform products from its
    home site and retrieve the last two hits.
    """

    def __init__(self, name: str, spec: dict, seed: int, work: Path, role: str, recorder) -> None:
        self.spec = spec
        self.seed = workload_seed(seed, name)
        self.recorder = recorder

    def setup(self) -> None:
        from repro.core.config import FdwConfig
        from repro.service.runner import SimulatedRunner
        from repro.service.service import PortalService, ServiceQuota
        from repro.vdc.portal import Portal

        spec = self.spec
        self.configs = [
            FdwConfig(
                n_waveforms=16, n_stations=4, mesh=(8, 5), name=f"scenario-{i:02d}",
                seed=derive_seed(self.seed, "scenario", i) % (2**31),
            )
            for i in range(spec["n_scenarios"])
        ]
        n_ops = spec["n_ops"]
        # The demo's quota sizing: admission never rejects this client.
        quota = ServiceQuota(max_pending_per_tenant=max(8, n_ops), max_queue_depth=max(16, n_ops))
        self.make_service = lambda: PortalService(
            Portal(), SimulatedRunner(), n_workers=spec["n_workers"], quota=quota
        )

    async def _client(self) -> None:
        from repro.errors import BackpressureError, QuotaExceededError

        spec, rec = self.spec, self.recorder
        rng = np.random.default_rng(derive_seed(self.seed, "client"))
        n_tenants = spec["n_tenants"]
        weights = 1.0 / (1.0 + np.arange(n_tenants))
        weights /= weights.sum()
        clock = time.perf_counter
        submit_s, read_s, tickets = [], [], []
        rejected = failed_reads = hits = 0
        service = self.service = self.make_service()
        async with service:
            for _ in range(spec["n_ops"]):
                if rec is not None:
                    rec.push("client.op")
                k = int(rng.choice(n_tenants, p=weights))
                tenant = f"tenant-{k:02d}"
                if rng.random() >= spec["read_share"]:
                    config = self.configs[int(rng.integers(len(self.configs)))]
                    start = clock()
                    try:
                        tickets.append(await service.submit(tenant, config))
                    except (QuotaExceededError, BackpressureError):
                        rejected += 1
                    submit_s.append(clock() - start)
                else:
                    home = HOME_SITES[k % len(HOME_SITES)]
                    start = clock()
                    try:
                        found = await service.discover(
                            home, kind="waveforms", tags={f"user:{tenant}"}
                        )
                        for record in found[-2:]:
                            await service.retrieve(record.product_id, home)
                        hits += len(found)
                    except Exception:  # noqa: BLE001 - every failed read is counted
                        failed_reads += 1
                    read_s.append(clock() - start)
                if rec is not None:
                    rec.pop("client.op")
                for _ in range(int(rng.integers(0, 3))):
                    await asyncio.sleep(0)
            failed_tickets = 0
            for ticket in tickets:
                try:
                    await ticket
                except Exception:  # noqa: BLE001 - every failed ticket is counted
                    failed_tickets += 1
        self.failed_tickets = failed_tickets
        self.submit_s, self.read_s = submit_s, read_s
        self.rejected, self.failed_reads, self.hits = rejected, failed_reads, hits

    def timed(self) -> None:
        rec = self.recorder
        if rec is not None:
            rec.push("service.loop")
        asyncio.run(self._client())
        if rec is not None:
            rec.pop("service.loop")

    def outputs(self) -> dict:
        stats = self.service.stats
        trace = hashlib.sha256(repr(self.service.queue_trace()).encode()).hexdigest()
        return {
            "failed_ops": self.rejected + self.failed_tickets + self.failed_reads,
            "n_submits": len(self.submit_s),
            "n_reads": len(self.read_s),
            "stats": {
                "submitted": stats.n_submitted,
                "coalesced": stats.n_coalesced,
                "executed": stats.n_executed,
                "failed": stats.n_failed,
                "quota_rejected": stats.n_quota_rejected,
                "backpressure_rejected": stats.n_backpressure_rejected,
                "read_hits": self.hits,
                "queue_trace_sha256": trace,
            },
            "queue_wait_p99_s": stats.wait_percentile(99),
            "submit_s": self.submit_s,
            "read_s": self.read_s,
        }


KINDS = {"fdw": FdwWorkload, "pool": PoolWorkload, "portal": PortalWorkload}


def _peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _layers(recorder, trace_dir: Path, setup_totals, timed_totals, trace_path: Path) -> dict:
    from repro.obs.export import dump_chrome_trace, validate_chrome_trace

    from layers import merge_worker_files

    worker_totals = merge_worker_files(trace_dir, recorder)
    text = dump_chrome_trace(recorder.tracer)
    n_events = validate_chrome_trace(json.loads(text))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(text)
    return {
        "setup": setup_totals,
        "parent": timed_totals,
        "workers": worker_totals,
        "trace_events": n_events,
    }


def run_job(job: dict) -> dict:
    """Run one repetition described by ``job``; return its result."""
    work = Path(job["work"])
    recorder = uninstall = None
    if job["trace"]:
        from layers import SpanRecorder, install

        trace_dir = work / f"spans-{time.monotonic_ns()}"
        trace_dir.mkdir(parents=True)
        recorder = SpanRecorder(worker_dir=trace_dir)
        uninstall = install(recorder)
    out: dict = {"ok": False}
    try:
        workload = KINDS[job["kind"]](
            job["workload"], job["spec"], job["seed"], work, job["role"], recorder
        )
        workload.setup()
        out["ready"] = time.monotonic()
        start = time.perf_counter()
        setup_totals = recorder.take() if recorder is not None else None
        workload.timed()
        out["wall_s"] = time.perf_counter() - start
        out["rss_mb"] = _peak_rss_mb()
        if recorder is not None:
            timed_totals = recorder.take()
            uninstall()
            out["layers"] = _layers(
                recorder, trace_dir, setup_totals, timed_totals, Path(job["trace_path"])
            )
        out["outputs"] = workload.outputs()
        out["ok"] = True
    except Exception:  # noqa: BLE001 - the driver counts a crashed repetition as failed
        out["error"] = traceback.format_exc()
    out["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    return out


def _stop_resource_tracker() -> None:
    """Stop (and wait for) the shared-memory tracker a pooled run starts."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker  # no public stop in 3.10-3.12
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    result = run_job(job)
    Path(job["result_path"]).write_text(json.dumps(result))
    _stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

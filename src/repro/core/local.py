"""Single-machine FDW execution (the paper's AWS control).

The paper's baseline runs "an automated version of MudPy's FakeQuakes on
a single host" — an AWS instance with 4 CPUs. :class:`LocalRunner`
plays that role two ways:

* :meth:`LocalRunner.run` executes the *real* seismic kernels of
  :mod:`repro.seismo` through the same phase/chunk structure the OSG
  jobs use, sequentially or with a process pool, and returns the actual
  products. This is feasible at example/test scale.
* :func:`estimate_sequential_runtime_s` predicts what the full-scale
  workload would take on the single host by summing the calibrated
  per-job costs — this is the control number the
  ``bench_single_machine_vs_osg`` benchmark compares against (the
  56.8 % headline).

The pool path shares one Green's-function bank across all workers
through :mod:`repro.core.gfcache` and :mod:`repro.core.sharedbank`.
When Phase C goes to the pool, Phase B is one pool task too, as it is
its own job in the paper: the parent creates (and owns) the bank's
``multiprocessing`` shared-memory segments and queues the task behind
the Phase-A chunks; the worker that takes it gets the bank through a
cache over the runner's disk store, building it straight into the
segments on a miss or copying a verified hit, writes the cache entry
and returns a small picklable
:class:`~repro.core.sharedbank.SharedBankHandle`. The parent never
holds a bank: it waits for the handle only when it is about to submit
Phase-C chunks, which carry it with their pre-generated rupture chunk.
Each worker keeps one FakeQuakes session, for the configuration it is
running; a task for another configuration replaces it. A session's
first Phase-C chunk attaches the bank into it, and the session keeps
that mapping until it is replaced. Phase-C chunks run the same
:meth:`~repro.seismo.fakequakes.FakeQuakes.phase_c_waveforms` as an
inline chunk. Phase-C workers never recompute distances, ruptures, or
the bank — the in-process equivalent of every Phase-C job pulling the
Phase-B archive from the Stash/OSDF cache instead of recomputing it.
Pooled Phase-A workers build the distance matrices in their own
sessions, so the parent builds them only when it generates ruptures
itself. Every process ends Phase A
(:meth:`~repro.seismo.fakequakes.FakeQuakes.end_phase_a`) before it
builds a bank or synthesizes: the parent when its own Phase A returns,
a worker when it takes the Phase-B task or a Phase-C chunk. So no
process carries the distance matrices, their lag table or the rupture
generator through Phases B and C, and a repeated pooled run of one
configuration rebuilds the matrices in each worker that runs one of
its Phase-A chunks.
"""

from __future__ import annotations

import shutil
import time
import weakref
from collections.abc import Callable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from multiprocessing import resource_tracker
from pathlib import Path
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import ConfigError
from repro.resilience import RetryPolicy, retry_call
from repro.core.checkpoint import CRow, RunCheckpoint
from repro.core.config import FdwConfig
from repro.core.phases import chunk_bounds, plan_phases
from repro.core.sharedbank import (
    SharedBankHandle,
    attach_shared_bank,
    open_shared_bank,
    publish_shared_bank,
)
from repro.osg.runtimes import RuntimeModel
from repro.rupt import write_rupt

# The seismic stack (repro.seismo, scipy.linalg) and the GF cache load
# where a run executes its phases or writes its archive, not when
# repro.core is imported: the pool and portal paths import this package
# and never run a kernel. The shared-bank helpers and the .rupt writer
# above load none of it, so they are bound here, where
# benchmarks/e2e/layers.py wraps them.
if TYPE_CHECKING:
    from repro.core.gfcache import GFCache
    from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters
    from repro.seismo.geometry import FaultGeometry
    from repro.seismo.klcache import KLCache
    from repro.seismo.mudpy_io import ProductArchive
    from repro.seismo.ruptures import Rupture
    from repro.seismo.waveforms import WaveformSet

    #: Pool task for one Phase-A chunk: (parameters, start, count, K-L dir).
    _AChunkTask = tuple[FakeQuakesParameters, int, int, "str | None"]

    #: Pool task for Phase B: (handle of the segments to fill,
    #: parameters, GF dir).
    _BTask = tuple[SharedBankHandle, FakeQuakesParameters, "str | None"]

    #: Pool task for one Phase-C chunk: (shared-bank handle, parameters,
    #: rupture chunk, spool dir).
    _CChunkTask = tuple[SharedBankHandle, FakeQuakesParameters, list[Rupture], Path | None]

__all__ = ["LocalRunResult", "LocalRunner", "estimate_sequential_runtime_s"]


@dataclass(frozen=True)
class LocalRunResult:
    """Products and timings of one local FDW run.

    ``chunks_executed``/``chunks_skipped`` count A/C chunks actually
    computed vs restored from a checkpoint — the resume accounting
    that lets recovery tests assert no completed work was redone.
    """

    config: FdwConfig
    n_waveform_sets: int
    phase_seconds: dict[str, float]
    archive_root: Path | None = None
    pgd_by_rupture: dict[str, float] = field(default_factory=dict)
    chunks_executed: dict[str, int] = field(default_factory=dict)
    chunks_skipped: dict[str, int] = field(default_factory=dict)
    #: Chunk re-attempts absorbed by the retry wrapper, per phase.
    chunk_retries: dict[str, int] = field(default_factory=dict)
    #: Deterministic backoff seconds those retries accounted (not slept).
    retry_backoff_s: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Wall time across all phases."""
        return sum(self.phase_seconds.values())


def _fakequakes_for(
    config: FdwConfig,
    gf_cache: GFCache | None = None,
    kl_cache: KLCache | None = None,
) -> FakeQuakes:
    from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters

    params = FakeQuakesParameters(
        n_ruptures=config.n_waveforms,
        n_stations=config.n_stations,
        mw_range=config.mw_range,
        mesh=config.mesh,
        gf_dtype=config.gf_dtype,
        seed=config.seed,
    )
    return FakeQuakes.from_parameters(params, gf_cache=gf_cache, kl_cache=kl_cache)


#: This worker's session: the FakeQuakes of the configuration it is
#: running, so geometry and network are built once per configuration
#: and the distance matrices once per Phase A, not once per chunk, and
#: Phase-C chunks reuse the shared-memory bank the session attached.
#: A task for another configuration replaces it.
_SESSION: FakeQuakes | None = None


def _session(params: FakeQuakesParameters) -> FakeQuakes:
    """This worker's session for ``params``, built on first use.

    Replacing the session of another configuration also drops the bank
    the old session attached: the session was its only holder, so its
    segments close at once.
    """
    global _SESSION
    if _SESSION is None or _SESSION.params != params:
        from repro.seismo.fakequakes import FakeQuakes

        _SESSION = None
        _SESSION = FakeQuakes.from_parameters(params)
    return _SESSION


def _run_a_chunk(task: _AChunkTask) -> list[Rupture]:
    """Worker: generate one Phase-A rupture chunk.

    Safe to fan out because :meth:`FakeQuakes.phase_a_ruptures` derives
    an independent RNG from each rupture's *catalog index* — chunk
    [start, start+count) produces the identical ruptures in any process,
    so the pooled catalog is bit-identical to the sequential one. The
    chunk caches K-L bases through a cache over ``kl_dir``, the runner's
    disk store, bound to this call only — a basis eigendecomposed by
    *any* worker is a disk hit for every other worker and every later
    run of the same configuration.
    """
    from repro.seismo.klcache import KLCache

    params, start, count, kl_dir = task
    fq = _session(params)
    fq.kl_cache = KLCache(cache_dir=kl_dir)
    try:
        return fq.phase_a_ruptures(start, count)
    finally:
        fq.kl_cache = None


def _run_b_task(task: _BTask) -> SharedBankHandle:
    """Worker: Phase B, straight into the segments the parent published.

    The worker's session ends its Phase A, then gets the bank through a
    cache over ``gf_dir``, the runner's disk store, bound to this call
    only (as :func:`_run_a_chunk` binds its K-L cache): a miss is built
    in the segments a station block at a time and stored, a verified
    hit is copied into them. The session keeps no bank, and this call's
    writable mapping closes when it returns; each Phase-C chunk's
    session attaches the filled segments read-only.
    """
    from repro.core.gfcache import GFCache

    handle, params, gf_dir = task
    fq = _session(params)
    fq.end_phase_a()
    GFCache(cache_dir=gf_dir).get_or_compute(
        fq.geometry,
        fq.network,
        gf_method=params.gf_method,
        dtype=params.gf_dtype,
        out=open_shared_bank(handle),
    )
    return handle


#: Subdirectory of the archive where products wait to be renamed in.
_SPOOL = "_spool"


def _spool_rows(waveforms: Iterator[WaveformSet], spool_dir: str | Path | None) -> list[CRow]:
    """The Phase-C result rows of a chunk's lazily synthesized products.

    ``map`` drops each product once its row is made, before the next is
    synthesized, so a chunk holds one record at a time.
    """
    return list(map(_spool_row, waveforms, repeat(spool_dir)))


def _spool_row(ws: WaveformSet, spool_dir: str | Path | None) -> CRow:
    """One Phase-C result row, spooling the product when the run archives:
    ``(rupture_id, max PGD, target Mw, spooled path or None)``."""
    path: str | None = None
    if spool_dir is not None:
        path = str(Path(spool_dir) / f"{ws.rupture_id}.npz")
        ws.save(path)
    return (
        ws.rupture_id,
        float(ws.pgd_m().max()),
        float(ws.metadata.get("target_mw", 0.0)),
        path,
    )


def _run_c_chunk(task: _CChunkTask) -> list[CRow]:
    """Worker: synthesize one Phase-C chunk against the shared GF bank.

    The worker's session ends its Phase A, recycles the published bank
    (attached at the session's first Phase-C chunk; later chunks reuse
    the mapping) and runs the same :meth:`FakeQuakes.phase_c_waveforms`
    as an inline chunk, spooling each product before the next is
    synthesized when the run archives (see :func:`_spool_rows`). The
    session's parameters determine the bank's key, so the bank a
    session holds is the one ``handle`` names.
    """
    handle, params, ruptures, spool_dir = task
    fq = _session(params)
    fq.end_phase_a()
    if fq._gf_bank is None:
        fq.phase_b_greens_functions(recycled=attach_shared_bank(handle))
    return _spool_rows(fq.phase_c_waveforms(ruptures), spool_dir)


def _assemble_archive(
    archive: ProductArchive,
    rows_by_chunk: list[list[CRow]],
    ruptures: list[Rupture],
    geometry: FaultGeometry,
    keep_waveforms: bool,
) -> None:
    """Congregate a run's products into ``archive`` with one manifest write.

    Waveforms go in catalog order, then ruptures — the canonical order
    every execution path shares, so the manifest is byte-identical
    across sequential, pooled, checkpointed and resumed runs. Spooled
    waveforms are renamed into place. Checkpointed ones
    (``keep_waveforms``) must stay until the checkpoint is finalized,
    because a resume needs them, so the archive hard-links them: the
    bytes of a copy without writing a new file (products are never
    rewritten in place). ``.rupt`` files are written to the archive's
    ``_spool/`` and renamed in; whatever is left in the spool after
    that (stale files of an interrupted earlier run) is garbage.
    """
    spool = archive.root / _SPOOL
    with archive.batch():
        for chunk_rows in rows_by_chunk:
            for rupture_id, _pgd_max, target_mw, path in chunk_rows:
                if path is not None:
                    archive.add_file(
                        path,
                        kind="waveforms",
                        label=rupture_id,
                        metadata={"mw": round(target_mw, 3)},
                        move=not keep_waveforms,
                        link=keep_waveforms,
                    )
        for rupture in ruptures:
            archive.add_file(
                write_rupt(rupture, geometry, spool / f"{rupture.rupture_id}.rupt"),
                kind="ruptures",
                label=rupture.rupture_id,
                metadata={"mw": round(rupture.actual_mw, 3)},
                move=True,
            )
    shutil.rmtree(spool, ignore_errors=True)


def _unlink(segments: list) -> None:
    """Close and unlink shared-memory segments this process created."""
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double free
            pass


def _release_state(state: dict) -> None:
    """Tear down a runner's pool and unlink its shared-memory segments."""
    pool = state.get("pool")
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
        state["pool"] = None
    for segments in state.get("segments", {}).values():
        _unlink(segments)
    state["segments"] = {}


def _no_hook(*_args: object) -> None:
    """Stand-in for a fault-plan hook when the run has no plan."""


def _retire(future: Future) -> None:
    """Cancel a chunk attempt, or wait for it if it is already running.

    An attempt left running after it was retried, or after its phase
    ended, would rewrite the chunk's products while the parent hashes
    and archives them. Its outcome is dropped.
    """
    if not future.cancel():
        future.exception()


class _ChunkExecutor:
    """Runs the chunks of one :meth:`LocalRunner.run`, phase by phase.

    Phases A and C both go through :meth:`restore`, which restores
    checkpointed chunks, and :meth:`run`, which executes the rest and
    hands each result to the checkpoint and the fault plan in
    chunk-index order — so checkpoints, crash points and archives do
    not depend on where chunks ran. Every
    attempt goes through :func:`~repro.resilience.retry_call`; a fault
    plan only adds its ``chunk_attempt`` hook before each attempt. The
    executor also keeps the run's chunk accounting.
    """

    def __init__(
        self,
        runner: "LocalRunner",
        seed: int,
        ckpt: RunCheckpoint | None,
        faults: "object | None",
    ) -> None:
        self.runner = runner
        self.seed = seed
        self.ckpt = ckpt
        self.attempt_hook = getattr(faults, "chunk_attempt", _no_hook)
        self.completed_hook = getattr(faults, "chunk_completed", _no_hook)
        self.counts = {
            outcome: {"A": 0, "C": 0} for outcome in ("executed", "skipped", "retries")
        }
        self.backoff_s = 0.0

    def _count(self, phase: str, outcome: str) -> None:
        self.counts[outcome][phase] += 1
        obs.counter_add(
            "repro_local_chunks_total", 1, {"phase": phase, "outcome": outcome}
        )

    def restore(self, phase: str, n_chunks: int) -> tuple[list, list[int]]:
        """One phase's checkpointed results by chunk index (``None`` for
        a chunk that must run) and the indices of the chunks that must."""
        ckpt = self.ckpt
        results: list = [None] * n_chunks
        pending: list[int] = []
        for i in range(n_chunks):
            restored = ckpt.restore(phase, i) if ckpt is not None else None
            if restored is None:
                pending.append(i)
            else:
                results[i] = restored
                self._count(phase, "skipped")
        return results, pending

    def pools(self, pending: list[int]) -> bool:
        """Whether ``pending`` chunks run in pool workers: the runner has
        ``n_workers > 1`` and more than one chunk is pending. Otherwise
        they run in this process."""
        return self.runner.n_workers > 1 and len(pending) > 1

    def run(
        self,
        phase: str,
        restored: tuple[list, list[int]],
        inline: Callable[[int], object],
        worker: Callable[[object], object],
        task: Callable[[int], object],
        then: Callable[[], None] | None = None,
    ) -> list:
        """Execute one phase's pending chunks; return all results by index.

        ``restored`` is what :meth:`restore` returned for the phase.
        ``inline(i)`` computes chunk ``i`` in this process and
        ``worker(task(i))`` computes it in a pool worker, as
        :meth:`pools` decides. When they run in the pool, ``then()``
        runs once they are queued, before the first result is awaited:
        a pooled Phase B queues behind Phase A this way.
        """
        store = None
        if self.ckpt is not None:
            store = {"A": self.ckpt.store_a_chunk, "C": self.ckpt.store_c_chunk}[phase]
        results, pending = restored
        futures: dict[int, Future] = {}
        compute: Callable[[int], object] = inline
        resubmit: Callable[[int], None] | None = None
        if self.pools(pending):
            pool = self.runner._ensure_pool()

            def submit(i: int) -> None:
                if i in futures:
                    _retire(futures[i])
                futures[i] = pool.submit(worker, task(i))

            for i in pending:
                submit(i)
            compute, resubmit = (lambda i: futures[i].result()), submit
        try:
            if futures and then is not None:
                then()
            for i in pending:
                results[i] = self._attempt(phase, i, compute, resubmit)
                if store is not None:
                    store(i, results[i])
                self._count(phase, "executed")
                self.completed_hook(phase)
        finally:
            for future in futures.values():
                _retire(future)
        return results

    def _attempt(
        self,
        phase: str,
        index: int,
        compute: Callable[[int], object],
        resubmit: Callable[[int], None] | None,
    ) -> object:
        """One chunk's result under the runner's retry policy.

        A retryable failure re-executes just this chunk (resubmitting
        it when it runs on the pool); the backoff is derived from the
        run's seed and accounted, not slept.
        """

        def once() -> object:
            self.attempt_hook(phase, index)
            return compute(index)

        def on_retry(_attempt: int, _exc: BaseException, delay: float) -> None:
            self.counts["retries"][phase] += 1
            self.backoff_s += delay
            if resubmit is not None:
                resubmit(index)

        return retry_call(
            once,
            policy=self.runner.retry_policy,
            seed=self.seed,
            keys=("chunk", phase, index),
            on_retry=on_retry,
        ).value


@contextmanager
def _phase(
    phase_seconds: dict[str, float], name: str, chunks: _ChunkExecutor | None = None
) -> Iterator[None]:
    """Time one phase of a run: its wall seconds go to
    ``phase_seconds[name]`` and into a ``phase:<name>`` span, which for
    a chunked phase also carries how many of its chunks ``chunks``
    executed and skipped.

    Spans carry wall time; ``ts`` is the perf_counter origin the
    tracer's default clock also uses, so runner spans line up with any
    surrounding obs.span() blocks on the same timeline.
    """
    t0 = time.perf_counter()
    yield
    dur = phase_seconds[name] = time.perf_counter() - t0
    args = None
    if chunks is not None:
        args = {"executed": chunks.counts["executed"][name],
                "skipped": chunks.counts["skipped"][name]}
    obs.complete(f"phase:{name}", ts=t0, dur=dur, category="local", track="runner",
                 args=args)


class LocalRunner:
    """Run an FDW configuration on this machine with real kernels.

    Parameters
    ----------
    n_workers:
        1 (default) mirrors MudPy's native sequential behaviour; >1
        fans each phase's pending chunks out over a persistent process
        pool when there is more than one: A chunks to workers caching
        their Phase-A session, C chunks to workers reading one
        shared-memory copy of the GF bank, which one more pool task
        builds as Phase B (see module docstring). Every pooled phase is
        bit-identical to sequential.
    gf_cache:
        The :class:`~repro.core.gfcache.GFCache` Phase B routes
        through. ``None`` builds a private cache (which still honours
        ``REPRO_GF_CACHE_DIR``); pass a shared instance to reuse banks
        across runners. A pooled Phase B uses only its disk store: the
        worker that builds the bank reads and writes the entry there,
        and this cache's memory level is not filled.
    kl_cache:
        The :class:`~repro.seismo.klcache.KLCache` the *parent-side*
        Phase A routes through (sequential runs and the single-chunk
        fall-through). ``None`` builds a private cache (which still
        honours ``REPRO_KL_CACHE_DIR``). Each pooled Phase-A chunk runs
        through its own cache over the same disk store.

    The parent builds the distance matrices only when it generates a
    Phase-A chunk itself (``n_workers=1``, or a single pending chunk),
    and drops them, with the rupture generator, when its Phase A
    returns. Pooled Phase-A workers build theirs in their own sessions
    and drop them when they take a Phase-C chunk; a parent copy made
    before the pool forks would sit in every worker beside it.

    The runner creates and owns the shared-memory segments; a pool
    worker fills them. The pool and the published segments persist
    across :meth:`run` calls — repeated runs of the same configuration
    skip Phase B entirely and re-dispatch against the already-published
    bank, though each run's pooled Phase A builds the distance matrices
    again. A worker keeps one session: a run of another configuration
    replaces it and lets go of the old bank's mapping. Call
    :meth:`close` (or use the runner as a context manager) to release
    the pool and segments; a finalizer also releases on garbage
    collection.
    """

    def __init__(
        self,
        n_workers: int = 1,
        gf_cache: GFCache | None = None,
        kl_cache: KLCache | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        from repro.core.gfcache import GFCache
        from repro.seismo.klcache import KLCache

        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.gf_cache = gf_cache if gf_cache is not None else GFCache()
        self.kl_cache = kl_cache if kl_cache is not None else KLCache()
        #: Backoff applied to retryable chunk failures (injected flakes);
        #: schedules derive from the run config's seed, so they are as
        #: reproducible as the catalog itself.
        self.retry_policy = retry_policy or RetryPolicy()
        #: Bank key -> the Phase-B task publishing it (its handle).
        self._published: dict[str, Future] = {}
        #: The pool, and the segments of each published key.
        self._state: dict = {"pool": None, "segments": {}}
        self._finalizer = weakref.finalize(self, _release_state, self._state)

    # -- pool / shared-bank lifecycle ----------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._state["pool"] is None:
            # Start the shared-memory resource tracker before forking:
            # workers forked without one lazily spawn their own, which
            # double-books the bank segments and warns at worker exit.
            resource_tracker.ensure_running()
            self._state["pool"] = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._state["pool"]

    def _publish(self, key: str, fq: FakeQuakes) -> Future:
        """Queue Phase B for bank ``key`` on the pool, once per runner.

        This process creates the bank's segments, which it owns from
        then on, and never maps them; the task (:func:`_run_b_task`)
        fills them in a worker and returns their handle.
        """
        future = self._published.get(key)
        if future is None:
            handle, segments = publish_shared_bank(
                key,
                (len(fq.network), fq.geometry.n_subfaults),
                fq.params.gf_dtype,
                fq.network.names,
                fq.geometry.name,
            )
            self._state["segments"][key] = segments
            gf_dir = self.gf_cache.cache_dir
            future = self._published[key] = self._ensure_pool().submit(
                _run_b_task, (handle, fq.params, None if gf_dir is None else str(gf_dir))
            )
        return future

    def _bank_handle(self, key: str, fq: FakeQuakes) -> SharedBankHandle:
        """The handle of the published bank ``key``, once its Phase-B
        task has filled it (queued now if Phase A did not queue it). A
        failed task is forgotten, and its segments unlinked, before its
        error propagates, so the next run publishes the bank afresh."""
        try:
            return self._publish(key, fq).result()
        except Exception:
            self._published.pop(key, None)
            _unlink(self._state["segments"].pop(key, []))
            raise

    def close(self) -> None:
        """Shut the pool down and unlink the shared-memory segments.

        Every call releases whatever the runner holds, so a runner used
        again after ``close`` leaks nothing either; the finalizer stays
        armed for garbage collection.
        """
        self._published.clear()
        _release_state(self._state)

    def __enter__(self) -> "LocalRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ------------------------------------------------------------

    def run(
        self,
        config: FdwConfig,
        archive_dir: str | Path | None = None,
        *,
        checkpoint: bool = False,
        resume: bool = False,
        faults: "object | None" = None,
    ) -> LocalRunResult:
        """Execute all three phases; optionally archive the products.

        Archiving is its own timed phase, ``phase_seconds["archive"]``,
        after Phase C: products are congregated in catalog order with
        one manifest write for the whole run.

        With ``checkpoint=True`` (implied by ``resume=True``) the run
        keeps a :class:`~repro.core.checkpoint.RunCheckpoint` under
        ``archive_dir`` — one signed record per completed chunk, a Phase-C
        record carrying the sha256 of each product — and assembles the
        product archive only once every chunk is done. ``resume=True``
        keeps a previous run's checkpoint and skips each chunk whose
        record, and products, still verify; because Phase A keys
        its RNG per catalog index and Phase C is a pure function of the
        rupture chunk, a resumed run's archive is byte-identical to an
        uninterrupted run's. ``faults`` takes a
        :class:`~repro.faults.FaultPlan` whose ``chunk_completed`` hook
        is called after each executed (and checkpointed) chunk — the
        crash-injection point for recovery tests — and whose
        ``chunk_attempt`` hook fires before each attempt: retryable
        :class:`~repro.faults.TransientFault` flakes are absorbed by
        the runner's :attr:`retry_policy` (re-executing just the flaked
        chunk, with seed-derived backoff accounted in the result), so a
        flaky run's archive is byte-identical to a clean run's. A
        chunk whose record or products fail verification on resume is
        quarantined and transparently re-executed.
        """
        from repro.core.gfcache import gf_bank_key
        from repro.seismo.mudpy_io import ProductArchive

        if (checkpoint or resume) and archive_dir is None:
            raise ConfigError("checkpoint/resume requires an archive_dir")
        fq = _fakequakes_for(config, gf_cache=self.gf_cache, kl_cache=self.kl_cache)
        phase_seconds: dict[str, float] = {}
        a_chunks = chunk_bounds(config.n_waveforms, config.chunk_a)
        c_chunks = chunk_bounds(config.n_waveforms, config.chunk_c)
        ckpt: RunCheckpoint | None = None
        if checkpoint or resume:
            ckpt = RunCheckpoint(
                Path(archive_dir),  # type: ignore[arg-type]
                config,
                n_a_chunks=len(a_chunks),
                n_c_chunks=len(c_chunks),
                resume=resume,
            )
        # Phase C spools waveforms (into the checkpoint when there is
        # one) and the archive is assembled once, after Phase C. A
        # checkpointed run creates no archive until every chunk is
        # durable, so a crash never leaves a partial manifest behind.
        archive = (
            ProductArchive(Path(archive_dir), name=config.name)
            if archive_dir is not None and ckpt is None
            else None
        )
        spool: Path | None = None
        if ckpt is not None:
            spool = ckpt.waveforms_dir
        elif archive is not None:
            spool = archive.root / _SPOOL

        chunks = _ChunkExecutor(self, config.seed, ckpt, faults)

        # Rupture generation reads the distance matrices. The parent
        # builds them only when it generates a Phase-A chunk itself:
        # pool workers build their own in their sessions, and a parent
        # copy would only be forked into each of them.
        restored_a = chunks.restore("A", len(a_chunks))
        restored_c = chunks.restore("C", len(c_chunks))
        pending_a = restored_a[1]
        with _phase(phase_seconds, "dist"):
            if pending_a and not chunks.pools(pending_a):
                fq.phase_a_distances()

        # A pooled Phase C reads the bank from shared memory. Unless this
        # runner published it already, Phase B is a pool task queued
        # behind the pooled Phase-A chunks, or after an inline Phase A
        # (_publish), so this process never holds a bank.
        bank_key: str | None = None
        if chunks.pools(restored_c[1]):
            bank_key = gf_bank_key(
                fq.geometry, fq.network, gf_method=fq.params.gf_method, dtype=fq.params.gf_dtype
            )

        # Pool workers share the runner's disk K-L store when one is
        # configured, and build their Phase-A sessions from the params.
        with _phase(phase_seconds, "A", chunks):
            kl_dir = (
                str(self.kl_cache.cache_dir) if self.kl_cache.cache_dir is not None else None
            )
            chunks_a = chunks.run(
                "A",
                restored_a,
                inline=lambda i: fq.phase_a_ruptures(*a_chunks[i]),
                worker=_run_a_chunk,
                task=lambda i: (fq.params, *a_chunks[i], kl_dir),
                then=None if bank_key is None else lambda: self._publish(bank_key, fq),
            )
            ruptures: list[Rupture] = [r for chunk in chunks_a for r in chunk]
            fq.end_phase_a()

        # A pooled Phase B is the wait for the bank's handle.
        handle: SharedBankHandle | None = None
        with _phase(phase_seconds, "B"):
            if bank_key is None:
                fq.phase_b_greens_functions()
            else:
                handle = self._bank_handle(bank_key, fq)

        with _phase(phase_seconds, "C", chunks):

            def c_slice(i: int) -> list[Rupture]:
                start, count = c_chunks[i]
                return ruptures[start : start + count]

            rows_by_chunk: list[list[CRow]] = chunks.run(
                "C",
                restored_c,
                inline=lambda i: _spool_rows(fq.phase_c_waveforms(c_slice(i)), spool),
                worker=_run_c_chunk,
                task=lambda i: (handle, fq.params, c_slice(i), spool),
            )
            pgd: dict[str, float] = {}
            n_sets = 0
            for chunk_rows in rows_by_chunk:
                for rupture_id, pgd_max, _target_mw, _path in chunk_rows:
                    pgd[rupture_id] = pgd_max
                    n_sets += 1

        if archive_dir is not None:
            # Workers only spool; the parent owns the manifest (the
            # archive index is not multiprocess-safe).
            with _phase(phase_seconds, "archive"):
                if ckpt is not None:
                    ckpt.reset_archive()
                    archive = ProductArchive(Path(archive_dir), name=config.name)
                _assemble_archive(
                    archive, rows_by_chunk, ruptures, fq.geometry,  # type: ignore[arg-type]
                    keep_waveforms=ckpt is not None,
                )
                if ckpt is not None:
                    ckpt.finalize()

        return LocalRunResult(
            config=config,
            n_waveform_sets=n_sets,
            phase_seconds=phase_seconds,
            archive_root=archive.root if archive is not None else None,
            pgd_by_rupture=pgd,
            chunks_executed=chunks.counts["executed"],
            chunks_skipped=chunks.counts["skipped"],
            chunk_retries=chunks.counts["retries"],
            retry_backoff_s=chunks.backoff_s,
        )


def estimate_sequential_runtime_s(
    config: FdwConfig,
    runtime: RuntimeModel | None = None,
    n_cpus: int = 4,
) -> float:
    """Predicted single-host runtime of the full workload in seconds.

    The control machine is the paper's AWS instance (4 Xeon 8175M CPUs)
    running "an automated version of MudPy's FakeQuakes". Two facts
    calibrate the estimate:

    * the paper measured that host's per-chunk costs when deriving the
      bursting constants — 287 s per rupture job's quantity (16
      ruptures) and 144 s per waveform job's quantity (2 waveforms at
      121 stations) — so per-item costs on the host are 287/16 s per
      rupture and 72 s per full-input waveform (scaled by station
      count);
    * MudPy natively incorporates MPI ("MudPy already incorporates MPI
      and has some parallelism", §2), so the sequential host spreads
      the phase work over its ``n_cpus`` cores.

    GF and distance-matrix costs use the OSG runtime model's means
    (those phases run once and are equally parallelized).
    """
    from repro.bursting.cloud import RUPTURE_CLOUD_SECONDS, WAVEFORM_CLOUD_SECONDS

    if n_cpus < 1:
        raise ConfigError(f"n_cpus must be >= 1, got {n_cpus}")
    n_stations = getattr(config, "n_stations", None)
    if n_stations is None or n_stations <= 0:
        raise ConfigError(
            f"config.n_stations must be > 0 to scale the per-waveform cost, "
            f"got {n_stations}"
        )
    runtime = runtime or RuntimeModel()
    per_rupture = RUPTURE_CLOUD_SECONDS / 16.0
    per_waveform = (WAVEFORM_CLOUD_SECONDS / 2.0) * (n_stations / 121.0)
    plan = plan_phases(config)
    total = config.n_waveforms * (per_rupture + per_waveform)
    total += runtime.mean_seconds(plan.b_job.payload)  # type: ignore[arg-type]
    total += runtime.dist_base_s  # the host builds the matrices once
    return total / n_cpus

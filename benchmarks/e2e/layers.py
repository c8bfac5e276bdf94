"""Per-layer attribution from outside the program: timing wrappers.

The benchmark never edits ``src/``. In a traced repetition it replaces
public functions and methods of each layer *where they are looked up*
(a function imported by name into another module is patched in that
module too) with thin wrappers that push and pop spans on a
:class:`SpanRecorder`. The program's own ``repro.obs`` instrumentation
stays off.

A span's self time is its duration minus the part of it that its child
spans cover. Spans nest strictly on one thread, so that part is the sum
of the durations of the direct children, which the recorder accumulates
as spans close: self times are exact without keeping every span. Spans
are also kept, up to :data:`KEEP_PER_NAME` per name, in a standalone
:class:`repro.obs.trace.Tracer` for the Chrome trace.

``LocalRunner`` forks its process pool after the wrappers are
installed, so pool workers inherit them. A forked worker starts an
empty recorder and, whenever its outermost span closes, appends the
spans it has recorded to ``worker-<pid>.jsonl`` in the trace directory;
the parent merges those files onto ``worker-N`` tracks
(:func:`merge_worker_files`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

#: Spans kept per name for the exported trace; self times and call
#: counts always cover every call.
KEEP_PER_NAME = 1000


def _file_mb(_args, _kwargs, result) -> float:
    return os.path.getsize(result) / 1e6


def _bytes_mb(_args, _kwargs, result) -> float:
    return len(result) / 1e6


def _catalog_size(args, _kwargs, _result) -> float:
    return float(len(args[0]))


@dataclass(frozen=True)
class Target:
    """One wrapped public entry point of a layer.

    ``owner`` is ``"module:Class"`` for a method or ``"module"`` for a
    function, ``attr`` the attribute name, and ``lookups`` the further
    modules that imported the function by name. ``amount`` turns a
    call's arguments and result into a quantity summed per span name
    (megabytes moved, records scanned).
    """

    span: str
    owner: str
    attr: str
    lookups: tuple[str, ...] = ()
    amount: Callable | None = None


#: Span name prefix -> the layer it belongs to (the repo's modules).
LAYER_OF_PREFIX = {
    "local": "core.local",
    "seismo": "seismo",
    "klcache": "seismo.klcache",
    "gfcache": "core.gfcache",
    "integrity": "integrity",
    "checkpoint": "core.checkpoint",
    "archive": "seismo.mudpy_io",
    "wf": "wf",
    "osg": "osg",
    "condor": "condor",
    "service": "service",
    "vdc": "vdc",
    "client": "benchmark client",
}

TARGETS: tuple[Target, ...] = (
    # core.local: the runner's own orchestration, pool teardown, and the
    # time the parent blocks on pool results.
    Target("local.run", "repro.core.local:LocalRunner", "run"),
    Target("local.close", "repro.core.local:LocalRunner", "close"),
    Target("local.parent_wait", "concurrent.futures:Future", "result"),
    # seismo kernels
    Target("seismo.kl_basis", "repro.seismo.spectra:KarhunenLoeveBasis", "from_correlation"),
    Target("seismo.rupture_generate", "repro.seismo.ruptures:RuptureGenerator", "generate"),
    Target("seismo.gf_bank", "repro.seismo.greens", "compute_gf_bank",
           ("repro.core.gfcache", "repro.seismo.fakequakes")),
    Target("seismo.synthesize", "repro.seismo.waveforms:WaveformSynthesizer", "synthesize_batch"),
    Target("seismo.waveform_save", "repro.seismo.waveforms:WaveformSet", "save",
           amount=_file_mb),
    # caches and shared-memory banks
    Target("klcache.lookup", "repro.seismo.klcache:KLCache", "get_or_compute"),
    Target("gfcache.lookup", "repro.core.gfcache:GFCache", "get_or_compute"),
    Target("gfcache.publish", "repro.core.gfcache", "publish_shared_bank", ("repro.core.local",)),
    Target("gfcache.attach", "repro.core.gfcache", "attach_shared_bank", ("repro.core.local",)),
    # integrity
    Target("integrity.read_verified", "repro.integrity", "read_verified",
           ("repro.core.gfcache", "repro.seismo.klcache", "repro.core.checkpoint",
            "repro.vdc.catalog"),
           amount=_bytes_mb),
    # checkpoint and archive I/O
    Target("checkpoint.store", "repro.core.checkpoint:RunCheckpoint", "store_a_chunk"),
    Target("checkpoint.store", "repro.core.checkpoint:RunCheckpoint", "store_c_chunk"),
    Target("checkpoint.finalize", "repro.core.checkpoint:RunCheckpoint", "finalize"),
    Target("archive.add_file", "repro.seismo.mudpy_io:ProductArchive", "add_file",
           amount=_file_mb),
    Target("archive.write_rupt", "repro.seismo.mudpy_io", "write_rupt", ("repro.core.local",)),
    # workflow interchange (generate/import are the pool workload's set-up)
    Target("wf.generate", "repro.wf.generate", "generate_instance", ("repro.wf",)),
    Target("wf.import", "repro.wf.importer", "import_instance", ("repro.wf", "repro.wf.replay")),
    Target("wf.replay", "repro.wf.replay", "replay_instance", ("repro.wf",)),
    # OSPool DES
    Target("condor.dag_build", "repro.osg.pool:OSPoolSimulator", "submit_dagman"),
    Target("osg.negotiate", "repro.osg.negotiator", "negotiate_vectorized", ("repro.osg.pool",)),
    Target("osg.transfer", "repro.osg.transfer:StashCache", "transfer_time"),
    Target("osg.runtime_sample", "repro.osg.runtimes:RuntimeModel", "sample_seconds"),
    Target("condor.node_result", "repro.condor.dagman:DagmanEngine", "on_node_result"),
    Target("condor.userlog", "repro.condor.events:UserLog", "record"),
    Target("osg.pool_engine", "repro.osg.pool:OSPoolSimulator", "run"),
    # portal service; the scalar negotiator is patched only where the
    # service looks it up, so the pool's names stay apart.
    Target("service.submit", "repro.service.service:PortalService", "submit"),
    Target("service.execute", "repro.service.runner:SimulatedRunner", "execute"),
    Target("service.negotiate", "repro.osg.negotiator", "negotiate", ("repro.service.service",)),
    # VDC
    Target("vdc.deposit", "repro.vdc.portal:Portal", "deposit_products"),
    Target("vdc.discover", "repro.vdc.portal:Portal", "discover"),
    Target("vdc.search", "repro.vdc.catalog:DataCatalog", "search", amount=_catalog_size),
    Target("vdc.retrieve", "repro.vdc.storage:FederatedStorage", "retrieval_time_s"),
)


#: Every span name: the wrapped calls plus the two spans the portal
#: workload opens itself (around ``asyncio.run`` and each client call).
SPANS = frozenset(t.span for t in TARGETS) | {"service.loop", "client.op"}


def layer_of(span: str) -> str:
    """The repo layer a span name belongs to."""
    return LAYER_OF_PREFIX[span.split(".", 1)[0]]


class SpanRecorder:
    """Stack of open spans with exact per-name self-time totals.

    ``totals[name]`` is ``[self seconds, calls, amount]``. Not
    thread-safe: every wrapped call in this benchmark runs on the main
    thread of its process.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 worker_dir: str | Path | None = None) -> None:
        from repro.obs.trace import Tracer

        self.clock = clock
        #: Where forked workers spill their spans (``None``: they don't).
        self.worker_dir = Path(worker_dir) if worker_dir is not None else None
        self.tracer = Tracer(clock)
        self.totals: dict[str, list[float]] = {}
        self._stack: list[list] = []
        self._kept: dict[str, int] = {}
        self._in_worker = False

    def push(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def pop(self, name: str, amount: float = 0.0) -> None:
        end = self.clock()
        frame = self._stack.pop()
        if frame[0] != name:
            raise RuntimeError(f"span {name!r} closed while {frame[0]!r} was open")
        _, start, covered = frame
        dur = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0.0, 0, 0.0]
        total[0] += dur - covered
        total[1] += 1
        total[2] += amount
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        kept = self._kept.get(name, 0)
        if kept < KEEP_PER_NAME or self._in_worker:
            self._kept[name] = kept + 1
            self.tracer.complete(
                name, start, dur, category=layer_of(name), track="parent",
                args={"parent": parent[0] if parent is not None else "",
                      "self_s": dur - covered, "amount": amount},
            )
        if parent is None and self._in_worker:
            self._flush_worker()

    def take(self) -> dict[str, list[float]]:
        """Return the totals so far and start new ones (spans stay)."""
        totals, self.totals = self.totals, {}
        return totals

    def reset_after_fork(self) -> None:
        """In a forked pool worker: drop the parent's state and spill
        every span to a per-pid file instead."""
        if self.worker_dir is None:
            return
        self.tracer.events.clear()
        self.totals = {}
        self._stack = []
        self._kept = {}
        self._in_worker = True

    def _flush_worker(self) -> None:
        lines = "".join(
            json.dumps([ev.name, ev.ts, ev.dur, ev.args["parent"], ev.args["self_s"],
                        ev.args["amount"]]) + "\n"
            for ev in self.tracer.events
        )
        self.tracer.events.clear()
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(lines)


def merge_worker_files(trace_dir: str | Path, recorder: SpanRecorder) -> dict[str, list[float]]:
    """Merge worker span files onto ``worker-N`` tracks of ``recorder``.

    Workers are numbered by the start of their first span (pid breaks
    ties), so the track order follows the order in which the pool
    started doing work. Returns the workers' per-name totals.
    """
    files = []
    for path in Path(trace_dir).glob("worker-*.jsonl"):
        spans = [json.loads(line) for line in path.read_text().splitlines() if line]
        if spans:
            pid = int(path.stem.split("-", 1)[1])
            files.append((min(s[1] for s in spans), pid, spans))
    totals: dict[str, list[float]] = {}
    for n, (_first, _pid, spans) in enumerate(sorted(files), start=1):
        for name, ts, dur, parent, self_s, amount in sorted(spans, key=lambda s: s[1]):
            recorder.tracer.complete(
                name, ts, dur, category=layer_of(name), track=f"worker-{n}",
                args={"parent": parent, "self_s": self_s, "amount": amount},
            )
            total = totals.setdefault(name, [0.0, 0, 0.0])
            total[0] += self_s
            total[1] += 1
            total[2] += amount
    return totals


def _wrap(fn: Callable, span: str, recorder: SpanRecorder, amount: Callable | None) -> Callable:
    push, pop = recorder.push, recorder.pop
    if inspect.iscoroutinefunction(fn):
        # Only coroutines that never suspend are wrapped (the portal's
        # ``submit``); pop() raises if another task's span interleaves.
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            push(span)
            try:
                return await fn(*args, **kwargs)
            finally:
                pop(span)

        return async_wrapper
    if amount is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            push(span)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(span)

        return wrapper

    @functools.wraps(fn)
    def measuring_wrapper(*args, **kwargs):
        push(span)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            pop(span, amount(args, kwargs, result) if result is not None else 0.0)

    return measuring_wrapper


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


def install(recorder: SpanRecorder, targets: tuple[Target, ...] = TARGETS) -> Callable[[], None]:
    """Install every wrapper; returns a function that removes them."""
    undo: list[tuple[object, str, object]] = []
    for target in targets:
        owner = _resolve(target.owner)
        raw = inspect.getattr_static(owner, target.attr)
        if isinstance(raw, classmethod):
            patched = classmethod(_wrap(raw.__func__, target.span, recorder, target.amount))
        else:
            patched = _wrap(raw, target.span, recorder, target.amount)
        places = [owner] + [importlib.import_module(m) for m in target.lookups]
        for place in places:
            current = inspect.getattr_static(place, target.attr)
            if current is not raw:
                raise RuntimeError(
                    f"{target.span}: {place.__name__}.{target.attr} is not the "
                    f"object defined in {target.owner}"
                )
            undo.append((place, target.attr, current))
            setattr(place, target.attr, patched)
    os.register_at_fork(after_in_child=recorder.reset_after_fork)

    def uninstall() -> None:
        for place, attr, original in reversed(undo):
            setattr(place, attr, original)
        recorder.worker_dir = None

    return uninstall

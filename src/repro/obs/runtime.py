"""Process-wide observation session and the no-op-when-disabled hooks.

Instrumentation sites throughout :mod:`repro` call the module-level
helpers here (``counter_add``, ``histogram_observe``, ``complete``,
``span``...). Each helper starts with one global load and a ``None``
check, so an **un-observed run pays a single branch per hook** — that is
the whole "disabled path is a no-op" contract, and the
``obs-overhead`` bench asserts the enabled path stays under its budget
too.

A session is installed with the :class:`observe` context manager::

    with observe() as obs_session:
        run_fdw_batch(...)
    text = prometheus_text(obs_session.registry)

Sessions stack (the previous one is restored on exit), which keeps
nested drivers — a CLI command observing a demo that itself runs under
a test's session — well-defined: innermost wins.

Design invariant, relied on by the bit-identity tests: **no helper here
ever touches a random stream, mutates domain state, or reorders
events.** Observation is strictly passive; enabling it cannot change a
product byte or a simulated timestamp.

While a session is installed, a ``gc.callbacks`` hook charges every
cyclic-collector pass to it: ``repro_gc_collections_total`` and
``repro_gc_pause_seconds_total``, labelled by ``generation``. They land
in the session's ``process`` registry, not in ``registry``: they depend
on wall time and on the interpreter's allocation history, while
``registry`` holds only what the observed run determines, so its export
stays byte-identical across repeats.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable, Iterable, Mapping
from contextlib import nullcontext

import numpy as np

from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "ObsSession",
    "observe",
    "session",
    "enabled",
    "counter_add",
    "gauge_set",
    "declare_histogram",
    "histogram_observe",
    "histogram_observe_many",
    "span",
    "complete",
    "instant",
]


#: One label set per collector generation (0 youngest, 2 full).
_GENERATIONS = tuple({"generation": g} for g in range(3))


class ObsSession:
    """One observed run: a metrics registry, a tracer, and the
    interpreter's own counters (``process``, see the module docs)."""

    __slots__ = ("registry", "tracer", "process")

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.process = MetricsRegistry()
        # Every generation's series exists from the start, so a run with
        # no collection reports zeros rather than nothing.
        for labels in _GENERATIONS:
            self.process.counter_add("repro_gc_collections_total", 0.0, labels)
            self.process.counter_add("repro_gc_pause_seconds_total", 0.0, labels)


_SESSION: ObsSession | None = None
_NULL_SPAN = nullcontext()
_gc_started = 0.0


def _on_collection(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: charge one collection to the session."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    s = _SESSION
    if s is not None:
        labels = _GENERATIONS[info["generation"]]
        s.process.counter_add("repro_gc_collections_total", 1.0, labels)
        s.process.counter_add(
            "repro_gc_pause_seconds_total", time.perf_counter() - _gc_started, labels
        )


def session() -> ObsSession | None:
    """The currently installed session, or ``None`` when disabled."""
    return _SESSION


def enabled() -> bool:
    return _SESSION is not None


class observe:
    """Install a fresh (or given) session for the duration of a block."""

    def __init__(self, clock: Callable[[], float] | None = None,
                 session: ObsSession | None = None) -> None:
        self._session = session if session is not None else ObsSession(
            tracer=Tracer(clock=clock)
        )
        self._prev: ObsSession | None = None

    def __enter__(self) -> ObsSession:
        global _SESSION
        self._prev = _SESSION
        if self._prev is None:  # the outermost session installs the hook
            gc.callbacks.append(_on_collection)
        _SESSION = self._session
        return self._session

    def __exit__(self, exc_type, exc, tb) -> None:
        global _SESSION
        _SESSION = self._prev
        if self._prev is None:
            gc.callbacks.remove(_on_collection)


# -- metric hooks (each: one global load + None check when disabled) -------


def counter_add(name: str, value: float = 1.0,
                labels: Mapping[str, object] | None = None) -> None:
    s = _SESSION
    if s is not None:
        s.registry.counter_add(name, value, labels)


def gauge_set(name: str, value: float,
              labels: Mapping[str, object] | None = None) -> None:
    s = _SESSION
    if s is not None:
        s.registry.gauge_set(name, value, labels)


def declare_histogram(name: str,
                      buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
    s = _SESSION
    if s is not None:
        s.registry.declare_histogram(name, buckets)


def histogram_observe(name: str, value: float,
                      labels: Mapping[str, object] | None = None) -> None:
    s = _SESSION
    if s is not None:
        s.registry.histogram_observe(name, value, labels)


def histogram_observe_many(name: str, values: Iterable[float] | np.ndarray,
                           labels: Mapping[str, object] | None = None) -> None:
    s = _SESSION
    if s is not None:
        s.registry.histogram_observe_many(name, values, labels)


# -- trace hooks -----------------------------------------------------------


def span(name: str, category: str = "", track: str = "main",
         args: Mapping[str, object] | None = None):
    """Measured span context manager; a shared no-op when disabled."""
    s = _SESSION
    if s is None:
        return _NULL_SPAN
    return s.tracer.span(name, category=category, track=track, args=args)


def complete(name: str, ts: float, dur: float, category: str = "",
             track: str = "main",
             args: Mapping[str, object] | None = None) -> None:
    s = _SESSION
    if s is not None:
        s.tracer.complete(name, ts, dur, category=category, track=track,
                          args=args)


def instant(name: str, ts: float | None = None, category: str = "",
            track: str = "main",
            args: Mapping[str, object] | None = None) -> None:
    s = _SESSION
    if s is not None:
        s.tracer.instant(name, ts, category=category, track=track, args=args)

"""The cyclic collector's own counters under an observation session."""

from __future__ import annotations

import gc
from pathlib import Path

from repro import obs
from repro.cli import main
from repro.obs.export import prometheus_text

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"

COLLECTIONS = "repro_gc_collections_total"
PAUSE = "repro_gc_pause_seconds_total"


def full(generation: int = 2) -> dict:
    return {"generation": generation}


def n_hooks() -> int:
    return len(gc.callbacks)


class TestCollectorHook:
    def test_hook_installed_only_while_observed(self):
        before = n_hooks()
        with obs.observe():
            assert n_hooks() == before + 1
            with obs.observe():
                assert n_hooks() == before + 1
        assert n_hooks() == before

    def test_every_generation_reported_from_the_start(self):
        session = obs.ObsSession()
        for generation in range(3):
            assert session.process.counter_value(COLLECTIONS, full(generation)) == 0.0
            assert session.process.counter_value(PAUSE, full(generation)) == 0.0

    def test_collection_charged_to_the_process_registry(self):
        with obs.observe() as session:
            gc.collect()
            gc.collect()
        assert session.process.counter_value(COLLECTIONS, full()) == 2.0
        assert session.process.counter_value(PAUSE, full()) > 0.0
        # The run's own registry stays a pure function of the run.
        assert COLLECTIONS not in session.registry.names()
        assert PAUSE not in session.registry.names()

    def test_innermost_session_charged_once(self):
        # Built up front: an allocation inside the outer session could
        # trigger a full collection of its own.
        inner_scope = obs.observe()
        with obs.observe() as outer:
            with inner_scope as inner:
                gc.collect()
            gc.collect()
            gc.collect()
        assert inner.process.counter_value(COLLECTIONS, full()) == 1.0
        assert outer.process.counter_value(COLLECTIONS, full()) == 2.0

    def test_nothing_charged_after_the_session(self):
        with obs.observe() as session:
            pass
        gc.collect()
        assert session.process.counter_total(COLLECTIONS) == 0.0

    def test_exposition_renders_both_counters(self):
        with obs.observe() as session:
            gc.collect()
        text = prometheus_text(session.process)
        assert f'{COLLECTIONS}{{generation="2"}} 1\n' in text
        assert f'{PAUSE}{{generation="0"}} 0\n' in text


def test_obs_summary_prints_collector_counters(tmp_path, capsys):
    trace = tmp_path / "replay.json"
    assert main(["wf", "replay", str(EXAMPLE), "--trace", str(trace)]) == 0
    prom = trace.with_suffix(".prom").read_text()
    assert prom.count(f"# TYPE {COLLECTIONS} counter") == 1
    capsys.readouterr()
    assert main(["obs", "summary", str(trace)]) == 0
    out = capsys.readouterr().out
    for generation in range(3):
        assert f'{COLLECTIONS}{{generation="{generation}"}}' in out
        assert f'{PAUSE}{{generation="{generation}"}}' in out

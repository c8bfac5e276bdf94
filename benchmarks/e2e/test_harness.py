"""Tests of the end-to-end benchmark harness: ``pytest benchmarks/e2e -q``.

Tiny workload specs are passed to the harness functions directly, so
the whole child-process path runs in seconds.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "fdw-full-cold": {"n_waveforms": 4, "n_stations": 3, "mesh": [6, 4], "mw_range": [7.6, 7.8],
                      "n_workers": 2, "checkpoint": False, "warm": False},
    "fdw-small-warm": {"n_waveforms": 4, "n_stations": 2, "mesh": [6, 4],
                       "mw_range": [7.6, 7.8], "n_workers": 1, "checkpoint": True,
                       "warm": True},
    "pool-replay": {"n_tasks": 300, "slots": 60},
    "portal-mixed": {"n_ops": 200, "n_tenants": 6, "n_scenarios": 3, "read_share": 0.1,
                     "n_workers": 2},
}


def test_self_time_is_duration_minus_child_cover():
    now = [0.0]
    rec = layers.SpanRecorder(clock=lambda: now[0])

    def at(t, action, name):
        now[0] = t
        action(name)

    # run [0, 10] holds synthesize [1, 4] (holding save [2, 3]) and
    # synthesize [5, 6]; the two synthesize spans sum by name.
    at(0, rec.push, "local.run")
    at(1, rec.push, "seismo.synthesize")
    at(2, rec.push, "seismo.waveform_save")
    at(3, rec.pop, "seismo.waveform_save")
    at(4, rec.pop, "seismo.synthesize")
    at(5, rec.push, "seismo.synthesize")
    at(6, rec.pop, "seismo.synthesize")
    at(10, rec.pop, "local.run")
    totals = rec.take()
    assert totals["local.run"][:2] == [6.0, 1]
    assert totals["seismo.synthesize"][:2] == [3.0, 2]
    assert totals["seismo.waveform_save"][:2] == [1.0, 1]
    assert sum(t[0] for t in totals.values()) == 10.0
    parents = {ev.name: ev.args["parent"] for ev in rec.tracer.events}
    assert parents == {"seismo.waveform_save": "seismo.synthesize",
                       "seismo.synthesize": "local.run", "local.run": ""}
    assert rec.take() == {}


def test_interleaved_spans_are_refused():
    rec = layers.SpanRecorder()
    rec.push("client.op")
    rec.push("service.submit")
    with pytest.raises(RuntimeError):
        rec.pop("client.op")


def test_worker_spans_merge_by_first_start_then_pid(tmp_path):
    def write(pid, spans):
        lines = "".join(json.dumps(s) + "\n" for s in spans)
        (tmp_path / f"worker-{pid}.jsonl").write_text(lines)

    # [name, ts, dur, parent, self, amount]; lines need not be in order.
    write(300, [["seismo.synthesize", 5.0, 1.0, "", 1.0, 0.0]])
    write(100, [["seismo.waveform_save", 7.0, 0.5, "", 0.5, 2.0],
                ["seismo.synthesize", 5.0, 1.5, "", 1.5, 0.0]])
    write(200, [["seismo.kl_basis", 2.0, 0.25, "", 0.25, 0.0]])
    rec = layers.SpanRecorder()
    totals = layers.merge_worker_files(tmp_path, rec)
    merged = [(ev.track, ev.name, ev.ts) for ev in rec.tracer.events]
    assert merged == [
        ("worker-1", "seismo.kl_basis", 2.0),
        ("worker-2", "seismo.synthesize", 5.0),
        ("worker-2", "seismo.waveform_save", 7.0),
        ("worker-3", "seismo.synthesize", 5.0),
    ]
    assert totals["seismo.synthesize"] == [2.5, 2, 0.0]
    assert totals["seismo.waveform_save"] == [0.5, 1, 2.0]


def test_metric_names_and_units():
    assert not set(run.E2E_METRICS) & set(run.LAYER_METRICS)
    for name, (unit, better) in {**run.E2E_METRICS, **run.LAYER_METRICS}.items():
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), (name, unit)
        assert better in ("higher", "lower")
    for target in layers.TARGETS:
        layers.layer_of(target.span)  # every span belongs to a layer


def test_benchmark_json_describes_run_py():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module")
def tiny_runs(out_dir):
    return {name: run.measure(name, 3, 0, True, out_dir, spec=spec) for name, spec in TINY.items()}


def test_every_benchmark_metric_is_emitted(tiny_runs, out_dir):
    from repro.obs.export import validate_chrome_trace

    for name, summary in tiny_runs.items():
        assert summary["correct"], (name, summary["problems"])
        assert summary["failed"] == 0 and summary["attempted"] > 0
        assert set(summary["metrics"]) == set(run.E2E_METRICS)
        assert all(v > 0 for v in summary["metrics"].values()), name
        assert set(summary["layers"]) == set(run.LAYER_METRICS)
        assert summary["layers"]["trace.unattributed_frac"] < 0.10, name
        trace = json.loads((out_dir / summary["trace_file"]).read_text())
        assert validate_chrome_trace(trace) == summary["trace_events"]


def test_pooled_workers_report_their_spans(tiny_runs):
    layers_ = tiny_runs["fdw-full-cold"]["layers"]
    assert layers_["local.worker_busy_frac"] > 0
    assert layers_["seismo.synthesize_frac"] > 0
    assert tiny_runs["fdw-small-warm"]["layers"]["klcache.hit_ratio"] == 1.0


def test_flipped_archive_byte_fails_the_check(tmp_path):
    import workloads

    spec = dict(TINY["fdw-full-cold"], n_workers=1)
    workload = workloads.FdwWorkload("fdw-full-cold", spec, 3, tmp_path, "rep", None)
    workload.setup()
    workload.timed()
    reference = {"archive_sha256": workloads.archive_digest(workload.archive_dir)}
    product = sorted((workload.archive_dir / "waveforms").iterdir())[0]
    data = bytearray(product.read_bytes())
    data[len(data) // 2] ^= 0x01
    product.write_bytes(bytes(data))
    rep = {"ok": True, "outputs": workload.outputs()}
    failed, why = run.check_rep("fdw", rep, reference, spec["n_waveforms"])
    assert failed == spec["n_waveforms"]
    assert any("archive differs" in w for w in why)
    assert run.check_rep("fdw", rep, rep["outputs"], spec["n_waveforms"]) == (0, [])

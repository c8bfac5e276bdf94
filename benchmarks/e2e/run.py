"""End-to-end benchmark of the local FDW, pool-replay and portal paths.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds N]
                                  [--trace 0|1 | --traced] [--out DIR]

For each workload the driver first runs an untimed reference where the
workload has one. It then starts repetitions, each in a fresh child
interpreter (``workloads.py``), one at a time, while another one fits
in ``--seconds`` (at least one). It checks every repetition's outputs
and prints every end-to-end metric by name with its unit, quartiles and
sample count. With ``--trace 1`` (or ``--traced``) it adds one
repetition with timing wrappers around each layer's public entry points
(``layers.py``), writes ``<out>/<workload>.trace.json`` and prints self
time per layer.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics, or
with tracing the per-layer metrics. Without ``--workload`` every
workload runs and the object carries ``workloads`` instead. The full
results, with machine facts, go to ``<out>/results.json``.

The program under test is imported from ``src/`` next to this
directory; the driver itself never imports it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / ".bench_e2e"
#: Must equal ``run_seconds`` in BENCHMARK.json (checked by the tests).
DEFAULT_SECONDS = 25
#: A repetition that takes longer is killed and counted as failed.
CHILD_TIMEOUT_S = 120

#: Fixed-scale workloads. Each is cheap enough that a run holds several
#: fresh-process repetitions, which is what keeps run medians steady.
WORKLOADS: dict[str, dict] = {
    "fdw-full-cold": {
        "kind": "fdw",
        "unit": "waveforms",
        "why": "full 121-station input on the 2-worker pool with empty caches: kernels, "
               "cache writes, shared-memory bank, pool efficiency",
        "spec": {"n_waveforms": 64, "n_stations": 121, "mesh": [30, 15],
                 "mw_range": [8.4, 8.6], "n_workers": 2, "checkpoint": False, "warm": False},
    },
    "fdw-small-warm": {
        "kind": "fdw",
        "unit": "waveforms",
        "why": "2-station input, sequential, checkpointed, primed caches: checkpoint and "
               "archive I/O and verified cache reads, little kernel work",
        "spec": {"n_waveforms": 192, "n_stations": 2, "mesh": [30, 15],
                 "mw_range": [8.4, 8.6], "n_workers": 1, "checkpoint": True, "warm": True},
    },
    "pool-replay": {
        "kind": "pool",
        "unit": "jobs",
        "why": "OSPool DES replay of a generated instance: negotiation, event heap, "
               "transfer model and DAGMan bookkeeping, no kernels or file I/O",
        "spec": {"n_tasks": 40_000, "slots": 8_000},
    },
    "portal-mixed": {
        "kind": "portal",
        "unit": "operations",
        "why": "closed-loop portal client, 90% submits and 10% catalog reads: admission, "
               "coalescing, scalar negotiation, deposit, catalog scans",
        "spec": {"n_ops": 10_000, "n_tenants": 24, "n_scenarios": 8, "read_share": 0.1,
                 "n_workers": 4},
    },
}

#: Workload-size key whose value is the units one repetition attempts.
UNITS_KEY = {"fdw": "n_waveforms", "pool": "n_tasks", "portal": "n_ops"}

#: End-to-end metrics: name -> (unit, better).
E2E_METRICS = {
    "throughput_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics: name -> (unit, better). Self times are shares
#: ("frac") of the traced repetition's wall time, summed over the
#: parent and its pool workers; ``wf.generate``/``wf.import`` are
#: shares of set-up time instead.
LAYER_METRICS = {
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "local.run_self_frac": ("frac", "lower"),
    "local.close_frac": ("frac", "lower"),
    "local.phase_a_frac": ("frac", "lower"),
    "local.phase_b_frac": ("frac", "lower"),
    "local.phase_c_frac": ("frac", "lower"),
    "local.outside_phases_frac": ("frac", "lower"),
    "local.parent_wait_frac": ("frac", "lower"),
    "local.worker_busy_frac": ("frac", "higher"),
    "local.parallel_efficiency": ("ratio", "higher"),
    "seismo.kl_basis_frac": ("frac", "lower"),
    "seismo.rupture_generate_frac": ("frac", "lower"),
    "seismo.gf_bank_frac": ("frac", "lower"),
    "seismo.synthesize_frac": ("frac", "lower"),
    "seismo.waveform_save_frac": ("frac", "lower"),
    "seismo.waveform_save_mb": ("MB", "lower"),
    "klcache.lookup_frac": ("frac", "lower"),
    "klcache.hit_ratio": ("ratio", "higher"),
    "gfcache.lookup_frac": ("frac", "lower"),
    "gfcache.hit_ratio": ("ratio", "higher"),
    "gfcache.publish_frac": ("frac", "lower"),
    "gfcache.attach_frac": ("frac", "lower"),
    "integrity.read_verified_frac": ("frac", "lower"),
    "integrity.read_verified_calls": ("count", "lower"),
    "integrity.read_mb": ("MB", "lower"),
    "checkpoint.store_frac": ("frac", "lower"),
    "checkpoint.finalize_frac": ("frac", "lower"),
    "archive.add_file_frac": ("frac", "lower"),
    "archive.add_file_calls": ("count", "lower"),
    "archive.write_rupt_frac": ("frac", "lower"),
    "archive.mb": ("MB", "lower"),
    "wf.generate_frac": ("frac", "lower"),
    "wf.import_frac": ("frac", "lower"),
    "wf.replay_self_frac": ("frac", "lower"),
    "condor.dag_build_frac": ("frac", "lower"),
    "osg.negotiate_frac": ("frac", "lower"),
    "osg.negotiate_calls": ("count", "lower"),
    "osg.transfer_frac": ("frac", "lower"),
    "osg.runtime_sample_frac": ("frac", "lower"),
    "condor.node_result_frac": ("frac", "lower"),
    "condor.userlog_frac": ("frac", "lower"),
    "osg.pool_engine_frac": ("frac", "lower"),
    "service.submit_frac": ("frac", "lower"),
    "service.execute_frac": ("frac", "lower"),
    "service.negotiate_frac": ("frac", "lower"),
    "service.negotiate_calls": ("count", "lower"),
    "service.coalesce_ratio": ("ratio", "higher"),
    "service.loop_frac": ("frac", "lower"),
    "client.op_frac": ("frac", "lower"),
    "vdc.deposit_frac": ("frac", "lower"),
    "vdc.discover_frac": ("frac", "lower"),
    "vdc.search_frac": ("frac", "lower"),
    "vdc.search_calls": ("count", "lower"),
    "vdc.records_scanned": ("count", "lower"),
    "vdc.retrieve_frac": ("frac", "lower"),
}


# -- statistics ----------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# -- child processes -----------------------------------------------------------


def child_env(src: Path, work: Path) -> dict[str, str]:
    env = dict(os.environ)
    # One BLAS thread per process: the pooled workload's threads stay
    # at its n_workers; default threading oversubscribes a small host.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", TMPDIR=str(work))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_child(job: dict, src: Path, work: Path) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    tag = f"{job['role']}-{time.monotonic_ns()}"
    job_path, log_path = work / f"{tag}.job.json", work / f"{tag}.log"
    job["result_path"] = str(work / f"{tag}.result.json")
    job["spawned"] = time.monotonic()
    job_path.write_text(json.dumps(job))
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), str(job_path)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(src, work),
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:
        result = json.loads(Path(job["result_path"]).read_text())
    except FileNotFoundError:
        tail = log_path.read_text(errors="replace")[-2000:]
        result = {"ok": False, "error": f"exit code {proc.returncode}\n{tail}"}
    result["spawned"] = job["spawned"]
    return result


# -- output checks -------------------------------------------------------------


def check_rep(kind: str, rep: dict, baseline: dict | None, units: int) -> tuple[int, list[str]]:
    """Failed units of one repetition, and why.

    fdw: the archive must be byte-identical to the reference run's and
    hold one waveform set per requested waveform. pool: every task has
    a completed record, and the replay repeats exactly. portal: every
    operation returned, every ticket resolved, and the service's
    counters and queue trace repeat exactly.
    """
    if not rep["ok"]:
        return units, ["repetition failed: " + rep["error"].strip().splitlines()[-1]]
    out = rep["outputs"]
    problems: list[str] = []
    if kind == "fdw":
        if baseline is None:
            problems.append("no reference run to compare against")
        elif out["archive_sha256"] != baseline["archive_sha256"]:
            problems.append("archive differs from the sequential cold reference")
        if out["n_waveform_sets"] != units:
            problems.append(f"{out['n_waveform_sets']} waveform sets for {units} waveforms")
        return (units if problems else 0), problems
    if kind == "pool":
        keys = ("makespan_s", "n_records", "records_sha256")
        if baseline is not None and any(out[k] != baseline[k] for k in keys):
            return units, ["replay differs between repetitions"]
        missing = out["missing_tasks"]
        return missing, ([f"{missing} tasks without a completed record"] if missing else [])
    if out["n_submits"] + out["n_reads"] != units:
        problems.append("operation count mismatch")
    if baseline is not None and out["stats"] != baseline["stats"]:
        problems.append("service stats differ between repetitions")
    if problems:
        return units, problems
    failed = out["failed_ops"]
    return failed, ([f"{failed} operations rejected or failed"] if failed else [])


def check_expected(name: str, kind: str, out: dict, expected: dict) -> list[str]:
    """Seed-0 pins: per-rupture max PGD (fdw, rel. 1e-9), pool makespan
    and record count, portal executed and coalesced counts."""
    pins = expected[name]
    if kind == "fdw":
        if set(out["pgd"]) != set(pins["pgd"]):
            return ["rupture ids differ from expected.json"]
        bad = [rid for rid, v in pins["pgd"].items()
               if not math.isclose(out["pgd"][rid], v, rel_tol=1e-9, abs_tol=0.0)]
        return [f"{len(bad)} ruptures' max PGD differ from expected.json"] if bad else []
    if kind == "pool":
        got = {"makespan_s": out["makespan_s"], "n_records": out["n_records"]}
    else:
        got = {"executed": out["stats"]["executed"], "coalesced": out["stats"]["coalesced"]}
    return [] if got == pins else [f"expected {pins}, got {got}"]


# -- metrics -------------------------------------------------------------------


_ZERO = (0.0, 0, 0.0)


def layer_metrics(traced: dict, untraced_wall: float, setup_s: float,
                  reference_wall: float | None) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see LAYER_METRICS)."""
    wall = traced["wall_s"]
    totals, out = traced["layers"], traced["outputs"]
    parent, workers, setup = totals["parent"], totals["workers"], totals["setup"]

    def total(name: str, i: int) -> float:
        return parent.get(name, _ZERO)[i] + workers.get(name, _ZERO)[i]

    def frac(name: str) -> float:
        return total(name, 0) / wall

    def hit_ratio(lookup: str, miss: str) -> float:
        calls = total(lookup, 1)
        return 1.0 - total(miss, 1) / calls if calls else 0.0

    phases = out.get("phase_seconds", {})
    n_workers = out.get("n_workers", 1)
    stats = out.get("stats", {})
    m = {
        "trace.wall_s": wall,
        "trace.unattributed_frac": 1.0 - sum(v[0] for v in parent.values()) / wall,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
        "local.phase_a_frac": (phases.get("dist", 0.0) + phases.get("A", 0.0)) / wall,
        "local.phase_b_frac": phases.get("B", 0.0) / wall,
        "local.phase_c_frac": phases.get("C", 0.0) / wall,
        "local.outside_phases_frac": (wall - sum(phases.values())) / wall if phases else 0.0,
        "local.worker_busy_frac": (
            sum(v[0] for v in workers.values()) / (n_workers * wall) if workers else 0.0
        ),
        "local.parallel_efficiency": (
            reference_wall / (n_workers * untraced_wall)
            if reference_wall and n_workers > 1 else 0.0
        ),
        "seismo.waveform_save_mb": total("seismo.waveform_save", 2),
        "klcache.hit_ratio": hit_ratio("klcache.lookup", "seismo.kl_basis"),
        "gfcache.hit_ratio": hit_ratio("gfcache.lookup", "seismo.gf_bank"),
        "integrity.read_verified_calls": total("integrity.read_verified", 1),
        "integrity.read_mb": total("integrity.read_verified", 2),
        "archive.add_file_calls": total("archive.add_file", 1),
        "archive.mb": total("archive.add_file", 2),
        "wf.generate_frac": setup.get("wf.generate", _ZERO)[0] / setup_s,
        "wf.import_frac": setup.get("wf.import", _ZERO)[0] / setup_s,
        "wf.replay_self_frac": frac("wf.replay"),
        "osg.negotiate_calls": total("osg.negotiate", 1),
        "service.negotiate_calls": total("service.negotiate", 1),
        "service.coalesce_ratio": (
            stats["coalesced"] / stats["submitted"] if stats.get("submitted") else 0.0
        ),
        "vdc.search_calls": total("vdc.search", 1),
        "vdc.records_scanned": total("vdc.search", 2),
    }
    # Every other metric is "<span>_frac" or "<span>_self_frac": that
    # span's self time over the traced wall.
    for name in LAYER_METRICS:
        if name not in m:
            span = name.removesuffix("_frac").removesuffix("_self")
            if span not in layers.SPANS:
                raise KeyError(f"per-layer metric {name} names no span")
            m[name] = frac(span)
    return {name: m[name] for name in LAYER_METRICS}


def layer_report(traced: dict) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Self seconds per layer (largest first) and per span."""
    totals = traced["layers"]
    spans: dict[str, list[float]] = {}
    for side in ("parent", "workers"):
        for name, (self_s, calls, _amount) in totals[side].items():
            entry = spans.setdefault(name, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
    by_layer: dict[str, float] = {}
    for name, (self_s, _calls) in spans.items():
        layer = layers.layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    parent_self = sum(v[0] for v in totals["parent"].values())
    by_layer["(unattributed)"] = traced["wall_s"] - parent_self
    ordered = dict(sorted(by_layer.items(), key=lambda kv: -kv[1]))
    return ordered, dict(sorted(spans.items(), key=lambda kv: -kv[1][0]))


# -- one workload --------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
            spec: dict | None = None, src: Path = SRC) -> dict:
    """Run one workload: reference, timed repetitions, optional trace."""
    meta = WORKLOADS[name]
    kind = meta["kind"]
    spec = dict(meta["spec"] if spec is None else spec)
    units = spec[UNITS_KEY[kind]]
    work = out_dir / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_path = out_dir / f"{name}.trace.json"

    def job(role: str, traced: bool = False) -> dict:
        return {"workload": name, "kind": kind, "spec": spec, "seed": seed, "role": role,
                "trace": traced, "work": str(work), "trace_path": str(trace_path)}

    try:
        reference = run_child(job("reference"), src, work) if kind == "fdw" else None
        reps: list[dict] = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            reps.append(run_child(job("rep"), src, work))
            # Start another repetition only if one as long as the last
            # still ends within the measuring time.
            now = time.monotonic()
            if now - start + (now - began) > seconds:
                break
        traced = run_child(job("rep", traced=True), src, work) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems: list[str] = []
    if reference is not None and not reference["ok"]:
        problems.append("reference run failed: " + reference["error"].strip().splitlines()[-1])
    checked = reps + ([traced] if traced is not None else [])
    baseline = None
    if reference is not None:
        baseline = reference["outputs"] if reference["ok"] else None
    else:
        baseline = next((r["outputs"] for r in checked if r["ok"]), None)
    failed = 0
    for rep in checked:
        n_failed, why = check_rep(kind, rep, baseline, units)
        failed += n_failed
        problems.extend(why)
    if seed == 0 and baseline is not None and spec == meta["spec"]:
        expected = json.loads((HERE / "expected.json").read_text())
        problems.extend(check_expected(name, kind, baseline, expected))
    attempted = units * len(checked)

    good = [r for r in reps if r["ok"]]
    samples = {
        "throughput_per_s": [units / r["wall_s"] for r in good],
        "setup_s": [r["ready"] - r["spawned"] for r in good],
        "peak_rss_mb": [r["rss_mb"] for r in good],
    }
    spread = {k: quartiles(v) if v else (0.0, 0.0, 0.0) for k, v in samples.items()}
    metrics = {k: q[1] for k, q in spread.items()}
    wall_median = statistics.median(r["wall_s"] for r in good) if good else 0.0
    extras: dict[str, float] = {
        f"{meta['unit']}_per_s": metrics["throughput_per_s"],
        "wall_s": wall_median,
        "error_rate": failed / attempted,
    }
    if kind == "portal" and good:
        submit = [s for r in good for s in r["outputs"]["submit_s"]]
        read = [s for r in good for s in r["outputs"]["read_s"]]
        extras.update({
            "submit_p50_us": percentile(submit, 50) * 1e6,
            "read_p50_ms": percentile(read, 50) * 1e3,
            "read_p99_ms": percentile(read, 99) * 1e3,
            "read_samples": len(read),
            "queue_wait_p99_s": good[0]["outputs"]["queue_wait_p99_s"],
        })
    if reference is not None and reference["ok"]:
        extras["reference_wall_s"] = reference["wall_s"]

    summary = {
        "workload": name, "seed": seed, "unit": meta["unit"], "units_per_rep": units,
        "spec": spec, "repetitions": len(reps),
        "correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics, "spread": spread, "extras": extras,
        "versions": next((r["versions"] for r in checked if "versions" in r), {}),
    }
    if traced is not None and traced["ok"] and good:
        summary["layers"] = layer_metrics(
            traced, wall_median, traced["ready"] - traced["spawned"],
            extras.get("reference_wall_s"),
        )
        summary["layer_self_s"], summary["span_self_s"] = layer_report(traced)
        summary["trace_file"] = trace_path.name  # next to results.json
        summary["trace_events"] = traced["layers"]["trace_events"]
    elif trace:
        summary["correct"] = False
        summary["problems"].append("traced repetition failed")
    return summary


# -- reporting -----------------------------------------------------------------


def print_report(s: dict) -> None:
    print(f"== {s['workload']} (seed {s['seed']}): {s['repetitions']} repetitions of "
          f"{s['units_per_rep']} {s['unit']} ==")
    for name, value in s["metrics"].items():
        q1, _, q3 = s["spread"][name]
        unit = E2E_METRICS[name][0]
        print(f"  {name:<22} {value:>12.4f} {unit:<5} quartiles [{q1:.4f}, {q3:.4f}], "
              f"n={s['repetitions']}")
    for name, value in s["extras"].items():
        print(f"  {name:<22} {value:>12.4f}")
    print(f"  outputs: {'ok' if s['correct'] else 'FAILED'} "
          f"({s['failed']} of {s['attempted']} {s['unit']} failed)")
    for problem in s["problems"]:
        print(f"    - {problem}")
    if "layers" in s:
        wall = s["layers"]["trace.wall_s"]
        print(f"  traced wall {wall:.3f} s, overhead "
              f"{100 * s['layers']['trace.overhead_frac']:+.1f}%, "
              f"{s['trace_events']} events in {s['trace_file']}")
        print("  self time per layer (workers included):")
        for layer, self_s in s["layer_self_s"].items():
            print(f"    {layer:<18} {self_s:>9.3f} s  {100 * self_s / wall:6.1f}%")
        print("  per-layer metrics:")
        for name, value in s["layers"].items():
            print(f"    {name:<30} {value:>12.4f} {LAYER_METRICS[name][0]}")


def machine_facts(versions: dict) -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, **versions}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure each workload this long (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    trace = bool(args.trace or args.traced)
    out_dir = args.out.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)

    summaries = {}
    for name in names:
        summaries[name] = measure(name, args.seed, args.seconds, trace, out_dir)
        print_report(summaries[name])
    versions = next((s["versions"] for s in summaries.values() if s["versions"]), {})
    (out_dir / "results.json").write_text(json.dumps({
        "machine": machine_facts(versions),
        "seed": args.seed, "seconds": args.seconds, "trace": trace,
        "workloads": summaries,
    }, indent=1, sort_keys=True) + "\n")

    def emitted(s: dict) -> dict:
        values, units = (s.get("layers", {}), LAYER_METRICS) if trace else (s["metrics"], E2E_METRICS)
        return {k: {"value": values.get(k, 0.0), "unit": units[k][0]} for k in units}

    line = {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
    }
    if args.workload:
        line["metrics"] = emitted(summaries[args.workload])
    else:
        line["workloads"] = {name: emitted(s) for name, s in summaries.items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: the FDW's "edit a config, run a script" UX.

The paper describes the workflow's user experience as: place the source
in a home directory, edit a configuration file, and run a script
(§3). This module is that script::

    python -m repro.cli init fdw.cfg                 # write a template config
    python -m repro.cli run fdw.cfg                  # run on the simulated OSG
    python -m repro.cli run fdw.cfg --rescue-dir r/  # snapshot rescues on death
    python -m repro.cli recover fdw.cfg r/fdw.dag.rescue001   # rerun remainder
    python -m repro.cli run fdw.cfg --local          # single-machine control
    python -m repro.cli run fdw.cfg --local --archive-dir out/ --checkpoint
    python -m repro.cli run fdw.cfg --local --archive-dir out/ --resume
    python -m repro.cli run fdw.cfg --dagmans 4      # partitioned DAGMans
    python -m repro.cli trace fdw.cfg -o traces/     # export bursting CSVs
    python -m repro.cli burst traces/fdw_batch.csv traces/fdw_jobs.csv \
        --probe 10 --queue-min 90                    # bursting replay
    python -m repro.cli dagfile fdw.cfg -o dag/      # write .dag + submit files
    python -m repro.cli wf export fdw.cfg -o run.json     # run -> WfFormat JSON
    python -m repro.cli wf import examples/fdw64_wfformat.json
    python -m repro.cli wf generate examples/fdw64_wfformat.json -n 500 -o gen.json
    python -m repro.cli wf replay gen.json --dagmans 4 --burst
    python -m repro.cli chaos --seed 7               # seeded chaos campaign
    python -m repro.cli serve --tenants 8 --submissions 64 --seed 7
    python -m repro.cli serve --backend pool --submissions 8   # real pool runs

All subcommands print the monitoring/report output the paper's tooling
produces and exit non-zero on failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ObsError, ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="FakeQuakes DAGMan Workflow (FDW) tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="write a template configuration file")
    p_init.add_argument("config", type=Path)
    p_init.add_argument("--waveforms", type=int, default=1024)
    p_init.add_argument("--stations", type=int, default=121)

    p_run = sub.add_parser("run", help="run the FDW")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--local", action="store_true", help="single-machine control")
    p_run.add_argument("--dagmans", type=int, default=1, help="concurrent DAGMans")
    p_run.add_argument("--seed", type=int, default=0, help="pool-side seed")
    p_run.add_argument(
        "--rescue-dir", type=Path, default=None,
        help="write rescue files here if a DAGMan dies (see 'recover')",
    )
    p_run.add_argument(
        "--archive-dir", type=Path, default=None,
        help="archive the products of a --local run here",
    )
    p_run.add_argument(
        "--checkpoint", action="store_true",
        help="with --local: keep a chunk-granular checkpoint in --archive-dir",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="with --local: resume a checkpointed run, skipping done chunks",
    )
    p_run.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="observe the run: write a Chrome trace_event JSON here plus a "
        "Prometheus metrics snapshot next to it (.prom)",
    )
    p_run.add_argument(
        "--gf-dtype", choices=("float64", "float32"), default=None,
        help="override the config's GF-bank precision; float32 halves bank "
        "bytes at ~1e-7 relative waveform error (banks are cache-keyed by "
        "dtype, so the two precisions never share an entry)",
    )

    p_rec = sub.add_parser(
        "recover", help="resubmit a dead DAGMan from its rescue file"
    )
    p_rec.add_argument("config", type=Path)
    p_rec.add_argument("rescue_file", type=Path)
    p_rec.add_argument("--seed", type=int, default=0, help="pool-side seed")
    p_rec.add_argument(
        "--rescue-dir", type=Path, default=None,
        help="where to write a new rescue file if this attempt dies too",
    )

    p_trace = sub.add_parser("trace", help="run on OSG and export bursting CSVs")
    p_trace.add_argument("config", type=Path)
    p_trace.add_argument("-o", "--output", type=Path, default=Path("."))
    p_trace.add_argument("--seed", type=int, default=0)

    p_burst = sub.add_parser("burst", help="replay a trace under bursting policies")
    p_burst.add_argument("batch_csv", type=Path)
    p_burst.add_argument("jobs_csv", type=Path)
    p_burst.add_argument("--probe", type=float, default=10.0, help="Policy 1 probe (s)")
    p_burst.add_argument(
        "--threshold", type=float, default=34.0, help="Policy 1 threshold (JPM)"
    )
    p_burst.add_argument(
        "--queue-min", type=float, default=90.0, help="Policy 2 queue cap (minutes)"
    )
    p_burst.add_argument(
        "--max-burst-fraction", type=float, default=None, help="cap on bursted share"
    )
    p_burst.add_argument("--csv", type=Path, default=None, help="per-second output CSV")

    p_dag = sub.add_parser("dagfile", help="write the .dag and submit files")
    p_dag.add_argument("config", type=Path)
    p_dag.add_argument("-o", "--output", type=Path, default=Path("dag"))

    p_wf = sub.add_parser(
        "wf", help="WfFormat (WfCommons) workflow interchange"
    )
    wf_sub = p_wf.add_subparsers(dest="wf_command", required=True)

    p_wfe = wf_sub.add_parser(
        "export", help="run the FDW on the simulated OSG and export WfFormat JSON"
    )
    p_wfe.add_argument("config", type=Path)
    p_wfe.add_argument("-o", "--output", type=Path, default=Path("instance.json"))
    p_wfe.add_argument("--seed", type=int, default=0, help="pool-side seed")

    p_wfi = wf_sub.add_parser(
        "import",
        help="validate a WfFormat instance (e.g. examples/fdw64_wfformat.json) "
        "and summarize the imported DAG",
    )
    p_wfi.add_argument("instance", type=Path)
    p_wfi.add_argument(
        "--reexport", type=Path, default=None,
        help="re-serialize the imported instance here (round-trip check: the "
        "output is byte-identical to a repro-exported input)",
    )

    p_wfg = wf_sub.add_parser(
        "generate", help="WfChef-style synthetic scale-up of an instance"
    )
    p_wfg.add_argument("instance", type=Path)
    p_wfg.add_argument("-n", "--tasks", type=int, required=True, help="target task count")
    p_wfg.add_argument("--seed", type=int, default=0)
    p_wfg.add_argument("-o", "--output", type=Path, default=Path("generated.json"))

    p_wfr = wf_sub.add_parser(
        "replay", help="replay an instance through the OSPool simulator"
    )
    p_wfr.add_argument("instance", type=Path)
    p_wfr.add_argument(
        "--dagmans", type=int, default=1,
        help="concurrent DAGMans (the paper's 1/2/4/8 partitioning study)",
    )
    p_wfr.add_argument(
        "--runtime", choices=("trace", "model"), default="trace",
        help="'trace' replays recorded runtimes; 'model' uses the calibrated "
        "stochastic model (bit-identical FDW round trip at the same seed)",
    )
    p_wfr.add_argument("--seed", type=int, default=0, help="pool-side seed")
    p_wfr.add_argument("--stagger", type=float, default=0.0, help="DAGMan stagger (s)")
    p_wfr.add_argument(
        "--burst", action="store_true",
        help="also run bursting Policies 1-3 over each replayed DAGMan",
    )
    p_wfr.add_argument(
        "--trace-dir", type=Path, default=None,
        help="write each DAGMan's batch/jobs bursting CSVs here",
    )
    p_wfr.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="observe the replay: write a Chrome trace_event JSON here plus "
        "a Prometheus metrics snapshot next to it (.prom); the simulator's "
        "virtual timestamps make the trace byte-identical per seed",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos campaign (corruption, flakes, transfer "
        "faults, a site outage) and assert the archive is bit-identical "
        "to a fault-free run",
    )
    p_chaos.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_chaos.add_argument(
        "--workdir", type=Path, default=None,
        help="campaign working directory (default: a temp dir, removed on "
        "success; quarantined artifacts survive in a kept workdir)",
    )
    p_chaos.add_argument(
        "--transfer-failure-prob", type=float, default=0.15,
        help="per-attempt Stash transfer failure probability",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run a seeded multi-tenant portal-service session (fair share, "
        "coalescing, quota/backpressure) and print its report",
    )
    p_serve.add_argument("--tenants", type=int, default=8, help="simulated tenants")
    p_serve.add_argument(
        "--submissions", type=int, default=64, help="total submissions across tenants"
    )
    p_serve.add_argument(
        "--distinct", type=int, default=6,
        help="distinct scenarios the submissions draw from (repeats coalesce)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4, help="concurrent executions (virtual)"
    )
    p_serve.add_argument("--seed", type=int, default=0, help="session seed")
    p_serve.add_argument(
        "--waveforms", type=int, default=16, help="waveforms per scenario"
    )
    p_serve.add_argument(
        "--backend", choices=("sim", "pool", "burst", "local"), default="sim",
        help="execution backend behind the service (default: virtual-cost sim; "
        "'pool'/'burst'/'local' run the real simulators per distinct scenario)",
    )
    p_serve.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="observe the session: write a Chrome trace_event JSON here — one "
        "merged per-tenant timeline from the service's queue trace — plus a "
        "Prometheus metrics snapshot next to it (.prom)",
    )

    p_obs = sub.add_parser("obs", help="observability tooling")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_sum = obs_sub.add_parser(
        "summary",
        help="render a terminal digest of an exported trace and/or metrics "
        "snapshot (spans, markers, counters, histogram shapes)",
    )
    p_obs_sum.add_argument(
        "trace_json", type=Path, nargs="?", default=None,
        help="Chrome trace JSON written by a --trace run",
    )
    p_obs_sum.add_argument(
        "--metrics", type=Path, default=None,
        help="Prometheus text snapshot (defaults to the trace's .prom sibling "
        "when that file exists)",
    )

    p_fig = sub.add_parser("figures", help="regenerate the paper-figure CSVs")
    p_fig.add_argument("-o", "--output", type=Path, default=Path("figures"))
    p_fig.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale in (0, 1]; 1.0 = paper scale",
    )
    return parser


def _cmd_init(args: argparse.Namespace) -> int:
    from repro.core.config import FdwConfig

    config = FdwConfig(
        n_waveforms=args.waveforms,
        n_stations=args.stations,
        name=args.config.stem,
    )
    path = config.write(args.config)
    print(f"wrote template configuration to {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.config import FdwConfig
    from repro.core.local import LocalRunner
    from repro.core.monitor import DagmanStats
    from repro.core.partition import partition_config
    from repro.core.submit_osg import run_fdw_batch
    from repro.units import format_duration

    config = FdwConfig.read(args.config)
    if args.gf_dtype is not None:
        from dataclasses import replace

        config = replace(config, gf_dtype=args.gf_dtype)
    if args.local:
        result = LocalRunner().run(
            config,
            archive_dir=args.archive_dir,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
        print(
            f"local run: {result.n_waveform_sets} waveform sets in "
            f"{format_duration(result.total_seconds)}"
        )
        for phase, seconds in result.phase_seconds.items():
            print(f"  phase {phase}: {seconds:.2f}s")
        if args.resume:
            for phase in sorted(result.chunks_skipped):
                print(
                    f"  phase {phase} chunks: "
                    f"{result.chunks_skipped[phase]} resumed, "
                    f"{result.chunks_executed[phase]} executed"
                )
        return 0
    parts = partition_config(config, args.dagmans)
    batch = run_fdw_batch(parts, seed=args.seed, rescue_dir=args.rescue_dir)
    for name in batch.dagman_names:
        stats = DagmanStats.from_user_log(batch.user_logs[name])
        print(stats.report(name))
        print()
    if len(parts) > 1:
        print(
            f"batch makespan {format_duration(batch.batch_makespan_s())}, "
            f"aggregate throughput {batch.batch_throughput_jpm():.2f} jobs/min"
        )
    if batch.rescue_files:
        for name, path in sorted(batch.rescue_files.items()):
            print(f"DAGMan {name} failed; rescue file: {path}")
        print("resubmit the remainder with: repro recover <config> <rescue file>")
        return 1
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.condor.dagman import DagmanOptions
    from repro.condor.rescue import read_rescue_file
    from repro.core.config import FdwConfig
    from repro.core.monitor import DagmanStats
    from repro.core.workflow import build_fdw_dag
    from repro.osg.pool import resubmit_with_rescue

    config = FdwConfig.read(args.config)
    dag = build_fdw_dag(config)
    done = read_rescue_file(args.rescue_file)
    pool, run = resubmit_with_rescue(
        dag,
        args.rescue_file,
        options=DagmanOptions(max_idle=config.max_idle),
        name=config.name,
        seed=args.seed,
        rescue_dir=args.rescue_dir,
    )
    print(
        f"rescued {len(done)} completed node(s); "
        f"resubmitting the remaining {len(dag) - len(done)}"
    )
    pool.run()
    stats = DagmanStats.from_user_log(run.user_log)
    print(stats.report(config.name))
    if run.dead:
        print(f"DAGMan {config.name} failed again; rescue file: {run.rescue_file}")
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.config import FdwConfig
    from repro.core.submit_osg import run_fdw_batch
    from repro.core.traces import export_traces

    config = FdwConfig.read(args.config)
    result = run_fdw_batch(config, seed=args.seed)
    batch_csv, jobs_csv = export_traces(result, config.name, args.output)
    print(f"wrote {batch_csv}")
    print(f"wrote {jobs_csv}")
    return 0


def _cmd_burst(args: argparse.Namespace) -> int:
    from repro.bursting import (
        BurstingSimulator,
        LowThroughputPolicy,
        QueueTimePolicy,
        render_report,
        write_throughput_csv,
    )
    from repro.core.traces import read_traces
    from repro.units import minutes

    trace = read_traces(args.batch_csv, args.jobs_csv)
    sim = BurstingSimulator(
        trace,
        policies=[
            LowThroughputPolicy(probe_s=args.probe, threshold_jpm=args.threshold),
            QueueTimePolicy(max_queue_s=minutes(args.queue_min)),
        ],
        max_burst_fraction=args.max_burst_fraction,
    )
    result = sim.run()
    print(render_report(result))
    if args.csv is not None:
        path = write_throughput_csv(result, args.csv)
        print(f"per-second throughput written to {path}")
    return 0


def _cmd_dagfile(args: argparse.Namespace) -> int:
    from repro.core.config import FdwConfig
    from repro.core.workflow import build_fdw_dag

    config = FdwConfig.read(args.config)
    dag = build_fdw_dag(config)
    dag_path = dag.write(args.output)
    print(f"wrote {dag_path} and {len(dag)} submit files under {args.output}")
    return 0


def _cmd_wf_export(args: argparse.Namespace) -> int:
    from repro.core.config import FdwConfig
    from repro.core.submit_osg import run_fdw_batch
    from repro.core.workflow import build_fdw_dag
    from repro.wf import dump_instance, export_fdw_run

    config = FdwConfig.read(args.config)
    result = run_fdw_batch(config, seed=args.seed)
    dag = build_fdw_dag(config)
    instance = export_fdw_run(
        dag,
        result.metrics,
        attributes={"maxIdle": config.max_idle, "poolSeed": args.seed},
    )
    path = dump_instance(instance, args.output)
    print(
        f"wrote {path}: {instance.n_tasks} tasks, {instance.n_edges()} edges, "
        f"makespan {instance.makespan_s:.1f}s"
    )
    return 0


def _cmd_wf_import(args: argparse.Namespace) -> int:
    from repro.wf import dump_instance, import_instance

    wf = import_instance(args.instance)
    instance = wf.instance
    counts = {
        cat: sum(1 for t in instance.tasks if t.category == cat)
        for cat in instance.categories()
    }
    categories = ", ".join(f"{cat}x{n}" for cat, n in counts.items())
    depth = max(instance.levels().values()) + 1 if instance.tasks else 0
    print(
        f"{instance.name}: {wf.n_tasks} tasks, {instance.n_edges()} edges, "
        f"{depth} level(s), {len(wf.files_mb)} files"
    )
    print(f"categories: {categories}")
    if args.reexport is not None:
        path = dump_instance(instance, args.reexport)
        print(f"re-exported to {path}")
    return 0


def _cmd_wf_generate(args: argparse.Namespace) -> int:
    from repro.wf import dump_instance, generate_instance, load_instance

    source = load_instance(args.instance)
    instance = generate_instance(source, args.tasks, args.seed)
    path = dump_instance(instance, args.output)
    print(
        f"wrote {path}: {instance.n_tasks} tasks, {instance.n_edges()} edges "
        f"(generated from {source.name!r}, seed {args.seed})"
    )
    return 0


def _cmd_wf_replay(args: argparse.Namespace) -> int:
    from repro.bursting import render_report
    from repro.core.traces import export_traces
    from repro.units import format_duration
    from repro.wf import replay_bursting, replay_instance

    result = replay_instance(
        args.instance,
        n_dagmans=args.dagmans,
        seed=args.seed,
        runtime=args.runtime,
        stagger_s=args.stagger,
    )
    for name in result.dagman_names:
        summary = result.metrics.dagmans[name]
        print(
            f"{name}: {summary.n_jobs} jobs in "
            f"{format_duration(summary.runtime_s)} "
            f"({summary.throughput_jpm:.2f} jobs/min)"
        )
    print(
        f"replay makespan {format_duration(result.makespan_s)} "
        f"({result.n_dagmans} DAGMan(s), runtime mode {result.runtime_mode!r})"
    )
    if args.trace_dir is not None:
        for name in result.dagman_names:
            batch_csv, jobs_csv = export_traces(result, name, args.trace_dir)
            print(f"wrote {batch_csv} and {jobs_csv}")
    if args.burst:
        for name, burst in replay_bursting(result).items():
            print()
            print(render_report(burst))
    return 0


def _cmd_wf(args: argparse.Namespace) -> int:
    return _WF_COMMANDS[args.wf_command](args)


_WF_COMMANDS = {
    "export": _cmd_wf_export,
    "import": _cmd_wf_import,
    "generate": _cmd_wf_generate,
    "replay": _cmd_wf_replay,
}


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.chaos import ChaosConfig, run_chaos_campaign

    chaos = ChaosConfig(
        seed=args.seed, transfer_failure_prob=args.transfer_failure_prob
    )
    if args.workdir is not None:
        report = run_chaos_campaign(args.workdir, chaos=chaos)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            report = run_chaos_campaign(Path(tmp) / "campaign", chaos=chaos)
    print(report.summary())
    return 0 if report.bit_identical else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        BurstingRunner,
        LocalBackend,
        PoolRunner,
        SimulatedRunner,
        run_service_demo,
    )

    runners = {
        "sim": SimulatedRunner,
        "pool": PoolRunner,
        "burst": BurstingRunner,
        "local": LocalBackend,
    }
    report = run_service_demo(
        n_tenants=args.tenants,
        n_submissions=args.submissions,
        n_distinct=args.distinct,
        seed=args.seed,
        n_workers=args.workers,
        n_waveforms=args.waveforms,
        runner=runners[args.backend](),
    )
    from repro import obs

    if obs.enabled():
        # Convert the service's audit trace into the merged per-tenant
        # timeline (the service emits only metrics live; see
        # repro.obs.export.service_timeline).
        from repro.obs.export import service_timeline

        service_timeline(
            report.trace, report.results, tracer=obs.session().tracer
        )
    print(report.summary())
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import render_summary

    def read(path: Path) -> str:
        try:
            return path.read_text()
        except OSError as exc:
            raise ObsError(f"{path}: cannot read: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ObsError(f"{path}: not UTF-8 text: {exc}") from exc

    trace_doc = None
    if args.trace_json is not None:
        text = read(args.trace_json)
        try:
            trace_doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObsError(f"{args.trace_json}: invalid JSON: {exc}") from exc
    metrics_path = args.metrics
    if metrics_path is None and args.trace_json is not None:
        sibling = args.trace_json.with_suffix(".prom")
        if sibling.exists():
            metrics_path = sibling
    metrics_text = read(metrics_path) if metrics_path is not None else None
    print(render_summary(trace_doc, metrics_text), end="")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    return {"summary": _cmd_obs_summary}[args.obs_command](args)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.core.figures import export_all_figures

    paths = export_all_figures(args.output, scale=args.scale)
    for path in paths:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "init": _cmd_init,
    "run": _cmd_run,
    "recover": _cmd_recover,
    "trace": _cmd_trace,
    "burst": _cmd_burst,
    "dagfile": _cmd_dagfile,
    "wf": _cmd_wf,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
    "figures": _cmd_figures,
}


def _run_observed(args: argparse.Namespace, trace_path: Path) -> int:
    """Run one command under an observation session and export it."""
    from repro import obs
    from repro.obs.export import dump_chrome_trace, prometheus_text

    with obs.observe() as session:
        code = _COMMANDS[args.command](args)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(dump_chrome_trace(session.tracer))
    prom_path = trace_path.with_suffix(".prom")
    prom_path.write_text(
        prometheus_text(session.registry) + prometheus_text(session.process)
    )
    print(f"wrote trace {trace_path} and metrics {prom_path}")
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        trace_path = getattr(args, "trace", None)
        if trace_path is not None:
            return _run_observed(args, trace_path)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

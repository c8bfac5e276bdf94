"""Every paper experiment, implemented once: Figs 2–6 and the headline claims.

``python -m repro.cli figures`` (:func:`export_all_figures`) writes their
data as CSVs, and the benchmarks print the paper tables from the same
functions. Points the paper averages over three DAGMan runs (§4.1) go
through :func:`~repro.core.ensemble.run_repeated`; Figs 5–6 replay a
:func:`~repro.core.traces.metrics_to_batch_trace` trace through
:func:`policy_sweep`. ``scale`` in (0, 1] multiplies the paper's waveform
counts, and every seed derives from the experiment's name.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.bursting import (
    BurstingResult, BurstingSimulator, LowThroughputPolicy, QueueTimePolicy,
)
from repro.core.config import FdwConfig
from repro.core.ensemble import RepeatedRuns, run_repeated
from repro.core.partition import partition_config
from repro.core.submit_osg import FdwBatchResult, run_fdw_batch
from repro.core.traces import BatchTrace, metrics_to_batch_trace
from repro.rng import derive_seed
from repro.units import minutes

__all__ = [
    "FigureSeries",
    "fdw_config",
    "scaled_count",
    "single_dagman_runs",
    "fig2_point",
    "fig2_series",
    "fig3_point",
    "fig3_series",
    "fig4_run",
    "fig4_series",
    "fig5_trace",
    "policy1_threshold",
    "policy_sweep",
    "fig5_series",
    "export_all_figures",
]

#: Station counts of the Chilean inputs (§4.1), by Fig 2 label.
INPUTS = {"small": 2, "full": 121}
FULL_INPUT = INPUTS["full"]
FIG2_QUANTITIES = (1024, 2000, 5120, 10000, 24960, 50000)
#: Figs 3–6 split one batch of waveforms across concurrent DAGMans.
TOTAL_WAVEFORMS = 16000
CONCURRENCY = (1, 2, 4, 8)
PROBES_S = (1, 2, 5, 10, 30, 60, 120)
QUEUE_CAPS_MIN = (90, 120)
#: Policy 1's low-throughput threshold at paper scale (§4.3).
THRESHOLD_JPM = 34.0


@dataclass(frozen=True)
class FigureSeries:
    """One tabular data series of a figure."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ConfigError(
                    f"{self.name}: row {i} has {len(row)} cells, "
                    f"expected {len(self.columns)}"
                )

    def write_csv(self, directory: str | Path) -> Path:
        """Write ``<name>.csv``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        return path


def scaled_count(n: int, scale: float) -> int:
    """Scale a paper waveform count, keeping at least one chunk."""
    if not (0.0 < scale <= 1.0):
        raise ConfigError(f"scale must be in (0, 1], got {scale}")
    return max(16, int(round(n * scale)))


def fdw_config(n_waveforms: int, n_stations: int, name: str) -> FdwConfig:
    """Paper-default workload whose workflow seed derives from ``name``."""
    seed = derive_seed(0, name)
    return FdwConfig(n_waveforms=n_waveforms, n_stations=n_stations, name=name, seed=seed)


def single_dagman_runs(
    n_waveforms: int, n_stations: int, name: str, repeats: int = 3
) -> RepeatedRuns:
    """The single-DAGMan runs of one Fig 2 point or headline claim."""
    return run_repeated(fdw_config(n_waveforms, n_stations, name), repeats, seed=(1, name))


def fig2_point(
    label: str, quantity: int, scale: float = 1.0, repeats: int = 3
) -> RepeatedRuns:
    """One Fig 2 point: the paper's ``quantity``, scaled, on the ``label`` input."""
    name = f"fig2_{label}_{quantity}"
    return single_dagman_runs(scaled_count(quantity, scale), INPUTS[label], name, repeats)


def _rounded(runs: RepeatedRuns) -> tuple[float, ...]:
    return tuple(round(v, 3) for v in runs.row())


def fig2_series(
    scale: float = 1.0,
    quantities: tuple[int, ...] = FIG2_QUANTITIES,
    repeats: int = 3,
) -> FigureSeries:
    """Fig 2: runtime/throughput vs quantity for both station lists."""
    rows = tuple(
        (label, quantity, *_rounded(fig2_point(label, quantity, scale, repeats)))
        for label in INPUTS
        for quantity in quantities
    )
    return FigureSeries(
        name="fig2_quantities",
        columns=("input", "waveforms", "runtime_h", "runtime_sd_h", "jpm", "jpm_sd"),
        rows=rows,
    )


def fig3_point(k: int, n_waveforms: int, repeats: int = 3) -> RepeatedRuns:
    """One Fig 3 level: ``n_waveforms`` split across ``k`` concurrent DAGMans."""
    config = fdw_config(n_waveforms, FULL_INPUT, f"fig3_k{k}")
    return run_repeated(config, repeats, n_dagmans=k, seed=(3, k))


def fig3_series(
    scale: float = 1.0,
    total_waveforms: int = TOTAL_WAVEFORMS,
    levels: tuple[int, ...] = CONCURRENCY,
    repeats: int = 3,
) -> FigureSeries:
    """Fig 3: per-DAGMan runtime/throughput vs concurrency."""
    n_waveforms = scaled_count(total_waveforms, scale)
    rows = tuple((k, *_rounded(fig3_point(k, n_waveforms, repeats))) for k in levels)
    return FigureSeries(
        name="fig3_concurrent_dagmans",
        columns=("dagmans", "runtime_h", "runtime_sd_h", "jpm", "jpm_sd"),
        rows=rows,
    )


def fig4_run(k: int, n_waveforms: int) -> FdwBatchResult:
    """Fig 4's one pool run: ``n_waveforms`` split across ``k`` concurrent DAGMans."""
    config = fdw_config(n_waveforms, FULL_INPUT, f"fig4_k{k}")
    return run_fdw_batch(partition_config(config, k), seed=derive_seed(4, k))


def fig4_series(
    scale: float = 1.0,
    total_waveforms: int = TOTAL_WAVEFORMS,
    concurrency: int = 1,
    max_points: int = 2000,
) -> list[FigureSeries]:
    """Fig 4: sorted exec/wait curves + per-second series for one level.

    Long series are decimated to at most ``max_points`` rows.
    """
    result = fig4_run(concurrency, scaled_count(total_waveforms, scale))
    metrics = result.metrics

    def decimate(arr: np.ndarray) -> np.ndarray:
        if arr.size <= max_points:
            return arr
        idx = np.linspace(0, arr.size - 1, max_points).astype(int)
        return arr[idx]

    out = []
    for label, series in (
        ("exec_sorted_s", metrics.exec_times_s(phase="C")),
        ("wait_sorted_s", metrics.wait_times_s(phase="C")),
        ("instant_throughput_jpm", metrics.instant_throughput_jpm(result.dagman_names[0])),
        ("running_jobs", metrics.running_jobs()),
    ):
        values = decimate(np.asarray(series, dtype=float))
        out.append(
            FigureSeries(
                name=f"fig4_k{concurrency}_{label}",
                columns=("index", label),
                rows=tuple((i, round(float(v), 4)) for i, v in enumerate(values)),
            )
        )
    return out


def fig5_trace(batch: int, n_waveforms: int) -> BatchTrace:
    """The traced single-DAGMan batch of ``n_waveforms`` that Figs 5–6 replay."""
    config = fdw_config(n_waveforms, FULL_INPUT, f"fig5_batch{batch}")
    result = run_fdw_batch(config, seed=derive_seed(5, batch))
    return metrics_to_batch_trace(result.metrics, config.name)


def policy1_threshold(control: BurstingResult, scale: float) -> float:
    """Policy 1's threshold: the paper's 34 JPM at paper scale. A scaled-down
    trace never reaches it, so below that it is 60 % of the control's peak."""
    if scale == 1.0:
        return THRESHOLD_JPM
    return max(0.5, 0.6 * float(control.throughput_series_jpm.max()))


def policy_sweep(
    trace: BatchTrace,
    probes: tuple[int, ...] = PROBES_S,
    queue_caps_min: tuple[int, ...] = QUEUE_CAPS_MIN,
    scale: float = 1.0,
    max_burst_fraction: float | None = None,
) -> tuple[BurstingResult, dict[tuple[int, int], BurstingResult]]:
    """Replay ``trace`` with no policy, then under each Policy 1+2 pair.

    Returns the control replay and ``{(queue_cap_min, probe_s): result}``
    in sweep order. Fig 6 is this sweep under a 30 % burst cap.
    """
    control = BurstingSimulator(trace, policies=[]).run()
    threshold = policy1_threshold(control, scale)
    runs = {}
    for cap in queue_caps_min:
        for probe in probes:
            policy1 = LowThroughputPolicy(probe_s=float(probe), threshold_jpm=threshold)
            policies = [policy1, QueueTimePolicy(max_queue_s=minutes(cap))]
            sim = BurstingSimulator(trace, policies, max_burst_fraction=max_burst_fraction)
            runs[(cap, probe)] = sim.run()
    return control, runs


def fig5_series(
    scale: float = 1.0,
    total_waveforms: int = TOTAL_WAVEFORMS,
    probes: tuple[int, ...] = PROBES_S,
    queue_caps_min: tuple[int, ...] = QUEUE_CAPS_MIN,
) -> FigureSeries:
    """Fig 5: bursting AIT and VDC usage across the policy grid."""
    rows = []
    for batch_id in (1, 2):
        trace = fig5_trace(batch_id, scaled_count(total_waveforms, scale))
        control, runs = policy_sweep(trace, probes, queue_caps_min, scale)
        rows.append(
            (batch_id, "control", 0, round(control.average_instant_throughput_jpm, 3),
             0.0, round(control.runtime_s / 3600.0, 3))
        )
        for (cap, probe), r in runs.items():
            rows.append(
                (batch_id, f"q{cap}", probe,
                 round(r.average_instant_throughput_jpm, 3),
                 round(r.vdc_usage_percent, 3),
                 round(r.runtime_s / 3600.0, 3))
            )
    return FigureSeries(
        name="fig5_bursting",
        columns=("batch", "config", "probe_s", "ait_jpm", "vdc_percent", "runtime_h"),
        rows=tuple(rows),
    )


def export_all_figures(directory: str | Path, scale: float = 1.0) -> list[Path]:
    """Regenerate and write every figure's data CSVs; returns the paths."""
    paths = [fig2_series(scale).write_csv(directory)]
    paths.append(fig3_series(scale).write_csv(directory))
    for k in (1, 4):
        for series in fig4_series(scale, concurrency=k):
            paths.append(series.write_csv(directory))
    paths.append(fig5_series(scale).write_csv(directory))
    return paths

"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's figures (or headline
numbers) at the paper's own workload scale and prints the same
rows/series the paper reports, alongside the published values. The
experiments themselves are :mod:`repro.core.figures`, which also writes
the ``repro figures`` CSVs; the benchmarks keep the paper anchors, the
tables and the shape assertions. The ``FDW_BENCH_SCALE`` environment
variable (a float in (0, 1]) scales the waveform counts down for quick
smoke runs; 1.0 (default) is paper scale.

Seeds: :mod:`repro.core.figures` derives every pool seed from the
experiment's identity: ``derive_seed(1, name, repeat)`` for Fig 2 and
the headline claims, ``(3, k, repeat)`` for Fig 3, ``(4, k)`` and
``(5, batch)`` for the single runs behind Figs 4–6. So benchmarks are
independent and reproducible, and a benchmark and ``repro figures`` at
the same scale report the same numbers.
"""

from __future__ import annotations

import os

from repro.core.figures import FULL_INPUT, fdw_config, scaled_count
from repro.units import to_hours

__all__ = ["FULL_INPUT", "bench_scale", "fdw_config", "fmt_hours", "header", "scaled"]


def bench_scale() -> float:
    """Workload scale factor from FDW_BENCH_SCALE (default: paper scale)."""
    raw = os.environ.get("FDW_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(f"FDW_BENCH_SCALE must be a float, got {raw!r}") from exc
    if not (0.0 < scale <= 1.0):
        raise ValueError(f"FDW_BENCH_SCALE must be in (0, 1], got {scale}")
    return scale


def scaled(n_waveforms: int) -> int:
    """Scale a paper waveform count to FDW_BENCH_SCALE."""
    return scaled_count(n_waveforms, bench_scale())


def fmt_hours(seconds: float) -> str:
    """Render seconds as fixed-point hours."""
    return f"{to_hours(seconds):6.2f}"


def header(title: str, columns: str) -> None:
    """Print a benchmark table header."""
    print()
    print(f"### {title}")
    print(columns)
    print("-" * len(columns))

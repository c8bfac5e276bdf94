#!/usr/bin/env python
"""Quickstart: build an FDW, run it locally and on the simulated OSG.

This walks the whole public API in one sitting:

1. write + read the FDW configuration file,
2. execute the workflow on this machine with the *real* seismic kernels
   (MudPy's native sequential behaviour),
3. run the identical workload as a DAGMan on the simulated OSPool,
4. read the HTCondor-style user log with the monitoring system and
   print the report the FDW's statistics scripts produce.

Runs in a few seconds; no external services required.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import FdwConfig, LocalRunner, run_fdw_batch
from repro.core.monitor import DagmanStats
from repro.units import format_duration, to_hours

workdir = Path(tempfile.mkdtemp(prefix="fdw_quickstart_"))

# 1. The configuration file users edit ("editing a configuration file
#    for simulation parameters", paper section 3).
config = FdwConfig(
    n_waveforms=16,  # tiny demo catalog
    n_stations=8,  # subset of the Chilean network
    mesh=(10, 6),
    chunk_a=4,
    chunk_c=2,
    name="quickstart",
    seed=7,
)
config_path = config.write(workdir / "fdw.cfg")
config = FdwConfig.read(config_path)
print(f"configuration written to {config_path}")

# 2. Single-machine execution with the real kernels.
local = LocalRunner().run(config, archive_dir=workdir / "products")
print(
    f"local run: {local.n_waveform_sets} waveform sets in "
    f"{local.total_seconds:.2f}s "
    f"(phases: {', '.join(f'{k}={v:.2f}s' for k, v in local.phase_seconds.items())})"
)
biggest = max(local.pgd_by_rupture.items(), key=lambda kv: kv[1])
print(f"largest peak ground displacement: {biggest[1]:.3f} m in {biggest[0]}")

# 3. The same workload as a DAGMan on the simulated OSPool.
result = run_fdw_batch(config, seed=7)
summary = result.metrics.dagmans[config.name]
print(
    f"OSG run: {summary.n_jobs} jobs, simulated runtime "
    f"{format_duration(summary.runtime_s)} "
    f"({to_hours(summary.runtime_s):.2f} h), "
    f"total throughput {summary.throughput_jpm:.2f} jobs/min"
)

# 4. Monitoring from the HTCondor-style log alone (its events; the text
#    is result.user_logs[config.name].render()).
stats = DagmanStats.from_user_log(result.user_logs[config.name])
print()
print(stats.report(config.name))

"""Million-job DES scaling: the pool engine vs. the frozen reference loop,
and the negotiator vs. the frozen closed-form matcher.

The ``bench-des-scale`` group tracks the struct-of-arrays event core at
the scales the paper's cyberinfrastructure argument actually needs:

* a 100k-task instance (generated from the bundled FDW pattern with the
  WfChef-style scaler) replayed in trace mode under the pool engine and
  under the one-object-per-job reference engine (the test oracle in
  ``tests.oracles.pool_reference``) on a pool wide enough to run a whole
  DAG level concurrently — the design point where the reference loop's
  per-completion running-list rebuild turns quadratic, and
* a million-task instance replayed in model mode under the pool engine
  — the "does a week of OSPool fit in a coffee break" headline.

Both arms record jobs/sec and peak RSS in the pytest-benchmark
``extra_info`` (archived as the BENCH_kernels artifact). The >=20x
speedup acceptance gate is asserted only at full scale
(``FDW_BENCH_SCALE=1``): at smoke scale the concurrent level width —
and with it the reference engine's quadratic term — shrinks linearly,
so the ratio there is a trend signal, not the acceptance number.

Instance generation and WfFormat import happen in module fixtures; the
timed region is submit + run only.

The ``negotiator`` group times one negotiation cycle's matcher at the two
shapes the program runs it at: the portal's (24 tenant queues of 0-2
idle jobs, 1-4 free workers, the default match limit) and the pool
replay's (one DAGMan of 8,000 idle jobs or eight of 1,000, 8,000 free
slots and a limit of 8,000 per cycle). ``negotiate`` is timed against
the closed-form matcher it replaced (``tests.oracles.negotiator_vectorized``),
the two produce the same matches, and the scalar arm publishes
``speedup_vs_vectorized`` per shape in ``extra_info``.
"""

from __future__ import annotations

import resource
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from _common import bench_scale
from repro.condor.dagman import DagmanOptions
from repro.condor.jobs import Job, JobSpec, JobState
from repro.osg.capacity import FixedCapacity
from repro.osg.negotiator import NegotiatorConfig, negotiate
from repro.osg.pool import OSPoolConfig
from repro.osg.schedd import ScheddQueue
from repro.wf import generate_instance, import_instance, load_instance, replay_instance
from tests.oracles.negotiator_vectorized import negotiate_vectorized
from tests.oracles.pool_reference import on_reference_pool

N_100K = max(1_000, round(100_000 * bench_scale()))
N_1M = max(2_000, round(1_000_000 * bench_scale()))

#: Slots in the million-task model-mode arm: a large opportunistic pool,
#: deliberately far below the task count so negotiation cycles, claim
#: reuse, and the DAGMan throttles all stay on the hot path.
MODEL_POOL_SLOTS = 20_000

#: Cross-arm results: elapsed seconds and makespans, keyed by arm name.
RESULTS: dict[str, dict[str, float]] = {}


def peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MB (Linux: ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wide_pool_config(n_slots: int) -> OSPoolConfig:
    """A pool that can start a whole submit cycle's worth of jobs."""
    return OSPoolConfig(
        negotiator=NegotiatorConfig(cycle_s=60.0, match_limit_per_cycle=n_slots),
    )


def wide_options(n_tasks: int) -> DagmanOptions:
    return DagmanOptions(max_idle=0, submit_batch=max(1, n_tasks))


@pytest.fixture(scope="module")
def fdw64():
    path = Path(__file__).resolve().parents[1] / "examples" / "fdw64_wfformat.json"
    return load_instance(path)


@pytest.fixture(scope="module")
def imported_100k(fdw64):
    return import_instance(generate_instance(fdw64, N_100K, seed=1))


@pytest.fixture(scope="module")
def imported_1m(fdw64):
    return import_instance(generate_instance(fdw64, N_1M, seed=2))


def timed_replay(arm, workflow, n_tasks, engine, runtime, n_slots):
    kwargs = dict(
        seed=0,
        runtime=runtime,
        config=wide_pool_config(n_slots),
        capacity=FixedCapacity(n_slots),
        options=wide_options(n_tasks),
    )
    start = time.perf_counter()
    if engine == "reference":
        result = on_reference_pool(replay_instance, workflow, **kwargs)
    else:
        result = replay_instance(workflow, **kwargs)
    elapsed = time.perf_counter() - start
    RESULTS[arm] = {
        "elapsed_s": elapsed,
        "jobs_per_s": len(result.metrics.records) / elapsed,
        "makespan_s": result.makespan_s,
    }
    return result


def run_arm(benchmark, arm, workflow, n_tasks, engine, runtime, n_slots):
    result = benchmark.pedantic(
        timed_replay,
        args=(arm, workflow, n_tasks, engine, runtime, n_slots),
        rounds=1,
        iterations=1,
    )
    assert len(result.metrics.records) >= n_tasks  # every task completed
    benchmark.extra_info["n_tasks"] = n_tasks
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["runtime_mode"] = runtime
    benchmark.extra_info["jobs_per_s"] = round(RESULTS[arm]["jobs_per_s"], 1)
    benchmark.extra_info["makespan_s"] = RESULTS[arm]["makespan_s"]
    benchmark.extra_info["peak_rss_mb"] = round(peak_rss_mb(), 1)
    return result


@pytest.mark.benchmark(group="bench-des-scale")
def test_100k_trace_reference_engine(benchmark, imported_100k):
    """Baseline: the frozen one-object-per-job loop at 100k tasks."""
    run_arm(
        benchmark, "100k-reference", imported_100k, N_100K,
        engine="reference", runtime="trace", n_slots=N_100K,
    )


@pytest.mark.benchmark(group="bench-des-scale")
def test_100k_trace_vector_engine(benchmark, imported_100k):
    """The pool's struct-of-arrays engine on the identical workload."""
    run_arm(
        benchmark, "100k-vector", imported_100k, N_100K,
        engine="vector", runtime="trace", n_slots=N_100K,
    )
    # Bit-identity at scale: same makespan as the reference arm.
    if "100k-reference" in RESULTS:
        assert (
            RESULTS["100k-vector"]["makespan_s"]
            == RESULTS["100k-reference"]["makespan_s"]
        )


@pytest.mark.benchmark(group="bench-des-scale")
def test_million_model_vector_engine(benchmark, imported_1m):
    """A million model-mode jobs through the pool engine."""
    run_arm(
        benchmark, "1m-vector", imported_1m, N_1M,
        engine="vector", runtime="model", n_slots=MODEL_POOL_SLOTS,
    )


def test_des_scale_speedup_report(capsys):
    """Speedup table; asserts the >=20x acceptance gate at full scale."""
    if "100k-reference" not in RESULTS or "100k-vector" not in RESULTS:
        pytest.skip("run together with the bench-des-scale benchmarks")
    ref, vec = RESULTS["100k-reference"], RESULTS["100k-vector"]
    speedup = ref["elapsed_s"] / vec["elapsed_s"]
    with capsys.disabled():
        print()
        print("### DES scaling: frozen reference vs. pool engine")
        print(f"{'arm':<18}{'tasks':>10}{'elapsed':>10}{'jobs/s':>12}")
        print("-" * 50)
        for arm, n in (
            ("100k-reference", N_100K),
            ("100k-vector", N_100K),
            ("1m-vector", N_1M),
        ):
            if arm in RESULTS:
                r = RESULTS[arm]
                print(
                    f"{arm:<18}{n:>10}{r['elapsed_s']:>9.2f}s"
                    f"{r['jobs_per_s']:>12,.0f}"
                )
        print(f"100k trace-mode speedup: {speedup:.1f}x (peak RSS {peak_rss_mb():.0f} MB)")
    assert vec["makespan_s"] == ref["makespan_s"]
    if bench_scale() >= 1.0:
        assert speedup >= 20.0


# -- negotiator: the scalar round-robin vs. the frozen closed form ----------

#: Negotiation cycles per timed round at the portal's shape.
PORTAL_CYCLES = 1_000


def _idle_queue(name: str, n_jobs: int) -> ScheddQueue:
    queue = ScheddQueue(name)
    for i in range(n_jobs):
        job = Job(JobSpec(name=f"{name}.{i}"))
        job.transition(JobState.IDLE, 0.0)
        queue.enqueue(f"{name}.{i}", job)
    return queue


def portal_cycles() -> list[tuple[list[ScheddQueue], int]]:
    """24 tenant queues of 0-2 idle jobs and 1-4 free workers per cycle."""
    rng = np.random.default_rng(0)
    return [
        ([_idle_queue(f"t{t}", int(rng.integers(0, 3))) for t in range(24)],
         int(rng.integers(1, 5)))
        for _ in range(PORTAL_CYCLES)
    ]


def pool_cycles(n_dagmans: int) -> list[tuple[list[ScheddQueue], int]]:
    """One cycle that matches 8,000 idle jobs split over ``n_dagmans``."""
    return [([_idle_queue(f"d{d}", 8_000 // n_dagmans) for d in range(n_dagmans)], 8_000)]


#: Shape -> (cycle builder, negotiator config).
NEGOTIATOR_SHAPES = {
    "portal-24-tenants": (portal_cycles, NegotiatorConfig()),
    "pool-1x8000": (partial(pool_cycles, 1), NegotiatorConfig(match_limit_per_cycle=8_000)),
    "pool-8x1000": (partial(pool_cycles, 8), NegotiatorConfig(match_limit_per_cycle=8_000)),
}


def negotiate_cycles(matcher, config, cycles) -> list[str]:
    """Every cycle's matched node names, in match order."""
    return [
        node for queues, free in cycles for _, node, _ in matcher(queues, free, config)
    ]


def best_negotiation_s(matcher, shape: str, rounds: int = 5) -> float:
    """Fastest of ``rounds`` timings of one shape's cycles (fresh queues)."""
    build, config = NEGOTIATOR_SHAPES[shape]
    best = float("inf")
    for _ in range(rounds):
        cycles = build()
        start = time.perf_counter()
        negotiate_cycles(matcher, config, cycles)
        best = min(best, time.perf_counter() - start)
    return best


def run_negotiator_arm(benchmark, matcher, shape: str) -> list[str]:
    build, config = NEGOTIATOR_SHAPES[shape]
    matched = benchmark.pedantic(
        partial(negotiate_cycles, matcher, config),
        setup=lambda: ((build(),), {}),
        rounds=10,
    )
    benchmark.extra_info["shape"] = shape
    benchmark.extra_info["matches"] = len(matched)
    return matched


@pytest.mark.benchmark(group="negotiator")
@pytest.mark.parametrize("shape", list(NEGOTIATOR_SHAPES))
def test_negotiator_vectorized_oracle(benchmark, shape):
    """Baseline: the frozen closed form (binary search, one slice per
    queue, lexsort of the emission order)."""
    run_negotiator_arm(benchmark, negotiate_vectorized, shape)


@pytest.mark.benchmark(group="negotiator")
@pytest.mark.parametrize("shape", list(NEGOTIATOR_SHAPES))
def test_negotiator_scalar(benchmark, shape):
    """``negotiate``, the one matcher of the pool and the portal: the same
    matches, and its speedup over the closed form in ``extra_info``."""
    matched = run_negotiator_arm(benchmark, negotiate, shape)
    build, config = NEGOTIATOR_SHAPES[shape]
    assert matched == negotiate_cycles(negotiate_vectorized, config, build())
    benchmark.extra_info["speedup_vs_vectorized"] = best_negotiation_s(
        negotiate_vectorized, shape
    ) / best_negotiation_s(negotiate, shape)

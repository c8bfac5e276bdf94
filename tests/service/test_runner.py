"""Tests for repro.service.runner — the backend protocol."""

import pytest

from repro.core.config import FdwConfig
from repro.core.phases import plan_phases
from repro.errors import ServiceError
from repro.osg.capacity import FixedCapacity
from repro.service.runner import (
    PoolRunner,
    Runner,
    RunnerOutcome,
    SimulatedRunner,
)
from tests.oracles.pool_reference import on_reference_pool


@pytest.fixture()
def config():
    return FdwConfig(n_waveforms=8, n_stations=2, mesh=(8, 5), name="rn")


def test_backends_satisfy_protocol():
    for backend in (PoolRunner(), SimulatedRunner()):
        assert isinstance(backend, Runner)
        assert backend.name


def test_outcome_is_frozen():
    outcome = RunnerOutcome(backend="x", elapsed_s=1.0, n_jobs=1, report="r")
    with pytest.raises(AttributeError):
        outcome.elapsed_s = 2.0


def test_simulated_runner_deterministic(config):
    runner = SimulatedRunner()
    first = runner.execute(config, seed=7)
    second = runner.execute(config, seed=7)
    assert first == second
    assert first.backend == "sim"
    assert first.elapsed_s > 0
    assert first.n_jobs == plan_phases(config).n_jobs


def test_simulated_runner_seed_sensitive(config):
    runner = SimulatedRunner()
    assert runner.execute(config, 1).elapsed_s != runner.execute(config, 2).elapsed_s


def test_simulated_runner_hit_equals_fresh_outcome(config):
    runner = SimulatedRunner()
    first = runner.execute(config, 5)
    # An equal config built anew shares the content digest, so it hits.
    twin = FdwConfig(n_waveforms=8, n_stations=2, mesh=(8, 5), name="rn")
    assert twin is not config
    for hit in (runner.execute(config, 5), runner.execute(twin, 5)):
        assert hit == first == SimulatedRunner().execute(config, 5)
        assert hit.elapsed_s.hex() == first.elapsed_s.hex()
    assert len(runner._outcomes) == 1


def test_simulated_runner_map_stays_at_its_bound(config):
    runner = SimulatedRunner()
    runner.max_cached = 4
    for seed in range(10):
        assert runner.execute(config, seed) == SimulatedRunner().execute(config, seed)
        assert len(runner._outcomes) == min(seed + 1, 4)
    # The oldest pairs went first; a dropped pair recomputes the same.
    digest = config.content_digest()
    assert list(runner._outcomes) == [(digest, seed) for seed in range(6, 10)]
    assert runner.execute(config, 0) == SimulatedRunner().execute(config, 0)
    assert list(runner._outcomes) == [(digest, seed) for seed in (7, 8, 9, 0)]


def test_simulated_runner_validation():
    with pytest.raises(ServiceError):
        SimulatedRunner(base_s=0.0)
    with pytest.raises(ServiceError):
        SimulatedRunner(jitter=1.0)


def test_pool_runner_matches_batch_metrics(config):
    runner = PoolRunner(capacity=FixedCapacity(8))
    outcome = runner.execute(config, seed=3)
    assert outcome.backend == "pool"
    summary = outcome.details.metrics.dagmans[config.name]
    assert outcome.elapsed_s == summary.runtime_s
    assert outcome.n_jobs == summary.n_jobs
    assert config.name in outcome.report


def test_pool_runner_engines_agree(config):
    vector = PoolRunner(capacity=FixedCapacity(8))
    reference = PoolRunner(capacity=FixedCapacity(8))
    assert (
        vector.execute(config, seed=5).elapsed_s
        == on_reference_pool(reference.execute, config, seed=5).elapsed_s
    )

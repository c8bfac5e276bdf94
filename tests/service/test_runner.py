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

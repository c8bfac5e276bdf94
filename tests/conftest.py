"""Shared fixtures.

Expensive objects (geometries, GF banks, pool runs) are session-scoped:
they are deterministic for a given seed, so sharing them across tests is
safe and keeps the suite fast on one core.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FdwConfig
from repro.core.submit_osg import FdwBatchResult, run_fdw_batch
from repro.osg.capacity import FixedCapacity
from repro.seismo.distance import DistanceMatrices
from repro.seismo.geometry import FaultGeometry, build_chile_slab
from repro.seismo.greens import GreensFunctionBank, compute_gf_bank
from repro.seismo.ruptures import Rupture, RuptureGenerator
from repro.seismo.stations import StationNetwork, chilean_network


@pytest.fixture(scope="session")
def small_geometry() -> FaultGeometry:
    """A compact 10x6 fault mesh for unit tests."""
    return build_chile_slab(n_strike=10, n_dip=6)


@pytest.fixture(scope="session")
def small_network() -> StationNetwork:
    """An 8-station synthetic Chilean network."""
    return chilean_network(8)


@pytest.fixture(scope="session")
def small_distances(small_geometry: FaultGeometry) -> DistanceMatrices:
    """Distance matrices for the small mesh."""
    return DistanceMatrices.from_geometry(small_geometry)


@pytest.fixture(scope="session")
def small_gf_bank(
    small_geometry: FaultGeometry, small_network: StationNetwork
) -> GreensFunctionBank:
    """GF bank for the small mesh/network pair."""
    return compute_gf_bank(small_geometry, small_network)


@pytest.fixture
def share_bank():
    """Publish a bank into shared memory as a pooled Phase B does: the
    test owns the segments (:func:`publish_shared_bank`) and fills them
    through :func:`open_shared_bank`. Returns ``share(bank, key) ->
    (handle, segments)``; segments still linked at teardown are
    unlinked."""
    from repro.core.sharedbank import open_shared_bank, publish_shared_bank

    made = []

    def share(bank: GreensFunctionBank, key: str):
        handle, segments = publish_shared_bank(
            key, bank.statics.shape[:2], bank.dtype, bank.station_names, bank.fault_name
        )
        made.extend(segments)
        statics, travel = open_shared_bank(handle)
        statics[...] = bank.statics
        travel[...] = bank.travel_time_s
        return handle, segments

    yield share
    for shm in made:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


@pytest.fixture(scope="session")
def rupture_generator(
    small_geometry: FaultGeometry, small_distances: DistanceMatrices
) -> RuptureGenerator:
    """Rupture generator on the small mesh."""
    return RuptureGenerator(small_geometry, distances=small_distances)


@pytest.fixture(scope="session")
def sample_rupture(rupture_generator: RuptureGenerator) -> Rupture:
    """One deterministic rupture."""
    return rupture_generator.generate(
        np.random.default_rng(7), rupture_id="test.000000", target_mw=8.0
    )


@pytest.fixture(scope="session")
def tiny_fdw_config() -> FdwConfig:
    """A 64-waveform FDW configuration (577 jobs would be overkill)."""
    return FdwConfig(n_waveforms=64, n_stations=12, mesh=(8, 5), name="tinyfdw")


@pytest.fixture(scope="session")
def tiny_batch_result(tiny_fdw_config: FdwConfig) -> FdwBatchResult:
    """One completed pool run of the tiny FDW on fixed capacity."""
    return run_fdw_batch(
        tiny_fdw_config, capacity=FixedCapacity(slots=24), seed=42
    )

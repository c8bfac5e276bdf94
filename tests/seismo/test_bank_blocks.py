"""The Phase-B bank builders fill the bank a station block at a time.

Both builders are held bit for bit to their whole-network oracles
(``tests/oracles/point_source_bank.py`` and ``tests/oracles/okada_loop.py``)
for float64 and float32 banks and for networks of one station, one less
and one more than a block, and the full 121-station input; and a build's
peak traced allocation is held to its bank plus 2 MiB.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.seismo.greens as greens
import repro.seismo.okada as okada
from repro.seismo.geometry import build_chile_slab
from repro.seismo.greens import GreensFunctionBank
from repro.seismo.stations import chilean_network
from tests.oracles.okada_loop import reference_okada_gf_bank
from tests.oracles.point_source_bank import reference_gf_bank

#: (builder module, builder, whole-network oracle).
BUILDERS = {
    "point": (greens, greens.compute_gf_bank, reference_gf_bank),
    "okada": (okada, okada.compute_okada_gf_bank, reference_okada_gf_bank),
}


@pytest.fixture(scope="module")
def mesh():
    """The paper-scale 30x15 Chilean slab (450 subfaults)."""
    return build_chile_slab(n_strike=30, n_dip=15)


def _station_counts(module, n_subfaults: int) -> list[int]:
    block = max(1, module._BLOCK_PAIRS // n_subfaults)
    return sorted({1, max(1, block - 1), block + 1, 121})


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_blocked_builder_matches_oracle(mesh, kind):
    module, build, oracle = BUILDERS[kind]
    counts = _station_counts(module, mesh.n_subfaults)
    assert len(counts) == 4  # each count covers a distinct block layout
    for n_stations in counts:
        network = chilean_network(n_stations)
        reference = oracle(mesh, network)
        for dtype in ("float64", "float32"):
            bank = build(mesh, network, dtype=dtype)
            expected = reference.astype(dtype)
            assert _same_bits(bank.statics, expected.statics), (n_stations, dtype)
            assert _same_bits(bank.travel_time_s, expected.travel_time_s), (n_stations, dtype)
            assert bank.station_names == expected.station_names
            assert bank.fault_name == expected.fault_name


def test_point_builder_matches_oracle_off_default_parameters(small_geometry, small_network):
    bank = greens.compute_gf_bank(
        small_geometry, small_network, rake_deg=30.0, shear_velocity_kms=3.2,
        min_distance_km=25.0,
    )
    reference = reference_gf_bank(
        small_geometry, small_network, rake_deg=30.0, shear_velocity_kms=3.2,
        min_distance_km=25.0,
    )
    assert _same_bits(bank.statics, reference.statics)
    assert _same_bits(bank.travel_time_s, reference.travel_time_s)


def _peak_traced_bytes(build, *args, **kwargs) -> tuple[int, GreensFunctionBank]:
    tracemalloc.start()
    try:
        bank = build(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, bank


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_build_peak_is_bank_plus_two_mib(mesh, kind, dtype):
    """At 121 stations x 450 subfaults a whole-network build peaked
    about 10 MB (point) and 37 MB (Okada) above its bank."""
    _, build, _ = BUILDERS[kind]
    network = chilean_network(121)
    build(mesh, network, dtype=dtype)  # first-call allocations out of the way
    peak, bank = _peak_traced_bytes(build, mesh, network, dtype=dtype)
    assert peak <= bank.nbytes + 2 * 2**20, (peak - bank.nbytes) / 2**20


def test_bad_dtype_rejected_before_building(mesh):
    from repro.errors import GreensFunctionError

    network = chilean_network(3)
    for build in (greens.compute_gf_bank, okada.compute_okada_gf_bank):
        with pytest.raises(GreensFunctionError, match="float64 or float32, got float16"):
            build(mesh, network, dtype="float16")

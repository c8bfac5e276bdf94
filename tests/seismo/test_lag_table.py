"""The per-mesh lag table and the patch correlations built from it.

Every patch correlation — :func:`repro.seismo.spectra.patch_correlation`,
the uncached branch of ``RuptureGenerator._sample_slip`` and the cold
path of ``KLCache.get_or_compute`` — is held bit for bit to the frozen
dense evaluation (``tests/oracles/von_karman_dense.py``, one ``kv`` per
element) applied to the ``np.ix_`` submatrices of the patch.
"""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.seismo.ruptures as ruptures_mod
from repro.errors import RuptureError
from repro.seismo.distance import DistanceMatrices, LagTable
from repro.seismo.geometry import build_chile_slab
from repro.seismo.klcache import KLCache
from repro.seismo.ruptures import RuptureGenerator
from repro.seismo.spectra import (
    KarhunenLoeveBasis,
    patch_correlation,
    von_karman_correlation,
)
from tests.oracles.von_karman_dense import dense_von_karman_correlation


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _dense_patch(distances: DistanceMatrices, patch, cs, cd, hurst) -> np.ndarray:
    """The oracle: the dense evaluation of the patch's submatrices."""
    ix = np.ix_(patch, patch)
    return dense_von_karman_correlation(
        distances.along_strike[ix], distances.down_dip[ix], cs, cd, hurst
    )


def _mesh_distances(n_strike: int, n_dip: int, regular: bool, seed: int) -> DistanceMatrices:
    """Distance matrices of a synthetic n_strike x n_dip mesh.

    A regular mesh has one spacing per direction. An irregular one draws
    every spacing and shifts each subfault along strike by its own
    amount, so almost every subfault pair has its own separation pair.
    """
    rng = np.random.default_rng(seed)
    if regular:
        strike_rows = np.arange(n_strike) * rng.uniform(0.5, 50.0)
        dip_cols = np.arange(n_dip) * rng.uniform(0.5, 50.0)
        jitter = np.zeros((n_strike, n_dip))
    else:
        strike_rows = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 50.0, n_strike - 1))])
        dip_cols = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 50.0, n_dip - 1))])
        jitter = rng.uniform(-2.0, 2.0, (n_strike, n_dip))
    strike = (strike_rows[:, None] + jitter).ravel()
    dip = np.broadcast_to(dip_cols[None, :], (n_strike, n_dip)).ravel()
    return DistanceMatrices(
        along_strike=np.abs(strike[:, None] - strike[None, :]),
        down_dip=np.abs(dip[:, None] - dip[None, :]),
    )


@st.composite
def meshes_and_patches(draw, min_side: int = 1):
    """(distances, patch, n_strike, n_dip): a regular or irregular mesh
    and a patch on it, from one subfault to the whole mesh, either a
    contiguous window (the rupture shape) or any subset in any order."""
    n_strike = draw(st.integers(min_side, 8))
    n_dip = draw(st.integers(min_side, 6))
    distances = _mesh_distances(
        n_strike, n_dip, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))
    )
    n = n_strike * n_dip
    if draw(st.booleans()):
        ns = draw(st.integers(1, n_strike))
        nd = draw(st.integers(1, n_dip))
        s0 = draw(st.integers(0, n_strike - ns))
        d0 = draw(st.integers(0, n_dip - nd))
        patch = ((s0 + np.arange(ns))[:, None] * n_dip + (d0 + np.arange(nd))[None, :]).ravel()
    else:
        size = draw(st.integers(1, n))
        patch = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n)[:size]
    return distances, patch, n_strike, n_dip


correlation_lengths = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)
# Down to 1e-9: below about 1e-308, Gamma(H) (hence G(0)) overflows.
hurst_exponents = st.floats(1e-9, 1.0, exclude_max=True)


# -- the table ------------------------------------------------------------------


@given(meshes_and_patches())
@settings(max_examples=40, deadline=None)
def test_table_reproduces_both_matrices(case):
    distances = case[0]
    table = distances.lag_table
    assert table.ids.dtype == np.int32
    assert table.ids.shape == distances.along_strike.shape
    assert np.array_equal(table.strike[table.ids], distances.along_strike)
    assert np.array_equal(table.dip[table.ids], distances.down_dip)
    # Compacted: every id in 0..n_pairs-1 occurs, each pair once.
    assert np.array_equal(np.unique(table.ids), np.arange(table.n_pairs))
    pairs = np.stack([table.strike, table.dip], axis=1)
    assert np.unique(pairs, axis=0).shape[0] == table.n_pairs


def test_slab_mesh_has_few_pairs():
    """The 30x15 slab's 202,500 subfault pairs share a few thousand
    separation pairs (1,770 on the reference host), at most every
    distinct strike separation with every distinct dip one."""
    distances = DistanceMatrices.from_geometry(build_chile_slab(n_strike=30, n_dip=15))
    table = distances.lag_table
    n_strike = np.unique(distances.along_strike).size
    n_dip = np.unique(distances.down_dip).size
    assert n_dip == 15
    assert table.n_pairs <= n_strike * n_dip
    assert table.n_pairs < 4_000
    assert distances.lag_table is table  # built once per instance


def test_table_of_broadcast_inputs():
    d = np.abs(np.arange(5.0)[:, None] - np.arange(5.0)[None, :])
    table = LagTable.from_matrices(d, 0.0)
    assert table.ids.shape == (5, 5)
    assert np.array_equal(table.strike[table.ids], d)
    assert np.all(table.dip == 0.0)


# -- patch correlations against the dense oracle -----------------------------------


@given(meshes_and_patches(), correlation_lengths, correlation_lengths, hurst_exponents)
@settings(max_examples=150, deadline=None)
def test_patch_correlation_matches_dense_oracle(case, cs, cd, hurst):
    distances, patch, _, _ = case
    fast = patch_correlation(distances.lag_table, patch, cs, cd, hurst)
    assert _same_bits(fast, _dense_patch(distances, patch, cs, cd, hurst))


@given(meshes_and_patches(), correlation_lengths, correlation_lengths, hurst_exponents)
@settings(max_examples=60, deadline=None)
def test_matrix_correlation_matches_dense_oracle(case, cs, cd, hurst):
    """``von_karman_correlation`` of arbitrary submatrices builds their
    own table and evaluates through it."""
    distances, patch, _, _ = case
    ix = np.ix_(patch, patch)
    fast = von_karman_correlation(
        distances.along_strike[ix], distances.down_dip[ix], cs, cd, hurst
    )
    assert _same_bits(fast, _dense_patch(distances, patch, cs, cd, hurst))


def _dense_patch_basis(distances, patch, cs, cd, hurst=0.75, n_modes=None):
    return KarhunenLoeveBasis.from_correlation(
        _dense_patch(distances, patch, cs, cd, hurst), n_modes=n_modes
    )


@given(
    meshes_and_patches(min_side=2),
    correlation_lengths,
    correlation_lengths,
    hurst_exponents,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_uncached_slip_matches_dense_oracle(case, cs, cd, hurst, seed):
    """The uncached ``_sample_slip`` branch gives the slip the dense
    correlation gives, bit for bit."""
    distances, patch, n_strike, n_dip = case
    generator = RuptureGenerator(
        build_chile_slab(n_strike=n_strike, n_dip=n_dip),
        distances=distances,
        hurst=hurst,
        n_kl_modes=8,
    )
    length_km, width_km = cs / 0.38, cd / 0.27

    def slip():
        return generator._sample_slip(
            patch, length_km, width_km, 8.0, np.random.default_rng(seed)
        )

    fast = slip()
    with mock.patch.object(ruptures_mod, "patch_basis", _dense_patch_basis):
        dense = slip()
    assert _same_bits(fast, dense)


def test_cold_cache_basis_matches_dense_oracle(small_distances):
    patch = (np.arange(2, 7)[:, None] * 6 + np.arange(1, 5)[None, :]).ravel()
    basis = KLCache().get_or_compute(small_distances, patch, 40.0, 25.0, n_modes=6)
    dense = _dense_patch_basis(small_distances, patch, 40.0, 25.0, n_modes=6)
    assert _same_bits(basis.eigenvalues, dense.eigenvalues)
    assert _same_bits(basis.eigenvectors, dense.eigenvectors)


# -- argument errors ---------------------------------------------------------------


@pytest.mark.parametrize(
    "cs, cd, hurst",
    [
        (0.0, 20.0, 0.75),
        (30.0, -1.0, 0.75),
        (-5.0, -5.0, 0.75),
        (30.0, 20.0, 0.0),
        (30.0, 20.0, 1.0),
        (30.0, 20.0, 1.5),
        (30.0, 20.0, float("nan")),
    ],
)
def test_bad_parameters_raise_the_oracle_message(small_distances, cs, cd, hurst):
    patch = np.arange(6)
    with pytest.raises(RuptureError) as oracle:
        _dense_patch(small_distances, patch, cs, cd, hurst)
    message = re.escape(str(oracle.value))
    with pytest.raises(RuptureError, match=f"^{message}$"):
        patch_correlation(small_distances.lag_table, patch, cs, cd, hurst)
    ix = np.ix_(patch, patch)
    with pytest.raises(RuptureError, match=f"^{message}$"):
        von_karman_correlation(
            small_distances.along_strike[ix], small_distances.down_dip[ix], cs, cd, hurst
        )

"""Tests for repro.seismo.spectra."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuptureError
from repro.seismo.spectra import KarhunenLoeveBasis, von_karman_correlation
from tests.oracles.von_karman_dense import dense_von_karman_correlation


def _kl_basis(distances, corr_len_strike_km, corr_len_dip_km, n_modes=None):
    """The von Karman correlation of a mesh and its K-L decomposition."""
    c = von_karman_correlation(
        distances.along_strike, distances.down_dip, corr_len_strike_km, corr_len_dip_km
    )
    return KarhunenLoeveBasis.from_correlation(c, n_modes=n_modes)


def _grid_distances(n=6, spacing=10.0):
    x = np.arange(n) * spacing
    d = np.abs(x[:, None] - x[None, :])
    return d, np.zeros_like(d)


def test_unit_diagonal():
    ds, dd = _grid_distances()
    c = von_karman_correlation(ds, dd, 30.0, 20.0)
    np.testing.assert_allclose(np.diag(c), 1.0)


def test_correlation_decays_with_distance():
    ds, dd = _grid_distances()
    c = von_karman_correlation(ds, dd, 30.0, 20.0)
    row = c[0]
    assert np.all(np.diff(row) < 0)


def test_correlation_in_unit_interval():
    ds, dd = _grid_distances(10, 25.0)
    c = von_karman_correlation(ds, dd, 30.0, 20.0)
    assert np.all(c <= 1.0 + 1e-12)
    assert np.all(c > 0.0)


def test_longer_correlation_length_higher_correlation():
    ds, dd = _grid_distances()
    short = von_karman_correlation(ds, dd, 10.0, 10.0)
    long = von_karman_correlation(ds, dd, 100.0, 100.0)
    assert long[0, -1] > short[0, -1]


def test_symmetric():
    ds, dd = _grid_distances(8)
    c = von_karman_correlation(ds, dd, 25.0, 15.0)
    np.testing.assert_allclose(c, c.T)


def test_rejects_bad_parameters():
    ds, dd = _grid_distances()
    with pytest.raises(RuptureError):
        von_karman_correlation(ds, dd, -1.0, 20.0)
    with pytest.raises(RuptureError):
        von_karman_correlation(ds, dd, 30.0, 20.0, hurst=1.5)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=20, deadline=None)
def test_hurst_sweep_keeps_valid_correlation(hurst):
    ds, dd = _grid_distances(5)
    c = von_karman_correlation(ds, dd, 30.0, 20.0, hurst=hurst)
    assert np.all(np.isfinite(c))
    assert np.all(np.diag(c) == 1.0)
    assert np.all(c > 0)


def test_unique_lag_matches_dense_bitwise(small_distances):
    """The unique-lag memoization is an exact optimization: identical
    float lags give identical kv values, so the scattered-back matrix
    equals the dense evaluation bit-for-bit."""
    ds, dd = small_distances.along_strike, small_distances.down_dip
    for hurst in (0.4, 0.75, 0.9):
        dense = dense_von_karman_correlation(ds, dd, 45.0, 25.0, hurst)
        fast = von_karman_correlation(ds, dd, 45.0, 25.0, hurst)
        assert np.array_equal(fast, dense)


def test_unique_lag_matches_dense_on_patch_window(small_distances):
    """Same bit-identity on a rupture-patch submatrix (the _sample_slip
    call shape)."""
    patch = np.array([0, 1, 2, 6, 7, 8, 12, 13, 14])
    ds = small_distances.along_strike[np.ix_(patch, patch)]
    dd = small_distances.down_dip[np.ix_(patch, patch)]
    dense = dense_von_karman_correlation(ds, dd, 30.0, 20.0)
    fast = von_karman_correlation(ds, dd, 30.0, 20.0)
    assert np.array_equal(fast, dense)


def test_unique_lag_default_on_irregular_lags():
    """Irregular (no repeated lag) inputs still work — unique-lag is a
    pure memoization, not a mesh assumption."""
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 100.0, 7))
    ds = np.abs(x[:, None] - x[None, :])
    dd = np.zeros_like(ds)
    dense = dense_von_karman_correlation(ds, dd, 30.0, 20.0)
    fast = von_karman_correlation(ds, dd, 30.0, 20.0)
    assert np.array_equal(fast, dense)


def test_kl_eigenvalues_descending_nonnegative(small_distances):
    basis = _kl_basis(small_distances, 50.0, 30.0, n_modes=10)
    vals = basis.eigenvalues
    assert vals.shape == (10,)
    assert np.all(vals >= 0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_kl_full_decomposition_reconstructs(small_distances):
    c = von_karman_correlation(
        small_distances.along_strike, small_distances.down_dip, 50.0, 30.0
    )
    basis = KarhunenLoeveBasis.from_correlation(c)
    recon = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.T
    np.testing.assert_allclose(recon, c, atol=1e-8)


def test_kl_truncation_keeps_dominant_energy(small_distances):
    c = von_karman_correlation(
        small_distances.along_strike, small_distances.down_dip, 80.0, 50.0
    )
    full = KarhunenLoeveBasis.from_correlation(c)
    trunc = KarhunenLoeveBasis.from_correlation(c, n_modes=12)
    energy = trunc.eigenvalues.sum() / full.eigenvalues.sum()
    assert energy > 0.6  # long correlation -> energy concentrates
    # And far more than a proportional share of modes (12/60 = 20%).
    assert energy > 2.5 * 12 / full.n_modes


def test_kl_sample_statistics(small_distances):
    basis = _kl_basis(small_distances, 50.0, 30.0)
    rng = np.random.default_rng(1)
    fields = np.array([basis.sample(rng) for _ in range(300)])
    # Zero mean, variance near the diagonal of C (== 1).
    assert abs(fields.mean()) < 0.05
    assert np.mean(fields.var(axis=0)) == pytest.approx(1.0, rel=0.2)


def test_kl_sample_spatially_correlated(small_distances, small_geometry):
    basis = _kl_basis(small_distances, 120.0, 60.0)
    rng = np.random.default_rng(2)
    fields = np.array([basis.sample(rng) for _ in range(400)])
    # Adjacent subfaults (0 and 1) should correlate far more than
    # distant ones (0 and last).
    near = np.corrcoef(fields[:, 0], fields[:, 1])[0, 1]
    far = np.corrcoef(fields[:, 0], fields[:, -1])[0, 1]
    assert near > 0.7
    assert near > far


def _patch_basis(basis, indices):
    """The global basis read on a patch: its eigenvector rows at ``indices``."""
    return KarhunenLoeveBasis(
        eigenvalues=basis.eigenvalues, eigenvectors=basis.eigenvectors[indices, :]
    )


def test_kl_restricted_basis(small_distances):
    basis = _kl_basis(small_distances, 50.0, 30.0, n_modes=8)
    sub = _patch_basis(basis, np.array([0, 3, 7]))
    assert sub.n_points == 3
    assert sub.n_modes == 8
    rng = np.random.default_rng(3)
    assert sub.sample(rng).shape == (3,)


def test_kl_restricted_sample_reads_global_field(small_distances):
    """Sampling the basis read on a patch equals drawing the global
    field with the same stream and reading it on the patch."""
    basis = _kl_basis(small_distances, 50.0, 30.0, n_modes=8)
    idx = np.array([0, 3, 7])
    global_field = basis.sample(np.random.default_rng(11))
    patch_field = _patch_basis(basis, idx).sample(np.random.default_rng(11))
    np.testing.assert_allclose(patch_field, global_field[idx])


def test_kl_sample_sigma_zero_is_zero(small_distances):
    basis = _kl_basis(small_distances, 50.0, 30.0, n_modes=4)
    field = basis.sample(np.random.default_rng(0), sigma=0.0)
    np.testing.assert_allclose(field, 0.0)


def test_kl_bad_modes_rejected(small_distances):
    c = von_karman_correlation(
        small_distances.along_strike, small_distances.down_dip, 50.0, 30.0
    )
    with pytest.raises(RuptureError):
        KarhunenLoeveBasis.from_correlation(c, n_modes=0)
    with pytest.raises(RuptureError):
        KarhunenLoeveBasis.from_correlation(c, n_modes=c.shape[0] + 1)


def test_eigensolve_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    """The solve sees one thread; the caller's count comes back after."""
    from repro.seismo import spectra

    api = spectra._openblas_threads()
    if api is None:
        pytest.skip("this scipy build bundles no OpenBLAS with thread controls")
    get, put = api
    seen = []
    eigh = spectra.scipy.linalg.eigh

    def counting_eigh(*args, **kwargs):
        seen.append(get())
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectra.scipy.linalg, "eigh", counting_eigh)
    previous = get()
    put(2)
    try:
        ds, dd = _grid_distances()
        KarhunenLoeveBasis.from_correlation(von_karman_correlation(ds, dd, 30.0, 20.0), 3)
        assert seen == [1]
        assert get() == 2
    finally:
        put(previous)


def test_eigensolve_without_bundled_openblas(monkeypatch):
    """On a scipy build without the thread controls the solve runs as is."""
    from repro.seismo import spectra

    ds, dd = _grid_distances()
    c = von_karman_correlation(ds, dd, 30.0, 20.0)
    expected = KarhunenLoeveBasis.from_correlation(c, 3)
    monkeypatch.setattr(spectra, "_openblas_threads", lambda: None)
    basis = KarhunenLoeveBasis.from_correlation(c, 3)
    np.testing.assert_array_equal(basis.eigenvalues, expected.eigenvalues)
    np.testing.assert_array_equal(basis.eigenvectors, expected.eigenvectors)


@pytest.mark.parametrize(
    "library, prefix",
    [("libscipy_openblas-6cdc3b4a.so", "scipy_"), ("libopenblasp-r0-23e5df77.3.21.dev.so", "")],
)
def test_bundled_openblas_found_under_either_naming(tmp_path, monkeypatch, library, prefix):
    """Both namings scipy wheels have bundled are found; a library
    without the thread controls is passed over."""
    from repro.seismo import spectra

    class FakeLibrary:
        def __init__(self, path):
            if Path(path).name == library:
                for op in ("get", "set"):
                    setattr(self, f"{prefix}openblas_{op}_num_threads", lambda *a: None)

    (tmp_path / library).touch()
    (tmp_path / "libopenblas-nothreads.so").touch()
    monkeypatch.setattr(spectra.ctypes, "CDLL", FakeLibrary)
    found = spectra._find_openblas_threads(tmp_path)
    assert found is not None
    assert found[0].restype is spectra.ctypes.c_int
    assert found[1].argtypes == [spectra.ctypes.c_int]
    (tmp_path / library).unlink()
    assert spectra._find_openblas_threads(tmp_path) is None

"""Tests for repro.seismo.okada — finite-fault Okada (1985) statics."""

import numpy as np
import pytest

from repro.errors import GreensFunctionError
from repro.seismo.greens import compute_gf_bank
from repro.seismo.okada import compute_okada_gf_bank, okada85
from tests.oracles import okada_loop
from tests.oracles.okada_loop import reference_okada_gf_bank

THRUST = dict(depth_km=12.0, dip_deg=30.0, length_km=20.0, width_km=10.0, dip_slip_m=1.0)


def test_thrust_uplift_updip_subsidence_downdip():
    # Classic megathrust pattern: uplift above the shallow (up-dip) part,
    # subsidence over the deep (down-dip) side.
    _, _, uz_up = okada85(10.0, 5.0, **THRUST)
    _, _, uz_down = okada85(10.0, -5.0, **THRUST)
    assert float(uz_up) > 0.05
    assert float(uz_down) < 0.0


def test_dip_slip_no_along_strike_motion_on_symmetry_axis():
    ux, _, _ = okada85(10.0, 7.0, **THRUST)  # x=10 is the fault midpoint
    assert abs(float(ux)) < 1e-12


def test_strike_slip_antisymmetric_across_fault():
    kwargs = dict(depth_km=12.0, dip_deg=89.0, length_km=20.0, width_km=10.0,
                  strike_slip_m=1.0)
    ux_pos, _, _ = okada85(10.0, 8.0, **kwargs)
    ux_neg, _, _ = okada85(10.0, -8.0, **kwargs)
    # Near-vertical fault: along-strike motion flips sign across it.
    assert float(ux_pos) * float(ux_neg) < 0
    assert abs(float(ux_pos) + float(ux_neg)) < 0.1 * abs(float(ux_pos))


def test_far_field_inverse_square_decay():
    _, _, u1 = okada85(10.0, 800.0, **THRUST)
    _, _, u2 = okada85(10.0, 1600.0, **THRUST)
    assert float(u1 / u2) == pytest.approx(4.0, rel=0.08)


def test_displacement_scales_linearly_in_slip():
    _, _, u1 = okada85(10.0, 5.0, **THRUST)
    big = dict(THRUST, dip_slip_m=2.5)
    _, _, u2 = okada85(10.0, 5.0, **big)
    assert float(u2) == pytest.approx(2.5 * float(u1), rel=1e-9)


def test_superposition_of_slip_components():
    kwargs = dict(depth_km=12.0, dip_deg=45.0, length_km=15.0, width_km=8.0)
    ux_s, uy_s, uz_s = okada85(5.0, 6.0, strike_slip_m=0.7, **kwargs)
    ux_d, uy_d, uz_d = okada85(5.0, 6.0, dip_slip_m=1.3, **kwargs)
    ux_b, uy_b, uz_b = okada85(5.0, 6.0, strike_slip_m=0.7, dip_slip_m=1.3, **kwargs)
    assert float(ux_b) == pytest.approx(float(ux_s) + float(ux_d), abs=1e-12)
    assert float(uz_b) == pytest.approx(float(uz_s) + float(uz_d), abs=1e-12)


def test_vectorized_over_observation_points():
    x = np.linspace(-20, 40, 13)
    y = np.full_like(x, 9.0)
    ux, uy, uz = okada85(x, y, **THRUST)
    assert ux.shape == x.shape
    assert np.all(np.isfinite(ux)) and np.all(np.isfinite(uz))


def test_deeper_fault_smaller_signal():
    shallow = dict(THRUST, depth_km=8.0)
    deep = dict(THRUST, depth_km=40.0)
    _, _, uz_shallow = okada85(10.0, 5.0, **shallow)
    _, _, uz_deep = okada85(10.0, 5.0, **deep)
    assert abs(float(uz_shallow)) > abs(float(uz_deep))


def test_validation():
    with pytest.raises(GreensFunctionError):
        okada85(0.0, 0.0, depth_km=-1.0, dip_deg=30.0, length_km=10.0, width_km=5.0)
    with pytest.raises(GreensFunctionError):
        okada85(0.0, 0.0, depth_km=10.0, dip_deg=0.0, length_km=10.0, width_km=5.0)
    with pytest.raises(GreensFunctionError):
        okada85(0.0, 0.0, depth_km=10.0, dip_deg=30.0, length_km=-1.0, width_km=5.0)


class TestOkadaBank:
    def test_bank_shape_compatible(self, small_geometry, small_network):
        bank = compute_okada_gf_bank(small_geometry, small_network)
        assert bank.n_stations == len(small_network)
        assert bank.n_subfaults == small_geometry.n_subfaults
        assert np.all(np.isfinite(bank.statics))

    def test_far_field_agrees_with_point_source(self, small_geometry):
        """Beyond several fault lengths, the finite-fault and the
        point-source approximations must agree in magnitude scale."""
        from repro.seismo.stations import Station, StationNetwork

        far = StationNetwork([Station("FARR", -64.0, -30.0)])  # ~800 km east
        okada_bank = compute_okada_gf_bank(small_geometry, far)
        point_bank = compute_gf_bank(small_geometry, far)
        sub = small_geometry.n_subfaults // 2
        a = np.linalg.norm(okada_bank.statics[0, sub])
        b = np.linalg.norm(point_bank.statics[0, sub])
        assert a == pytest.approx(b, rel=1.5)  # same order of magnitude
        # And far-field vertical signs agree.
        assert np.sign(okada_bank.statics[0, sub, 2]) == np.sign(
            point_bank.statics[0, sub, 2]
        )

    def test_near_field_uplift_above_shallow_thrust(self, small_geometry):
        from repro.seismo.stations import Station, StationNetwork

        # A coastal station just east of the shallow subfaults: thrust
        # slip below it must push it up and seaward.
        station = StationNetwork([Station("COAST", -72.2, -30.0)])
        bank = compute_okada_gf_bank(small_geometry, station)
        # Pick the subfault whose center lies just DOWN-dip (east) of
        # the station at its latitude — the station sits above that
        # patch's up-dip side, so thrust slip lifts it. Conversely the
        # patch up-dip (west) of the station drags it down.
        east_s, _ = small_geometry.projection.to_enu(
            station.lons[0], station.lats[0]
        )
        east_f, _, _ = small_geometry.enu()
        lat_band = np.abs(small_geometry.lat - (-30.0)) < 0.5
        downdip = lat_band & (east_f > float(east_s))
        updip = lat_band & (east_f <= float(east_s))
        j_up = int(np.flatnonzero(downdip)[np.argmin(east_f[downdip])])
        j_down = int(np.flatnonzero(updip)[np.argmax(east_f[updip])])
        assert bank.statics[0, j_up, 2] > 0.0
        assert bank.statics[0, j_down, 2] < 0.0

    def test_waveforms_run_on_okada_bank(self, small_geometry, small_network,
                                          rupture_generator):
        from repro.seismo.waveforms import WaveformSynthesizer

        bank = compute_okada_gf_bank(small_geometry, small_network)
        rupture = rupture_generator.generate(np.random.default_rng(4), target_mw=8.2)
        ws = WaveformSynthesizer(bank).synthesize(rupture)
        assert float(ws.pgd_m().max()) > 0.0


class TestGoldenValues:
    """Okada (1985) Table 2 check cases: x=2, y=3, d=4, delta=70 deg,
    L=3, W=2. Published surface displacements (4 significant digits)."""

    CASE = dict(depth_km=4.0, dip_deg=70.0, length_km=3.0, width_km=2.0)

    def test_case2_strike_slip(self):
        ux, uy, uz = okada85(2.0, 3.0, strike_slip_m=1.0, **self.CASE)
        assert float(ux) == pytest.approx(-8.689e-3, rel=2e-3)
        assert float(uy) == pytest.approx(-4.298e-3, rel=2e-3)
        assert float(uz) == pytest.approx(-2.747e-3, rel=2e-3)

    def test_case2_dip_slip(self):
        ux, uy, uz = okada85(2.0, 3.0, dip_slip_m=1.0, **self.CASE)
        assert float(ux) == pytest.approx(-4.682e-3, rel=2e-3)
        assert float(uy) == pytest.approx(-3.527e-2, rel=2e-3)
        assert float(uz) == pytest.approx(-3.564e-2, rel=2e-3)


class TestVectorEngine:
    """The batched (station, subfault, 4-corner) build against the frozen
    per-subfault loop in ``tests.oracles.okada_loop`` — bit identity."""

    def test_bit_identical_on_small_mesh(self, small_geometry, small_network):
        ref = reference_okada_gf_bank(small_geometry, small_network)
        vec = compute_okada_gf_bank(small_geometry, small_network)
        assert np.array_equal(ref.statics, vec.statics)
        assert np.array_equal(ref.travel_time_s, vec.travel_time_s)

    def test_bit_identical_for_oblique_rake(self, small_geometry, small_network):
        ref = reference_okada_gf_bank(small_geometry, small_network, rake_deg=37.0)
        vec = compute_okada_gf_bank(small_geometry, small_network, rake_deg=37.0)
        assert np.array_equal(ref.statics, vec.statics)

    def test_bad_dtype_rejected(self, small_geometry, small_network):
        with pytest.raises(GreensFunctionError):
            compute_okada_gf_bank(small_geometry, small_network, dtype="float16")

    def test_float32_bank_is_cast_of_float64(self, small_geometry, small_network):
        full = compute_okada_gf_bank(small_geometry, small_network)
        half = compute_okada_gf_bank(small_geometry, small_network, dtype="float32")
        assert half.statics.dtype == np.float32
        assert half.travel_time_s.dtype == np.float32
        assert np.array_equal(half.statics, full.statics.astype(np.float32))
        assert half.nbytes * 2 == full.nbytes

    def test_vector_validates_geometry_like_reference(self, small_network):
        import dataclasses

        from repro.seismo.geometry import build_chile_slab

        geom = build_chile_slab(n_strike=4, n_dip=3)
        flat = dataclasses.replace(
            geom, dip_deg=np.zeros_like(geom.dip_deg)  # dip must be in (0, 90]
        )
        with pytest.raises(GreensFunctionError):
            compute_okada_gf_bank(flat, small_network)
        with pytest.raises(GreensFunctionError):
            reference_okada_gf_bank(flat, small_network)


class TestVectorEngineProperty:
    """Hypothesis pin: vector == reference bit-for-bit across random
    geometries, rakes, and station layouts."""

    @staticmethod
    def _random_case(seed, n_sub, n_sta, rake):
        import dataclasses

        from repro.seismo.geometry import build_chile_slab
        from repro.seismo.stations import Station, StationNetwork

        rng = np.random.default_rng(seed)
        geom = build_chile_slab(n_strike=n_sub, n_dip=2)
        n = geom.n_subfaults
        geom = dataclasses.replace(
            geom,
            depth_km=rng.uniform(8.0, 40.0, n),
            strike_deg=rng.uniform(0.0, 360.0, n),
            dip_deg=rng.uniform(5.0, 90.0, n),
            length_km=rng.uniform(5.0, 30.0, n),
            width_km=rng.uniform(4.0, 15.0, n),
        )
        stations = StationNetwork(
            [
                Station(
                    f"R{i:03d}",
                    float(rng.uniform(-73.5, -69.0)),
                    float(rng.uniform(-33.0, -27.0)),
                )
                for i in range(n_sta)
            ]
        )
        return geom, stations

    def test_property_vector_equals_reference(self):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=25, deadline=None)
        @given(
            seed=st.integers(0, 2**31 - 1),
            n_sub=st.integers(2, 6),
            n_sta=st.integers(1, 6),
            rake=st.floats(-180.0, 180.0, allow_nan=False),
        )
        # A subfault depth whose scalar square (libm pow) and array square
        # differ in the last bit.
        @example(seed=719, n_sub=2, n_sta=3, rake=0.0)
        def check(seed, n_sub, n_sta, rake):
            geom, stations = self._random_case(seed, n_sub, n_sta, rake)
            ref = reference_okada_gf_bank(geom, stations, rake_deg=rake)
            vec = compute_okada_gf_bank(geom, stations, rake_deg=rake)
            assert np.array_equal(ref.statics, vec.statics)
            assert np.array_equal(ref.travel_time_s, vec.travel_time_s)

        check()

    def test_property_okada85_equals_frozen(self):
        """``okada85`` evaluates each corner once on a 4-corner tensor;
        the frozen three-pass form must agree bit for bit."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=30, deadline=None)
        @given(
            seed=st.integers(0, 2**31 - 1),
            n=st.integers(1, 40),
            depth=st.floats(0.5, 60.0),
            dip=st.one_of(st.just(90.0), st.floats(0.5, 90.0)),
            length=st.floats(0.5, 80.0),
            width=st.floats(0.5, 40.0),
            slip=st.sampled_from(["strike", "dip", "both", "none"]),
            scalar=st.booleans(),
        )
        def check(seed, n, depth, dip, length, width, slip, scalar):
            rng = np.random.default_rng(seed)
            if scalar:
                x, y = float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100))
            else:
                # y with a broadcast axis exercises the (x, y) broadcast.
                x = rng.uniform(-100.0, 100.0, n)
                y = rng.uniform(-100.0, 100.0, (n, 1)) if n % 2 else rng.uniform(
                    -100.0, 100.0, n
                )
            ss = float(rng.normal()) if slip in ("strike", "both") else 0.0
            ds = float(rng.normal()) if slip in ("dip", "both") else 0.0
            kwargs = dict(
                depth_km=depth, dip_deg=dip, length_km=length, width_km=width,
                strike_slip_m=ss, dip_slip_m=ds,
            )
            got = okada85(x, y, **kwargs)
            want = okada_loop.okada85(x, y, **kwargs)
            for g, w in zip(got, want):
                # Bitwise, signed zeros included.
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()

        check()

"""End-to-end FakeQuakes facade and the three phase kernels.

:class:`FakeQuakes` bundles geometry, stations, distance matrices, the
rupture generator, GF computation and waveform synthesis behind one
object with exactly the three entry points the FDW phases call:

* :meth:`phase_a_distances` / :meth:`phase_a_ruptures` — Phase A,
  which :meth:`end_phase_a` closes,
* :meth:`phase_b_greens_functions` — Phase B,
* :meth:`phase_c_waveforms` — Phase C.

Running the phases back-to-back on one machine (what
:class:`repro.core.local.LocalRunner` does) reproduces MudPy's native
sequential behaviour; the FDW instead fans the A and C kernels out as
parallel jobs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.rng import RngFactory
from repro.seismo.distance import DistanceMatrices
from repro.seismo.geometry import FaultGeometry, build_chile_slab
from repro.seismo.greens import GreensFunctionBank, compute_gf_bank
from repro.seismo.klcache import KLCache
from repro.seismo.ruptures import Rupture, RuptureGenerator
from repro.seismo.stations import StationNetwork, chilean_network
from repro.seismo.waveforms import GnssNoiseModel, WaveformSet, WaveformSynthesizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports seismo)
    from repro.core.gfcache import GFCache

__all__ = ["FakeQuakesParameters", "FakeQuakes"]


@dataclass(frozen=True)
class FakeQuakesParameters:
    """Simulation parameters (the FDW "configuration file" payload).

    Attributes
    ----------
    n_ruptures:
        Number of rupture scenarios / waveform sets to produce.
    n_stations:
        Station-list length: 121 = full Chilean input, 2 = small.
    mw_range:
        Target magnitude range for the catalog.
    mesh:
        (n_strike, n_dip) fault mesh dimensions.
    dt_s:
        GNSS sample interval.
    with_noise:
        Add the GNSS noise model to synthesized waveforms.
    gf_method:
        Static Green's function flavour: ``"point"`` (fast double-couple
        point source, the default) or ``"okada"`` (finite-fault Okada
        1985 — more accurate in the near field, ~n_subfaults times the
        cost).
    gf_dtype:
        GF-bank precision: ``"float64"`` (bit-exact default) or
        ``"float32"`` (half the bank bytes and faster synthesis, ~1e-7
        relative waveform error — see DESIGN.md).
    seed:
        Root RNG seed; everything downstream derives from it.
    """

    n_ruptures: int = 16
    n_stations: int = 121
    mw_range: tuple[float, float] = (7.5, 9.2)
    mesh: tuple[int, int] = (30, 15)
    dt_s: float = 1.0
    with_noise: bool = False
    gf_method: str = "point"
    gf_dtype: str = "float64"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ruptures < 1:
            raise ConfigError(f"n_ruptures must be >= 1, got {self.n_ruptures}")
        if self.n_stations < 1:
            raise ConfigError(f"n_stations must be >= 1, got {self.n_stations}")
        if self.mesh[0] < 2 or self.mesh[1] < 2:
            raise ConfigError(f"mesh must be at least 2x2, got {self.mesh}")
        if self.mw_range[0] > self.mw_range[1]:
            raise ConfigError(f"invalid mw_range {self.mw_range}")
        if self.dt_s <= 0:
            raise ConfigError(f"dt_s must be positive, got {self.dt_s}")
        if self.gf_method not in ("point", "okada"):
            raise ConfigError(
                f"gf_method must be 'point' or 'okada', got {self.gf_method!r}"
            )
        if self.gf_dtype not in ("float64", "float32"):
            raise ConfigError(
                f"gf_dtype must be 'float64' or 'float32', got {self.gf_dtype!r}"
            )


@dataclass
class FakeQuakes:
    """FakeQuakes simulation session.

    Build one from parameters with :meth:`from_parameters`; the
    constructor takes explicit components for tests that substitute any
    piece.
    """

    params: FakeQuakesParameters
    geometry: FaultGeometry
    network: StationNetwork
    rngs: RngFactory = field(default_factory=RngFactory)
    gf_cache: "GFCache | None" = field(default=None, repr=False)
    kl_cache: KLCache | None = field(default=None, repr=False)
    _distances: DistanceMatrices | None = field(default=None, repr=False)
    _generator: RuptureGenerator | None = field(default=None, repr=False)
    _gf_bank: GreensFunctionBank | None = field(default=None, repr=False)

    @classmethod
    def from_parameters(
        cls,
        params: FakeQuakesParameters,
        gf_cache: "GFCache | None" = None,
        kl_cache: KLCache | None = None,
    ) -> "FakeQuakes":
        """Standard construction: Chilean slab + synthetic network.

        ``gf_cache`` routes Phase B through a shared
        :class:`~repro.core.gfcache.GFCache` so the bank is computed at
        most once per (geometry, network, model) content key;
        ``kl_cache`` does the same for Phase A's per-patch K-L bases
        (:class:`~repro.seismo.klcache.KLCache`).
        """
        geometry = build_chile_slab(n_strike=params.mesh[0], n_dip=params.mesh[1])
        network = chilean_network(params.n_stations)
        return cls(
            params=params,
            geometry=geometry,
            network=network,
            rngs=RngFactory(params.seed),
            gf_cache=gf_cache,
            kl_cache=kl_cache,
        )

    # -- Phase A -------------------------------------------------------------

    def phase_a_distances(
        self, recycled: DistanceMatrices | None = None
    ) -> DistanceMatrices:
        """Bootstrap step of Phase A: build or recycle the ``.npy`` pair.

        With ``recycled`` provided (the FDW's normal mode), the O(n^2)
        computation is skipped entirely — "recycling them is crucial".
        """
        if recycled is not None:
            self._distances = recycled
        elif self._distances is None:
            self._distances = DistanceMatrices.from_geometry(self.geometry)
        return self._distances

    def _ensure_generator(self) -> RuptureGenerator:
        # The generator draws its K-L bases through the session's current
        # cache: one bound to a replaced cache is rebuilt (cheap; the
        # distance matrices stay).
        if self._generator is None or self._generator.kl_cache is not self.kl_cache:
            self._generator = RuptureGenerator(
                self.geometry,
                distances=self.phase_a_distances(),
                mw_range=self.params.mw_range,
                kl_cache=self.kl_cache,
            )
        return self._generator

    def phase_a_ruptures(
        self, start_index: int = 0, count: int | None = None
    ) -> list[Rupture]:
        """Generate a chunk of rupture scenarios (one A-phase job).

        Chunks are independent and deterministic: job ``k`` derives its
        RNG from the chunk's start index, so any partition of the
        catalog into jobs yields the same ruptures.
        """
        count = self.params.n_ruptures if count is None else count
        if start_index < 0 or count < 0 or start_index + count > self.params.n_ruptures:
            raise ConfigError(
                f"chunk [{start_index}, {start_index + count}) outside catalog "
                f"of {self.params.n_ruptures}"
            )
        gen = self._ensure_generator()
        return [
            gen.generate(
                self.rngs.generator("rupture", start_index + i),
                rupture_id=f"{self.geometry.name}.{start_index + i:06d}",
            )
            for i in range(count)
        ]

    def end_phase_a(self) -> None:
        """End Phase A: drop the distance matrices, their lag table and
        the rupture generator.

        Phases B and C read none of them, and they are the largest state
        Phase A leaves (3.2 MB of matrices and 0.8 MB of lag table on the
        30x15 mesh). A later Phase-A call builds them again, so ending
        Phase A changes no product, only what the session keeps.
        """
        self._distances = None
        self._generator = None

    # -- Phase B -------------------------------------------------------------

    def phase_b_greens_functions(
        self, recycled: GreensFunctionBank | None = None
    ) -> GreensFunctionBank:
        """Compute (or recycle) the GF bank for the station list.

        The bank flavour follows ``params.gf_method`` (point source or
        finite-fault Okada). With a :attr:`gf_cache` configured, the
        computation routes through the content-addressed cache — a warm
        cache skips Phase B entirely, the in-process analog of pulling
        the ``.mseed`` archive from Stash/OSDF.
        """
        if recycled is not None:
            self._gf_bank = recycled
        elif self._gf_bank is None:
            if self.gf_cache is not None:
                self._gf_bank = self.gf_cache.get_or_compute(
                    self.geometry,
                    self.network,
                    gf_method=self.params.gf_method,
                    dtype=self.params.gf_dtype,
                )
            elif self.params.gf_method == "okada":
                from repro.seismo.okada import compute_okada_gf_bank

                self._gf_bank = compute_okada_gf_bank(
                    self.geometry, self.network, dtype=self.params.gf_dtype
                )
            else:
                self._gf_bank = compute_gf_bank(
                    self.geometry, self.network, dtype=self.params.gf_dtype
                )
        return self._gf_bank

    # -- Phase C -------------------------------------------------------------

    def phase_c_waveforms(self, ruptures: list[Rupture]) -> Iterator[WaveformSet]:
        """Synthesize waveforms for a chunk of ruptures (one C-phase job).

        The whole chunk is validated before this returns
        (:meth:`~repro.seismo.waveforms.WaveformSynthesizer.check_batch`).
        The products are then synthesized one at a time as the iterator
        is consumed, each bit-identical to the chunk's batched
        :meth:`~repro.seismo.waveforms.WaveformSynthesizer.synthesize_batch`
        product and keeping its own keyed noise stream, so a caller that
        writes each product out before taking the next holds one record
        at a time.
        """
        bank = self.phase_b_greens_functions()
        noise = GnssNoiseModel() if self.params.with_noise else None
        synth = WaveformSynthesizer(bank, dt_s=self.params.dt_s, noise=noise)
        rngs = (
            [self.rngs.generator("noise", r.rupture_id) for r in ruptures]
            if self.params.with_noise
            else None
        )
        return map(synth.synthesize, ruptures, synth.check_batch(ruptures, rngs))

    # -- convenience ----------------------------------------------------------

    def run_sequential(self) -> list[WaveformSet]:
        """MudPy-native behaviour: all three phases, one after another."""
        self.phase_a_distances()
        ruptures = self.phase_a_ruptures()
        self.end_phase_a()
        self.phase_b_greens_functions()
        return list(self.phase_c_waveforms(ruptures))

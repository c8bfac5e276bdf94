"""The FDW configuration file.

The paper's workflow is driven by "editing a configuration file for
simulation parameters" — this module defines that file. It is a flat
INI document with one ``[fdw]`` section::

    [fdw]
    n_waveforms = 1024
    n_stations = 121
    chunk_a = 16
    chunk_c = 2
    recycle_distances = true
    seed = 7

:class:`FdwConfig` validates everything at construction so a bad config
fails before any jobs are planned.
"""

from __future__ import annotations

import configparser
import hashlib
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from repro.errors import ConfigError

__all__ = ["FdwConfig"]

#: Longest config name. The name becomes part of DAG node names, file
#: names and VDC product ids (``run-<n>-<name>.<kind>``, at most 128
#: characters), and 96 leaves room for a 17-digit run counter.
MAX_NAME_LEN = 96

_NAME_RE = re.compile(rf"[A-Za-z0-9._-]{{1,{MAX_NAME_LEN}}}")


@dataclass(frozen=True)
class FdwConfig:
    """Validated FDW run configuration.

    Attributes
    ----------
    n_waveforms:
        Total waveform scenarios the workflow must produce (the paper's
        experiment axis: 1,024 ... 50,000).
    n_stations:
        GNSS station-list length (121 full / 2 small Chilean input).
    chunk_a:
        Ruptures generated per Phase-A job.
    chunk_c:
        Ruptures waveform-synthesized per Phase-C job.
    recycle_distances:
        When true (default), the recyclable ``.npy`` distance matrices
        are assumed present and the bootstrap job is skipped.
    mesh:
        Fault mesh dimensions (n_strike, n_dip).
    mw_range:
        Target magnitude range of the catalog.
    retries:
        DAG-level retries per node.
    max_idle:
        DAGMan idle-job throttle.
    gf_dtype:
        GF-bank precision handed to Phase B: ``"float64"`` (bit-exact
        default) or ``"float32"`` (half-size banks, ~1e-7 relative
        waveform error).
    seed:
        Root seed of the run.
    name:
        Workflow name (used for DAG/node naming and output labels): 1 to
        :data:`MAX_NAME_LEN` characters of ``[A-Za-z0-9._-]``.
    """

    n_waveforms: int = 1024
    n_stations: int = 121
    chunk_a: int = 16
    chunk_c: int = 2
    recycle_distances: bool = True
    mesh: tuple[int, int] = (30, 15)
    mw_range: tuple[float, float] = (7.5, 9.2)
    retries: int = 3
    max_idle: int = 500
    gf_dtype: str = "float64"
    seed: int = 0
    name: str = "fdw"

    def __post_init__(self) -> None:
        if self.n_waveforms < 1:
            raise ConfigError(f"n_waveforms must be >= 1, got {self.n_waveforms}")
        if self.n_stations < 1:
            raise ConfigError(f"n_stations must be >= 1, got {self.n_stations}")
        if self.chunk_a < 1 or self.chunk_c < 1:
            raise ConfigError(
                f"chunk sizes must be >= 1, got chunk_a={self.chunk_a} "
                f"chunk_c={self.chunk_c}"
            )
        if self.mesh[0] < 2 or self.mesh[1] < 2:
            raise ConfigError(f"mesh must be at least 2x2, got {self.mesh}")
        if self.mw_range[0] > self.mw_range[1]:
            raise ConfigError(f"invalid mw_range {self.mw_range}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.max_idle < 0:
            raise ConfigError(f"max_idle must be >= 0, got {self.max_idle}")
        if self.gf_dtype not in ("float64", "float32"):
            raise ConfigError(
                f"gf_dtype must be 'float64' or 'float32', got {self.gf_dtype!r}"
            )
        if not isinstance(self.name, str) or not _NAME_RE.fullmatch(self.name):
            raise ConfigError(
                f"name must be 1-{MAX_NAME_LEN} characters of [A-Za-z0-9._-], "
                f"got {self.name!r}"
            )

    # -- derived -----------------------------------------------------------

    @property
    def n_subfaults(self) -> int:
        """Fault mesh size."""
        return self.mesh[0] * self.mesh[1]

    def content_digest(self) -> str:
        """Content-addressed sha256 of the full configuration.

        Hashes the canonical file serialization (:meth:`write`'s
        format), so two configs that would produce byte-identical
        products share a digest. This is the coarse key of the service
        layer's request coalescing: the config determines the geometry,
        station network, and seed, and therefore the downstream
        content-addressed GF-bank and K-L keys
        (:func:`~repro.core.gfcache.gf_bank_key`,
        :mod:`repro.seismo.klcache`). Computed once per config object
        (the fields are frozen); :meth:`with_waveforms` and
        :func:`dataclasses.replace` build new objects with their own.
        """
        return self._digest

    @cached_property
    def _digest(self) -> str:
        lines = [
            f"{self.n_waveforms}",
            f"{self.n_stations}",
            f"{self.chunk_a}",
            f"{self.chunk_c}",
            f"{self.recycle_distances}",
            f"{self.mesh[0]}x{self.mesh[1]}",
            f"{self.mw_range[0]!r}-{self.mw_range[1]!r}",
            f"{self.retries}",
            f"{self.max_idle}",
            f"{self.gf_dtype}",
            f"{self.seed}",
            self.name,
        ]
        material = "fdwconfig-v1\x1f" + "\x1f".join(lines)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def with_waveforms(self, n: int, name: str | None = None) -> "FdwConfig":
        """Copy with a different catalog size (and optionally name)."""
        return replace(self, n_waveforms=n, name=name or self.name)

    # -- file round-trip ------------------------------------------------------

    @classmethod
    def read(cls, path: str | Path) -> "FdwConfig":
        """Parse a config file.

        Raises
        ------
        ConfigError
            On missing file/section, unknown keys, or bad values.
        """
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read_string(path.read_text(), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if "fdw" not in parser:
            raise ConfigError(f"{path}: missing [fdw] section")
        section = parser["fdw"]
        known = {
            "n_waveforms",
            "n_stations",
            "chunk_a",
            "chunk_c",
            "recycle_distances",
            "mesh",
            "mw_range",
            "retries",
            "max_idle",
            "gf_dtype",
            "seed",
            "name",
        }
        unknown = set(section) - known
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        kwargs: dict = {}
        try:
            for key in ("n_waveforms", "n_stations", "chunk_a", "chunk_c", "retries",
                        "max_idle", "seed"):
                if key in section:
                    kwargs[key] = section.getint(key)
            if "recycle_distances" in section:
                kwargs["recycle_distances"] = section.getboolean("recycle_distances")
            if "mesh" in section:
                parts = [int(x) for x in section["mesh"].split("x")]
                if len(parts) != 2:
                    raise ConfigError(f"{path}: mesh must look like '30x15'")
                kwargs["mesh"] = (parts[0], parts[1])
            if "mw_range" in section:
                parts_f = [float(x) for x in section["mw_range"].split("-")]
                if len(parts_f) != 2:
                    raise ConfigError(f"{path}: mw_range must look like '7.5-9.2'")
                kwargs["mw_range"] = (parts_f[0], parts_f[1])
            if "gf_dtype" in section:
                kwargs["gf_dtype"] = section["gf_dtype"]
            if "name" in section:
                kwargs["name"] = section["name"]
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def write(self, path: str | Path) -> Path:
        """Write the config in the file format :meth:`read` parses."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            "[fdw]",
            f"n_waveforms = {self.n_waveforms}",
            f"n_stations = {self.n_stations}",
            f"chunk_a = {self.chunk_a}",
            f"chunk_c = {self.chunk_c}",
            f"recycle_distances = {str(self.recycle_distances).lower()}",
            f"mesh = {self.mesh[0]}x{self.mesh[1]}",
            f"mw_range = {self.mw_range[0]}-{self.mw_range[1]}",
            f"retries = {self.retries}",
            f"max_idle = {self.max_idle}",
            f"gf_dtype = {self.gf_dtype}",
            f"seed = {self.seed}",
            f"name = {self.name}",
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

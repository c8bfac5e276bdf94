"""Tests for repro.core.config."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MAX_NAME_LEN, FdwConfig
from repro.core.phases import count_jobs, gf_product_id
from repro.core.workflow import build_fdw_dag
from repro.errors import ConfigError
from repro.vdc.catalog import ProductRecord


def test_defaults_valid():
    config = FdwConfig()
    assert config.n_waveforms == 1024
    assert config.n_stations == 121
    assert config.n_subfaults == 450


def test_validation():
    with pytest.raises(ConfigError):
        FdwConfig(n_waveforms=0)
    with pytest.raises(ConfigError):
        FdwConfig(n_stations=0)
    with pytest.raises(ConfigError):
        FdwConfig(chunk_a=0)
    with pytest.raises(ConfigError):
        FdwConfig(chunk_c=0)
    with pytest.raises(ConfigError):
        FdwConfig(mesh=(1, 5))
    with pytest.raises(ConfigError):
        FdwConfig(mw_range=(9.0, 8.0))
    with pytest.raises(ConfigError):
        FdwConfig(retries=-1)
    with pytest.raises(ConfigError):
        FdwConfig(max_idle=-1)
    with pytest.raises(ConfigError):
        FdwConfig(name="")


@pytest.mark.parametrize(
    "name",
    ["my run", "a/b", "x" * 200, "n" * (MAX_NAME_LEN + 1), "tab\tname",
     "colon:name", "caf\u00e9", "pct%", None, 7],
    ids=["space", "slash", "200-chars", "one-too-long", "tab", "colon",
         "non-ascii", "percent", "none", "int"],
)
def test_bad_name_rejected_at_construction(name):
    with pytest.raises(ConfigError, match="name"):
        FdwConfig(name=name)


def test_bad_name_rejected_by_read(tmp_path):
    for name in ("my run", "a/b", "x" * 200):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[fdw]\nname = {name}\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg: name must be"):
            FdwConfig.read(path)


@settings(max_examples=50, deadline=None)
@given(
    name=st.text(string.ascii_letters + string.digits + "._-", min_size=1,
                 max_size=MAX_NAME_LEN),
)
def test_any_valid_name_names_nodes_files_and_products(name):
    """A name the config accepts makes valid DAG node names, and valid
    catalog ids for the GF archive and for a portal run's products at
    any run counter up to 17 digits."""
    config = FdwConfig(n_waveforms=4, chunk_a=2, chunk_c=2, name=name)
    assert len(build_fdw_dag(config)) == count_jobs(config)  # nodes validate
    ProductRecord(gf_product_id(config), "gf_bank", "site", 1.0)
    for kind in ("waveforms", "ruptures", "gf_bank"):
        ProductRecord(f"run-{10**17 - 1}-{name}.{kind}", kind, "site", 1.0)


def test_with_waveforms():
    base = FdwConfig(n_waveforms=100, name="x")
    derived = base.with_waveforms(200)
    assert derived.n_waveforms == 200
    assert derived.name == "x"
    named = base.with_waveforms(300, name="y")
    assert named.name == "y"
    assert base.n_waveforms == 100  # immutable original


def test_file_roundtrip(tmp_path):
    config = FdwConfig(
        n_waveforms=2048,
        n_stations=2,
        chunk_a=8,
        chunk_c=4,
        recycle_distances=False,
        mesh=(20, 10),
        mw_range=(7.8, 9.0),
        retries=2,
        max_idle=300,
        seed=99,
        name="roundtrip",
    )
    path = config.write(tmp_path / "fdw.cfg")
    assert FdwConfig.read(path) == config


def test_read_partial_file_uses_defaults(tmp_path):
    path = tmp_path / "fdw.cfg"
    path.write_text("[fdw]\nn_waveforms = 512\n")
    config = FdwConfig.read(path)
    assert config.n_waveforms == 512
    assert config.n_stations == 121


def test_read_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        FdwConfig.read(tmp_path / "nope.cfg")


def test_read_missing_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[other]\nx = 1\n")
    with pytest.raises(ConfigError):
        FdwConfig.read(path)


def test_read_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[fdw]\nturbo = yes\n")
    with pytest.raises(ConfigError):
        FdwConfig.read(path)


def test_read_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[fdw]\nn_waveforms = many\n")
    with pytest.raises(ConfigError):
        FdwConfig.read(path)


def test_read_bad_mesh(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[fdw]\nmesh = 30by15\n")
    with pytest.raises(ConfigError):
        FdwConfig.read(path)


def test_read_validates_result(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[fdw]\nn_waveforms = -5\n")
    with pytest.raises(ConfigError):
        FdwConfig.read(path)


def test_gf_dtype_roundtrip_and_validation(tmp_path):
    config = FdwConfig(gf_dtype="float32", name="f32run")
    path = config.write(tmp_path / "f32.cfg")
    assert "gf_dtype = float32" in path.read_text()
    assert FdwConfig.read(path) == config
    with pytest.raises(ConfigError):
        FdwConfig(gf_dtype="float16")
    bad = tmp_path / "bad.cfg"
    bad.write_text("[fdw]\ngf_dtype = double\n")
    with pytest.raises(ConfigError):
        FdwConfig.read(bad)

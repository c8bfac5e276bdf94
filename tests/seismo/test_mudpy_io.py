"""Tests for repro.seismo.mudpy_io."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArchiveError, RuptureError
from repro.seismo.mudpy_io import ProductArchive, read_rupt, write_rupt


def test_rupt_roundtrip(tmp_path, sample_rupture, small_geometry):
    path = write_rupt(sample_rupture, small_geometry, tmp_path / "r.rupt")
    back = read_rupt(path)
    assert back.rupture_id == sample_rupture.rupture_id
    assert back.target_mw == pytest.approx(sample_rupture.target_mw, abs=1e-4)
    assert back.hypocenter_index == sample_rupture.hypocenter_index
    np.testing.assert_array_equal(back.subfault_indices, sample_rupture.subfault_indices)
    np.testing.assert_allclose(back.slip_m, sample_rupture.slip_m, atol=1e-6)
    np.testing.assert_allclose(back.rise_time_s, sample_rupture.rise_time_s, atol=1e-4)


def test_rupt_missing_file(tmp_path):
    with pytest.raises(RuptureError):
        read_rupt(tmp_path / "missing.rupt")


def test_rupt_bad_header(tmp_path):
    path = tmp_path / "bad.rupt"
    path.write_text("not a rupt file\n")
    with pytest.raises(RuptureError):
        read_rupt(path)


def test_rupt_bad_column_count(tmp_path):
    path = tmp_path / "bad.rupt"
    path.write_text(
        "# rupt x target_mw=8.0 actual_mw=8.0 hypo=0\n1 2 3\n"
    )
    with pytest.raises(RuptureError):
        read_rupt(path)


def test_rupt_no_rows(tmp_path):
    path = tmp_path / "empty.rupt"
    path.write_text("# rupt x target_mw=8.0 actual_mw=8.0 hypo=0\n")
    with pytest.raises(RuptureError):
        read_rupt(path)


def _touch(tmp_path, name, content=b"data"):
    p = tmp_path / name
    p.write_bytes(content)
    return p


def test_archive_add_and_find(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "w1.npz", b"x" * 100)
    dest = archive.add_file(src, kind="waveforms", label="r0", metadata={"mw": 8.1})
    assert dest.exists()
    assert archive.kinds() == ["waveforms"]
    found = archive.find(kind="waveforms", mw=8.1)
    assert len(found) == 1
    assert found[0]["bytes"] == 100


def test_archive_duplicate_label_rejected(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "a.txt")
    archive.add_file(src, kind="k", label="x")
    with pytest.raises(ArchiveError):
        archive.add_file(src, kind="k", label="x")


def test_archive_missing_source_rejected(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    with pytest.raises(ArchiveError):
        archive.add_file(tmp_path / "nope.bin", kind="k", label="x")


def test_archive_move_deletes_source(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "m.bin")
    archive.add_file(src, kind="k", label="moved", move=True)
    assert not src.exists()


def test_archive_persistence(tmp_path):
    root = tmp_path / "arch"
    archive = ProductArchive(root)
    archive.add_file(_touch(tmp_path, "a.bin", b"12345"), kind="k", label="a")
    reopened = ProductArchive(root)
    assert reopened.total_bytes() == 5
    assert reopened.path_of("k", "a").read_bytes() == b"12345"


def test_archive_path_of_unknown(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    with pytest.raises(ArchiveError):
        archive.path_of("k", "missing")


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"archive": "x"}', '["entries"]', '{"archive": "x", "entries": [{"kind": "k"}]}'],
    ids=["not-json", "no-entries", "list", "bad-entry"],
)
def test_malformed_manifest_is_an_archive_error(tmp_path, text):
    """The manifest is outside input: reopening an archive whose
    manifest is not one raises ArchiveError naming it."""
    root = tmp_path / "arch"
    root.mkdir()
    (root / "manifest.json").write_text(text)
    with pytest.raises(ArchiveError, match="manifest.json"):
        ProductArchive(root)


def test_archive_find_by_metadata_subset(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    archive.add_file(_touch(tmp_path, "a.bin"), kind="wf", label="a", metadata={"mw": 8.0})
    archive.add_file(_touch(tmp_path, "b.bin"), kind="wf", label="b", metadata={"mw": 9.0})
    assert len(archive.find(kind="wf")) == 2
    assert [e["label"] for e in archive.find(kind="wf", mw=9.0)] == ["b"]


# -- .rupt writer: byte-identical to the per-row formatter ---------------------


def _rupt_oracle(rupture, geometry) -> str:
    """The original per-row f-string ``.rupt`` formatter."""
    cols = geometry.subset(rupture.subfault_indices)
    lines = [
        f"# rupt {rupture.rupture_id} target_mw={rupture.target_mw:.4f} "
        f"actual_mw={rupture.actual_mw:.4f} hypo={rupture.hypocenter_index}",
        "# subfault lon lat depth_km strike_deg dip_deg length_km width_km "
        "slip_m rise_s onset_s",
    ]
    for i in range(rupture.n_subfaults):
        lines.append(
            f"{rupture.subfault_indices[i]:d} "
            f"{cols['lon'][i]:.5f} {cols['lat'][i]:.5f} {cols['depth_km'][i]:.3f} "
            f"{cols['strike_deg'][i]:.2f} {cols['dip_deg'][i]:.2f} "
            f"{cols['length_km'][i]:.3f} {cols['width_km'][i]:.3f} "
            f"{rupture.slip_m[i]:.6f} {rupture.rise_time_s[i]:.4f} "
            f"{rupture.onset_time_s[i]:.4f}"
        )
    return "\n".join(lines) + "\n"


#: Values where fixed-point formatting is easy to get wrong: signed
#: zeros, rounding ties, tiny and huge magnitudes.
_EDGE_FLOATS = [-0.0, 0.0, 0.5, -0.5, 2.675, -2.675, 5e-7, -5e-7, 1e15, -1e15, 123456.789]


def _floats(min_value=-1e15):
    return st.one_of(
        st.floats(min_value=min_value, max_value=1e15, allow_nan=False),
        st.sampled_from([v for v in _EDGE_FLOATS if v >= min_value or v == 0.0]),
    )


@st.composite
def _mesh_and_ruptures(draw):
    from repro.seismo.geo import LocalProjection
    from repro.seismo.geometry import FaultGeometry
    from repro.seismo.ruptures import Rupture

    n_strike = draw(st.integers(1, 4))
    n_dip = draw(st.integers(1, 3))
    n = n_strike * n_dip

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    geometry = FaultGeometry(
        name="prop",
        lon=column(_floats()),
        lat=column(_floats()),
        depth_km=column(_floats(min_value=0.0)),
        strike_deg=column(_floats()),
        dip_deg=column(_floats()),
        length_km=column(_floats()),
        width_km=column(_floats()),
        n_strike=n_strike,
        n_dip=n_dip,
        projection=LocalProjection(0.0, 0.0),
    )
    ruptures = []
    for k in range(2):  # two ruptures on one mesh share its formatted rows
        idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)))
        m = len(idx)

        def values(elements):
            return np.array(draw(st.lists(elements, min_size=m, max_size=m)), dtype=float)

        ruptures.append(
            Rupture(
                rupture_id=f"prop.{k:06d}",
                target_mw=draw(_floats()),
                actual_mw=draw(_floats()),
                subfault_indices=idx,
                slip_m=values(_floats(min_value=0.0)),
                rise_time_s=values(_floats()),
                onset_time_s=values(_floats()),
                hypocenter_index=draw(st.integers(0, m - 1)),
            )
        )
    return geometry, ruptures


@settings(max_examples=150, deadline=None)
@given(_mesh_and_ruptures())
def test_write_rupt_matches_per_row_formatter(tmp_path_factory, case):
    geometry, ruptures = case
    out = tmp_path_factory.mktemp("rupt")
    for rupture in ruptures:
        path = write_rupt(rupture, geometry, out / f"{rupture.rupture_id}.rupt")
        assert path.read_text() == _rupt_oracle(rupture, geometry)


def test_write_rupt_rejects_out_of_range_subfault(tmp_path, sample_rupture, small_geometry):
    from dataclasses import replace

    from repro.errors import GeometryError

    bad = replace(
        sample_rupture,
        subfault_indices=sample_rupture.subfault_indices + small_geometry.n_subfaults,
    )
    with pytest.raises(GeometryError):
        write_rupt(bad, small_geometry, tmp_path / "bad.rupt")


# -- batched assembly and manifest durability ----------------------------------


def _manifest_writes(monkeypatch):
    """Count manifest writes made through the atomic-write helper."""
    import repro.seismo.mudpy_io as mudpy_io

    writes = []
    real = mudpy_io.atomic_write_bytes

    def counting(path, data):
        writes.append(path)
        real(path, data)

    monkeypatch.setattr(mudpy_io, "atomic_write_bytes", counting)
    return writes


def _add_three(archive, src_dir):
    archive.add_file(_touch(src_dir, "w1.npz", b"a" * 7), "waveforms", "r1", {"mw": 8.1})
    archive.add_file(_touch(src_dir, "w2.npz", b"b" * 3), "waveforms", "r2", {"mw": 8.3},
                     move=True)
    archive.add_file(_touch(src_dir, "r1.rupt", b"c"), "ruptures", "r1", {"mw": 8.1},
                     link=True)


def test_batch_writes_manifest_once_with_unbatched_bytes(tmp_path, monkeypatch):
    plain_src, batch_src = tmp_path / "ps", tmp_path / "bs"
    plain_src.mkdir()
    batch_src.mkdir()
    plain = ProductArchive(tmp_path / "plain", name="same")
    _add_three(plain, plain_src)

    batched = ProductArchive(tmp_path / "batched", name="same")
    writes = _manifest_writes(monkeypatch)
    with batched.batch():
        _add_three(batched, batch_src)
        with batched.batch():  # nested: still one write, at the outer exit
            pass
        assert writes == []
        assert batched.path_of("waveforms", "r2").read_bytes() == b"bbb"
    assert writes == [batched.root / ProductArchive.MANIFEST]
    assert (tmp_path / "batched" / "manifest.json").read_bytes() == (
        tmp_path / "plain" / "manifest.json"
    ).read_bytes()
    assert ProductArchive(tmp_path / "batched").total_bytes() == 11


def test_link_keeps_source_and_bytes(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "kept.npz", b"payload")
    dest = archive.add_file(src, kind="waveforms", label="k", link=True)
    assert src.read_bytes() == dest.read_bytes() == b"payload"
    src.unlink()  # the archive copy outlives its source
    assert archive.path_of("waveforms", "k").read_bytes() == b"payload"


def test_failed_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch):
    import os

    archive = ProductArchive(tmp_path / "arch")
    archive.add_file(_touch(tmp_path, "a.bin", b"12345"), kind="k", label="a")
    before = (archive.root / "manifest.json").read_bytes()

    def crash(*_args, **_kwargs):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(ArchiveError, match="cannot write manifest"):
        archive.add_file(_touch(tmp_path, "b.bin", b"678"), kind="k", label="b")
    monkeypatch.undo()
    assert (archive.root / "manifest.json").read_bytes() == before
    reopened = ProductArchive(archive.root)
    assert [e["label"] for e in reopened.entries] == ["a"]
    assert reopened.total_bytes() == 5


@pytest.mark.parametrize("case", ["missing", "duplicate", "duplicate-in-batch"])
def test_bad_add_in_batch_touches_nothing(tmp_path, case):
    archive = ProductArchive(tmp_path / "arch")
    archive.add_file(_touch(tmp_path, "old.bin", b"old"), kind="k", label="old")
    manifest = archive.root / "manifest.json"
    before = manifest.read_bytes()
    src = _touch(tmp_path, "new.bin", b"new")
    with archive.batch():
        if case == "duplicate-in-batch":
            archive.add_file(_touch(tmp_path, "first.bin", b"1st"), kind="k", label="x")
        label = "old" if case == "duplicate" else "x"
        source = tmp_path / "absent.bin" if case == "missing" else src
        with pytest.raises(ArchiveError):
            archive.add_file(source, kind="k", label=label, move=True)
        assert src.read_bytes() == b"new"
        assert manifest.read_bytes() == before
    assert src.exists()
    labels = [e["label"] for e in ProductArchive(archive.root).entries]
    assert labels == (["old", "x"] if case == "duplicate-in-batch" else ["old"])


def test_batch_records_landed_files_when_body_raises(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    with pytest.raises(RuntimeError):
        with archive.batch():
            archive.add_file(_touch(tmp_path, "a.bin"), kind="k", label="a", move=True)
            raise RuntimeError("interrupted")
    reopened = ProductArchive(archive.root)
    assert reopened.path_of("k", "a").exists()

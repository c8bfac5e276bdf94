"""Tests for repro.vdc.catalog."""

import pytest

from repro.errors import CatalogError
from repro.vdc.catalog import DataCatalog, ProductRecord


def record(pid="p.1", kind="waveforms", **meta):
    return ProductRecord(
        product_id=pid,
        kind=kind,
        site="site-a",
        size_mb=10.0,
        tags=frozenset({"fdw"}),
        metadata=meta or {"mw": 8.0},
    )


def test_deposit_and_get():
    catalog = DataCatalog()
    catalog.deposit(record())
    assert len(catalog) == 1
    assert "p.1" in catalog
    assert catalog.get("p.1").kind == "waveforms"


def test_duplicate_rejected():
    catalog = DataCatalog()
    catalog.deposit(record())
    with pytest.raises(CatalogError):
        catalog.deposit(record())


def test_get_missing():
    with pytest.raises(CatalogError):
        DataCatalog().get("nope")


def test_record_validation():
    with pytest.raises(CatalogError):
        ProductRecord(product_id="has space", kind="k", site="s", size_mb=1.0)
    with pytest.raises(CatalogError):
        ProductRecord(product_id="ok", kind="", site="s", size_mb=1.0)
    with pytest.raises(CatalogError):
        ProductRecord(product_id="ok", kind="k", site="s", size_mb=-1.0)


def test_tagging():
    catalog = DataCatalog()
    catalog.deposit(record())
    updated = catalog.tag("p.1", "chile", "validated")
    assert {"fdw", "chile", "validated"} <= updated.tags
    assert catalog.get("p.1").tags == updated.tags


def test_annotate_merges_metadata():
    catalog = DataCatalog()
    catalog.deposit(record(mw=8.0))
    catalog.annotate("p.1", region="chile", mw=8.5)
    meta = catalog.get("p.1").metadata
    assert meta["region"] == "chile"
    assert meta["mw"] == 8.5


def test_withdraw():
    catalog = DataCatalog()
    catalog.deposit(record())
    catalog.withdraw("p.1")
    assert "p.1" not in catalog
    with pytest.raises(CatalogError):
        catalog.withdraw("p.1")


def test_search_by_kind():
    catalog = DataCatalog()
    catalog.deposit(record("a.1", kind="waveforms"))
    catalog.deposit(record("a.2", kind="ruptures"))
    assert [r.product_id for r in catalog.search(kind="waveforms")] == ["a.1"]


def test_search_by_tags():
    catalog = DataCatalog()
    catalog.deposit(record("a.1"))
    catalog.tag("a.1", "validated")
    catalog.deposit(record("a.2"))
    assert [r.product_id for r in catalog.search(tags={"validated"})] == ["a.1"]
    assert len(catalog.search(tags={"fdw"})) == 2


def test_search_by_range():
    catalog = DataCatalog()
    catalog.deposit(record("a.1", mw=7.6))
    catalog.deposit(record("a.2", mw=8.4))
    catalog.deposit(record("a.3", mw=9.1))
    hits = catalog.search(ranges={"mw": (8.0, 9.0)})
    assert [r.product_id for r in hits] == ["a.2"]


def test_search_range_ignores_non_numeric():
    catalog = DataCatalog()
    catalog.deposit(record("a.1", mw="big"))
    assert catalog.search(ranges={"mw": (0.0, 10.0)}) == []


def test_search_by_exact_metadata():
    catalog = DataCatalog()
    catalog.deposit(record("a.1", region="chile"))
    catalog.deposit(record("a.2", region="cascadia"))
    assert [r.product_id for r in catalog.search(region="chile")] == ["a.1"]


def test_search_results_sorted():
    catalog = DataCatalog()
    for pid in ("z.9", "a.1", "m.5"):
        catalog.deposit(record(pid))
    assert [r.product_id for r in catalog.search()] == ["a.1", "m.5", "z.9"]


def test_kinds_counts():
    catalog = DataCatalog()
    catalog.deposit(record("a.1", kind="waveforms"))
    catalog.deposit(record("a.2", kind="waveforms"))
    catalog.deposit(record("a.3", kind="gf_bank"))
    assert catalog.kinds() == {"waveforms": 2, "gf_bank": 1}


def test_save_load_roundtrip(tmp_path):
    catalog = DataCatalog()
    catalog.deposit(record("a.1", mw=8.0))
    catalog.tag("a.1", "validated")
    path = catalog.save(tmp_path / "catalog.json")
    back = DataCatalog.load(path)
    assert len(back) == 1
    rec = back.get("a.1")
    assert rec.tags == catalog.get("a.1").tags
    assert rec.metadata == catalog.get("a.1").metadata


def test_load_missing(tmp_path):
    with pytest.raises(CatalogError):
        DataCatalog.load(tmp_path / "nope.json")


def test_load_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CatalogError):
        DataCatalog.load(path)


def test_load_malformed_record(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"product_id": "x"}]')
    with pytest.raises(CatalogError):
        DataCatalog.load(path)


def test_search_range_excludes_bool():
    """Regression: True/False metadata must never hit a numeric range
    (bool is an int subclass, so 0.0 <= True <= 10.0 used to match)."""
    catalog = DataCatalog()
    catalog.deposit(record("a.1", validated=True))
    catalog.deposit(record("a.2", validated=1))
    hits = catalog.search(ranges={"validated": (0.0, 10.0)})
    assert [r.product_id for r in hits] == ["a.2"]


def test_save_writes_sha256_sidecar(tmp_path):
    from repro.integrity import digest_path, sha256_bytes

    path = DataCatalog().save(tmp_path / "catalog.json")
    side = digest_path(path)
    assert side.exists()
    assert sha256_bytes(path.read_bytes()) in side.read_text()
    # No temp droppings from the atomic write.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "catalog.json",
        "catalog.json.sha256",
    ]


def test_load_quarantines_corrupt_catalog(tmp_path):
    """Regression: a catalog whose bytes no longer match its sidecar is
    quarantined and the load fails loudly, instead of parsing (or
    crashing on) torn records."""
    catalog = DataCatalog()
    catalog.deposit(record("a.1"))
    path = catalog.save(tmp_path / "catalog.json")
    path.write_text(path.read_text()[:-20])  # torn write
    with pytest.raises(CatalogError, match="integrity"):
        DataCatalog.load(path)
    assert not path.exists()  # moved aside, never served again
    quarantined = list((tmp_path / "quarantine").iterdir())
    assert any(p.name.startswith("catalog.json") for p in quarantined)


def test_load_rejects_string_tags(tmp_path):
    """Regression: a bare-string ``tags`` used to explode into
    per-character tags through frozenset(); now it is a clear error."""
    import json

    from repro.integrity import write_artifact

    payload = [
        {
            "product_id": "a.1",
            "kind": "waveforms",
            "site": "s",
            "size_mb": 1.0,
            "tags": "chile",
            "metadata": {},
        }
    ]
    path = tmp_path / "catalog.json"
    write_artifact(path, json.dumps(payload).encode())
    with pytest.raises(CatalogError, match="tags must be a list"):
        DataCatalog.load(path)


def test_load_rejects_non_dict_metadata(tmp_path):
    import json

    from repro.integrity import write_artifact

    payload = [
        {
            "product_id": "a.1",
            "kind": "waveforms",
            "site": "s",
            "size_mb": 1.0,
            "tags": [],
            "metadata": [["mw", 8.0]],
        }
    ]
    path = tmp_path / "catalog.json"
    write_artifact(path, json.dumps(payload).encode())
    with pytest.raises(CatalogError, match="metadata must be an object"):
        DataCatalog.load(path)


def test_load_rejects_non_object_record(tmp_path):
    import json

    from repro.integrity import write_artifact

    path = tmp_path / "catalog.json"
    write_artifact(path, json.dumps(["not-a-record"]).encode())
    with pytest.raises(CatalogError, match="expected an object"):
        DataCatalog.load(path)


@pytest.mark.parametrize("tags", [["validated"], ("validated",), iter(["validated"])])
def test_search_accepts_any_iterable_of_tags(tags):
    """Regression: a list or tuple of tags used to raise a raw TypeError
    from the ``<=`` subset test."""
    catalog = DataCatalog()
    catalog.deposit(record("a.1"))
    catalog.tag("a.1", "validated")
    catalog.deposit(record("a.2"))
    assert [r.product_id for r in catalog.search(tags=tags)] == ["a.1"]


@pytest.mark.parametrize("tags", ["fdw", ["fdw", 3], [["fdw"]], 5])
def test_search_rejects_malformed_tags(tags):
    """A bare string (not read as its characters), a non-str member or a
    non-iterable is a CatalogError, not a raw TypeError."""
    catalog = DataCatalog()
    catalog.deposit(record("a.1"))
    with pytest.raises(CatalogError, match="tags"):
        catalog.search(tags=tags)

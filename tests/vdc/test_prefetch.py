"""Tests for repro.vdc.prefetch — intelligent data delivery."""

import pytest

from repro.errors import StorageError
from repro.vdc.catalog import DataCatalog, ProductRecord
from repro.vdc.prefetch import PrefetchService, QueryEvent
from repro.vdc.storage import FederatedStorage, StorageSite


@pytest.fixture()
def services():
    catalog = DataCatalog()
    storage = FederatedStorage(
        [
            StorageSite("origin", capacity_mb=10000.0),
            StorageSite("home", capacity_mb=10000.0),
            StorageSite("tiny", capacity_mb=5.0),
        ]
    )
    for i, (kind, tags, mw) in enumerate(
        [
            ("waveforms", {"chile"}, 8.0),
            ("waveforms", {"cascadia"}, 8.5),
            ("ruptures", {"chile"}, 8.0),
            ("gf_bank", {"chile"}, 0.0),
        ]
    ):
        record = ProductRecord(
            product_id=f"p.{i}",
            kind=kind,
            site="origin",
            size_mb=10.0,
            tags=frozenset(tags),
            metadata={"mw": mw},
        )
        catalog.deposit(record)
        storage.store(record.product_id, record.size_mb, "origin")
    return catalog, storage, PrefetchService(catalog, storage)


def test_no_trace_no_prediction(services):
    _, _, svc = services
    assert svc.predict("home") == []
    assert svc.prefetch("home") == []


def test_predicts_matching_kind_and_tags(services):
    _, _, svc = services
    svc.record_query(QueryEvent(home_site="home", kind="waveforms", tags=frozenset({"chile"})))
    predictions = svc.predict("home", top=2)
    assert predictions
    assert predictions[0].product_id == "p.0"  # chile waveforms scores highest


def test_recency_weighting(services):
    _, _, svc = services
    # Old interest: chile; new interest: cascadia.
    svc.record_query(QueryEvent(home_site="home", kind="waveforms", tags=frozenset({"chile"})))
    svc.record_query(QueryEvent(home_site="home", kind="waveforms", tags=frozenset({"cascadia"})))
    predictions = svc.predict("home", top=1)
    assert predictions[0].product_id == "p.1"


def test_prefetch_replicates(services):
    _, storage, svc = services
    svc.record_query(QueryEvent(home_site="home", kind="waveforms", tags=frozenset({"chile"})))
    placed = svc.prefetch("home", top=1)
    assert placed == ["p.0"]
    assert "home" in storage.replicas("p.0")


def test_prefetch_excludes_already_local(services):
    _, storage, svc = services
    storage.replicate("p.0", "home")
    svc.record_query(QueryEvent(home_site="home", kind="waveforms", tags=frozenset({"chile"})))
    predictions = svc.predict("home", top=4)
    assert all(p.product_id != "p.0" for p in predictions)


def test_prefetch_skips_over_capacity(services):
    _, storage, svc = services
    svc.record_query(QueryEvent(home_site="tiny", kind="waveforms", tags=frozenset({"chile"})))
    placed = svc.prefetch("tiny", top=2)
    assert placed == []  # 10 MB products do not fit a 5 MB site
    assert storage.usage_mb("tiny") == 0.0


def test_trace_bounded(services):
    catalog, storage, _ = services
    svc = PrefetchService(catalog, storage, history=2)
    for i in range(5):
        svc.record_query(QueryEvent(home_site="home", kind="waveforms"))
    assert len(svc.trace_for("home")) == 2


def test_validation(services):
    catalog, storage, svc = services
    with pytest.raises(StorageError):
        PrefetchService(catalog, storage, history=0)
    with pytest.raises(StorageError):
        svc.record_query(QueryEvent(home_site="nope"))
    with pytest.raises(StorageError):
        svc.predict("home", top=0)


def test_portal_records_queries_and_prefetches():
    from repro.core.config import FdwConfig
    from repro.osg.capacity import FixedCapacity
    from repro.vdc.portal import Portal

    portal = Portal(capacity=FixedCapacity(8))
    config = FdwConfig(n_waveforms=8, n_stations=3, mesh=(8, 5), name="pf")
    run = portal.launch(config, user="alice", deposit_site="vdc-utah", seed=2)
    # A researcher at PSU searches twice; the prefetcher learns.
    portal.discover(home_site="vdc-psu", kind="waveforms", tags={"fdw"})
    portal.discover(home_site="vdc-psu", kind="waveforms", tags={"fdw"})
    placed = portal.prefetcher.prefetch("vdc-psu", top=1)
    waveforms_id = next(p for p in run.product_ids if p.endswith("waveforms"))
    assert placed == [waveforms_id]
    # The prefetched product now retrieves at local speed.
    fast = portal.retrieve(waveforms_id, "vdc-psu")
    assert fast < 1.0


def test_range_queries_score_in_range_products(services):
    """Regression: range constraints — the most selective query type —
    used to be dropped on the floor by the scorer; a site querying
    mw in [8.3, 9.0] must get the in-range product predicted first."""
    _, _, svc = services
    svc.record_query(QueryEvent(home_site="home", ranges={"mw": (8.3, 9.0)}))
    predictions = svc.predict("home", top=2)
    assert predictions
    assert predictions[0].product_id == "p.1"  # mw=8.5, the only in-range hit


def test_range_scoring_skips_bool_metadata(services):
    catalog, _, svc = services
    catalog.annotate("p.0", flagged=True)
    catalog.annotate("p.1", flagged=1)
    svc.record_query(QueryEvent(home_site="home", ranges={"flagged": (0.0, 2.0)}))
    predictions = svc.predict("home", top=2)
    assert [p.product_id for p in predictions] == ["p.1"]


def test_portal_discover_records_ranges():
    """Regression: Portal.discover forwarded ranges to the catalog but
    recorded a QueryEvent without them, blinding the prefetcher."""
    from repro.core.config import FdwConfig
    from repro.osg.capacity import FixedCapacity
    from repro.vdc.portal import Portal

    portal = Portal(capacity=FixedCapacity(8))
    config = FdwConfig(n_waveforms=8, n_stations=3, mesh=(8, 5), name="rg")
    run = portal.launch(config, user="alice", seed=4)
    portal.discover(
        home_site="vdc-psu", kind="waveforms", ranges={"n_waveforms": (4, 16)}
    )
    trace = portal.prefetcher.trace_for("vdc-psu")
    assert trace[-1].ranges == {"n_waveforms": (4, 16)}
    placed = portal.prefetcher.prefetch("vdc-psu", top=1)
    assert placed == [next(p for p in run.product_ids if "waveforms" in p)]


def test_prefetch_materializes_bank_products(tmp_path, small_gf_bank):
    """A predicted GF bank is not just replica-marked: its bytes land in
    the artifact cache's disk store (the durable prefetch)."""
    from repro.core.gfcache import GFCache

    catalog = DataCatalog()
    storage = FederatedStorage(
        [StorageSite("origin"), StorageSite("home")],
        artifact_cache=GFCache(cache_dir=tmp_path / "gfstore"),
    )
    record = ProductRecord(
        product_id="w_gf.mseed.npz",
        kind="gf_bank",
        site="origin",
        size_mb=1.0,
        tags=frozenset({"chile"}),
    )
    catalog.deposit(record)
    storage.store_bank(record.product_id, small_gf_bank, "origin")
    service = PrefetchService(catalog, storage)
    service.record_query(QueryEvent(home_site="home", kind="gf_bank"))
    placed = service.prefetch("home")
    assert placed == ["w_gf.mseed.npz"]
    assert "home" in storage.replicas("w_gf.mseed.npz")
    on_disk = list((tmp_path / "gfstore").glob("gf_*.npz"))
    assert len(on_disk) == 1


def test_discover_rejects_string_tags_without_recording():
    """Regression: ``tags="fdw"`` used to be recorded in the prefetch
    trace as the tags {'f', 'd', 'w'} before the search crashed; it is
    now rejected before the query is recorded."""
    from repro.errors import CatalogError
    from repro.vdc.portal import Portal

    portal = Portal()
    with pytest.raises(CatalogError, match="tags"):
        portal.discover("vdc-psu", tags="fdw")
    assert portal.prefetcher.trace_for("vdc-psu") == []


def test_discover_normalizes_iterable_tags():
    from repro.vdc.catalog import ProductRecord
    from repro.vdc.portal import Portal

    portal = Portal()
    portal.catalog.deposit(
        ProductRecord("p.1", "waveforms", "vdc-psu", 1.0, tags=frozenset({"fdw"}))
    )
    hits = portal.discover("vdc-psu", kind="waveforms", tags=["fdw"])
    assert [r.product_id for r in hits] == ["p.1"]
    assert portal.prefetcher.trace_for("vdc-psu")[0].tags == frozenset({"fdw"})

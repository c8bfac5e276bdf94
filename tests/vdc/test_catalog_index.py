"""The posting-indexed ``DataCatalog.search`` against the linear-scan oracle."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError
from repro.vdc.catalog import DataCatalog, ProductRecord
from tests.oracles.catalog_scan import scan_search

IDS = [f"p.{i}" for i in range(6)]
KINDS = ["waveforms", "ruptures", "gf_bank"]
TAGS = ["fdw", "chile", "user:a", "user:b"]


def metadata(min_size: int = 0):
    return st.dictionaries(
        st.sampled_from(["mw", "n_stations", "flag", "region"]),
        st.one_of(
            st.floats(min_value=7.0, max_value=9.5, allow_nan=False),
            st.integers(min_value=0, max_value=8),
            st.booleans(),
            st.sampled_from(["chile", "cascadia"]),
        ),
        min_size=min_size,
        max_size=3,
    )


tag_sets = st.frozensets(st.sampled_from(TAGS), max_size=3)
# Curation steps always change something, so each one tests the postings.
new_tags = st.frozensets(st.sampled_from(TAGS), min_size=1, max_size=2)

steps = st.one_of(
    st.tuples(
        st.just("deposit"), st.sampled_from(IDS), st.sampled_from(KINDS),
        tag_sets, metadata(),
    ),
    st.tuples(st.just("tag"), st.sampled_from(IDS), new_tags),
    st.tuples(st.just("annotate"), st.sampled_from(IDS), metadata(min_size=1)),
    st.tuples(st.just("withdraw"), st.sampled_from(IDS)),
    st.tuples(st.just("reload")),
)


def _query(kind, tags, ranges, exact) -> dict:
    query = dict(exact)
    for key, value in (("kind", kind), ("tags", tags), ("ranges", ranges)):
        if value is not None:
            query[key] = value
    return query


# Each part is absent half the time, so most queries still match
# something; "unknown" and "nope" never appear in a record.
queries = st.builds(
    _query,
    kind=st.none() | st.sampled_from(KINDS + ["unknown"]),
    tags=st.none() | st.frozensets(st.sampled_from(TAGS + ["nope"]), max_size=2),
    ranges=st.none()
    | st.dictionaries(
        st.sampled_from(["mw", "n_stations", "flag"]),
        st.tuples(st.floats(0.0, 9.0), st.floats(0.0, 10.0)),
        max_size=1,
    ),
    exact=st.dictionaries(
        st.sampled_from(["region", "flag", "n_stations"]),
        st.sampled_from(["chile", True, False, 4]),
        max_size=1,
    ),
)


def apply(catalog: DataCatalog, step: tuple, workdir: Path) -> DataCatalog:
    """Apply one step; a step the catalog must refuse raises CatalogError."""
    op, *args = step
    if op == "deposit":
        pid, kind, tags, meta = args
        record = ProductRecord(pid, kind, "site-a", 1.0, tags=tags, metadata=meta)
        if pid in catalog:
            with pytest.raises(CatalogError):
                catalog.deposit(record)
        else:
            catalog.deposit(record)
    elif op == "reload":
        return DataCatalog.load(catalog.save(workdir / "catalog.json"))
    elif args[0] not in catalog:
        with pytest.raises(CatalogError):
            getattr(catalog, op)(*args[:1])
    elif op == "tag":
        catalog.tag(args[0], *args[1])
    elif op == "annotate":
        catalog.annotate(args[0], **args[1])
    else:
        catalog.withdraw(args[0])
    return catalog


#: Checked after every step, so an index that drifts from the records
#: fails on the first state that exposes it, whatever queries were drawn.
PANEL = (
    [{}, {"tags": frozenset()}]
    + [{"kind": kind} for kind in KINDS + ["unknown"]]
    + [{"tags": {tag}} for tag in TAGS + ["nope"]]
    + [{"kind": kind, "tags": {tag}} for kind in KINDS for tag in TAGS]
    + [{"tags": {"fdw", "chile"}}, {"ranges": {"mw": (7.0, 9.5)}}, {"flag": True}]
)


def assert_matches_oracle(catalog: DataCatalog, query_list: list[dict]) -> None:
    for query in PANEL + query_list:
        assert catalog.search(**query) == scan_search(catalog, **query), query
    counts: dict[str, int] = {}
    for record in scan_search(catalog):
        counts[record.kind] = counts.get(record.kind, 0) + 1
    assert catalog.kinds() == counts


@given(
    step_list=st.lists(steps, min_size=1, max_size=25),
    query_list=st.lists(queries, min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_indexed_search_matches_linear_scan(step_list, query_list):
    with tempfile.TemporaryDirectory() as tmp:
        catalog = DataCatalog()
        for step in step_list:
            catalog = apply(catalog, step, Path(tmp))
            assert_matches_oracle(catalog, query_list)


def test_withdrawn_then_redeposited_id_is_reindexed(tmp_path):
    catalog = DataCatalog()
    catalog.deposit(ProductRecord("p.1", "waveforms", "s", 1.0, tags=frozenset({"fdw"})))
    catalog.tag("p.1", "chile")
    catalog.withdraw("p.1")
    assert catalog.search(kind="waveforms") == []
    assert catalog.search(tags={"chile"}) == []
    assert catalog.kinds() == {}
    catalog.deposit(ProductRecord("p.1", "gf_bank", "s", 1.0, tags=frozenset({"user:a"})))
    for c in (catalog, DataCatalog.load(catalog.save(tmp_path / "c.json"))):
        assert [r.product_id for r in c.search(kind="gf_bank", tags={"user:a"})] == ["p.1"]
        assert c.search(kind="waveforms") == []
        assert c.search(tags={"fdw"}) == c.search(tags={"chile"}) == []
        assert c.search(kind="gf_bank", tags=set()) == scan_search(c, kind="gf_bank", tags=set())

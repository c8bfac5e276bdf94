"""Oracle: the linear-scan ``DataCatalog.search`` the posting index replaced.

The body below is the scan as it shipped before the catalog kept
kind/tag postings, frozen here so the property tests can check the
indexed search against it on arbitrary catalogs. Only the record source
changed: it reads the catalog's records instead of ``self._records``.
"""

from __future__ import annotations

from repro.vdc.catalog import DataCatalog, ProductRecord


def scan_search(
    catalog: DataCatalog,
    kind: str | None = None,
    tags: set[str] | None = None,
    ranges: dict[str, tuple[float, float]] | None = None,
    **exact: object,
) -> list[ProductRecord]:
    """Every record of ``catalog`` matching the query, by a full scan."""
    out = []
    for record in catalog._records.values():
        if kind is not None and record.kind != kind:
            continue
        if tags is not None and not tags <= record.tags:
            continue
        if ranges:
            ok = True
            for key, (lo, hi) in ranges.items():
                value = record.metadata.get(key)
                # bool is an int subclass but True/False matching a
                # numeric range is always a type confusion, not a hit.
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not (lo <= value <= hi)
                ):
                    ok = False
                    break
            if not ok:
                continue
        if any(record.metadata.get(k) != v for k, v in exact.items()):
            continue
        out.append(record)
    return sorted(out, key=lambda r: r.product_id)

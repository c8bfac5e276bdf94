"""The VDC data catalog: deposition, curation, tagging, discovery.

VDC "enables data deposition, curation, and tagging with metadata,
allowing synthetic data products to be accessed more easily and timely
for training EEW models" (paper §6). The catalog is an in-memory,
JSON-persistable index of :class:`ProductRecord` entries with free-form
tags and typed metadata, plus a small query language (exact match,
ranges on numeric fields, tag subsets).

Discovery costs what it returns, not what the catalog holds: the
catalog keeps postings (id lists) per kind, per tag and per (kind, tag)
pair, a query intersects the postings it names (smallest first), and
only the surviving candidates are sorted and checked against ``ranges``
and exact-match metadata.

Persistence goes through :mod:`repro.integrity`: :meth:`DataCatalog.save`
writes the JSON via temp-then-rename with a sha256 sidecar, and
:meth:`DataCatalog.load` verifies the digest before parsing, quarantining
a corrupt file instead of silently serving (or crashing on) torn records
— the catalog is community metadata, the one artifact the federation
cannot rebuild from source.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import CatalogError, IntegrityError
from repro.integrity import quarantine_artifact, read_verified, write_artifact

__all__ = ["ProductRecord", "DataCatalog", "normalize_tags"]

_ID_RE = re.compile(r"^[A-Za-z0-9._\-]{1,128}$")


def normalize_tags(tags: object) -> frozenset[str] | None:
    """A query's ``tags=`` as a ``frozenset`` of strings (``None`` stays).

    Any iterable of ``str`` is accepted. A bare string is rejected
    rather than read as its characters, and so is any non-``str``
    member.
    """
    if tags is None:
        return None
    if isinstance(tags, str):
        raise CatalogError(
            f"tags must be an iterable of strings, not the string {tags!r}"
        )
    try:
        normalized = frozenset(tags)  # type: ignore[arg-type]
    except TypeError as exc:
        raise CatalogError(f"tags must be an iterable of strings: {exc}") from None
    for tag in normalized:
        if not isinstance(tag, str):
            raise CatalogError(f"tags must be strings, got {tag!r}")
    return normalized


#: A posting key: ``(kind, None)``, ``(None, tag)`` or ``(kind, tag)``.
#: Kinds are never empty and tags are strings, so the forms never collide.
_Key = tuple["str | None", "str | None"]


def _in_ranges(metadata: dict, ranges: dict[str, tuple[float, float]]) -> bool:
    """Whether every ranged metadata value is a number inside its range."""
    for key, (lo, hi) in ranges.items():
        value = metadata.get(key)
        # bool is an int subclass but True/False matching a numeric
        # range is always a type confusion, not a hit.
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not (lo <= value <= hi)
        ):
            return False
    return True


@dataclass(frozen=True, slots=True)
class ProductRecord:
    """One curated data product.

    Attributes
    ----------
    product_id:
        Unique catalog identifier (e.g. ``"chile_slab.000042.waveforms"``).
    kind:
        Product class: ``"waveforms"``, ``"ruptures"``, ``"gf_bank"``...
    site:
        Storage site holding the primary replica.
    size_mb:
        Payload size.
    tags:
        Free-form curation tags (``frozenset``).
    metadata:
        Typed attributes (magnitude, station count, region...).
    provenance:
        Where the product came from (workflow name, run id).
    """

    product_id: str
    kind: str
    site: str
    size_mb: float
    tags: frozenset[str] = frozenset()
    metadata: dict = field(default_factory=dict)
    provenance: str = ""

    def __post_init__(self) -> None:
        if not _ID_RE.match(self.product_id):
            raise CatalogError(f"invalid product id {self.product_id!r}")
        if not self.kind:
            raise CatalogError(f"{self.product_id}: kind must be non-empty")
        if self.size_mb < 0:
            raise CatalogError(f"{self.product_id}: negative size")


class DataCatalog:
    """In-memory catalog with persistence and indexed queries."""

    def __init__(self) -> None:
        self._records: dict[str, ProductRecord] = {}
        #: Postings, ``{id: record}`` per :data:`_Key`, kept current by
        #: every mutation; an emptied posting is dropped. A posting
        #: iterates in deposit order and hands back the current record
        #: of each id (see :meth:`search`). The (kind, tag) postings
        #: answer the portal's usual query, one kind and one tag,
        #: without a membership test per candidate. Reads use ``get``,
        #: so only a deposit creates a posting.
        self._postings: defaultdict[_Key, dict[str, ProductRecord]] = (
            defaultdict(dict)
        )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, product_id: object) -> bool:
        return product_id in self._records

    # -- postings ----------------------------------------------------------------

    def _post(self, record: ProductRecord) -> None:
        """Store ``record`` under its id and in each of its postings:
        its kind's, and each of its tags' alone and paired with the kind.

        Re-posting an updated record keeps each id's place in deposit
        order.
        """
        product_id = record.product_id
        kind = record.kind
        self._records[product_id] = record
        postings = self._postings
        postings[kind, None][product_id] = record
        for tag in record.tags:
            postings[None, tag][product_id] = record
            postings[kind, tag][product_id] = record

    def _unpost(self, record: ProductRecord) -> None:
        """Remove ``record`` from the catalog and from its postings."""
        product_id = record.product_id
        kind = record.kind
        del self._records[product_id]
        self._drop((kind, None), product_id)
        for tag in record.tags:
            self._drop((None, tag), product_id)
            self._drop((kind, tag), product_id)

    def _drop(self, key: _Key, product_id: str) -> None:
        """Remove an id from one posting; an emptied posting goes."""
        posting = self._postings[key]
        del posting[product_id]
        if not posting:
            del self._postings[key]

    # -- deposition / curation ----------------------------------------------

    def deposit(self, record: ProductRecord) -> None:
        """Add a new product; duplicate ids are an error."""
        if record.product_id in self._records:
            raise CatalogError(f"duplicate product id {record.product_id!r}")
        self._post(record)

    def get(self, product_id: str) -> ProductRecord:
        """Fetch a record by id."""
        try:
            return self._records[product_id]
        except KeyError:
            raise CatalogError(f"no product {product_id!r}") from None

    def tag(self, product_id: str, *tags: str) -> ProductRecord:
        """Curation: add tags to an existing product."""
        record = self.get(product_id)
        updated = replace(record, tags=record.tags | set(tags))
        self._post(updated)
        return updated

    def annotate(self, product_id: str, **metadata: object) -> ProductRecord:
        """Curation: merge metadata keys into an existing product."""
        record = self.get(product_id)
        merged = dict(record.metadata)
        merged.update(metadata)
        updated = replace(record, metadata=merged)
        self._post(updated)
        return updated

    def withdraw(self, product_id: str) -> None:
        """Remove a product from the catalog."""
        self._unpost(self.get(product_id))

    # -- discovery -------------------------------------------------------------

    def search(
        self,
        kind: str | None = None,
        tags: Iterable[str] | None = None,
        ranges: dict[str, tuple[float, float]] | None = None,
        **exact: object,
    ) -> list[ProductRecord]:
        """Query the catalog.

        Parameters
        ----------
        kind:
            Restrict to a product class.
        tags:
            Require all of these tags (any iterable of strings; see
            :func:`normalize_tags`).
        ranges:
            ``{"mw": (8.0, 9.0)}`` — inclusive numeric metadata ranges.
        exact:
            Exact-match metadata constraints.

        ``kind`` and ``tags`` name postings: one per tag (paired with
        ``kind`` when given), or the kind's own. The smallest, filtered
        by membership in the others, gives the candidates; ``ranges``
        and ``exact`` then filter only those. Results are sorted by
        product id for determinism; candidates come in deposit order, so
        when ids are deposited roughly in id order (the portal's
        zero-padded run ids) that sort is a near-linear merge.
        """
        tags = normalize_tags(tags)
        if tags:
            keys: list[_Key] = [(kind, tag) for tag in tags]
        else:
            keys = [(kind, None)] if kind is not None else []
        postings = sorted((self._postings.get(key, {}) for key in keys), key=len)
        candidates = postings[0] if postings else self._records
        ids: Iterable[str] = candidates
        for other in postings[1:]:
            ids = filter(other.__contains__, ids)
        records = list(map(candidates.__getitem__, sorted(ids)))
        if ranges:
            records = [r for r in records if _in_ranges(r.metadata, ranges)]
        if exact:
            records = [
                r
                for r in records
                if not any(r.metadata.get(k) != v for k, v in exact.items())
            ]
        return records

    def kinds(self) -> dict[str, int]:
        """Product counts by kind."""
        return {
            kind: len(ids)
            for (kind, tag), ids in self._postings.items()
            if tag is None
        }

    # -- persistence --------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the catalog as JSON, atomically.

        The payload is written temp-then-rename with a sha256 sidecar
        (:func:`repro.integrity.write_artifact`), so a crash mid-save
        leaves either the previous catalog or the new one — never a
        torn file — and :meth:`load` can verify what it reads.
        """
        path = Path(path)
        payload = [
            {
                "product_id": r.product_id,
                "kind": r.kind,
                "site": r.site,
                "size_mb": r.size_mb,
                "tags": sorted(r.tags),
                "metadata": r.metadata,
                "provenance": r.provenance,
            }
            for r in sorted(self._records.values(), key=lambda r: r.product_id)
        ]
        write_artifact(path, json.dumps(payload, indent=2).encode("utf-8"))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DataCatalog":
        """Load a catalog saved by :meth:`save`, verifying its digest.

        A file that fails its sidecar check is quarantined
        (:func:`repro.integrity.quarantine_artifact`) and the load
        raises :class:`~repro.errors.CatalogError` — unlike cache
        entries, a catalog has no rebuild-from-source, so the caller
        must restore from a replica or re-deposit. Files without a
        sidecar (pre-integrity saves) load unverified.
        """
        path = Path(path)
        if not path.exists():
            raise CatalogError(f"catalog file not found: {path}")
        try:
            data = read_verified(path)
        except IntegrityError as exc:
            quarantined = quarantine_artifact(path, reason=str(exc))
            raise CatalogError(
                f"{path}: failed its integrity check ({exc}); "
                f"quarantined to {quarantined}"
            ) from exc
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CatalogError(f"{path}: invalid JSON: {exc}") from exc
        catalog = cls()
        for item in payload:
            if not isinstance(item, dict):
                raise CatalogError(
                    f"{path}: malformed record: expected an object, "
                    f"got {type(item).__name__}"
                )
            tags = item.get("tags", [])
            if not isinstance(tags, list) or not all(
                isinstance(t, str) for t in tags
            ):
                # A bare string would silently explode into per-character
                # tags through frozenset(); reject it loudly instead.
                raise CatalogError(
                    f"{path}: malformed record "
                    f"{item.get('product_id', '?')!r}: tags must be a "
                    f"list of strings, got {tags!r}"
                )
            metadata = item.get("metadata", {})
            if not isinstance(metadata, dict):
                raise CatalogError(
                    f"{path}: malformed record "
                    f"{item.get('product_id', '?')!r}: metadata must be "
                    f"an object, got {type(metadata).__name__}"
                )
            try:
                catalog.deposit(
                    ProductRecord(
                        product_id=item["product_id"],
                        kind=item["kind"],
                        site=item["site"],
                        size_mb=float(item["size_mb"]),
                        tags=frozenset(tags),
                        metadata=metadata,
                        provenance=item.get("provenance", ""),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CatalogError(f"{path}: malformed record: {exc}") from exc
        return catalog

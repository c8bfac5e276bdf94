"""Exporters: Chrome ``trace_event`` JSON, Prometheus text, human summary.

Three views of one observed run:

* :func:`chrome_trace` / :func:`dump_chrome_trace` — the Chrome
  ``trace_event`` JSON object format (``{"traceEvents": [...]}``),
  loadable in ``about:tracing`` and Perfetto. Tracks become named
  threads (one per DAGMan, per portal tenant); times are exported in
  microseconds as the format requires.
* :func:`prometheus_text` / :func:`parse_prometheus_text` — the
  Prometheus text exposition format for the metrics registry, plus a
  strict parser used by the round-trip tests and the CI smoke step.
* :func:`render_summary` — a terminal digest built on
  :mod:`repro.reporting` (tables + sparklines), behind
  ``repro obs summary``.

Every exporter is deterministic: series sorted, label order canonical,
floats formatted by ``repr`` — so a byte-identical trace/registry in
produces byte-identical text out.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping

from repro.errors import ObsError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import PH_COMPLETE, PH_INSTANT, Tracer
from repro.reporting import render_table, sparkline

__all__ = [
    "chrome_trace",
    "dump_chrome_trace",
    "validate_chrome_trace",
    "prometheus_text",
    "parse_prometheus_text",
    "render_summary",
    "service_timeline",
]


# -- Chrome trace_event ----------------------------------------------------


def chrome_trace(tracer: Tracer) -> dict:
    """Convert a tracer's events into a Chrome trace_event JSON object.

    Tracks map to thread ids in first-appearance order and are named via
    ``thread_name`` metadata events, so Perfetto shows ``dagman:fdw64``
    or ``tenant:uw-seismo`` instead of bare tids.
    """
    tid_of = {track: i + 1 for i, track in enumerate(tracer.tracks())}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for track, tid in tid_of.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        })
    for ev in tracer.events:
        rec: dict = {
            "name": ev.name,
            "cat": ev.category or "repro",
            "ph": ev.phase,
            "pid": 1,
            "tid": tid_of[ev.track],
            "ts": round(ev.ts * 1e6, 3),
        }
        if ev.phase == PH_COMPLETE:
            rec["dur"] = round(ev.dur * 1e6, 3)
        elif ev.phase == PH_INSTANT:
            rec["s"] = "t"
        if ev.args:
            rec["args"] = ev.args
        events.append(rec)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_chrome_trace(tracer: Tracer) -> str:
    """Canonical (byte-stable) JSON text of :func:`chrome_trace`."""
    return json.dumps(
        chrome_trace(tracer), sort_keys=True, separators=(",", ":")
    ) + "\n"


_VALID_PHASES = {"X", "i", "M", "B", "E", "C"}


def validate_chrome_trace(doc: object) -> int:
    """Schema-check a parsed Chrome trace; returns the event count.

    Used by the exporter round-trip tests and the CI trace-export smoke
    step. Raises :class:`~repro.errors.ObsError` with the offending
    event index on the first violation.
    """
    if not isinstance(doc, Mapping) or "traceEvents" not in doc:
        raise ObsError("not a Chrome trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ObsError("'traceEvents' must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            raise ObsError(f"event {i}: not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                raise ObsError(f"event {i}: missing {field!r}")
        for field in ("name", "cat"):
            if field in ev and not isinstance(ev[field], str):
                raise ObsError(f"event {i}: {field!r} must be a string")
        if ev["ph"] not in _VALID_PHASES:
            raise ObsError(f"event {i}: unknown phase {ev['ph']!r}")
        if ev["ph"] in ("X", "i") and not isinstance(
            ev.get("ts"), (int, float)
        ):
            raise ObsError(f"event {i}: missing numeric 'ts'")
        if ev["ph"] == "X" and not isinstance(ev.get("dur"), (int, float)):
            raise ObsError(f"event {i}: complete event missing 'dur'")
    return len(events)


# -- portal service timeline (satellite: queue_trace -> tracer) ------------


def service_timeline(trace_events, results=(), tracer: Tracer | None = None) -> Tracer:
    """Convert a :meth:`PortalService.queue_trace` into trace spans.

    The service emits *metrics* live during dispatch; the per-tenant
    *timeline* is reconstructed here after the fact from the audit trace
    (so no event is recorded twice). Each tenant becomes one track:
    submissions and coalescing hits are instant markers, and every
    distinct execution becomes one complete span from its ``start`` to
    its ``finish``/``fail`` event on the owning tenant's track.
    ``results`` (an iterable of ``ServiceResult``) enriches span args
    with the backend that served each run.

    The returned tracer carries the service's *virtual* timestamps
    verbatim, so a seeded demo replays to a byte-identical timeline.
    """
    tracer = tracer if tracer is not None else Tracer()
    backend_of: dict[str, str] = {}
    ticket_entry: dict[str, str] = {}
    for ev in trace_events:
        if ev.ticket_id:
            ticket_entry[ev.ticket_id] = ev.entry_id
    for res in results:
        entry_id = ticket_entry.get(res.ticket_id)
        if entry_id is not None:
            backend_of[entry_id] = res.backend
    started: dict[str, tuple[float, str]] = {}
    for ev in sorted(trace_events, key=lambda e: e.seq):
        track = f"tenant:{ev.tenant}"
        if ev.event in ("submit", "coalesce"):
            tracer.instant(
                f"{ev.event}:{ev.ticket_id}",
                ts=ev.time,
                category="portal",
                track=track,
                args={"entry": ev.entry_id},
            )
        elif ev.event == "start":
            started[ev.entry_id] = (ev.time, track)
        elif ev.event in ("finish", "fail"):
            start = started.pop(ev.entry_id, None)
            if start is None:
                raise ObsError(
                    f"queue trace: {ev.event!r} for {ev.entry_id!r} "
                    f"without a matching 'start'"
                )
            t0, track0 = start
            args: dict[str, object] = {"outcome": ev.event}
            backend = backend_of.get(ev.entry_id)
            if backend is not None:
                args["backend"] = backend
            tracer.complete(
                f"run:{ev.entry_id}",
                ts=t0,
                dur=max(0.0, ev.time - t0),
                category="portal",
                track=track0,
                args=args,
            )
    return tracer


# -- Prometheus text exposition --------------------------------------------


def _fmt_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_label(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    snap = registry.snapshot()
    for name, entry in snap.items():
        kind = entry["type"]
        lines.append(f"# TYPE {name} {kind}")
        for series in entry["series"]:
            labels = series["labels"]
            if kind == "histogram":
                cum = 0
                for bound, count in zip(series["buckets"], series["counts"]):
                    cum += count
                    le = dict(labels)
                    le["le"] = _fmt_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_render_labels(le)} {cum}"
                    )
                cum += series["counts"][-1]
                inf = dict(labels)
                inf["le"] = "+Inf"
                lines.append(f"{name}_bucket{_render_labels(inf)} {cum}")
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_fmt_value(series['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {series['count']}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_fmt_value(series['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


_TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? ([^ ]+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label(v: str) -> str:
    return v.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_prometheus_text(text: str) -> dict:
    """Strict parse of exposition text back into ``{"types", "samples"}``.

    ``samples`` maps ``(sample_name, ((label, value), ...))`` to a
    float. Raises :class:`~repro.errors.ObsError` on any malformed line
    — this is the round-trip check, not a lenient scraper.
    """
    types: dict[str, str] = {}
    samples: dict[tuple[str, tuple], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _TYPE_RE.match(line)
            if m:
                types[m.group(1)] = m.group(2)
                continue
            if line.startswith("# HELP"):
                continue
            raise ObsError(f"line {lineno}: malformed comment {raw!r}")
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ObsError(f"line {lineno}: malformed sample {raw!r}")
        name, label_body, value_text = m.groups()
        labels: list[tuple[str, str]] = []
        if label_body:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(label_body):
                labels.append((pair.group(1), _unescape_label(pair.group(2))))
                consumed = pair.end()
                if consumed < len(label_body) and label_body[consumed] == ",":
                    consumed += 1
            if consumed != len(label_body):
                raise ObsError(f"line {lineno}: malformed labels {raw!r}")
        try:
            if value_text == "+Inf":
                value = float("inf")
            elif value_text == "-Inf":
                value = float("-inf")
            else:
                value = float(value_text)
        except ValueError as exc:
            raise ObsError(f"line {lineno}: bad value {value_text!r}") from exc
        key = (name, tuple(sorted(labels)))
        if key in samples:
            raise ObsError(f"line {lineno}: duplicate sample {raw!r}")
        samples[key] = value
    return {"types": types, "samples": samples}


# -- human summary ---------------------------------------------------------


def _histograms_from_samples(parsed: Mapping) -> dict:
    """Rebuild per-series histograms from parsed exposition samples."""
    hists: dict[tuple[str, tuple], dict] = {}
    for (name, labels), value in parsed["samples"].items():
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and parsed["types"].get(base) == "histogram":
                plain = tuple(kv for kv in labels if kv[0] != "le")
                h = hists.setdefault(
                    (base, plain), {"buckets": [], "sum": 0.0, "count": 0}
                )
                if suffix == "_bucket":
                    le = dict(labels)["le"]
                    bound = float("inf") if le == "+Inf" else float(le)
                    h["buckets"].append((bound, value))
                elif suffix == "_sum":
                    h["sum"] = value
                else:
                    h["count"] = int(value)
                break
    for h in hists.values():
        h["buckets"].sort(key=lambda bc: bc[0])
    return hists


def render_summary(trace_doc: Mapping | None,
                   metrics_text: str | None = None) -> str:
    """Terminal digest of an exported trace and/or metrics snapshot."""
    sections: list[str] = []

    if trace_doc is not None:
        n_events = validate_chrome_trace(trace_doc)
        spans: dict[tuple[str, str], list[float]] = {}
        instants: dict[tuple[str, str], int] = {}
        for ev in trace_doc["traceEvents"]:
            key = (ev.get("cat", "repro"), ev["name"])
            if ev["ph"] == "X":
                spans.setdefault(key, []).append(float(ev["dur"]) / 1e3)
            elif ev["ph"] == "i":
                instants[key] = instants.get(key, 0) + 1
        sections.append(f"trace: {n_events} events")
        if spans:
            rows = [
                [cat, name, len(durs), sum(durs), sum(durs) / len(durs)]
                for (cat, name), durs in sorted(spans.items())
            ]
            sections.append("spans (durations in ms):")
            sections.append(render_table(
                ["category", "span", "n", "total_ms", "mean_ms"], rows,
                precision=3,
            ))
        if instants:
            rows = [[cat, name, n] for (cat, name), n in sorted(instants.items())]
            sections.append("instant markers:")
            sections.append(render_table(["category", "marker", "n"], rows))

    if metrics_text is not None:
        parsed = parse_prometheus_text(metrics_text)
        scalar_rows = [
            [parsed["types"][name], name + _render_labels(dict(labels)),
             float(value)]
            for (name, labels), value in sorted(parsed["samples"].items())
            if parsed["types"].get(name) in ("counter", "gauge")
        ]
        if scalar_rows:
            sections.append("counters / gauges:")
            sections.append(render_table(["type", "series", "value"],
                                         scalar_rows, precision=3))
        hists = _histograms_from_samples(parsed)
        if hists:
            rows = []
            for (name, labels), h in sorted(hists.items()):
                counts = [c for _, c in h["buckets"]]
                # de-cumulate for the shape strip
                per_bucket = [counts[0]] + [
                    counts[i] - counts[i - 1] for i in range(1, len(counts))
                ] if counts else []
                mean = h["sum"] / h["count"] if h["count"] else 0.0
                rows.append([
                    name + _render_labels(dict(labels)),
                    h["count"], h["sum"], mean, sparkline(per_bucket, width=16),
                ])
            sections.append("histograms (bucket-shape strip, light→dark):")
            sections.append(render_table(
                ["series", "n", "sum", "mean", "shape"], rows, precision=3,
            ))

    if not sections:
        return "nothing to summarize (no trace, no metrics)\n"
    return "\n".join(sections) + "\n"

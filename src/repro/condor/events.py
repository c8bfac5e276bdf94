"""HTCondor user-log events: writing and parsing.

The paper's monitoring system works by parsing HTCondor log files with
shell scripts "to extract information (e.g., runtime, wait times, and
complete/failed job count) and compute job states and durations". We
reproduce that pipeline in Python: the pool simulator records an
HTCondor-style :class:`UserLog`, :meth:`UserLog.render` writes its text,
and :func:`parse_user_log` recovers the events from the text alone.
Inside one process the monitor skips the text: :meth:`UserLog.events`
returns exactly what the parser would read back. Either way the
statistics layer never peeks at simulator internals.

The log format mirrors HTCondor's classic user log closely enough to be
recognizable::

    000 (0042.000.000) 2023-01-01 00:10:17 Job submitted from host: <schedd-0>
    ...
    001 (0042.000.000) 2023-01-01 00:23:05 Job executing on host: <slot-17>
    ...
    005 (0042.000.000) 2023-01-01 00:41:55 Job terminated.
        (1) Normal termination (return value 0)
    ...

Timestamps encode simulation seconds from an arbitrary epoch.
"""

from __future__ import annotations

import enum
import re
from array import array
from dataclasses import dataclass
from pathlib import Path

from repro.errors import LogParseError

__all__ = ["JobEventType", "JobEvent", "UserLog", "parse_user_log"]

_EPOCH_FMT = "2023-01-01"


class JobEventType(enum.Enum):
    """Event codes, matching HTCondor's triplet numbering."""

    SUBMIT = 0
    EXECUTE = 1
    TERMINATED = 5
    ABORTED = 9
    HELD = 12
    RELEASED = 13
    EVICTED = 4

    @property
    def code(self) -> str:
        """Zero-padded three-digit code as it appears in the log."""
        return f"{self.value:03d}"


_DESCRIPTIONS = {
    JobEventType.SUBMIT: "Job submitted from host: <{host}>",
    JobEventType.EXECUTE: "Job executing on host: <{host}>",
    JobEventType.TERMINATED: "Job terminated.",
    JobEventType.ABORTED: "Job was aborted by the user.",
    JobEventType.HELD: "Job was held.",
    JobEventType.RELEASED: "Job was released.",
    JobEventType.EVICTED: "Job was evicted.",
}


@dataclass(frozen=True)
class JobEvent:
    """One parsed log event."""

    event_type: JobEventType
    cluster_id: int
    time_s: float
    host: str = ""
    return_value: int | None = None


def _log_seconds(time_s: float) -> int:
    """An event time as the log prints it: whole seconds."""
    return int(round(time_s))


def _format_timestamp(time_s: float) -> str:
    total = _log_seconds(time_s)
    days, rem = divmod(total, 86400)
    h, rem = divmod(rem, 3600)
    m, s = divmod(rem, 60)
    return f"{_EPOCH_FMT}+{days} {h:02d}:{m:02d}:{s:02d}"


_TS_RE = re.compile(
    r"^(?P<code>\d{3}) \((?P<cluster>\d+)\.000\.000\) "
    rf"{re.escape(_EPOCH_FMT)}\+(?P<days>\d+) "
    r"(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2}) (?P<rest>.*)$"
)
_HOST_RE = re.compile(r"<(?P<host>[^>]*)>")
_RETVAL_RE = re.compile(r"return value (?P<rv>-?\d+)")


#: Event-code strings precomputed per type (render-time lookup).
_CODES = {etype: f"{etype.value:03d}" for etype in JobEventType}
#: Event types whose log line names a host.
_HOSTED = frozenset(t for t, desc in _DESCRIPTIONS.items() if "{host}" in desc)


class UserLog:
    """Recorder of HTCondor-style user-log events, and writer of their text.

    Events are stored column by column: event types, hosts and return
    values in lists, cluster ids and times in typed arrays, 40 bytes an
    event beside its host. A host is a name (the pool passes one string
    per submit batch) or an execute slot's number, which the log names
    ``slot-<number>``: the pool passes the int it already holds, so an
    execute event costs no string. Text is formatted only when a caller
    asks for it (:meth:`render`, :meth:`write`). At million-job scale
    the simulator records ~3 events per job on its hot path, so
    ``record`` stays five appends, a submit batch is one extend per
    column (:meth:`record_submits`), and in-process monitoring reads
    :meth:`events` without formatting any log text.
    """

    def __init__(self) -> None:
        self._types: list[JobEventType] = []
        self._clusters = array("q")
        self._times = array("d")
        self._hosts: list[str | int] = []
        self._return_values: list[int | None] = []

    def __len__(self) -> int:
        return len(self._types)

    def _rows(self):
        """(type, cluster id, time, host name, return value) per event,
        in record order."""
        hosts = [h if isinstance(h, str) else f"slot-{h}" for h in self._hosts]
        return zip(self._types, self._clusters, self._times, hosts, self._return_values)

    def record(
        self,
        event_type: JobEventType,
        cluster_id: int,
        time_s: float,
        host: str | int = "",
        return_value: int | None = None,
    ) -> None:
        """Append one event. ``host`` is a host name, or the number N of
        the execute slot the log names ``slot-N``."""
        if time_s < 0:
            raise LogParseError(f"negative event time {time_s}")
        self._types.append(event_type)
        self._clusters.append(cluster_id)
        self._times.append(time_s)
        self._hosts.append(host)
        self._return_values.append(return_value)

    def record_submits(self, first_cluster: int, n: int, time_s: float, host: str) -> None:
        """Append the SUBMIT events of clusters ``first_cluster`` to
        ``first_cluster + n - 1``, all at ``time_s`` from ``host``: the
        rows ``n`` :meth:`record` calls would append, one extend per
        column."""
        if time_s < 0:
            raise LogParseError(f"negative event time {time_s}")
        self._types.extend([JobEventType.SUBMIT] * n)
        self._clusters.extend(range(first_cluster, first_cluster + n))
        self._times.extend(array("d", [time_s]) * n)
        self._hosts.extend([host] * n)
        self._return_values.extend([None] * n)

    def events(self) -> list[JobEvent]:
        """The recorded events exactly as :func:`parse_user_log` reads
        them back from :meth:`render`.

        Times are whole seconds, a host survives only where the log
        prints one (SUBMIT and EXECUTE), and a TERMINATED return value
        of ``None`` reads as 0 (every other event's as ``None``).
        """
        events: list[JobEvent] = []
        for event_type, cluster_id, time_s, host, return_value in self._rows():
            if event_type is JobEventType.TERMINATED:
                return_value = 0 if return_value is None else return_value
            else:
                return_value = None
            events.append(
                JobEvent(
                    event_type,
                    cluster_id,
                    float(_log_seconds(time_s)),
                    host if event_type in _HOSTED else "",
                    return_value,
                )
            )
        return events

    def render(self) -> str:
        """Full log text."""
        if not self._types:
            return ""
        lines: list[str] = []
        append = lines.append
        terminated = JobEventType.TERMINATED
        for event_type, cluster_id, time_s, host, return_value in self._rows():
            desc = _DESCRIPTIONS[event_type].format(host=host)
            append(
                f"{_CODES[event_type]} ({cluster_id:04d}.000.000) "
                f"{_format_timestamp(time_s)} {desc}"
            )
            if event_type is terminated:
                rv = 0 if return_value is None else return_value
                kind = "Normal termination" if rv == 0 else "Abnormal termination"
                append(f"\t(1) {kind} (return value {rv})")
            append("...")
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        """Write the log to disk."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render())
        return path


def parse_user_log(text: str, source: str = "<string>") -> list[JobEvent]:
    """Parse user-log text into a list of :class:`JobEvent`.

    Tolerates the ``...`` separators and indented detail lines; raises
    :class:`~repro.errors.LogParseError` on structurally bad event lines.
    """
    events: list[JobEvent] = []
    # Index (not value) of the TERMINATED event awaiting its detail line.
    # Matching by value (`events.index`) would attach a duplicated
    # TERMINATED line's return value to the wrong event and makes the
    # parse O(n^2) on large logs.
    pending_terminated: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.strip() == "...":
            pending_terminated = None
            continue
        if raw.startswith(("\t", " ")):
            # Detail line; attach return value to a pending termination.
            if pending_terminated is not None:
                match = _RETVAL_RE.search(raw)
                if match:
                    pending = events[pending_terminated]
                    events[pending_terminated] = JobEvent(
                        event_type=pending.event_type,
                        cluster_id=pending.cluster_id,
                        time_s=pending.time_s,
                        host=pending.host,
                        return_value=int(match.group("rv")),
                    )
                    pending_terminated = None
            continue
        match = _TS_RE.match(raw)
        if match is None:
            raise LogParseError(f"{source}:{lineno}: unrecognized event line {raw!r}")
        code = int(match.group("code"))
        try:
            etype = JobEventType(code)
        except ValueError as exc:
            raise LogParseError(f"{source}:{lineno}: unknown event code {code}") from exc
        time_s = (
            int(match.group("days")) * 86400
            + int(match.group("h")) * 3600
            + int(match.group("m")) * 60
            + int(match.group("s"))
        )
        rest = match.group("rest")
        host_match = _HOST_RE.search(rest)
        event = JobEvent(
            event_type=etype,
            cluster_id=int(match.group("cluster")),
            time_s=float(time_s),
            host=host_match.group("host") if host_match else "",
        )
        events.append(event)
        pending_terminated = (
            len(events) - 1 if etype is JobEventType.TERMINATED else None
        )
    return events

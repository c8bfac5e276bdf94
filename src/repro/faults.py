"""Deterministic fault injection for recovery and chaos testing.

WfBench-style methodology: recovery paths are only trustworthy if they
are exercised by *injected* failures, reproducibly. A
:class:`FaultPlan` bundles the deterministic faults a single run sees:

* :class:`ChunkCrash` — kill a :class:`~repro.core.local.LocalRunner`
  run by raising :class:`FaultInjected` after N chunks of a phase have
  completed (and been checkpointed), simulating a mid-run process death;
* :class:`ChunkFlake` — fail the first ``times`` *attempts* of one
  chunk with a retryable :class:`TransientFault` (a flaky execute
  point), exercising the runner's retry/backoff path instead of its
  crash-recovery path;
* :class:`PoolFault` — at a fixed simulation time, evict or hold
  running jobs or kill a whole DAGMan on an
  :class:`~repro.osg.pool.OSPoolSimulator` via its injection hooks.

The chaos campaign (PR 8) adds three infrastructure fault models:

* :class:`StorageFault` — corrupt an on-disk artifact in place
  (seeded bit-flip or truncation), which the integrity layer must catch
  and quarantine;
* :class:`TransferFaults` — per-attempt Stash/OSDF transfer failures
  and slow transfers, drawn from the fault model's *own* seeded
  generator so injecting faults never perturbs the simulator's other
  RNG streams (site selection, runtimes);
* :class:`SiteOutage` — a ``[start_s, end_s)`` window during which a
  federated storage site rejects every retrieval, driving the per-site
  circuit breakers of :class:`~repro.vdc.storage.FederatedStorage`.

Plans are plain data plus a little runtime state; :meth:`FaultPlan.seeded`
derives crash points from a seed through the package's
:class:`~repro.rng.RngFactory`, so a test's fault schedule is as
reproducible as the workload it perturbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.rng import RngFactory

__all__ = [
    "FaultInjected",
    "TransientFault",
    "ChunkCrash",
    "ChunkFlake",
    "PoolFault",
    "StorageFault",
    "TransferFaults",
    "SiteOutage",
    "FaultPlan",
]

_POOL_ACTIONS = ("evict", "hold", "kill-dagman")


class FaultInjected(ReproError):
    """Raised (on purpose) when an injected crash point fires."""


class TransientFault(FaultInjected):
    """An injected *retryable* failure (flaky job, glitched transfer)."""

    retryable = True


@dataclass(frozen=True)
class ChunkCrash:
    """Crash a local run after ``after_chunks`` chunks of ``phase``.

    The crash fires *after* the Nth chunk completes and checkpoints, so
    a resumed run must skip exactly N chunks of that phase.
    """

    phase: str
    after_chunks: int

    def __post_init__(self) -> None:
        if self.phase not in ("A", "C"):
            raise ReproError(f"crashes target chunked phases A/C, got {self.phase!r}")
        if self.after_chunks < 1:
            raise ReproError(f"after_chunks must be >= 1, got {self.after_chunks}")


@dataclass(frozen=True)
class ChunkFlake:
    """Fail the first ``times`` attempts of one chunk, retryably.

    Unlike :class:`ChunkCrash` (which kills the run *after* a chunk
    checkpoints), a flake fires on the *attempt* — the runner's
    retry wrapper re-executes the chunk until the flake is spent, so
    a run with flakes completes with extra attempts but identical
    products.
    """

    phase: str
    index: int
    times: int = 1

    def __post_init__(self) -> None:
        if self.phase not in ("A", "C"):
            raise ReproError(f"flakes target chunked phases A/C, got {self.phase!r}")
        if self.index < 0:
            raise ReproError(f"index must be >= 0, got {self.index}")
        if self.times < 1:
            raise ReproError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class PoolFault:
    """One scheduled pool fault.

    ``action`` is ``"evict"`` / ``"hold"`` (force-evict or force-hold
    the ``count`` newest running jobs) or ``"kill-dagman"`` (abort the
    named DAGMan); ``at_s`` is the simulation time it fires.
    """

    action: str
    at_s: float
    dagman: str | None = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.action not in _POOL_ACTIONS:
            raise ReproError(f"unknown pool fault action {self.action!r}")
        if self.at_s < 0:
            raise ReproError(f"at_s must be >= 0, got {self.at_s}")
        if self.count < 1:
            raise ReproError(f"count must be >= 1, got {self.count}")
        if self.action == "kill-dagman" and self.dagman is None:
            raise ReproError("kill-dagman requires a dagman name")


_STORAGE_FAULT_KINDS = ("bitflip", "truncate")


@dataclass(frozen=True)
class StorageFault:
    """Seeded in-place corruption of one on-disk artifact.

    ``"bitflip"`` flips a single bit at a seed-derived offset;
    ``"truncate"`` cuts the file to a seed-derived fraction of its
    length (at least one byte shorter). Either way the artifact's
    sha256 sidecar no longer matches, so a verified read must raise
    :class:`~repro.errors.IntegrityError` and quarantine the file.
    """

    kind: str = "bitflip"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _STORAGE_FAULT_KINDS:
            raise ReproError(f"unknown storage fault kind {self.kind!r}")

    def apply(self, path: str | Path) -> Path:
        """Corrupt ``path`` in place; returns the path."""
        path = Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            raise ReproError(f"cannot corrupt empty artifact {path}")
        rng = RngFactory(self.seed).generator("faults", "storage", path.name)
        if self.kind == "bitflip":
            offset = int(rng.integers(len(data)))
            data[offset] ^= 1 << int(rng.integers(8))
            path.write_bytes(bytes(data))
        else:  # truncate
            keep = int(rng.integers(len(data)))  # in [0, len)
            path.write_bytes(bytes(data[:keep]))
        return path


@dataclass
class TransferFaults:
    """Seeded per-attempt faults on the Stash/OSDF delivery path.

    Attributes
    ----------
    failure_prob:
        Probability one transfer attempt fails outright
        (:class:`~repro.errors.TransferError`, retryable).
    slow_prob, slow_factor:
        Probability an attempt is degraded, and the multiplier applied
        to its elapsed time when it is.
    seed:
        Root of the model's private generator — fault draws never touch
        the simulator's ``transfer`` stream, so turning faults on does
        not change which cache site any job lands at.
    """

    failure_prob: float = 0.0
    slow_prob: float = 0.0
    slow_factor: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.failure_prob < 1.0):
            raise ReproError(
                f"failure_prob must be in [0, 1), got {self.failure_prob}"
            )
        if not (0.0 <= self.slow_prob < 1.0):
            raise ReproError(f"slow_prob must be in [0, 1), got {self.slow_prob}")
        if self.slow_factor < 1.0:
            raise ReproError(f"slow_factor must be >= 1, got {self.slow_factor}")
        self._rng = RngFactory(self.seed).generator("faults", "transfer")
        self.n_failures = 0
        self.n_slow = 0

    def reset(self) -> None:
        """Rewind the fault stream (a fresh campaign, same schedule)."""
        self._rng = RngFactory(self.seed).generator("faults", "transfer")
        self.n_failures = 0
        self.n_slow = 0

    def draw(self) -> tuple[bool, float]:
        """One attempt's fate: ``(fails, time multiplier)``.

        Both variates are always drawn so the stream position depends
        only on the attempt count, not on earlier outcomes.
        """
        fails = bool(self._rng.random() < self.failure_prob)
        slow = bool(self._rng.random() < self.slow_prob)
        if fails:
            self.n_failures += 1
        if slow:
            self.n_slow += 1
        return fails, (self.slow_factor if slow else 1.0)


@dataclass(frozen=True)
class SiteOutage:
    """One storage site dark over ``[start_s, end_s)`` of injected time."""

    site: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not self.site:
            raise ReproError("outage site must be non-empty")
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ReproError(
                f"outage window must satisfy 0 <= start < end, "
                f"got [{self.start_s}, {self.end_s})"
            )

    def active(self, now: float) -> bool:
        """Whether the site is dark at time ``now``."""
        return self.start_s <= now < self.end_s


@dataclass
class FaultPlan:
    """A deterministic schedule of faults for one run.

    One plan instance drives one run: :meth:`chunk_completed` keeps
    per-phase counters and each :class:`ChunkCrash` fires at most once;
    :meth:`chunk_attempt` keeps per-chunk attempt counters and each
    :class:`ChunkFlake` fails its first ``times`` attempts.
    """

    crashes: tuple[ChunkCrash, ...] = ()
    flakes: tuple[ChunkFlake, ...] = ()
    pool_faults: tuple[PoolFault, ...] = ()
    _chunk_counts: dict[str, int] = field(default_factory=dict, repr=False)
    _fired: set[ChunkCrash] = field(default_factory=set, repr=False)
    _attempts: dict[tuple[str, int], int] = field(default_factory=dict, repr=False)

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_a_chunks: int = 0,
        n_c_chunks: int = 0,
    ) -> "FaultPlan":
        """Derive crash points from a seed.

        For each phase with more than one chunk, the crash lands
        uniformly in ``[1, n_chunks - 1]`` — always mid-phase, so a
        resume has both completed chunks to skip and pending chunks to
        run.
        """
        rng = RngFactory(seed).generator("faults")
        crashes: list[ChunkCrash] = []
        if n_a_chunks > 1:
            crashes.append(ChunkCrash("A", int(rng.integers(1, n_a_chunks))))
        if n_c_chunks > 1:
            crashes.append(ChunkCrash("C", int(rng.integers(1, n_c_chunks))))
        return cls(crashes=tuple(crashes))

    def chunk_completed(self, phase: str) -> None:
        """Notify the plan that one chunk of ``phase`` completed.

        Raises
        ------
        FaultInjected
            When a not-yet-fired :class:`ChunkCrash` for this phase has
            its ``after_chunks`` count reached.
        """
        n = self._chunk_counts.get(phase, 0) + 1
        self._chunk_counts[phase] = n
        for crash in self.crashes:
            if crash.phase == phase and crash.after_chunks == n and crash not in self._fired:
                self._fired.add(crash)
                raise FaultInjected(
                    f"injected crash after {n} completed {phase} chunk(s)"
                )

    def chunk_attempt(self, phase: str, index: int) -> None:
        """Notify the plan that chunk ``index`` of ``phase`` is being
        attempted (called by the runner *before* executing it).

        Raises
        ------
        TransientFault
            While a matching :class:`ChunkFlake` still has attempts to
            fail — the runner's retry wrapper absorbs these.
        """
        n = self._attempts.get((phase, index), 0) + 1
        self._attempts[(phase, index)] = n
        for flake in self.flakes:
            if flake.phase == phase and flake.index == index and n <= flake.times:
                raise TransientFault(
                    f"injected flake: {phase} chunk {index}, attempt {n} "
                    f"of {flake.times} doomed"
                )

    def install(self, pool) -> None:
        """Schedule the plan's pool faults on an ``OSPoolSimulator``.

        Call after submissions, before ``pool.run()``. Like an evict or
        hold that finds no running job, a kill whose DAGMan has already
        finished when it fires does nothing.

        Raises
        ------
        ReproError
            If a fault names a DAGMan that was not submitted.
        """
        runs = pool.dagman_runs
        for fault in self.pool_faults:
            if fault.dagman is not None and fault.dagman not in runs:
                raise ReproError(
                    f"{fault.action} fault at {fault.at_s}s names unknown "
                    f"DAGMan {fault.dagman!r}"
                )
        for fault in self.pool_faults:
            if fault.action == "evict":
                pool.sim.schedule_at(
                    fault.at_s, lambda f=fault: pool.inject_eviction(f.count)
                )
            elif fault.action == "hold":
                pool.sim.schedule_at(
                    fault.at_s,
                    lambda f=fault: pool.inject_hold(f.count, dagman=f.dagman),
                )
            else:  # kill-dagman
                pool.sim.schedule_at(
                    fault.at_s,
                    lambda run=runs[fault.dagman]: (
                        run.finished or pool.kill_dagman(run.name)
                    ),
                )

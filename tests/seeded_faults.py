"""Fault plans whose crash points derive from a seed.

A test helper: ``seeded_plan`` draws its crash points through the
package's :class:`~repro.rng.RngFactory`, so a test's fault schedule is
as reproducible as the workload it perturbs.
"""

from repro.faults import ChunkCrash, FaultPlan
from repro.rng import RngFactory


def seeded_plan(seed: int, n_a_chunks: int = 0, n_c_chunks: int = 0) -> FaultPlan:
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
    return FaultPlan(crashes=tuple(crashes))

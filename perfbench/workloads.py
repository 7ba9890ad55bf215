"""The benchmark's workloads: which cells run, at what size, from which seed.

A workload is a ``scenario.sweep`` over the ``scenario.protocol`` axis on top
of ``configs/desk.cfg`` plus a few overrides. A run plays it in chunks: chunk
``j`` is one sweep call with ``reps_per_cell`` replications per cell and its
own ``scenario.base_seed``, so every chunk samples fresh topologies and
traffic. The first ``digest_chunks`` chunks form the digest set: every run
plays them, their ``run_row`` lines are hashed into the run's digest, and the
traced run measures exactly them, so its counts repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

# Run indices of one chunk stay below this, so chunk seeds never collide
# through the simulator's ``base_seed ^ run_index`` stream keys.
CHUNK_STRIDE = 64
CHUNKS_PER_SEED = 4096


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]   # applied to configs/desk.cfg
    protocols: tuple[str, ...]   # the sweep's scenario.protocol axis
    reps_per_cell: int           # replications of each cell in one chunk
    digest_chunks: int           # chunks every run plays and the traced run measures

    @property
    def axes(self) -> dict[str, list[str]]:
        return {"scenario.protocol": list(self.protocols)}

    @property
    def digest_reps(self) -> int:
        return self.digest_chunks * self.reps_per_cell * len(self.protocols)


WORKLOADS = {w.name: w for w in (
    # The flood puts the most transmissions on the air: phys.decode dominates.
    Workload("desk-flood", ("scenario.p_f=0",), ("BGB",),
             reps_per_cell=2, digest_chunks=3),
    # The acceptance module's cells: decode, receive, policies, sensing and
    # connectivity resampling share the time.
    Workload("desk-mix", ("scenario.p_f=0.4", "scenario.require_connected=True"),
             ("GRAB", "P-GRAB", "U-GRAB", "UP-GRAB"),
             reps_per_cell=1, digest_chunks=3),
)}


def chunk_seed(seed: int, chunk: int) -> int:
    """``scenario.base_seed`` of one chunk. Seed 0, chunk 0 gives 1, the
    desk.cfg default, so that chunk reproduces ``gradcast run`` rows."""
    if not 0 <= chunk < CHUNKS_PER_SEED:
        raise ValueError(f"chunk {chunk} outside [0, {CHUNKS_PER_SEED})")
    return 1 + CHUNK_STRIDE * (seed * CHUNKS_PER_SEED + chunk)


def chunk_overrides(w: Workload, seed: int, chunk: int) -> list[str]:
    return [f"scenario.base_seed={chunk_seed(seed, chunk)}",
            f"scenario.replications={w.reps_per_cell}"]

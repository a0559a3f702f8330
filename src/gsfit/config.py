"""The run configuration and the seed streams derived from it.

A run is set by the six fields of `RunConfig`, one per command-line flag,
which it checks on construction; every stage reads its settings from the
one frozen instance. Tuning values that no caller sets are module
constants next to the code that uses them.

Every random draw of a run reads a stream of `rng(seed, tag, *key)`,
where the tag names the stage and the key what the stream draws for.
Detection keys each probe batch `rng(seed, tag, *attempt, ...)`, where
`attempt` is the key of the anchor's draw (`detect.Anchor.rng`), and the
rest names what the batch probes: variables, a block or a trial. A
redrawn anchor thus probes afresh in every stage.

    tag   stage (module `detect`, else as named)
    101   graph moves of one variable (`_pair_scores`, `interaction_graph`)
    301   psi factor sweep (`isolate_psi_data`)
    401   spread pair of a block (`Anchor.spread_pair`)
    402   omega factor sweep (`isolate_omega_data`)
    501   psi partition grids (`factor_partition`)
    502   omega partition grids (`factor_partition`)
    601   membership sweep (`Anchor.memberships`)
    701   consistency slice points (`_block_consistent`)
    702   consistency repeated-variable draws (`_block_consistent`)
    777   anchor draws (`Anchor.draw`), keyed by the attempt alone
    801   reconstruction points (`_reconstruction_ok`)
    900   box probe when no anchor draw is valid (`_detect_once`), keyed
          by the attempt alone
    1001  training sample: its first rows, then, when the model solved
          on them does not accept on the validation block, the rest,
          from one stream (`assemble.assemble_and_validate`)
    1002  validation block, then the rest of the full sample, from one
          stream (`assemble.assemble_and_validate`)
    1101  LDSE restart (`fit._walk`), keyed by the skeleton's rank in
          the stream and the restart
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tol_detect: float = 1e-8      # relative detection tolerance
    tol_target: float = 1e-6      # MSE tolerance, normalized for a factor
                                  # fit and absolute for validation
    samples_per_var: int = 200    # most validation points per variable,
                                  # drawn only when a first block of 20
                                  # per basis column does not validate at
                                  # 1e-3 * tol_target; never fewer than
                                  # that block
    max_nodes: int = 12           # largest skeleton template node count
    kmax: int = 3                 # largest candidate repeated-variable cut

    def __post_init__(self):
        # in the command line's order, each message naming the flag
        for flag, ok, rule in (
            ("--seed", self.seed >= 0, "at least 0"),
            ("--tol-detect", 0 <= self.tol_detect < math.inf, "finite and at least 0"),
            ("--tol-target", 0 <= self.tol_target < math.inf, "finite and at least 0"),
            ("--max-nodes", self.max_nodes >= 3, "at least 3"),
            ("--kmax", self.kmax >= 1, "at least 1"),
            ("--samples-per-var", self.samples_per_var >= 1, "at least 1"),
        ):
            if not ok:
                raise ValueError(f"{flag} must be {rule}")


@functools.cache
def _digest_type() -> type:
    """The seed sequence of `rng`: its words are read from the 32-byte
    BLAKE2b digest of the decimal text of a tuple of non-negative
    integers, which names the tuple uniquely, and read little-endian, so a
    stream is the same on every platform. The type is made on first use:
    numpy imports numpy.random, and with it hashlib, only when a run first
    reads it, and importing them with this module would add about 15 ms
    to every start-up."""
    import hashlib
    from numpy.random.bit_generator import ISeedSequence

    class Digest(ISeedSequence):
        def __init__(self, ints: tuple[int, ...]):
            self._digest = hashlib.blake2b(str(ints).encode(), digest_size=32).digest()

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            dtype = np.dtype(dtype)
            return np.frombuffer(self._digest, dtype.newbyteorder("<"), n_words).astype(dtype)

    return Digest


def rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream `key` under `seed`: a PCG64 keyed by one
    digest of (seed, *key). Each of seed and key must be a non-negative
    integer."""
    ints = tuple(map(operator.index, (seed, *key)))
    if min(ints) < 0:
        raise ValueError("seed and key must be non-negative")
    return np.random.Generator(np.random.PCG64(_digest_type()(ints)))


"""The run configuration and the seed streams derived from it.

A run is set by the six fields of `RunConfig`, one per command-line flag;
every stage reads its settings from the one frozen instance. Tuning values
that no caller sets are module constants next to the code that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tol_detect: float = 1e-8      # relative detection tolerance
    tol_target: float = 1e-6      # MSE tolerance for fitted models
    samples_per_var: int = 200    # assembly training/validation points per variable
    max_nodes: int = 12           # largest skeleton template node count
    kmax: int = 3                 # largest candidate repeated-variable cut


def rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream `key` under `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def derived_seed(base: int, *key: int) -> int:
    """Independent integer seed for the stream `key` under `base`."""
    return int(np.random.SeedSequence(base, spawn_key=key).generate_state(1)[0])

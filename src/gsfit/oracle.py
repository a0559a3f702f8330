"""Domain boxes, seeded uniform sampling, and instrumented oracle access."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .expr import Expr


class SampleError(RuntimeError):
    """No fully valid sample could be drawn from the box."""


def uniform(rng: np.random.Generator, lo, hi, size) -> np.ndarray:
    """Uniform draws on [lo, hi) of shape `size`, lo and hi broadcast.

    Bit-identical to rng.uniform(lo, hi, size), without its argument
    checks, which cost more than the draw itself on small sizes.
    """
    return lo + rng.random(size) * (hi - lo)


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned closed box, one finite [lo, hi] interval per variable."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be non-empty and equally long")
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"bounds must be finite, got [{a}, {b}]")
            if not a < b:
                raise ValueError(f"degenerate interval [{a}, {b}]")

    @property
    def arity(self) -> int:
        return len(self.lo)

    @staticmethod
    def cube(lo: float, hi: float, arity: int) -> "DomainBox":
        return DomainBox((float(lo),) * arity, (float(hi),) * arity)

    def lo_array(self) -> np.ndarray:
        return np.asarray(self.lo, dtype=float)

    def hi_array(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=float)

    def uniform(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw `count` i.i.d. uniform points as an (count, arity) array."""
        return uniform(rng, self.lo_array(), self.hi_array(), (count, self.arity))


@dataclass
class SampleSet:
    """Points in a box with the oracle values at them."""

    points: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


class Oracle:
    """Black-box view of a target function over a box.

    Every point evaluation bumps the counter by one (thread-safe). All
    structure probes in this package go through an Oracle so that probe
    budgets are observable.
    """

    def __init__(self, target: Expr, box: DomainBox):
        if target.arity_bound() > box.arity:
            raise ValueError(
                f"target uses x{target.arity_bound()} but box has arity {box.arity}"
            )
        self.target = target
        self.box = box
        self._count = 0
        self._lock = threading.Lock()

    @property
    def arity(self) -> int:
        return self.box.arity

    @property
    def eval_count(self) -> int:
        return self._count

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        vals = self.target.eval_batch(points)
        with self._lock:
            self._count += points.shape[0]
        return vals

    def sample(self, count: int, rng: np.random.Generator) -> SampleSet:
        """Uniform sample with values; rows with invalid values are redrawn.

        The points and their redraws are read from `rng` in turn, so a
        second sample from the same stream continues the first. Up to 20
        redraw rounds; points that are still invalid after the last one (a
        singularity being hit repeatedly) raise SampleError.
        """
        pts = self.box.uniform(count, rng)
        vals = self.eval_batch(pts)
        for _ in range(20):
            bad = ~np.isfinite(vals)
            if not bad.any():
                break
            pts[bad] = self.box.uniform(int(bad.sum()), rng)
            vals[bad] = self.eval_batch(pts[bad])
        if not np.all(np.isfinite(vals)):
            raise SampleError("could not draw a fully valid sample from the box")
        return SampleSet(points=pts, values=vals)


def make_oracle(target: Expr, box: DomainBox) -> Oracle:
    """Wrap a target expression as an instrumented oracle (counter at 0)."""
    return Oracle(target, box)

"""Structure discovery for generalized separable targets.

Given an oracle, recover: which variables are shared across additive
pieces (repeated variables), the additive pieces themselves once those are
pinned (minimal blocks), which repeated variables each block actually
couples to, and the multiplicative factor partition inside every block.

All decisions come from finite differences of oracle values, normalized by
the largest magnitude seen, so the detected structure is invariant under
affine rescaling of the target.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, rng as _rng
from .oracle import Oracle, uniform


class DetectionError(RuntimeError):
    """Detection could not produce a structure."""


class DegenerateAnchorError(DetectionError):
    """The anchor annihilated a needed signal; caller should draw another anchor."""


class TargetInvalidError(DegenerateAnchorError):
    """No probed point of an anchor attempt had a finite target value."""


class StructureUnstableError(DetectionError):
    """Two anchors disagree on the block partition."""


class NotSeparableError(DetectionError):
    """Reconstruction residual too large: not a GS system at this tolerance."""


PAIR_PROBES = 8             # probe quadruples per pairwise test
MAX_INVALID_ATTEMPTS = 11   # invalid quadruples in a row before a pair gives up
PSI_POINTS_PER_VAR = 48     # tabulated points per block variable
OMEGA_POINTS_PER_VAR = 32
MEMBERSHIP_POINTS = 12      # sweep length per repeated-variable test
OMEGA_PAIR_CANDIDATES = 8
ANCHOR_CENTRAL = 0.5        # anchors drawn from this central fraction
MAX_ANCHOR_REDRAWS = 3
ANCHOR_DRAWS = 16           # draws per anchor attempt, the first valid one is used
RECON_POINTS = 32


@dataclass
class InteractionGraph:
    """Pairwise interaction scores (1-based outside) and ignored variables."""

    n: int
    scores: np.ndarray   # (n, n) symmetric, zero diagonal
    tol: float
    ignored: tuple[int, ...] = ()

    def __post_init__(self):
        # the edges, read once as Python bools: peeling asks has_edge
        # for every vertex pair of every component search
        self._adjacent = (self.scores > self.tol).tolist()

    def has_edge(self, i: int, j: int) -> bool:
        return self._adjacent[i - 1][j - 1]

    def components(self, active: set[int] | None = None) -> list[tuple[int, ...]]:
        """Connected components of the induced subgraph over `active`, less ignored."""
        verts = sorted(active) if active is not None else range(1, self.n + 1)
        return _components([v for v in verts if v not in self.ignored], self.has_edge)


def _components(verts, linked) -> list[tuple[int, ...]]:
    """Connected components of `verts` under the symmetric relation
    linked(u, w); each component sorted, the list sorted."""
    seen: set[int] = set()
    comps = []
    for v in verts:
        if v in seen:
            continue
        seen.add(v)
        stack, comp = [v], [v]
        while stack:
            u = stack.pop()
            for w in verts:
                if w not in seen and linked(u, w):
                    seen.add(w)
                    stack.append(w)
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


@dataclass
class Block:
    """One minimal block: its own variables plus its repeated couplings."""

    vars: tuple[int, ...]
    repeated: tuple[int, ...] = ()
    psi_factors: tuple[tuple[int, ...], ...] = ()
    omega_factors: tuple[tuple[int, ...], ...] = ()

    def factor_count(self) -> int:
        return len(self.psi_factors) + len(self.omega_factors)


@dataclass
class GsStructure:
    """Detected decomposition of the target.

    `at` is the `Anchor` detection read it at, whose probes the factor
    sweeps reuse; a hand-built structure has none. It is neither part of
    the JSON view nor pickled, since its oracle holds a lock.
    """

    repeated: tuple[int, ...]
    blocks: list[Block]
    anchor: tuple[float, ...]
    ignored: tuple[int, ...] = ()   # the variables the target does not read
    probes_used: int = 0
    at: "Anchor | None" = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "at": None}

    def factor_count(self) -> int:
        return sum(b.factor_count() for b in self.blocks)

    def validate(self, arity: int) -> None:
        """Check the partition conditions of a GS decomposition."""
        nonrep: list[int] = []
        for b in self.blocks:
            if not b.vars:
                raise DetectionError("empty block")
            nonrep.extend(b.vars)
            if set(b.repeated) - set(self.repeated):
                raise DetectionError("block repeated set not within global set")
            psi_union = sorted(v for g in b.psi_factors for v in g)
            if psi_union != sorted(b.vars):
                raise DetectionError("psi factors do not partition block variables")
            om_union = sorted(v for g in b.omega_factors for v in g)
            if om_union != sorted(b.repeated):
                raise DetectionError("omega factors do not partition block repeated set")
        if len(nonrep) != len(set(nonrep)):
            raise DetectionError("blocks overlap")
        if sorted(nonrep + list(self.repeated) + list(self.ignored)) != list(range(1, arity + 1)):
            raise DetectionError("blocks, repeated and ignored sets do not cover all variables")

    def to_dict(self) -> dict:
        """JSON-ready view. It shares the structure's own tuples rather than
        copying them into lists, since `bench.run_suite` keeps one per run."""
        return {
            "repeated": self.repeated,
            "blocks": [
                {
                    "vars": b.vars,
                    "repeated": b.repeated,
                    "psi_factors": b.psi_factors,
                    "omega_factors": b.omega_factors,
                }
                for b in self.blocks
            ],
            "ignored": self.ignored,
            "anchor": tuple(float(a) for a in self.anchor),
            "probes_used": int(self.probes_used),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass
class FactorData:
    """Tabulated response of one isolated factor group, the data a factor
    fit reads. Values are known only up to an affine transform of the
    true factor."""

    vars: tuple[int, ...]
    points: np.ndarray
    values: np.ndarray


# --------------------------------------------------------------------------
# pairwise interaction scores


def _pair_scores(at: Anchor, pairs, probes: int, tol: float = math.inf) -> np.ndarray:
    """Normalized anchored mixed differences of variable pairs, others pinned.

    Variable v draws its moves X_v[0], X_v[1], ... on [lo_v, hi_v] from
    its own stream at.rng(101, v), so each anchor attempt probes afresh.
    Attempt t of pair (a, b) is the anchored second difference of cut-HDMR
    (Rabitz and Alis, J. Math. Chem. 25, 1999), everything else at the
    anchor c:

        f(X_a[t], X_b[t]) - f(X_a[t], c_b) - f(c_a, X_b[t]) + f(c).

    f(c) is the anchor's and each single move f(c with x_v = X_v[t]) is
    evaluated once and shared by every pair holding v, so an attempt costs
    one new point besides them. An attempt whose four values are all
    finite fills the pair's next probe, and MAX_INVALID_ATTEMPTS invalid
    attempts in a row raise DegenerateAnchorError. A pair's score is the
    largest |difference| over its probes divided by max(1, largest |f|
    seen in them).

    Every round evaluates all pairs' attempts, with the single moves they
    reach for the first time, in one oracle call. The first round takes
    one attempt a pair; each later one takes, for every unfinished pair,
    as many attempts as it still needs probes. A pair is finished once it
    has `probes` probes or once its score clears `tol`: one probe above
    tol already proves an interaction, so such a pair's score covers only
    the probes drawn until then. A pair that never clears tol gets the
    same attempts, and so the same score, as under tol = inf. Attempt t
    reads the t-th move of each of its variables, so a pair's attempts are
    a prefix of those it would get under a larger tol. The single moves
    stay on the anchor, in at.moves, for `interaction_graph`.
    """
    o, anchor, fc = at.o, at.point, float(at.f)
    pairs = [tuple(sorted(p)) for p in pairs]
    lo, hi = o.box.lo_array(), o.box.hi_array()
    # v -> its stream and its moves X_v[0], X_v[1], ... drawn so far
    moves = {v: (at.rng(101, v), []) for v in {v for p in pairs for v in p}}
    single = at.moves  # (v, t) -> f at the anchor with x_v = X_v[t]

    def move(v, t):    # drawn `probes` at a time, as `uniform` draws them
        r, xs = moves[v]
        if t >= len(xs):
            u = r.random(max(probes, t + 1 - len(xs)))
            xs += (lo[v - 1] + u * (hi[v - 1] - lo[v - 1])).tolist()
        return xs[t]

    made, filled, run = [0] * len(pairs), [0] * len(pairs), [0] * len(pairs)
    diff, peak = [0.0] * len(pairs), [0.0] * len(pairs)
    todo, need = list(range(len(pairs))), [1] * len(pairs)
    while todo:
        joint = [(k, t) for k, m in zip(todo, need) for t in range(made[k], made[k] + m)]
        for k, m in zip(todo, need):
            made[k] += m
        new = sorted({(v, t) for k, t in joint for v in pairs[k]} - single.keys())
        pts = np.tile(anchor, (len(new) + len(joint), 1))
        for i, (v, t) in enumerate(new):
            pts[i, v - 1] = move(v, t)
        for i, (k, t) in enumerate(joint, len(new)):
            for v in pairs[k]:
                pts[i, v - 1] = move(v, t)
        f = o.eval_batch(pts).tolist()
        single.update(zip(new, f))
        for (k, t), f0 in zip(joint, f[len(new):]):
            a, b = pairs[k]
            f4 = (f0, single[a, t], single[b, t], fc)
            if not all(map(math.isfinite, f4)):
                run[k] += 1
                if run[k] == MAX_INVALID_ATTEMPTS:
                    raise DegenerateAnchorError(
                        "degenerate domain: probes keep hitting invalid points"
                    )
                continue
            run[k] = 0
            filled[k] += 1
            diff[k] = max(diff[k], abs(f4[0] - f4[1] - f4[2] + f4[3]))
            peak[k] = max(peak[k], *map(abs, f4))
        # the stop test waits for the round: its points are evaluated in
        # one call already, and an edge's score covers all of them
        todo = [k for k in todo if filled[k] < probes and not diff[k] / max(1.0, peak[k]) > tol]
        need = [probes - filled[k] for k in todo]
    return np.array(diff) / np.maximum(1.0, peak)


def interaction_graph(at: Anchor, among: set[int] | None = None) -> InteractionGraph:
    """Score variable pairs at the anchor; edge wherever the score clears
    cfg.tol_detect.

    Every pair of variables in `among` (default: all) is scored, the
    others score 0. All pairs are scored together: the first oracle call
    holds one probe of every pair and the first move of every variable,
    the second the remaining probes of the pairs not yet edges and the
    moves they read, so the graph usually costs two calls, and one
    when every pair is an edge. A pair stops probing once its score
    clears cfg.tol_detect, so an edge's stored score covers only the
    probes drawn until then; that round stop is why the second call is
    not merged into the first, since the probes it skips are skipped by
    attempts that succeed. Every probe reads f(anchor), evaluated on
    first read when the anchor does not hold it. The graph reads its
    edges off the scores once, as Python bools, for the many `has_edge`
    calls of peeling. A variable of `among` with no edge, a finite single
    move, and every finite one within cfg.tol_detect * max(1, |f(anchor)|)
    of f(anchor) is ignored. A lone variable, in no pair, has its
    PAIR_PROBES moves evaluated in a call of their own.
    """
    n, tol = at.o.arity, at.cfg.tol_detect
    verts = sorted(among) if among is not None else range(1, n + 1)
    pairs = list(itertools.combinations(verts, 2))
    scores = np.zeros((n, n))
    for (i, j), s in zip(pairs, _pair_scores(at, pairs, PAIR_PROBES, tol)):
        scores[i - 1, j - 1] = scores[j - 1, i - 1] = s
    if len(verts) == 1:   # a lone variable, in no pair
        (v,) = verts
        f = at.o.eval_batch(_pin(at.point, (v,), at.uniform((v,), PAIR_PROBES, 101, v)))
        at.moves.update(((v, t), fv) for t, fv in enumerate(f.tolist()))
    # each variable's largest finite move off f(anchor), in one pass
    fc, off = at.f, {}
    for (v, _), fv in at.moves.items():
        if math.isfinite(fv):
            off[v] = max(off.get(v, 0.0), abs(fv - fc))
    flat, edged = tol * max(1.0, abs(fc)), (scores > tol).any(axis=1)
    ignored = tuple(v for v in verts if off.get(v, math.inf) <= flat and not edged[v - 1])
    return InteractionGraph(n=n, scores=scores, tol=tol, ignored=ignored)


# --------------------------------------------------------------------------
# repeated variables as iteratively removed minimal vertex cuts


def _best_cut(g: InteractionGraph, active: set[int], kmax: int):
    """Smallest subset whose removal splits the active graph further.

    Preference order: smaller size, then larger component gain, then
    lexicographically smallest index tuple. None when no cut exists.
    Each component is searched on its own, with the same result: at the
    smallest size s of any cut, a subset of size s that spans two
    components has parts smaller than s, which split no component, and a
    part that covers a whole component removes it, so its gain is at most 0.
    """
    comps = g.components(active)
    for size in range(1, kmax + 1):
        # (-gain, S) for each S of `size` inside one larger component C
        cuts = ((1 - len(g.components(set(C) - set(S))), S)
                for C in comps if len(C) > size for S in itertools.combinations(C, size))
        best = min(cuts, default=(0, None))
        if best[0] < 0:
            return best[1]
    return None


def repeated_vars(
    g: InteractionGraph, k_max: int = RunConfig.kmax, validator=None
) -> tuple[int, ...]:
    """Peel minimal vertex cuts until none remain; the union is X^r.

    After the first cut, `validator` (if given) is consulted with the
    repeated set accumulated so far; peeling stops early as soon as it
    reports the current structure consistent. This keeps cuts that merely
    split the interior of a genuine block from being misread as repeated
    variables.
    """
    active = set(range(1, g.n + 1))
    picked: list[int] = []
    while True:
        cut = _best_cut(g, active, k_max)
        if cut is None:
            break
        if picked and validator is not None and validator(tuple(sorted(picked))):
            break
        picked.extend(cut)
        active -= set(cut)
    return tuple(sorted(picked))


# --------------------------------------------------------------------------
# the anchor and its probes


def _pin(anchor: np.ndarray, cols: tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    """Copies of anchor with `cols` (1-based) replaced by coords rows."""
    coords = np.atleast_2d(coords)
    pts = np.repeat(np.atleast_2d(anchor), coords.shape[0], axis=0)
    for k, v in enumerate(cols):
        pts[:, v - 1] = coords[:, k]
    return pts


class Anchor:
    """One anchor point and the probes there that several stages read.

    `f` is f(point), evaluated on first read when it is not given.
    `attempt` is the key tuple of the anchor's draw: (a,) for detection's
    attempt a, and (a, k) for the k-th second anchor of that attempt; a
    hand-built anchor has (0,). It keys every probe stream read at the
    anchor (`rng`), so each new anchor probes afresh in every stage.
    Each block's spread pair and each membership sweep is evaluated at
    most once, however many stages read it: detection's validator,
    `minimal_blocks` and the omega partition, or the factor sweeps of one
    fit. One that fails raises where it is evaluated, and is not held.
    """

    def __init__(self, o: Oracle, point, cfg: RunConfig, f: float | None = None,
                 attempt: tuple[int, ...] = (0,)):
        self.o, self.cfg, self.attempt = o, cfg, attempt
        self.point = np.asarray(point, dtype=float)
        self._f = f
        self.moves: dict = {}      # (v, t) -> the graph's t-th single move of v
        self._spreads: dict = {}   # block -> spread pair
        self._members: dict = {}   # (v, block) -> coupled

    @classmethod
    def draw(cls, o: Oracle, cfg: RunConfig, attempt: tuple[int, ...]) -> "Anchor | None":
        """The first of ANCHOR_DRAWS draws from the attempt's stream (777)
        with a finite target value, or None. The first is evaluated alone,
        and the others, in one call, only when it is invalid."""
        lo, hi = o.box.lo_array(), o.box.hi_array()
        u = _rng(cfg.seed, 777, *attempt).random((ANCHOR_DRAWS, o.arity))
        anchors = lo + (0.5 * (1.0 - ANCHOR_CENTRAL) + ANCHOR_CENTRAL * u) * (hi - lo)
        f = o.eval_batch(anchors[:1])
        if np.isfinite(f[0]):
            return cls(o, anchors[0], cfg, float(f[0]), attempt)
        rest = o.eval_batch(anchors[1:])
        valid = np.flatnonzero(np.isfinite(rest))
        if not valid.size:
            return None
        return cls(o, anchors[1 + valid[0]], cfg, float(rest[valid[0]]), attempt)

    def rng(self, tag: int, *key: int) -> np.random.Generator:
        """The stream of probe `tag` at this anchor: (seed, tag, *attempt, *key)."""
        return _rng(self.cfg.seed, tag, *self.attempt, *key)

    @property
    def f(self) -> float:
        if self._f is None:
            self._f = float(self.o.eval_batch(self.point[None])[0])
        return self._f

    def uniform(self, cols: tuple[int, ...], count: int, tag: int, *key) -> np.ndarray:
        """`count` draws on the sub-box of `cols` from rng(tag, *key)."""
        idx = [v - 1 for v in cols]
        lo, hi = self.o.box.lo_array()[idx], self.o.box.hi_array()[idx]
        return uniform(self.rng(tag, *key), lo, hi, (count, len(cols)))

    def slice(self, block_vars: tuple[int, ...], coords) -> np.ndarray:
        """h(b) = f(b at block_vars, point elsewhere) - f(point) at each
        row b of coords."""
        return self.o.eval_batch(_pin(self.point, block_vars, coords)) - self.f

    def _spread_pairs(self, blocks) -> None:
        """Evaluate the spread pairs of those of `blocks` that have none
        yet, in one oracle call. The first of them, in block order, whose
        spread pair fails raises its DegenerateAnchorError (see
        `spread_pair`)."""
        new = [b for b in blocks if b not in self._spreads]
        if not new:
            return
        cands = [self.uniform(b, OMEGA_PAIR_CANDIDATES, 401, *b) for b in new]
        f = self.o.eval_batch(np.vstack([_pin(self.point, b, c) for b, c in zip(new, cands)]))
        for b, cand, vals in zip(new, cands, f.reshape(len(new), -1)):
            idx = np.flatnonzero(np.isfinite(vals))
            if idx.size < 2:
                raise DegenerateAnchorError("block probes mostly invalid")
            order = idx[np.argsort(vals[idx])]
            spread = float(vals[order[-1]] - vals[order[0]])
            if spread <= self.cfg.tol_detect * max(1.0, float(np.nanmax(np.abs(vals)))):
                raise DegenerateAnchorError("degenerate block during membership test")
            self._spreads[b] = (cand[order[0]], cand[order[-1]], spread)

    def spread_pair(self, block_vars: tuple[int, ...]):
        """(b_lo, b_hi, spread): the block probe points (stream 401) of the
        lowest and the highest response, and the difference of those. A
        spread within cfg.tol_detect of the responses' scale cannot isolate
        the block's coupling; it raises DegenerateAnchorError, as do fewer
        than two valid probes."""
        self._spread_pairs([block_vars])
        return self._spreads[block_vars]

    def delta_points(self, block_vars: tuple[int, ...], cols: tuple[int, ...],
                     coords) -> np.ndarray:
        """The points of `delta` at the rows of coords: those at b_lo, then
        those at b_hi."""
        b_lo, b_hi, _ = self.spread_pair(block_vars)
        coords = np.atleast_2d(coords)
        n = coords.shape[0]
        pts = _pin(self.point, block_vars, np.repeat(np.stack([b_lo, b_hi]), n, axis=0))
        pts[:, [v - 1 for v in cols]] = np.concatenate([coords, coords])
        return pts

    def delta(self, block_vars: tuple[int, ...], cols: tuple[int, ...], coords) -> np.ndarray:
        """Delta(z) = f(z, b_lo, point elsewhere) - f(z, b_hi, point
        elsewhere) at each row z of coords over `cols`, at the block's
        spread pair, in one oracle call. Every other block cancels, leaving
        the block's repeated coupling times a constant."""
        return _halves_diff(self.o.eval_batch(self.delta_points(block_vars, cols, coords)))

    def memberships(self, blocks, repeated) -> list[tuple[int, ...]]:
        """For each of `blocks`, the repeated variables its difference
        varies with, each swept at MEMBERSHIP_POINTS points of its own
        (stream 601).

        The spread pairs not yet held are evaluated in one oracle call,
        then every sweep not yet held in one more. A failed spread pair
        raises as `_spread_pairs` does, and the first sweep, in block
        order, with fewer than four valid differences raises
        DegenerateAnchorError.
        """
        if not repeated:
            return [() for _ in blocks]
        self._spread_pairs(blocks)
        sweeps = [(v, b) for b in blocks for v in repeated if (v, b) not in self._members]
        if sweeps:
            zs = [self.uniform((v,), MEMBERSHIP_POINTS, 601, v, *b) for v, b in sweeps]
            pts = [self.delta_points(b, (v,), z) for (v, b), z in zip(sweeps, zs)]
            f = self.o.eval_batch(np.vstack(pts))
            for key, fv in zip(sweeps, f.reshape(len(sweeps), -1)):
                deltas = _halves_diff(fv)
                deltas = deltas[np.isfinite(deltas)]
                if deltas.size < 4:
                    raise DegenerateAnchorError("membership sweep mostly invalid")
                dscale = max(1.0, float(np.max(np.abs(deltas))))
                spread = float(np.max(deltas) - np.min(deltas))
                self._members[key] = spread > self.cfg.tol_detect * dscale
        return [tuple(v for v in repeated if self._members[v, b]) for b in blocks]


def _halves_diff(f: np.ndarray) -> np.ndarray:
    """The first half of f less the second: `delta`'s values."""
    n = len(f) // 2
    return f[:n] - f[n:]


def _tabulate(at: Anchor, cols, count: int, key, probe, what: str) -> FactorData:
    """`probe` at `count` draws on the sub-box of `cols` from stream `key`;
    fewer than max(8, count // 2) finite values raise DegenerateAnchorError."""
    pts = at.uniform(cols, count, *key)
    vals = probe(pts)
    good = np.isfinite(vals)
    if good.sum() < max(8, count // 2):
        raise DegenerateAnchorError(f"{what} mostly invalid")
    return FactorData(vars=tuple(cols), points=pts[good], values=vals[good])


def isolate_psi_data(at: Anchor, group: tuple[int, ...]) -> FactorData:
    """Tabulate a psi factor group: the anchor's slice, which equals the
    group's factor up to an affine transform, at PSI_POINTS_PER_VAR points
    a variable (stream 301)."""
    return _tabulate(at, group, PSI_POINTS_PER_VAR * len(group), (301, *group),
                     lambda pts: at.slice(group, pts), "psi slice")


def isolate_omega_data(at: Anchor, block_vars: tuple[int, ...],
                       group: tuple[int, ...]) -> FactorData:
    """Tabulate an omega factor group of a block: the anchor's block
    difference, which equals the group's factor up to an affine transform,
    at OMEGA_POINTS_PER_VAR points a variable and at least 48 (stream 402,
    keyed by the block)."""
    if not group:
        raise ValueError("block has no repeated variables to isolate")
    return _tabulate(at, group, max(48, OMEGA_POINTS_PER_VAR * len(group)),
                     (402, *block_vars), lambda zs: at.delta(block_vars, group, zs),
                     "omega sweep")


# --------------------------------------------------------------------------
# factor partition: pairwise multiplicative separability inside the blocks

GRID_DRAWS = PAIR_PROBES // 2 + 2   # draws per axis of a partition grid
# each grid point's row and column, in row order, but the corner's
_GRID_ROW = np.repeat(np.arange(GRID_DRAWS + 1), GRID_DRAWS + 1)[1:]
_GRID_COL = np.tile(np.arange(GRID_DRAWS + 1), GRID_DRAWS + 1)[1:]


@functools.cache
def _index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs k < k' of range(n), as np.triu_indices(n, 1); shared,
    so never written to."""
    return np.triu_indices(n, 1)


def _rank_one(M: np.ndarray, tol_abs: np.ndarray) -> np.ndarray:
    """For each matrix of the stack M (P, r, c): do all its 2x2 minors
    vanish within tol_abs (pure-product check)? tol_abs (P, r(r-1)/2)
    holds each row pair's tolerance, row pairs (i, i') with i < i' in row
    order; it broadcasts, so (P, 1) gives each matrix one tolerance.

    Each minor M[i, j] M[i', j'] - M[i, j'] M[i', j] with i < i' and
    j < j' is computed once. A row pair fails when the largest of its
    minors exceeds its tolerance; like that maximum, a NaN minor makes its
    row pair pass, and so does a product M[i, j] M[i', j] that is not
    finite, which makes the j = j' minor, 0 otherwise, NaN.
    """
    i, i2 = _index_pairs(M.shape[1])
    j, j2 = _index_pairs(M.shape[2])
    A, B = M[:, i], M[:, i2]            # (P, row pairs, c)
    minors = A[:, :, j] * B[:, :, j2] - A[:, :, j2] * B[:, :, j]
    worst = np.max(np.abs(minors), axis=2)
    nan = ~np.isfinite(A * B).all(axis=2)
    return ~((worst > tol_abs) & ~nan).any(axis=1)


def _products(H: np.ndarray, tol: float) -> np.ndarray:
    """Classify a stack H (P, K, K) of variable-pair response grids, base
    coordinates in row and column zero: True where the pair is a clean
    multiplicative split. A pair with no interaction at all (additively
    fused inside one factor) or one that interacts but not as a product
    (entangled) is False: both stay in one factor.

    Each grid is first divided by its scale, max(1, largest |value|), so
    its values stay within 1 and no difference, minor or tolerance below
    can overflow; the mixed differences are then held to tol. Each row
    pair's minors are held to tol times the product of the two rows'
    sizes, as rank is blind to a row's scale: against the grid's largest
    value alone, a grid that spans hundreds of orders of magnitude, such
    as exp(x1*x2) over a wide box, is one spike, which is rank one, and
    would pass as a product. A row's size is its largest |value|, but at
    least sqrt(tol) times the sum of the largest |values| of the two grid
    rows it is the difference of: where a factor is flat, as
    exp(-12*x1^2) for |x1| > 1.5, the difference is mostly their rounding
    noise, which would fail a product against a tolerance of its own
    size."""
    A = np.abs(H)
    scale = np.maximum(1.0, np.max(A, axis=(1, 2)))[:, None]
    H = H / scale[:, :, None]
    mixed = H - H[:, :, :1] - H[:, :1, :] + H[:, :1, :1]
    none = np.max(np.abs(mixed), axis=(1, 2)) <= tol
    G_rows = H - H[:, :1, :]          # differences against the base a-row
    G_cols = H - H[:, :, :1]          # differences against the base b-column
    M = np.concatenate([G_rows, G_cols.transpose(0, 2, 1)])
    rows, cols = np.max(A, axis=2) / scale, np.max(A, axis=1) / scale
    operands = np.concatenate([rows + rows[:, :1], cols + cols[:, :1]])
    size = np.maximum(np.max(np.abs(M), axis=2), math.sqrt(tol) * operands)
    i, i2 = _index_pairs(M.shape[1])
    rank_one = _rank_one(M, tol * size[:, i] * size[:, i2])
    return ~none & rank_one[:len(H)] & rank_one[len(H):]


def factor_partition(at: Anchor, blocks) -> list[tuple[tuple[tuple[int, ...], ...], ...]]:
    """(psi groups, omega groups) of each block: its own variables and its
    repeated ones, each partitioned into multiplicative factor groups.

    Each variable pair (p, q) of a side is probed on a grid through the
    anchor's coordinates, GRID_DRAWS values a variable drawn within the
    box from the stream at.rng(tag, p, q, *block_vars), tag 501 for psi
    and 502 for omega. Psi grids read the anchor's slice, f(b, anchor
    elsewhere) - f(anchor); omega grids the block differencing `delta` at
    the block's spread pair. The grids' corner is the anchor, whose value
    is known: 0 for psi, and for omega f(b_lo) - f(b_hi), the negated
    spread. Every grid of every block is evaluated in one oracle call and
    classified in one array step. A grid with an invalid point raises
    DegenerateAnchorError; so only an attempt that ends here evaluates
    grids that a grid-by-grid order would have skipped.

    Variables stay in one group when they are additively fused (no
    pairwise interaction) or interact in a non-product way; clean product
    pairs separate. Groups are the connected components of the resulting
    same-factor relation, so a side with one variable is its own group
    and costs no probe.
    """
    o, point = at.o, at.point
    lo, hi = o.box.lo_array(), o.box.hi_array()
    sides = [(b.vars, side, tag) for b in blocks
             for side, tag in ((b.vars, 501), (b.repeated, 502))]
    grids, pts = [], []
    for s, (block_vars, variables, tag) in enumerate(sides):
        for p, q in itertools.combinations(variables, 2):
            # each axis: the anchor's coordinate, then GRID_DRAWS draws
            stream = at.rng(tag, p, q, *block_vars)
            a, b = (np.concatenate(([point[v - 1]],
                                    uniform(stream, lo[v - 1], hi[v - 1], GRID_DRAWS)))
                    for v in (p, q))
            coords = np.column_stack([a[_GRID_ROW], b[_GRID_COL]])
            grids.append((s, p, q))
            pts.append(_pin(point, (p, q), coords) if tag == 501
                       else at.delta_points(block_vars, (p, q), coords))

    def grid(side, f):   # the grid's values, corner first
        block_vars, _, tag = side
        if tag == 501:
            return np.concatenate(([0.0], f - at.f))
        return np.concatenate(([-at.spread_pair(block_vars)[2]], _halves_diff(f)))

    same = set()
    if grids:
        f = o.eval_batch(np.vstack(pts))
        H = np.empty((len(grids), (GRID_DRAWS + 1) ** 2))
        start = 0
        for g, (s, _, _) in enumerate(grids):
            H[g] = grid(sides[s], f[start:start + len(pts[g])])
            start += len(pts[g])
        H = H.reshape(len(grids), GRID_DRAWS + 1, GRID_DRAWS + 1)
        if not np.isfinite(H).all():
            # bubbles up to the anchor attempts of detect_structure
            raise DegenerateAnchorError("factor probe grid hit invalid points")
        products = _products(H, at.cfg.tol_detect)
        same = {g for g, product in zip(grids, products) if not product}
    groups = [tuple(_components(variables, lambda u, w: (s, min(u, w), max(u, w)) in same))
              for s, (_, variables, _) in enumerate(sides)]
    return list(zip(groups[::2], groups[1::2]))


# --------------------------------------------------------------------------
# block construction, membership, and consistency


def _block_consistent(at: Anchor, block_vars, members) -> bool:
    """Slice-versus-coupling proportionality test for one candidate block.

    For a genuine block, h(b) = f(b, anchor else) - f(anchor) and the
    coupling shape g(b) = [f(z, b) - f(z, base)] - [f(anchor_r, b) -
    f(anchor_r, base)] are both affine-free images of the same inner
    function, so all their cross products must cancel. The slice and the
    first trial's points take one oracle call; the second trial, which
    runs only when the first passes, takes one more.
    """
    if not members:
        return True
    o, anchor, cfg = at.o, at.point, at.cfg
    bs = at.uniform(block_vars, 8, 701, *block_vars)
    base_b = np.asarray([anchor[v - 1] for v in block_vars])

    def trial_points(trial):
        # the slice points at z, then the base point at z
        z = at.uniform(members, 1, 702, trial, *block_vars)[0]
        pts = _pin(anchor, block_vars, np.vstack([bs, base_b]))
        pts[:, [v - 1 for v in members]] = z
        return pts

    f = o.eval_batch(np.vstack([_pin(anchor, block_vars, bs), trial_points(0)]))
    h, f = f[:len(bs)] - at.f, f[len(bs):]
    for trial in range(2):
        if trial:
            f = o.eval_batch(trial_points(trial))
        fz, fz0 = f[:-1], f[-1]
        if not (np.all(np.isfinite(fz)) and np.isfinite(fz0) and np.all(np.isfinite(h))):
            raise DegenerateAnchorError("consistency probes invalid")
        g = (fz - fz0) - h
        scale = max(1.0, float(np.max(np.abs(h))), float(np.max(np.abs(fz))))
        cross = np.abs(h[:, None] * g[None, :] - h[None, :] * g[:, None])
        if np.max(cross) > cfg.tol_detect * scale * scale:
            return False
    return True


def _structure_consistent(at: Anchor, g: InteractionGraph, picked) -> bool:
    """Check every candidate block against its repeated-variable coupling,
    block by block: the first inconsistent block ends the check, so no
    later block is probed."""
    rest = set(range(1, g.n + 1)) - set(picked)
    if not rest:
        return False
    for comp in g.components(rest):
        if not _block_consistent(at, comp, at.memberships([comp], picked)[0]):
            return False
    return True


def minimal_blocks(
    at: Anchor, repeated: tuple[int, ...], graph: InteractionGraph
) -> GsStructure:
    """Blocks (with repeated membership) for a given repeated set.

    The blocks are the components of `graph`, scored at `at`, over the
    non-repeated variables it does not ignore. They are recomputed at a
    second anchor, the attempt (*at.attempt, k) of `Anchor.draw`, whose
    graph probes from its own streams, so it must ignore the same ones; a
    disagreement at both (k = 0, 1) raises StructureUnstableError, and a
    draw with no valid point raises DegenerateAnchorError. No block draws
    no second anchor. The second anchor's graph scores only the pairs
    inside the non-repeated variables, the only pairs their components
    read. Memberships read the spread pairs and sweeps of `at`; those
    not yet held are evaluated for all blocks at once, the spread pairs
    in one oracle call and the sweeps in one more.
    """
    o, cfg = at.o, at.cfg
    rest = set(range(1, o.arity + 1)) - set(repeated)
    if not rest:
        raise DetectionError("empty block: every variable marked repeated")
    comps = graph.components(rest)

    for k in range(2):
        if not comps:   # every variable ignored: nothing to disagree on
            break
        second = Anchor.draw(o, cfg, (*at.attempt, k))
        if second is None:
            raise DegenerateAnchorError("anchor value invalid")
        if interaction_graph(second, among=rest).components(rest) == comps:
            break
    else:
        raise StructureUnstableError("structure unstable: anchors disagree on blocks")

    blocks = [Block(vars=comp, repeated=members)
              for comp, members in zip(comps, at.memberships(comps, repeated))]
    return GsStructure(
        repeated=tuple(sorted(repeated)), blocks=blocks, anchor=tuple(at.point),
        ignored=tuple(v for v in graph.ignored if v in rest),
    )


# --------------------------------------------------------------------------
# orchestration


def _reconstruction_ok(at: Anchor, structure: GsStructure) -> bool:
    """Additive reconstruction check with repeated variables at the anchor.

    A lone block's slice is the total but for the ignored variables, and
    with no block every variable is ignored, so both pass unprobed.
    Otherwise the total at every point and every block's slice are
    evaluated in one oracle call. Fewer than RECON_POINTS // 2 valid
    points say nothing about separability, so they raise
    DegenerateAnchorError and the anchor is drawn again.
    """
    if len(structure.blocks) < 2:
        return True
    o, anchor = at.o, at.point
    pts = at.uniform(tuple(range(1, o.arity + 1)), RECON_POINTS, 801)
    for v in structure.repeated:
        pts[:, v - 1] = anchor[v - 1]
    sliced = [_pin(anchor, b.vars, pts[:, [v - 1 for v in b.vars]])
              for b in structure.blocks]
    f = o.eval_batch(np.vstack([pts, *sliced]))
    total = f[:len(pts)]
    parts = f[len(pts):].reshape(-1, len(pts))
    recon = np.full(len(pts), at.f)
    for part in parts:
        recon += part - at.f
    good = np.isfinite(total) & np.isfinite(recon)
    if good.sum() < RECON_POINTS // 2:
        raise DegenerateAnchorError("reconstruction probes mostly invalid")
    scale = max(1.0, float(np.max(np.abs(total[good]))))
    return bool(np.max(np.abs(total[good] - recon[good])) <= at.cfg.tol_detect * scale)


def detect_structure(o: Oracle, cfg: RunConfig | None = None) -> GsStructure:
    """Full structure recovery: graph, repeated set, blocks, factors.

    A degenerate anchor is drawn again. When every attempt fails, the last
    attempt's error is raised, but an attempt that found no valid point
    never replaces the error of an earlier attempt that did.
    """
    cfg = cfg or RunConfig()
    start_count = o.eval_count
    last_error: DetectionError | None = None
    for attempt in range(MAX_ANCHOR_REDRAWS + 1):
        try:
            s = _detect_once(o, cfg, (attempt,))
            s.probes_used = o.eval_count - start_count
            return s
        except DegenerateAnchorError as err:
            if last_error is None or not isinstance(err, TargetInvalidError):
                last_error = err
    raise last_error or DetectionError("detection failed")


def _detect_once(o: Oracle, cfg: RunConfig, attempt: tuple[int]) -> GsStructure:
    """One anchor attempt. Its `Anchor` evaluates f(anchor), each block's
    spread pair and each membership sweep once for every stage, the fit's
    sweeps included: the structure it returns carries it. Every partition
    grid is evaluated in one call. A box probe (stream 900) runs only when
    no anchor draw is valid, to tell a target invalid everywhere."""
    at = Anchor.draw(o, cfg, attempt)
    if at is None:
        probe = o.eval_batch(o.box.uniform(16, _rng(cfg.seed, 900, *attempt)))
        if not np.isfinite(probe).any():
            raise TargetInvalidError("target invalid (nan or inf) at every probed point")
        raise DegenerateAnchorError("anchor value invalid")

    graph = interaction_graph(at)
    validator = lambda picked: _structure_consistent(at, graph, picked)
    repeated = repeated_vars(graph, cfg.kmax, validator=validator)
    structure = minimal_blocks(at, repeated, graph)
    for b, (psi, omega) in zip(structure.blocks, factor_partition(at, structure.blocks)):
        b.psi_factors, b.omega_factors = psi, omega

    if not _reconstruction_ok(at, structure):
        raise NotSeparableError(
            "not a GS system under current tolerances: reconstruction residual too large"
        )
    structure.validate(o.arity)
    structure.at = at
    return structure

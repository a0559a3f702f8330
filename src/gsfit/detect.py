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
    """Pairwise interaction scores between variables (1-based outside)."""

    n: int
    scores: np.ndarray   # (n, n) symmetric, zero diagonal
    tol: float

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.scores[i - 1, j - 1] > self.tol)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                if self.has_edge(i, j):
                    out.append((i, j))
        return out

    def components(self, active: set[int] | None = None) -> list[tuple[int, ...]]:
        """Connected components of the induced subgraph over `active`."""
        verts = sorted(active) if active is not None else list(range(1, self.n + 1))
        return _components(verts, self.has_edge)


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
    probes_used: int = 0
    at: "Anchor | None" = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "at": None}

    def block_count(self) -> int:
        return len(self.blocks)

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
        if sorted(nonrep + list(self.repeated)) != list(range(1, arity + 1)):
            raise DetectionError("blocks plus repeated set do not cover all variables")

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
    a prefix of those it would get under a larger tol.
    """
    o, anchor, fc = at.o, at.point, at.f
    pairs = [tuple(sorted(p)) for p in pairs]
    verts = sorted({v for p in pairs for v in p})
    # each pair's rows of the (variables x attempts) move arrays
    rows = np.array([(verts.index(a), verts.index(b)) for a, b in pairs], dtype=int)
    rows = rows.reshape(-1, 2)
    cols = np.array(verts, dtype=int) - 1
    rngs = [at.rng(101, v) for v in verts]
    lo, hi = o.box.lo_array()[cols, None], o.box.hi_array()[cols, None]

    def draw(m):    # every variable's next m moves, drawn as `uniform` does
        return lo + np.array([r.random(m) for r in rngs]).reshape(-1, m) * (hi - lo)

    moves = draw(probes)                       # X_v[t]
    single = np.empty(moves.shape)             # f at the single moves,
    have = np.zeros(moves.shape, dtype=bool)   # where evaluated so far
    made = np.zeros(len(pairs), dtype=int)     # attempts so far, valid or not
    filled = np.zeros(len(pairs), dtype=int)
    invalid_run = np.zeros(len(pairs), dtype=int)
    diff = np.zeros(len(pairs))
    peak = np.zeros(len(pairs))
    todo = np.arange(len(pairs))
    needs = np.ones(len(pairs), dtype=int)
    while todo.size:
        starts = np.cumsum(needs) - needs      # each pair's attempts are contiguous
        owner = np.repeat(todo, needs)
        t = np.arange(len(owner)) - np.repeat(starts - made[todo], needs)
        made[todo] += needs
        if made.max() > moves.shape[1]:        # invalid attempts used up the moves
            more = draw(made.max() - moves.shape[1])
            moves = np.hstack([moves, more])
            single = np.hstack([single, np.empty(more.shape)])
            have = np.hstack([have, np.zeros(more.shape, dtype=bool)])
        ra, rb = rows[owner, 0], rows[owner, 1]
        reads = np.zeros(have.shape, dtype=bool)
        reads[ra, t] = reads[rb, t] = True
        mr, mt = np.nonzero(reads & ~have)     # single moves read for the first time
        have |= reads
        pts = np.empty((len(mr) + len(owner), anchor.size))
        pts[:] = anchor
        pts[np.arange(len(mr)), cols[mr]] = moves[mr, mt]
        joint = np.arange(len(mr), len(pts))
        pts[joint, cols[ra]] = moves[ra, t]
        pts[joint, cols[rb]] = moves[rb, t]
        f = o.eval_batch(pts)
        single[mr, mt] = f[:len(mr)]
        f4 = np.empty((len(owner), 4))         # each attempt's four values
        f4[:, 0] = f[len(mr):]
        f4[:, 1], f4[:, 2], f4[:, 3] = single[ra, t], single[rb, t], fc
        ok = np.isfinite(f4).all(axis=1)
        if ok.all():
            invalid_run[todo] = 0
        else:
            for k, flags in zip(todo, np.split(ok, starts[1:])):
                for good in flags:
                    invalid_run[k] = 0 if good else invalid_run[k] + 1
                    if invalid_run[k] == MAX_INVALID_ATTEMPTS:
                        raise DegenerateAnchorError(
                            "degenerate domain: probes keep hitting invalid points"
                        )
        # invalid attempts count as 0, which never raises a maximum
        quad = np.where(ok, np.abs(f4[:, 0] - f4[:, 1] - f4[:, 2] + f4[:, 3]), 0.0)
        top = np.where(ok, np.abs(f4).max(axis=1), 0.0)
        diff[todo] = np.maximum(diff[todo], np.maximum.reduceat(quad, starts))
        peak[todo] = np.maximum(peak[todo], np.maximum.reduceat(top, starts))
        filled[todo] += np.add.reduceat(ok, starts, dtype=int)
        score = diff[todo] / np.maximum(1.0, peak[todo])
        todo = todo[(filled[todo] < probes) & ~(score > tol)]
        needs = probes - filled[todo]
    return diff / np.maximum(1.0, peak)


def mixed_diff(
    o: Oracle, i: int, j: int, anchor, probes: int = PAIR_PROBES, seed: int = 0
) -> float:
    """Normalized anchored mixed-second-difference score for (i, j).

    Exactly zero (up to rounding) when x_i and x_j sit in additively
    separated parts of the target. Scored over all `probes` probes by the
    scorer interaction_graph uses, at a fresh `Anchor` under `seed`, so it
    equals the graph's score at such an anchor wherever the pair is no
    edge; on an edge the graph stores the score of the probes drawn until
    it cleared tol, and both clear it.
    """
    if i == j:
        raise ValueError("need two distinct variables")
    at = Anchor(o, anchor, RunConfig(seed=seed))
    return float(_pair_scores(at, [(i, j)], probes)[0])


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
    probes drawn until then. Every probe reads f(anchor), evaluated on
    first read when the anchor does not hold it.
    """
    n, tol = at.o.arity, at.cfg.tol_detect
    verts = sorted(among) if among is not None else range(1, n + 1)
    pairs = list(itertools.combinations(verts, 2))
    scores = np.zeros((n, n))
    for (i, j), s in zip(pairs, _pair_scores(at, pairs, PAIR_PROBES, tol)):
        scores[i - 1, j - 1] = scores[j - 1, i - 1] = s
    return InteractionGraph(n=n, scores=scores, tol=tol)


# --------------------------------------------------------------------------
# repeated variables as iteratively removed minimal vertex cuts


def _best_cut(g: InteractionGraph, active: set[int], kmax: int):
    """Smallest subset whose removal splits the active graph further.

    Preference order: smaller size, then larger component gain, then
    lexicographically smallest index tuple. None when no cut exists.
    """
    base = len(g.components(active))
    verts = sorted(active)
    for size in range(1, min(kmax, len(verts) - 1) + 1):
        best = None
        for S in itertools.combinations(verts, size):
            rest = active - set(S)
            if not rest:
                continue
            gain = len(g.components(rest)) - base
            if gain > 0:
                key = (-gain, S)
                if best is None or key < best:
                    best = key
        if best is not None:
            return tuple(best[1])
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
    fit.
    """

    def __init__(self, o: Oracle, point, cfg: RunConfig, f: float | None = None,
                 attempt: tuple[int, ...] = (0,)):
        self.o, self.cfg, self.attempt = o, cfg, attempt
        self.point = np.asarray(point, dtype=float)
        self._f = f
        self._spreads: dict = {}
        self._members: dict = {}

    @classmethod
    def draw(cls, o: Oracle, cfg: RunConfig, attempt: tuple[int, ...]) -> "Anchor | None":
        """The first of ANCHOR_DRAWS draws from the attempt's stream (777)
        with a finite target value, or None. The others are evaluated, in
        one call, only when the first is invalid."""
        lo, hi = o.box.lo_array(), o.box.hi_array()
        u = _rng(cfg.seed, 777, *attempt).random((ANCHOR_DRAWS, o.arity))
        anchors = lo + (0.5 * (1.0 - ANCHOR_CENTRAL) + ANCHOR_CENTRAL * u) * (hi - lo)
        f = o(anchors[0])
        if np.isfinite(f):
            return cls(o, anchors[0], cfg, f, attempt)
        f = o.eval_batch(anchors[1:])
        valid = np.flatnonzero(np.isfinite(f))
        if not valid.size:
            return None
        return cls(o, anchors[1 + valid[0]], cfg, float(f[valid[0]]), attempt)

    def rng(self, tag: int, *key: int) -> np.random.Generator:
        """The stream of probe `tag` at this anchor: (seed, tag, *attempt, *key)."""
        return _rng(self.cfg.seed, tag, *self.attempt, *key)

    @property
    def f(self) -> float:
        if self._f is None:
            self._f = self.o(self.point)
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

    def spread_pair(self, block_vars: tuple[int, ...]):
        """(b_lo, b_hi, spread): the block probe points (stream 401) of the
        lowest and the highest response, and the difference of those. A
        spread within cfg.tol_detect of the responses' scale cannot isolate
        the block's coupling; it raises DegenerateAnchorError, as do fewer
        than two valid probes."""
        if block_vars not in self._spreads:
            cand = self.uniform(block_vars, OMEGA_PAIR_CANDIDATES, 401, *block_vars)
            vals = self.o.eval_batch(_pin(self.point, block_vars, cand))
            idx = np.flatnonzero(np.isfinite(vals))
            if idx.size < 2:
                raise DegenerateAnchorError("block probes mostly invalid")
            order = idx[np.argsort(vals[idx])]
            spread = float(vals[order[-1]] - vals[order[0]])
            if spread <= self.cfg.tol_detect * max(1.0, float(np.nanmax(np.abs(vals)))):
                raise DegenerateAnchorError("degenerate block during membership test")
            self._spreads[block_vars] = (cand[order[0]], cand[order[-1]], spread)
        return self._spreads[block_vars]

    def delta(self, block_vars: tuple[int, ...], cols: tuple[int, ...], coords) -> np.ndarray:
        """Delta(z) = f(z, b_lo, point elsewhere) - f(z, b_hi, point
        elsewhere) at each row z of coords over `cols`, at the block's
        spread pair, in one oracle call. Every other block cancels, leaving
        the block's repeated coupling times a constant."""
        b_lo, b_hi, _ = self.spread_pair(block_vars)
        coords = np.atleast_2d(coords)
        n = coords.shape[0]
        pts = _pin(self.point, block_vars, np.repeat(np.stack([b_lo, b_hi]), n, axis=0))
        pts[:, [v - 1 for v in cols]] = np.concatenate([coords, coords])
        f = self.o.eval_batch(pts)
        return f[:n] - f[n:]

    def membership(self, block_vars: tuple[int, ...], repeated) -> tuple[int, ...]:
        """The repeated variables the block's difference varies with, each
        swept at MEMBERSHIP_POINTS points of its own (stream 601)."""
        for v in repeated:
            if (v, block_vars) not in self._members:
                zs = self.uniform((v,), MEMBERSHIP_POINTS, 601, v, *block_vars)
                deltas = self.delta(block_vars, (v,), zs)
                deltas = deltas[np.isfinite(deltas)]
                if deltas.size < 4:
                    raise DegenerateAnchorError("membership sweep mostly invalid")
                dscale = max(1.0, float(np.max(np.abs(deltas))))
                spread = float(np.max(deltas) - np.min(deltas))
                self._members[v, block_vars] = spread > self.cfg.tol_detect * dscale
        return tuple(v for v in repeated if self._members[v, block_vars])


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
    a variable (stream 301). A group the target ignores tabulates a
    constant, which the fit reads as a constant factor."""
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
# factor partition: pairwise multiplicative-separability inside one block


def _pair_grid_values(
    probe, base, corner: float, ip: int, iq: int, stream, lo, hi
) -> np.ndarray:
    """Response grid over a (K+1)x(K+1) lattice in the plane of columns
    ip and iq of the base coordinates.

    Row/column zero hold the base coordinates, so mixed differences and
    one-sided differences against the base come out of the same grid.
    Their corner, the base itself, is `corner`, the probe's value there,
    which the caller already holds; the probe evaluates the other points.
    """
    k = PAIR_PROBES // 2 + 2
    a_vals = np.concatenate(([base[ip]], uniform(stream, lo[ip], hi[ip], k)))
    b_vals = np.concatenate(([base[iq]], uniform(stream, lo[iq], hi[iq], k)))
    coords = np.tile(base, ((k + 1) * (k + 1), 1))
    coords[:, ip] = np.repeat(a_vals, k + 1)
    coords[:, iq] = np.tile(b_vals, k + 1)
    return np.concatenate(([corner], probe(coords[1:]))).reshape(k + 1, k + 1)


def _rank_one(M: np.ndarray, tol_abs: float) -> bool:
    """All 2x2 minors of M vanish within tol_abs (pure-product check).

    P[i, i', j, j'] = M[i, j] * M[i', j'], so P - P.swapaxes(2, 3) holds
    every minor of rows i, i' (twice, up to sign, and zeros for i = i').
    A row pair fails when the largest of its minors exceeds tol_abs; like
    that maximum, a NaN minor makes its row pair pass.
    """
    P = M[:, None, :, None] * M[None, :, None, :]
    worst = np.max(np.abs(P - P.swapaxes(2, 3)), axis=(2, 3))
    return not np.any(worst > tol_abs)


def _pair_separable(H: np.ndarray, cfg: RunConfig) -> str:
    """Classify a variable pair from its response grid H.

    Returns "none" (no interaction at all: the pair is additively fused
    inside one factor), "product" (clean multiplicative split), or
    "entangled" (interacting but not a product: same factor).
    """
    if not np.all(np.isfinite(H)):
        # bubbles up to the anchor attempts of detect_structure
        raise DegenerateAnchorError("factor probe grid hit invalid points")
    scale = max(1.0, float(np.max(np.abs(H))))
    mixed = H - H[:, :1] - H[:1, :] + H[0, 0]
    if np.max(np.abs(mixed)) <= cfg.tol_detect * scale:
        return "none"
    G_rows = H - H[:1, :]          # differences against the base a-row
    G_cols = H - H[:, :1]          # differences against the base b-column
    tol_abs = cfg.tol_detect * scale * scale
    if _rank_one(G_rows, tol_abs) and _rank_one(G_cols.T, tol_abs):
        return "product"
    return "entangled"


def factor_partition(
    at: Anchor, variables: tuple[int, ...], probe, corner: float,
    key: tuple[int, tuple[int, ...]],
) -> tuple[tuple[int, ...], ...]:
    """Partition `variables` into multiplicative factor groups.

    `probe` maps an (N, len(variables)) array of their coordinates to
    response values, everything else pinned, and `corner` is its value at
    the anchor's coordinates, which no grid evaluates again; each pair
    (p, q) is probed on a grid through the anchor's coordinates, drawn
    within the box from the stream at.rng(tag, p, q, *block_vars), where
    key = (tag, block_vars). Variables stay in one group when they are
    additively fused (no pairwise interaction) or interact in a
    non-product way; clean product pairs separate. Groups are the
    connected components of the resulting same-factor relation. A single
    variable is its own group without a probe.
    """
    if len(variables) == 1:
        return (tuple(variables),)
    tag, block_vars = key
    cols = [v - 1 for v in variables]
    base = at.point[cols]
    lo, hi = at.o.box.lo_array()[cols], at.o.box.hi_array()[cols]
    same = set()
    for (ip, p), (iq, q) in itertools.combinations(enumerate(variables), 2):
        stream = at.rng(tag, p, q, *block_vars)
        H = _pair_grid_values(probe, base, corner, ip, iq, stream, lo, hi)
        if _pair_separable(H, at.cfg) != "product":
            same |= {(p, q), (q, p)}
    return tuple(_components(variables, lambda u, w: (u, w) in same))


# --------------------------------------------------------------------------
# block construction, membership, and consistency


def _block_consistent(at: Anchor, block_vars, members) -> bool:
    """Slice-versus-coupling proportionality test for one candidate block.

    For a genuine block, h(b) = f(b, anchor else) - f(anchor) and the
    coupling shape g(b) = [f(z, b) - f(z, base)] - [f(anchor_r, b) -
    f(anchor_r, base)] are both affine-free images of the same inner
    function, so all their cross products must cancel. The slice takes
    one oracle call, and each trial's points one more.
    """
    if not members:
        return True
    o, anchor, cfg = at.o, at.point, at.cfg
    bs = at.uniform(block_vars, 8, 701, *block_vars)
    h = at.slice(block_vars, bs)
    base_b = np.asarray([anchor[v - 1] for v in block_vars])
    for trial in range(2):
        z = at.uniform(members, 1, 702, trial, *block_vars)[0]
        # the slice points at z, then the base point at z
        pts = _pin(anchor, block_vars, np.vstack([bs, base_b]))
        pts[:, [v - 1 for v in members]] = z
        f = o.eval_batch(pts)
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
    """Check every candidate block against its repeated-variable coupling."""
    rest = set(range(1, g.n + 1)) - set(picked)
    if not rest:
        return False
    for comp in g.components(rest):
        if not _block_consistent(at, comp, at.membership(comp, picked)):
            return False
    return True


def minimal_blocks(
    at: Anchor, repeated: tuple[int, ...], graph: InteractionGraph
) -> GsStructure:
    """Blocks (with repeated membership) for a given repeated set.

    The blocks are the components of `graph`, scored at `at`, over the
    non-repeated variables. They are recomputed at a second anchor, the
    attempt (*at.attempt, k) of `Anchor.draw`, whose graph probes from its
    own streams; a disagreement at both (k = 0, 1) raises
    StructureUnstableError, and a draw with no valid point raises
    DegenerateAnchorError. The second anchor's graph scores only the pairs
    inside the non-repeated variables, the only pairs their components
    read. Memberships read the spread pairs and sweeps of `at`.
    """
    o, cfg = at.o, at.cfg
    rest = set(range(1, o.arity + 1)) - set(repeated)
    if not rest:
        raise DetectionError("empty block: every variable marked repeated")
    comps = graph.components(rest)

    for k in range(2):
        second = Anchor.draw(o, cfg, (*at.attempt, k))
        if second is None:
            raise DegenerateAnchorError("anchor value invalid")
        if interaction_graph(second, among=rest).components(rest) == comps:
            break
    else:
        raise StructureUnstableError("structure unstable: anchors disagree on blocks")

    blocks = [Block(vars=comp, repeated=at.membership(comp, repeated)) for comp in comps]
    return GsStructure(
        repeated=tuple(sorted(repeated)), blocks=blocks, anchor=tuple(at.point)
    )


# --------------------------------------------------------------------------
# orchestration


def _reconstruction_ok(at: Anchor, structure: GsStructure) -> bool:
    """Additive reconstruction check with repeated variables at the anchor.

    The total at every point and every block's slice are evaluated in one
    oracle call; a lone block holds every non-repeated variable, so its
    slice is the total itself and is not evaluated again. Fewer than
    RECON_POINTS // 2 valid points say nothing about separability, so
    they raise DegenerateAnchorError and the anchor is drawn again.
    """
    o, anchor = at.o, at.point
    pts = at.uniform(tuple(range(1, o.arity + 1)), RECON_POINTS, 801)
    for v in structure.repeated:
        pts[:, v - 1] = anchor[v - 1]
    blocks = structure.blocks
    sliced = [] if len(blocks) == 1 else [
        _pin(anchor, b.vars, pts[:, [v - 1 for v in b.vars]]) for b in blocks
    ]
    f = o.eval_batch(np.vstack([pts, *sliced]))
    total = f[:len(pts)]
    parts = f[len(pts):].reshape(-1, len(pts)) if sliced else [total]
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
    sweeps included: the structure it returns carries it."""
    at = Anchor.draw(o, cfg, attempt)
    box_probe = o.box.uniform(16, _rng(cfg.seed, 900, *attempt))
    if at is None:
        if not np.isfinite(o.eval_batch(box_probe)).any():
            raise TargetInvalidError("target invalid (nan or inf) at every probed point")
        raise DegenerateAnchorError("anchor value invalid")

    # constant targets have no blocks at all
    probe = o.eval_batch(box_probe)
    probe = probe[np.isfinite(probe)]
    scale = max(1.0, abs(at.f))
    if probe.size and np.max(np.abs(probe - at.f)) <= cfg.tol_detect * scale:
        return GsStructure(repeated=(), blocks=[], anchor=tuple(at.point), at=at)

    graph = interaction_graph(at)
    validator = lambda picked: _structure_consistent(at, graph, picked)
    repeated = repeated_vars(graph, cfg.kmax, validator=validator)
    structure = minimal_blocks(at, repeated, graph)

    # each partition grid's corner is the anchor: psi reads 0 there, and
    # omega f(b_lo) - f(b_hi), the negated spread of the block's spread pair
    for b in structure.blocks:
        psi = lambda coords: at.slice(b.vars, coords)
        b.psi_factors = factor_partition(at, b.vars, psi, 0.0, (501, b.vars))
        if len(b.repeated) > 1:
            omega = lambda coords: at.delta(b.vars, b.repeated, coords)
            b.omega_factors = factor_partition(
                at, b.repeated, omega, -at.spread_pair(b.vars)[2], (502, b.vars)
            )
        elif b.repeated:
            b.omega_factors = (b.repeated,)

    if not _reconstruction_ok(at, structure):
        raise NotSeparableError(
            "not a GS system under current tolerances: reconstruction residual too large"
        )
    structure.validate(o.arity)
    structure.at = at
    return structure

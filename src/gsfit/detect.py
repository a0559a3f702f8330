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
FIRST_BLOCK_PER_VAR = 16    # points per variable of a factor sweep's first block
MEMBERSHIP_POINTS = 12      # sweep length per repeated-variable test
GRID_DRAWS = PAIR_PROBES // 2 + 2   # draws per axis of a partition grid
OMEGA_PAIR_CANDIDATES = 8   # probes of each block (`Anchor.probes`)
ANCHOR_CENTRAL = 0.5        # anchors drawn from this central fraction
MAX_ANCHOR_REDRAWS = 3
ANCHOR_DRAWS = 16           # draws per anchor attempt, the first valid one is used
RECON_POINTS = 32           # totals drawn per reconstruction check


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
    # a sweep's first block, which `fit.fit_factor` fits by its own rule
    first_block: bool = False


# --------------------------------------------------------------------------
# pairwise interaction scores


def _pair_scores(at: Anchor, pairs, probes: int, tol: float = math.inf,
                 ahead=None) -> np.ndarray:
    """Normalized anchored mixed differences of variable pairs, others pinned.

    Variable v draws its moves X_v[0], X_v[1], ... on [lo_v, hi_v] from
    its own stream (`Anchor.moves`), so each anchor attempt probes afresh.
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

    The attempts are counted in rounds. The first round takes one attempt
    a pair; each later one takes, for every unfinished pair, as many
    attempts as it still needs probes. A pair is finished once it has
    `probes` probes or once its score clears `tol`: one probe above tol
    already proves an interaction, so such a pair's score covers only the
    probes drawn until then. A pair that never clears tol gets the same
    attempts, and so the same score, as under tol = inf. Attempt t reads
    the t-th move of each of its variables, so a pair's attempts are a
    prefix of those it would get under a larger tol, and each variable's
    evaluated single moves are a prefix of its moves.

    Each round evaluates the attempts it counts that are not evaluated
    yet, with the single moves they reach for the first time, in one
    oracle call, and none when there are none. `ahead` gives, pair by
    pair, how many attempts the first call evaluates (default: one each);
    a pair expected to take all its probes is given `probes`, so that
    the next round finds them evaluated. It moves no attempt between
    rounds, so the scores are the same whatever it asks for. The single
    moves and each pair's evaluated attempts stay on the anchor, in
    `Anchor.moves` and `Anchor.joint`, for `interaction_graph` and the
    psi partition grids.
    """
    o, anchor, fc = at.o, at.point, float(at.f)
    pairs = [tuple(sorted(p)) for p in pairs]
    held = [at.joint.setdefault(p, []) for p in pairs]   # f at each evaluated attempt
    made, filled, run = [0] * len(pairs), [0] * len(pairs), [0] * len(pairs)
    diff, peak = [0.0] * len(pairs), [0.0] * len(pairs)
    todo, need = list(range(len(pairs))), [1] * len(pairs)
    upto = [1] * len(pairs) if ahead is None else list(ahead)
    while todo:
        ends = [max(made[k] + m, upto[k]) for k, m in zip(todo, need)]
        fresh = [(k, t) for k, end in zip(todo, ends) for t in range(len(held[k]), end)]
        if fresh:
            # each variable's held moves, drawn as far as the call reads,
            # and the single moves it evaluates, in order after those held
            top = max(ends)
            mv = {v: at.moves(v, top) for v in {v for k in todo for v in pairs[k]}}
            new = sorted({(v, t) for k, t in fresh for v in pairs[k] if t >= len(mv[v][1])})
            pts = np.tile(anchor, (len(new) + len(fresh), 1))
            for i, (v, t) in enumerate(new):
                pts[i, v - 1] = mv[v][0][t]
            for i, (k, t) in enumerate(fresh, len(new)):
                for v in pairs[k]:
                    pts[i, v - 1] = mv[v][0][t]
            f = o.eval_batch(pts).tolist()
            for (v, _), fv in zip(new, f):
                mv[v][1].append(fv)
            for (k, _), fv in zip(fresh, f[len(new):]):
                held[k].append(fv)
        for k, m in zip(todo, need):
            (a, b), h = pairs[k], held[k]
            fa, fb = at.moves(a)[1], at.moves(b)[1]
            for t in range(made[k], made[k] + m):
                f4 = (h[t], fa[t], fb[t], fc)
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
            made[k] += m
        # the stop test waits for the round: its points are evaluated in
        # one call already, and an edge's score covers all of them
        todo = [k for k in todo if filled[k] < probes and not diff[k] / max(1.0, peak[k]) > tol]
        need = [probes - filled[k] for k in todo]
    return np.array(diff) / np.maximum(1.0, peak)


def interaction_graph(at: Anchor, among: set[int] | None = None,
                      prior: InteractionGraph | None = None) -> InteractionGraph:
    """Score variable pairs at the anchor; edge wherever the score clears
    cfg.tol_detect. The graph is returned and held on the anchor
    (`Anchor.graph`), for the stages that read it there.

    Every pair of variables in `among` (default: all) is scored, the
    others score 0. All pairs are scored together: the first oracle call
    holds one probe of every pair and the first move of every variable,
    the second the remaining probes of the pairs not yet edges and the
    moves they read, so the graph usually costs two calls, and one
    when every pair is an edge. A pair stops probing once its score
    clears cfg.tol_detect, so an edge's stored score covers only the
    probes drawn until then. `prior`, a graph of the same target at
    another anchor, predicts which pairs will stop: a pair that is no
    edge of it has all PAIR_PROBES attempts, and the moves they read,
    evaluated in the first call, so where the prediction holds the graph
    costs one call. The scores, edges and ignored set are those without
    `prior`; a pair it wrongly calls no edge costs up to PAIR_PROBES - 1
    evaluations that no score reads, and one it wrongly calls an edge
    the second call it would cost without it. Every probe reads
    f(anchor), evaluated on first read when the anchor does not hold it.
    The graph reads its edges off the scores once, as Python bools, for
    the many `has_edge` calls of peeling. A variable of `among` with no
    edge, a finite single move, and every finite one within
    cfg.tol_detect * max(1, |f(anchor)|) of f(anchor) is ignored. A lone
    variable, in no pair, has its PAIR_PROBES moves evaluated in a call
    of their own.
    """
    n, tol = at.o.arity, at.cfg.tol_detect
    verts = sorted(among) if among is not None else range(1, n + 1)
    pairs = list(itertools.combinations(verts, 2))
    ahead = None if prior is None else [1 if prior.has_edge(*p) else PAIR_PROBES for p in pairs]
    scores = np.zeros((n, n))
    for (i, j), s in zip(pairs, _pair_scores(at, pairs, PAIR_PROBES, tol, ahead)):
        scores[i - 1, j - 1] = scores[j - 1, i - 1] = s
    if len(verts) == 1:   # a lone variable, in no pair
        (v,) = verts
        xs, fs = at.moves(v, PAIR_PROBES)
        pts = _pin(at.point, (v,), np.array(xs[:PAIR_PROBES])[:, None])
        fs[:PAIR_PROBES] = at.o.eval_batch(pts).tolist()
    # each variable's largest finite move off f(anchor)
    fc = at.f
    flat, edged = tol * max(1.0, abs(fc)), (scores > tol).any(axis=1)
    ignored = tuple(v for v in verts if not edged[v - 1] and max(
        (abs(fv - fc) for fv in at.moves(v)[1] if math.isfinite(fv)), default=math.inf) <= flat)
    at.graph = InteractionGraph(n=n, scores=scores, tol=tol, ignored=ignored)
    return at.graph


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
    `graph` is the anchor's interaction graph, once `interaction_graph`
    has scored it. Each probe is drawn and evaluated at most once, however
    many stages read it, and held with its points:
    - each variable's graph moves and its single moves among them
      (`moves`), and each pair's attempts (`joint`), which the psi
      partition grids also read, on their first row and column and on
      their diagonal;
    - each block's probes (`probes`), which its spread pair, its
      consistency probe and the reconstruction check read;
    - each membership sweep, whole or the prefix of it that the graph
      lets suffice (`memberships`), which `minimal_blocks`, detection's
      validator and the omega partition grids read.
    The factor sweeps of one fit read the same spread pairs. A spread
    pair or a sweep that fails raises where it is read, and is not held.
    The first block of each factor sweep is also evaluated once and held
    (`_tabulate`), for the rest of its sweep, when drawn, to join.
    """

    def __init__(self, o: Oracle, point, cfg: RunConfig, f: float | None = None,
                 attempt: tuple[int, ...] = (0,)):
        self.o, self.cfg, self.attempt = o, cfg, attempt
        self.point = np.asarray(point, dtype=float)
        self._f = f
        self.graph: InteractionGraph | None = None
        self.joint: dict = {}      # (a, b) -> f at its attempts t = 0, 1, ... evaluated so far
        self._moves: dict = {}     # v -> its stream, its moves drawn and its single moves
        self._probes: dict = {}    # block -> its probe points and their values
        self._spreads: dict = {}   # block -> spread pair
        self._members: dict = {}   # (v, block) -> sweep points, deltas, coupled
        self._sweeps: dict = {}    # stream key -> its sweep's first block's values

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

    def moves(self, v: int, n: int = 0) -> tuple[list[float], list[float]]:
        """(xs, fs): xs are X_v[0], X_v[1], ...: the moves of variable v,
        draws on [lo_v, hi_v] of its stream rng(101, v), PAIR_PROBES at a
        time, as `uniform` draws them, drawn on until there are at least
        n; fs are the single moves evaluated so far, f at the anchor with
        x_v = X_v[t] for t = 0, 1, .... Both lists are the ones held, and
        their readers extend fs."""
        if v not in self._moves:
            self._moves[v] = (self.rng(101, v), [], [])
        r, xs, fs = self._moves[v]
        if n > len(xs):
            lo, hi = self.o.box.lo[v - 1], self.o.box.hi[v - 1]
            xs += (lo + r.random(max(PAIR_PROBES, n - len(xs))) * (hi - lo)).tolist()
        return xs, fs

    def eval_with_probes(self, blocks, pts: np.ndarray | None = None) -> np.ndarray:
        """f at the rows of pts, in one oracle call with the probes of
        those of `blocks` not held yet, which it holds; no call when there
        is nothing to evaluate."""
        new = [b for b in blocks if b not in self._probes]
        cands = [self.uniform(b, OMEGA_PAIR_CANDIDATES, 401, *b) for b in new]
        rows = [_pin(self.point, b, c) for b, c in zip(new, cands)]
        if pts is not None and len(pts):
            rows.append(pts)
        if not rows:
            return np.empty(0)
        f = self.o.eval_batch(np.vstack(rows))
        k = OMEGA_PAIR_CANDIDATES
        for i, (b, cand) in enumerate(zip(new, cands)):
            self._probes[b] = (cand, f[i * k:(i + 1) * k])
        return f[len(new) * k:]

    def probes(self, block_vars: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(points, values): the block's OMEGA_PAIR_CANDIDATES probes, draws
        on its sub-box from stream 401 with the anchor elsewhere, and f at
        them, evaluated on first use."""
        if block_vars not in self._probes:
            self.eval_with_probes([block_vars])
        return self._probes[block_vars]

    def spread_pairs(self, blocks) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """(b_lo, b_hi, spread) of each of `blocks`: the block probes
        (`probes`) of the lowest and the highest response, and the
        difference of those. The probes not yet held of the blocks with
        no spread pair yet are evaluated in one oracle call. A spread
        within cfg.tol_detect of the responses' scale cannot isolate the
        block's coupling; it raises DegenerateAnchorError, as do fewer
        than two valid probes, for the first such block in block order."""
        new = [b for b in blocks if b not in self._spreads]
        self.eval_with_probes(new)
        for b in new:
            cand, vals = self._probes[b]
            idx = np.flatnonzero(np.isfinite(vals))
            if idx.size < 2:
                raise DegenerateAnchorError("block probes mostly invalid")
            order = idx[np.argsort(vals[idx])]
            spread = float(vals[order[-1]] - vals[order[0]])
            if spread <= self.cfg.tol_detect * max(1.0, float(np.nanmax(np.abs(vals)))):
                raise DegenerateAnchorError("degenerate block during membership test")
            self._spreads[b] = (cand[order[0]], cand[order[-1]], spread)
        return [self._spreads[b] for b in blocks]

    def memberships(self, blocks, repeated) -> list[tuple[int, ...]]:
        """For each of `blocks`, the repeated variables its difference
        varies with (`_couples`), each swept at MEMBERSHIP_POINTS points
        of its own (stream 601). Each sweep's points and differences are
        held: all its points, or a prefix that already couples.

        The anchor's graph (`graph`), once scored, sizes the sweeps. A
        sweep of v into a block the graph links v to evaluates its first
        GRID_DRAWS points, and its other ones only when those do not
        couple; since the rule never turns back once a prefix couples,
        the verdict is that of the whole sweep. Any other sweep, and
        every sweep at an anchor with no graph, is evaluated whole.

        The block probes not yet held are evaluated in one oracle call,
        then every sweep not yet held, or its first points, in one more,
        and the rest of the sweeps that need it in a third. A failed
        spread pair raises as `spread_pairs` does, and a sweep with
        fewer than four valid differences, once its points are all
        evaluated, raises DegenerateAnchorError.
        """
        if not repeated:
            return [() for _ in blocks]
        self.spread_pairs(blocks)
        sweeps = [(v, b) for b in blocks for v in repeated if (v, b) not in self._members]
        if sweeps:
            tol, g = self.cfg.tol_detect, self.graph
            zs = [self.uniform((v,), MEMBERSHIP_POINTS, 601, v, *b) for v, b in sweeps]
            heads = [GRID_DRAWS if g is not None and any(g.has_edge(v, u) for u in b)
                     else MEMBERSHIP_POINTS for v, b in sweeps]
            deltas = self._sweep_deltas([(b, (v,), z[:m])
                                         for (v, b), z, m in zip(sweeps, zs, heads)])
            coupled = [_couples(d, tol) for d in deltas]
            more = [k for k, (m, c) in enumerate(zip(heads, coupled))
                    if m < MEMBERSHIP_POINTS and not c]
            if any(c is None and m == MEMBERSHIP_POINTS for m, c in zip(heads, coupled)):
                raise DegenerateAnchorError("membership sweep mostly invalid")
            if more:
                tails = self._sweep_deltas([(sweeps[k][1], (sweeps[k][0],), zs[k][heads[k]:])
                                            for k in more])
                for k, d in zip(more, tails):
                    deltas[k] = np.concatenate([deltas[k], d])
                    coupled[k] = _couples(deltas[k], tol)
                if None in coupled:
                    raise DegenerateAnchorError("membership sweep mostly invalid")
            for key, z, d, c in zip(sweeps, zs, deltas, coupled):
                self._members[key] = (z[:len(d), 0], d, c)
        return [tuple(v for v in repeated if self._members[v, b][2]) for b in blocks]

    def _sweep_deltas(self, sweeps) -> list[np.ndarray]:
        """Delta(z) = f(z, b_lo, point elsewhere) - f(z, b_hi, point
        elsewhere) at each row z of coords over `cols`, for each
        (block_vars, cols, coords) of sweeps, at the block's spread pair,
        all in one oracle call. Every other block cancels, leaving the
        block's repeated coupling times a constant. The points are the
        rows of each sweep's coords with its block at b_lo, then with it
        at b_hi, sweep by sweep."""
        pts = np.repeat(self.point[None], 2 * sum(len(z) for *_, z in sweeps), axis=0)
        start = 0
        for b, cols, z in sweeps:
            (b_lo, b_hi, _), = self.spread_pairs([b])
            lo, hi = pts[start:start + len(z)], pts[start + len(z):start + 2 * len(z)]
            lo[:, [u - 1 for u in b]], hi[:, [u - 1 for u in b]] = b_lo, b_hi
            lo[:, [v - 1 for v in cols]] = hi[:, [v - 1 for v in cols]] = z
            start += 2 * len(z)
        f = self.o.eval_batch(pts)
        ends = itertools.accumulate(2 * len(z) for *_, z in sweeps)
        return [_halves_diff(f[end - 2 * len(z):end]) for (*_, z), end in zip(sweeps, ends)]


def _couples(deltas: np.ndarray, tol: float) -> bool | None:
    """The membership rule on a sweep's differences: None when fewer than
    four are valid, else whether their spread exceeds tol times their
    scale, max(1, largest |difference|). For tol <= 1 a valid difference
    added never lowers spread - tol * scale, since it raises the scale by
    at most what it raises the spread; so once some of a sweep's
    differences couple, every sweep that holds them does."""
    valid = deltas[np.isfinite(deltas)]
    if valid.size < 4:
        return None
    dscale = max(1.0, float(np.max(np.abs(valid))))
    return float(np.max(valid) - np.min(valid)) > tol * dscale


def _halves_diff(f: np.ndarray) -> np.ndarray:
    """The first half of f less the second: a block difference's values."""
    n = len(f) // 2
    return f[:n] - f[n:]


def _tabulate(at: Anchor, cols, count: int, key, probe, what: str,
              first_block: bool) -> FactorData | None:
    """`probe` at a sweep of `count` draws on the sub-box of `cols` from
    stream `key`, evaluated in two steps of that one draw: its first
    block, the first FIRST_BLOCK_PER_VAR * len(cols) points, then the
    rest, each row once.

    The block is evaluated on first use and its values held on the
    anchor, by stream. With first_block, the block's finite points, marked
    as a first block, or None when fewer than max(8, block // 2) are
    finite. Otherwise the whole sweep's, the rest evaluated in one oracle
    call; fewer than max(8, count // 2) finite values raise
    DegenerateAnchorError.
    """
    pts = at.uniform(cols, count, *key)
    head = FIRST_BLOCK_PER_VAR * len(cols)
    if key not in at._sweeps:
        at._sweeps[key] = probe(pts[:head])
    vals = at._sweeps[key]
    if first_block:
        pts, need = pts[:head], max(8, head // 2)
    else:
        vals, need = np.concatenate([vals, probe(pts[head:])]), max(8, count // 2)
    good = np.isfinite(vals)
    if good.sum() < need:
        if first_block:
            return None
        raise DegenerateAnchorError(f"{what} mostly invalid")
    return FactorData(vars=tuple(cols), points=pts[good], values=vals[good],
                      first_block=first_block)


def isolate_psi_data(at: Anchor, group: tuple[int, ...],
                     first_block: bool = False) -> FactorData | None:
    """Tabulate a psi factor group: the anchor's slice, h(b) = f(b at the
    group, anchor elsewhere) - f(anchor), which equals the group's factor
    up to an affine transform, at PSI_POINTS_PER_VAR points a variable
    (stream 301), or at its first block of FIRST_BLOCK_PER_VAR (see
    `_tabulate`)."""
    return _tabulate(at, group, PSI_POINTS_PER_VAR * len(group), (301, *group),
                     lambda pts: at.o.eval_batch(_pin(at.point, group, pts)) - at.f,
                     "psi slice", first_block)


def isolate_omega_data(at: Anchor, block_vars: tuple[int, ...], group: tuple[int, ...],
                       first_block: bool = False) -> FactorData | None:
    """Tabulate an omega factor group of a block: the anchor's block
    difference (`Anchor._sweep_deltas`), which equals the group's factor
    up to an affine transform, at OMEGA_POINTS_PER_VAR points a variable
    and at least 48 (stream 402, keyed by the block and the group), or
    at its first block of FIRST_BLOCK_PER_VAR (see `_tabulate`)."""
    if not group:
        raise ValueError("block has no repeated variables to isolate")
    return _tabulate(at, group, max(48, OMEGA_POINTS_PER_VAR * len(group)),
                     (402, *block_vars, *group),
                     lambda zs: at._sweep_deltas([(block_vars, group, zs)])[0],
                     "omega sweep", first_block)


# --------------------------------------------------------------------------
# factor partition: pairwise multiplicative separability inside the blocks


@functools.cache
def _index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs k < k' of range(n), as np.triu_indices(n, 1); shared,
    so never written to."""
    return np.triu_indices(n, 1)


@functools.lru_cache(maxsize=256)   # a layout per side size and held diagonal
def _grid_cells(m: int, held: tuple[int, ...] = ()):
    """The inner points of the grids of every variable pair (`_index_pairs`)
    of a side of m variables, pair by pair, each in row order, less the
    first held[k] diagonal cells (t, t) of pair k: their indices among
    all inner points, their positions, then each point's row and its
    column, as (variable index, axis draw) arrays, and the indices of the
    cells left out; shared, so never written to."""
    i, j = _index_pairs(m)
    n = GRID_DRAWS
    skip = np.array([k * n * n + t * (n + 1) for k, c in enumerate(held) for t in range(c)],
                    dtype=np.intp)
    cells = np.delete(np.arange(n * n * len(i)), skip)
    pair = cells // (n * n)
    return cells, np.arange(len(cells)), (i[pair], cells // n % n), (j[pair], cells % n), skip


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


def factor_partition(at: Anchor, blocks,
                     hold=()) -> list[tuple[tuple[tuple[int, ...], ...], ...]]:
    """(psi groups, omega groups) of each block: its own variables and its
    repeated ones, each partitioned into multiplicative factor groups.

    Each variable pair (p, q) of a side is probed on a grid through the
    anchor's coordinates, whose axes are draws the anchor already holds:
    for a psi side the graph's first GRID_DRAWS moves of each variable
    (`Anchor.moves`), for an omega side the first GRID_DRAWS points of
    its membership sweep (`Anchor.memberships`, sized by the anchor's
    graph); each variable's axis is read once a side. Psi grids read the
    anchor's slice, f(b, anchor elsewhere) - f(anchor); omega grids the
    block difference (`Anchor._sweep_deltas`) at the block's spread
    pair. A grid's corner is the anchor, whose value is known: 0 for psi,
    and for omega f(b_lo) - f(b_hi), the negated spread. Its first row
    and column move one variable: they are the held single moves and
    membership differences, and of them only the moves not held yet are
    evaluated. A psi grid's cell (t, t) is the graph's attempt t of its
    pair; where the anchor holds it (`Anchor.joint`), it is read, not
    evaluated again.
    Those and the inner points of every grid of every block, with the
    probes of the `hold` blocks not held yet (`Anchor.probes`), are
    evaluated in one oracle call, and the grids are classified in one
    array step. A grid with an invalid point raises DegenerateAnchorError;
    so only an attempt that ends here evaluates grids that a grid-by-grid
    order would have skipped.

    Variables stay in one group when they are additively fused (no
    pairwise interaction) or interact in a non-product way; clean product
    pairs separate. Groups are the connected components of the resulting
    same-factor relation, so a side with one variable is its own group
    and costs no probe.
    """
    point, n = at.point, GRID_DRAWS
    sides = [(b.vars, side, psi) for b in blocks
             for side, psi in ((b.vars, True), (b.repeated, False))]
    # (side, index pairs, the cells it evaluates, those it holds and their
    # values) of each side with a pair, and the inner points it evaluates
    grids, inner = [], []
    for s, (block_vars, variables, psi) in enumerate(sides):
        if len(variables) < 2:
            continue
        held, values = (), []
        if psi:
            axes = np.array([at.moves(v, n)[0][:n] for v in variables])
            base = point[None]
            # cell (t, t) of pair (p, q) is the graph's attempt t of the pair
            diag = [at.joint.get(pq, ())[:n] for pq in itertools.combinations(variables, 2)]
            held, values = tuple(map(len, diag)), [fv for d in diag for fv in d]
        else:
            at.memberships([block_vars], variables)
            axes = np.array([at._members[v, block_vars][0][:n] for v in variables])
            base = _pin(point, block_vars, np.stack(at.spread_pairs([block_vars])[0][:2]))
        # every pair's inner points, in row order, at each base row in turn
        cells, rows, (ri, rt), (ci, ct), skip = _grid_cells(len(variables), held)
        cols = np.array(variables) - 1
        pts = np.repeat(base[:, None], len(cells), axis=1)
        pts[:, rows, cols[ri]] = axes[ri, rt]
        pts[:, rows, cols[ci]] = axes[ci, ct]
        grids.append((s, *_index_pairs(len(variables)), cells, skip, values))
        inner.append(pts.reshape(-1, len(point)))

    # the single moves of the psi grids' first rows and columns not yet held
    new = [(v, t) for s, *_ in grids if sides[s][2] for v in sides[s][1]
           for t in range(len(at.moves(v)[1]), n)]
    pts = np.repeat(point[None], len(new), axis=0)
    for r, (v, t) in enumerate(new):
        pts[r, v - 1] = at.moves(v, n)[0][t]
    f = at.eval_with_probes(hold, np.vstack([pts, *inner]))
    for (v, _), fv in zip(new, f[:len(new)].tolist()):
        at.moves(v)[1].append(fv)

    H, start = [], len(new)
    for (s, i, j, cells, skip, values), pts in zip(grids, inner):
        block_vars, variables, psi = sides[s]
        vals, start = f[start:start + len(pts)], start + len(pts)
        if skip.size:
            full = np.empty(len(i) * n * n)
            full[cells], full[skip] = vals, values
            vals = full
        if psi:
            corner, vals = 0.0, vals - at.f
            edge = np.array([at.moves(v)[1][:n] for v in variables]) - at.f
        else:
            corner, vals = -at.spread_pairs([block_vars])[0][2], _halves_diff(vals)
            edge = np.array([at._members[v, block_vars][1][:n] for v in variables])
        h = np.empty((len(i), n + 1, n + 1))
        h[:, 0, 0], h[:, 1:, 0], h[:, 0, 1:] = corner, edge[i], edge[j]
        h[:, 1:, 1:] = vals.reshape(len(i), n, n)
        H.append(h)

    same = set()
    if grids:
        H = np.concatenate(H)
        if not np.isfinite(H).all():
            # bubbles up to the anchor attempts of detect_structure
            raise DegenerateAnchorError("factor probe grid hit invalid points")
        pairs = [(s, sides[s][1][a], sides[s][1][b]) for s, i, j, *_ in grids for a, b in zip(i, j)]
        same = {g for g, product in zip(pairs, _products(H, at.cfg.tol_detect)) if not product}
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
    function, so all their cross products must cancel. The slice h is
    read at the block's probes (`Anchor.probes`), held by its membership
    test. Each trial takes one oracle call, and the second runs only when
    the first passes.
    """
    if not members:
        return True
    o, anchor, cfg = at.o, at.point, at.cfg
    bs, fb = at.probes(block_vars)
    h = fb - at.f
    base_b = np.asarray([anchor[v - 1] for v in block_vars])
    for trial in range(2):
        # the slice points at z, then the base point at z
        z = at.uniform(members, 1, 702, trial, *block_vars)[0]
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


def _structure_consistent(at: Anchor, picked) -> bool:
    """Check every candidate block, a component of the anchor's graph
    over the variables not in `picked`, against its repeated-variable
    coupling, block by block: the first inconsistent block ends the
    check, so no later block is probed."""
    rest = set(range(1, at.o.arity + 1)) - set(picked)
    if not rest:
        return False
    for comp in at.graph.components(rest):
        if not _block_consistent(at, comp, at.memberships([comp], picked)[0]):
            return False
    return True


def minimal_blocks(at: Anchor, repeated: tuple[int, ...]) -> GsStructure:
    """Blocks (with repeated membership) for a given repeated set.

    The blocks are the components of the anchor's graph (`Anchor.graph`,
    scored here when the anchor holds none) over the non-repeated
    variables it does not ignore. They are recomputed at a
    second anchor, the attempt (*at.attempt, k) of `Anchor.draw`, whose
    graph probes from its own streams, so it must ignore the same ones; a
    disagreement at both (k = 0, 1) raises StructureUnstableError, and a
    draw with no valid point raises DegenerateAnchorError. No block draws
    no second anchor. The second anchor's graph scores only the pairs
    inside the non-repeated variables, the only pairs their components
    read, and takes the anchor's graph as its prior: the pairs that are no
    edge of it take all their probes in its first call, so it usually
    costs one. Memberships read the spread pairs and sweeps of `at`,
    sized by its graph; those not yet held are evaluated for all blocks at
    once, the spread pairs in one oracle call and the sweeps in one more.
    """
    o, cfg, graph = at.o, at.cfg, at.graph or interaction_graph(at)
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
        if interaction_graph(second, among=rest, prior=graph).components(rest) == comps:
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
    Otherwise each of RECON_POINTS totals sets every block's variables to
    one of that block's finite probes (`Anchor.probes`), picked by indices
    drawn from stream 801, with every other variable at the anchor, and
    is held to f(anchor) plus the sum of those probes' slices. Only the
    distinct totals are evaluated, in one oracle call: the probes are held
    already, or evaluated in one call of their own. A block with fewer
    than half of its probes finite, or fewer than RECON_POINTS // 2 valid
    totals among those drawn, says nothing about separability, so it
    raises DegenerateAnchorError and the anchor is drawn again.
    """
    if len(structure.blocks) < 2:
        return True
    blocks = [b.vars for b in structure.blocks]
    at.eval_with_probes(blocks)
    pick, picks = at.rng(801), []
    pts = np.repeat(at.point[None], RECON_POINTS, axis=0)
    recon = np.full(RECON_POINTS, at.f)
    for b in blocks:
        coords, vals = at.probes(b)
        finite = np.flatnonzero(np.isfinite(vals))
        if 2 * finite.size < OMEGA_PAIR_CANDIDATES:
            raise DegenerateAnchorError("reconstruction probes mostly invalid")
        k = finite[pick.integers(finite.size, size=RECON_POINTS)]
        pts[:, [v - 1 for v in b]] = coords[k]
        recon += vals[k] - at.f
        picks.append(k)
    # each distinct total is evaluated once, at the row that first draws it
    first: dict = {}
    drawn = [first.setdefault(row.tobytes(), i) for i, row in enumerate(np.column_stack(picks))]
    keep, total = list(first.values()), np.empty(RECON_POINTS)
    total[keep] = at.o.eval_batch(pts[keep])
    total = total[drawn]
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
    """One anchor attempt. Its `Anchor` evaluates f(anchor), the graph's
    single moves and pair probes, each block's probes and each membership
    sweep once for every stage, the fit's sweeps included: the structure
    it returns carries it. The anchor holds its graph (`Anchor.graph`),
    which sizes the membership sweeps, the partition's included, and
    predicts the second anchor's graph (`minimal_blocks`). Every
    partition grid is evaluated in one call. A box probe (stream 900)
    runs only when no anchor draw is valid, to tell a target invalid
    everywhere."""
    at = Anchor.draw(o, cfg, attempt)
    if at is None:
        probe = o.eval_batch(o.box.uniform(16, _rng(cfg.seed, 900, *attempt)))
        if not np.isfinite(probe).any():
            raise TargetInvalidError("target invalid (nan or inf) at every probed point")
        raise DegenerateAnchorError("anchor value invalid")

    graph = interaction_graph(at)
    validator = lambda picked: _structure_consistent(at, picked)
    repeated = repeated_vars(graph, cfg.kmax, validator=validator)
    structure = minimal_blocks(at, repeated)
    # the reconstruction check of two or more blocks reads their probes;
    # those the memberships did not evaluate, as when no variable is
    # repeated, join the grids' call
    hold = [b.vars for b in structure.blocks] if len(structure.blocks) > 1 else []
    for b, (psi, omega) in zip(structure.blocks, factor_partition(at, structure.blocks, hold)):
        b.psi_factors, b.omega_factors = psi, omega

    if not _reconstruction_ok(at, structure):
        raise NotSeparableError(
            "not a GS system under current tolerances: reconstruction residual too large"
        )
    structure.validate(o.arity)
    structure.at = at
    return structure

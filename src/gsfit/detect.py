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
from dataclasses import dataclass, field

import numpy as np

from .oracle import Oracle


class DetectionError(RuntimeError):
    """Detection could not produce a structure."""


class DegenerateAnchorError(DetectionError):
    """The anchor annihilated a needed signal; caller should redraw."""


class StructureUnstableError(DetectionError):
    """Two anchors disagree on the block partition."""


class NotSeparableError(DetectionError):
    """Reconstruction residual too large: not a GS system at this tolerance."""


@dataclass
class DetectConfig:
    tol: float = 1e-8               # relative detection tolerance
    pair_probes: int = 8            # probe quadruples per pairwise test
    kmax: int = 3                   # largest candidate repeated-variable cut
    seed: int = 0
    psi_points_per_var: int = 48    # tabulated points per block variable
    omega_points_per_var: int = 32
    membership_points: int = 12     # sweep length per repeated-variable test
    omega_pair_candidates: int = 8
    anchor_central: float = 0.5     # anchors drawn from this central fraction
    max_anchor_redraws: int = 3
    recon_points: int = 32


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


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
    """Detected decomposition of the target."""

    repeated: tuple[int, ...]
    blocks: list[Block]
    anchor: tuple[float, ...]
    probes_used: int = 0

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
        return {
            "repeated": list(self.repeated),
            "blocks": [
                {
                    "vars": list(b.vars),
                    "repeated": list(b.repeated),
                    "psi_factors": [list(g) for g in b.psi_factors],
                    "omega_factors": [list(g) for g in b.omega_factors],
                }
                for b in self.blocks
            ],
            "anchor": [float(a) for a in self.anchor],
            "probes_used": int(self.probes_used),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass
class FactorData:
    """Tabulated response of one isolated factor group.

    Values are known only up to an affine transform of the true factor.
    `prober` maps an (N, len(vars)) array of points (coordinates for
    `vars`, everything else implicitly pinned) to response values; the
    partition tests re-probe through it.
    """

    vars: tuple[int, ...]
    points: np.ndarray
    values: np.ndarray
    role: str                     # "psi" or "omega"
    block_vars: tuple[int, ...]
    prober: object = field(repr=False, default=None)
    base: np.ndarray | None = field(repr=False, default=None)


# --------------------------------------------------------------------------
# pairwise interaction scores


def _probe_pair_values(
    o: Oracle, i: int, j: int, anchor: np.ndarray, probes: int, seed: int
):
    """Mixed-difference quadruples for variables i<j, others pinned.

    Returns (diffs, max_abs) where diffs holds |f(u,v)-f(u,v')-f(u',v)+f(u',v')|
    per probe and max_abs the largest |f| seen.
    """
    a, b = (i, j) if i < j else (j, i)
    rng = _rng(seed, 101, a, b)
    lo, hi = o.box.lo_array(), o.box.hi_array()
    diffs = np.empty(probes)
    max_abs = 0.0
    for p in range(probes):
        for _ in range(11):
            u, up = rng.uniform(lo[a - 1], hi[a - 1], size=2)
            v, vp = rng.uniform(lo[b - 1], hi[b - 1], size=2)
            pts = np.tile(anchor, (4, 1))
            pts[:, a - 1] = (u, u, up, up)
            pts[:, b - 1] = (v, vp, v, vp)
            f = o.eval_batch(pts)
            if np.all(np.isfinite(f)):
                break
        else:
            raise DetectionError("degenerate domain: probes keep hitting invalid points")
        diffs[p] = abs(f[0] - f[1] - f[2] + f[3])
        max_abs = max(max_abs, float(np.max(np.abs(f))))
    return diffs, max_abs


def mixed_diff(
    o: Oracle, i: int, j: int, anchor, probes: int = 8, seed: int = 0
) -> float:
    """Normalized mixed-second-difference interaction score for (i, j).

    Exactly zero (up to rounding) when x_i and x_j sit in additively
    separated parts of the target.
    """
    if i == j:
        raise ValueError("need two distinct variables")
    anchor = np.asarray(anchor, dtype=float)
    diffs, max_abs = _probe_pair_values(o, i, j, anchor, probes, seed)
    return float(np.max(diffs) / max(1.0, max_abs))


def interaction_graph(o: Oracle, anchor, cfg: DetectConfig) -> InteractionGraph:
    """Score every variable pair; edge wherever the score clears cfg.tol."""
    n = o.arity
    anchor = np.asarray(anchor, dtype=float)
    scores = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            s = mixed_diff(o, i, j, anchor, cfg.pair_probes, cfg.seed)
            scores[i - 1, j - 1] = scores[j - 1, i - 1] = s
    return InteractionGraph(n=n, scores=scores, tol=cfg.tol)


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


def repeated_vars(g: InteractionGraph, k_max: int = 3, validator=None) -> tuple[int, ...]:
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
# slicing helpers


def _pin(anchor: np.ndarray, cols: tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    """Copies of anchor with `cols` (1-based) replaced by coords rows."""
    coords = np.atleast_2d(coords)
    pts = np.tile(anchor, (coords.shape[0], 1))
    for k, v in enumerate(cols):
        pts[:, v - 1] = coords[:, k]
    return pts


def _subbox_uniform(o: Oracle, cols: tuple[int, ...], count: int, rng) -> np.ndarray:
    lo, hi = o.box.lo_array(), o.box.hi_array()
    idx = [v - 1 for v in cols]
    return rng.uniform(lo[idx], hi[idx], size=(count, len(cols)))


def _spread_pair(o: Oracle, block_vars, anchor, cfg, seed_key):
    """Two block-variable probe points with the widest response spread."""
    rng = _rng(cfg.seed, *seed_key)
    cand = _subbox_uniform(o, block_vars, cfg.omega_pair_candidates, rng)
    vals = o.eval_batch(_pin(anchor, block_vars, cand))
    finite = np.isfinite(vals)
    if finite.sum() < 2:
        raise DegenerateAnchorError("block probes mostly invalid")
    order = np.argsort(vals[finite])
    idx = np.flatnonzero(finite)
    b_lo, b_hi = cand[idx[order[0]]], cand[idx[order[-1]]]
    spread = float(vals[idx[order[-1]]] - vals[idx[order[0]]])
    scale = max(1.0, float(np.nanmax(np.abs(vals))))
    return b_lo, b_hi, spread, scale


def _delta_values(o: Oracle, sweep_cols, coords, block_vars, b1, b2, anchor):
    """Block-isolating difference at swept repeated coordinates.

    Delta(z) = f(z, b1, rest anchor) - f(z, b2, rest anchor); every other
    block cancels, leaving the block's repeated coupling times a constant.
    """
    p1 = _pin(anchor, block_vars, np.tile(b1, (np.atleast_2d(coords).shape[0], 1)))
    p2 = _pin(anchor, block_vars, np.tile(b2, (np.atleast_2d(coords).shape[0], 1)))
    coords = np.atleast_2d(coords)
    for k, v in enumerate(sweep_cols):
        p1[:, v - 1] = coords[:, k]
        p2[:, v - 1] = coords[:, k]
    return o.eval_batch(p1) - o.eval_batch(p2)


def isolate_psi_data(
    o: Oracle, block_vars: tuple[int, ...], anchor, n_points: int, seed: int,
    cfg: DetectConfig | None = None,
) -> FactorData:
    """Tabulate the block response with everything else pinned at the anchor.

    h(b) = f(b at block vars, anchor elsewhere) - f(anchor) equals the
    block's non-repeated part up to an affine transform.
    """
    cfg = cfg or DetectConfig(seed=seed)
    anchor = np.asarray(anchor, dtype=float)
    rng = _rng(seed, 301, *block_vars)
    f0 = o(anchor)
    pts = _subbox_uniform(o, block_vars, n_points, rng)
    vals = o.eval_batch(_pin(anchor, block_vars, pts)) - f0
    good = np.isfinite(vals)
    if good.sum() < max(8, n_points // 2):
        raise DegenerateAnchorError("psi slice mostly invalid")
    pts, vals = pts[good], vals[good]
    scale = max(1.0, float(np.max(np.abs(vals))), abs(f0))
    if float(np.max(vals) - np.min(vals)) <= cfg.tol * scale:
        raise DegenerateAnchorError("degenerate block: sliced responses constant")

    def prober(coords: np.ndarray) -> np.ndarray:
        return o.eval_batch(_pin(anchor, block_vars, coords)) - f0

    return FactorData(
        vars=tuple(block_vars), points=pts, values=vals, role="psi",
        block_vars=tuple(block_vars), prober=prober,
        base=anchor[[v - 1 for v in block_vars]].copy(),
    )


def isolate_omega_data(
    o: Oracle, block_vars: tuple[int, ...], block_repeated: tuple[int, ...],
    anchor, n_points: int, seed: int, cfg: DetectConfig | None = None,
) -> FactorData:
    """Tabulate the block's repeated-variable coupling via differencing."""
    if not block_repeated:
        raise ValueError("block has no repeated variables to isolate")
    cfg = cfg or DetectConfig(seed=seed)
    anchor = np.asarray(anchor, dtype=float)
    b1, b2, spread, scale = _spread_pair(o, block_vars, anchor, cfg, (401, *block_vars))
    if spread <= cfg.tol * scale:
        raise DegenerateAnchorError(
            "unresolvable omega: no block probe pair separates responses"
        )
    rng = _rng(seed, 402, *block_vars)
    zs = _subbox_uniform(o, block_repeated, n_points, rng)
    vals = _delta_values(o, block_repeated, zs, block_vars, b1, b2, anchor)
    good = np.isfinite(vals)
    if good.sum() < max(8, n_points // 2):
        raise DegenerateAnchorError("omega sweep mostly invalid")
    zs, vals = zs[good], vals[good]

    def prober(coords: np.ndarray) -> np.ndarray:
        return _delta_values(o, block_repeated, coords, block_vars, b1, b2, anchor)

    return FactorData(
        vars=tuple(block_repeated), points=zs, values=vals, role="omega",
        block_vars=tuple(block_vars), prober=prober,
        base=anchor[[v - 1 for v in block_repeated]].copy(),
    )


# --------------------------------------------------------------------------
# factor partition: pairwise multiplicative-separability inside one block


def _pair_grid_values(d: FactorData, p: int, q: int, box_lo, box_hi, cfg: DetectConfig):
    """Response grid over a (K+1)x(K+1) lattice in the (p, q) plane.

    Row/column zero hold the base coordinates, so mixed differences and
    one-sided differences against the base come out of the same grid.
    """
    k = cfg.pair_probes // 2 + 2
    ip, iq = d.vars.index(p), d.vars.index(q)
    rng = _rng(cfg.seed, 501 if d.role == "psi" else 502, p, q, *d.block_vars)
    a_vals = np.concatenate(([d.base[ip]], rng.uniform(box_lo[ip], box_hi[ip], k)))
    b_vals = np.concatenate(([d.base[iq]], rng.uniform(box_lo[iq], box_hi[iq], k)))
    coords = np.tile(d.base, ((k + 1) * (k + 1), 1))
    coords[:, ip] = np.repeat(a_vals, k + 1)
    coords[:, iq] = np.tile(b_vals, k + 1)
    vals = d.prober(coords).reshape(k + 1, k + 1)
    return vals


def _rank_one(M: np.ndarray, tol_abs: float) -> bool:
    """All 2x2 minors of M vanish within tol_abs (pure-product check)."""
    r, c = M.shape
    for i, ip in itertools.combinations(range(r), 2):
        lhs = M[i, :, None] * M[ip, None, :]
        if np.max(np.abs(lhs - lhs.T)) > tol_abs:
            return False
    return True


def _pair_separable(d: FactorData, p: int, q: int, box_lo, box_hi, cfg: DetectConfig):
    """Classify variable pair (p, q) inside factor data d.

    Returns "none" (no interaction at all: the pair is additively fused
    inside one factor), "product" (clean multiplicative split), or
    "entangled" (interacting but not a product: same factor).
    """
    H = _pair_grid_values(d, p, q, box_lo, box_hi, cfg)
    if not np.all(np.isfinite(H)):
        # bubbles up to the anchor-redraw loop in detect_structure
        raise DegenerateAnchorError("factor probe grid hit invalid points")
    scale = max(1.0, float(np.max(np.abs(H))))
    mixed = H - H[:, :1] - H[:1, :] + H[0, 0]
    if np.max(np.abs(mixed)) <= cfg.tol * scale:
        return "none"
    G_rows = H - H[:1, :]          # differences against the base a-row
    G_cols = H - H[:, :1]          # differences against the base b-column
    tol_abs = cfg.tol * scale * scale
    if _rank_one(G_rows, tol_abs) and _rank_one(G_cols.T, tol_abs):
        return "product"
    return "entangled"


def factor_partition(d: FactorData, cfg: DetectConfig, box=None) -> tuple[tuple[int, ...], ...]:
    """Partition d's variables into multiplicative factor groups.

    Variables stay in one group when they are additively fused (no pairwise
    interaction inside the sliced data) or interact in a non-product way;
    clean product pairs separate. Groups are the connected components of
    the resulting same-factor relation.
    """
    k = len(d.vars)
    if k == 1:
        return (d.vars,)
    if box is None:
        raise ValueError("factor_partition needs the oracle box for probe ranges")
    lo = np.asarray([box.lo[v - 1] for v in d.vars])
    hi = np.asarray([box.hi[v - 1] for v in d.vars])
    same = set()
    for p, q in itertools.combinations(d.vars, 2):
        if _pair_separable(d, p, q, lo, hi, cfg) != "product":
            same |= {(p, q), (q, p)}
    return tuple(_components(d.vars, lambda u, w: (u, w) in same))


# --------------------------------------------------------------------------
# block construction, membership, and consistency


def _draw_anchor(o: Oracle, cfg: DetectConfig, attempt: int) -> np.ndarray:
    rng = _rng(cfg.seed, 777, attempt)
    lo, hi = o.box.lo_array(), o.box.hi_array()
    margin = 0.5 * (1.0 - cfg.anchor_central)
    u = rng.random(o.arity)
    return lo + (margin + cfg.anchor_central * u) * (hi - lo)


def _membership(o: Oracle, block_vars, repeated, anchor, cfg) -> tuple[int, ...]:
    """Which repeated variables the block's isolating difference varies with."""
    if not repeated:
        return ()
    b1, b2, spread, scale = _spread_pair(o, block_vars, anchor, cfg, (401, *block_vars))
    if spread <= cfg.tol * scale:
        raise DegenerateAnchorError("degenerate block during membership test")
    members = []
    for v in repeated:
        rng = _rng(cfg.seed, 601, v, *block_vars)
        zs = _subbox_uniform(o, (v,), cfg.membership_points, rng)
        deltas = _delta_values(o, (v,), zs, block_vars, b1, b2, anchor)
        deltas = deltas[np.isfinite(deltas)]
        if deltas.size < 4:
            raise DegenerateAnchorError("membership sweep mostly invalid")
        dscale = max(1.0, float(np.max(np.abs(deltas))))
        if float(np.max(deltas) - np.min(deltas)) > cfg.tol * dscale:
            members.append(v)
    return tuple(members)


def _block_consistent(o: Oracle, block_vars, members, anchor, cfg) -> bool:
    """Slice-versus-coupling proportionality test for one candidate block.

    For a genuine block, h(b) = f(b, anchor else) - f(anchor) and the
    coupling shape g(b) = [f(z, b) - f(z, base)] - [f(anchor_r, b) -
    f(anchor_r, base)] are both affine-free images of the same inner
    function, so all their cross products must cancel.
    """
    if not members:
        return True
    rng = _rng(cfg.seed, 701, *block_vars)
    n_b = 8
    bs = _subbox_uniform(o, block_vars, n_b, rng)
    f_anchor = o(anchor)
    h = o.eval_batch(_pin(anchor, block_vars, bs)) - f_anchor
    base_b = np.asarray([anchor[v - 1] for v in block_vars])
    for trial in range(2):
        z = _subbox_uniform(o, members, 1, _rng(cfg.seed, 702, trial, *block_vars))[0]
        pts = _pin(anchor, block_vars, bs)
        for k, v in enumerate(members):
            pts[:, v - 1] = z[k]
        base_pt = _pin(anchor, block_vars, base_b.reshape(1, -1))
        for k, v in enumerate(members):
            base_pt[:, v - 1] = z[k]
        fz = o.eval_batch(pts)
        fz0 = o.eval_batch(base_pt)[0]
        if not (np.all(np.isfinite(fz)) and np.isfinite(fz0) and np.all(np.isfinite(h))):
            raise DegenerateAnchorError("consistency probes invalid")
        g = (fz - fz0) - h
        scale = max(1.0, float(np.max(np.abs(h))), float(np.max(np.abs(fz))))
        cross = np.abs(h[:, None] * g[None, :] - h[None, :] * g[:, None])
        if np.max(cross) > cfg.tol * scale * scale:
            return False
    return True


def _structure_consistent(o: Oracle, g: InteractionGraph, picked, anchor, cfg) -> bool:
    """Check every candidate block against its repeated-variable coupling."""
    rest = set(range(1, g.n + 1)) - set(picked)
    if not rest:
        return False
    for comp in g.components(rest):
        members = _membership(o, comp, tuple(sorted(picked)), anchor, cfg)
        if not _block_consistent(o, comp, members, anchor, cfg):
            return False
    return True


def minimal_blocks(
    o: Oracle, repeated: tuple[int, ...], anchor, cfg: DetectConfig,
    graph: InteractionGraph | None = None,
) -> GsStructure:
    """Blocks (with repeated membership) for a given repeated set.

    Components are recomputed at a second anchor; a disagreement after one
    redraw raises StructureUnstableError.
    """
    anchor = np.asarray(anchor, dtype=float)
    if graph is None:
        graph = interaction_graph(o, anchor, cfg)
    rest = set(range(1, o.arity + 1)) - set(repeated)
    if not rest:
        raise DetectionError("empty block: every variable marked repeated")
    comps = graph.components(rest)

    stable = False
    for attempt in range(2):
        anchor2 = _draw_anchor(o, cfg, 50 + attempt)
        cfg2 = DetectConfig(**{**cfg.__dict__, "seed": cfg.seed + 9999 + attempt})
        graph2 = interaction_graph(o, anchor2, cfg2)
        if graph2.components(rest) == comps:
            stable = True
            break
    if not stable:
        raise StructureUnstableError("structure unstable: anchors disagree on blocks")

    blocks = []
    for comp in comps:
        members = _membership(o, comp, repeated, anchor, cfg)
        blocks.append(Block(vars=comp, repeated=members))
    return GsStructure(
        repeated=tuple(sorted(repeated)), blocks=blocks, anchor=tuple(anchor)
    )


# --------------------------------------------------------------------------
# orchestration


def _reconstruction_ok(o: Oracle, structure: GsStructure, cfg: DetectConfig) -> bool:
    """Additive reconstruction check with repeated variables at the anchor."""
    anchor = np.asarray(structure.anchor)
    rng = _rng(cfg.seed, 801)
    pts = o.box.uniform(cfg.recon_points, rng)
    for v in structure.repeated:
        pts[:, v - 1] = anchor[v - 1]
    f_anchor = o(anchor)
    total = o.eval_batch(pts)
    recon = np.full(len(pts), f_anchor)
    for b in structure.blocks:
        sliced = _pin(anchor, b.vars, pts[:, [v - 1 for v in b.vars]])
        recon += o.eval_batch(sliced) - f_anchor
    good = np.isfinite(total) & np.isfinite(recon)
    if good.sum() < cfg.recon_points // 2:
        return False
    scale = max(1.0, float(np.max(np.abs(total[good]))))
    return bool(np.max(np.abs(total[good] - recon[good])) <= cfg.tol * scale)


def detect_structure(o: Oracle, cfg: DetectConfig | None = None) -> GsStructure:
    """Full structure recovery: graph, repeated set, blocks, factors."""
    cfg = cfg or DetectConfig()
    start_count = o.eval_count
    last_error: DetectionError | None = None
    for attempt in range(cfg.max_anchor_redraws + 1):
        try:
            s = _detect_once(o, cfg, attempt)
            s.probes_used = o.eval_count - start_count
            return s
        except DegenerateAnchorError as err:
            last_error = err
            continue
    raise last_error or DetectionError("detection failed")


def _detect_once(o: Oracle, cfg: DetectConfig, attempt: int) -> GsStructure:
    anchor = _draw_anchor(o, cfg, attempt)
    f_anchor = o(anchor)
    if not np.isfinite(f_anchor):
        raise DegenerateAnchorError("anchor value invalid")

    # constant targets have no blocks at all
    probe = o.eval_batch(o.box.uniform(16, _rng(cfg.seed, 900, attempt)))
    probe = probe[np.isfinite(probe)]
    if probe.size and np.max(np.abs(probe - f_anchor)) <= cfg.tol * max(1.0, abs(f_anchor)):
        return GsStructure(repeated=(), blocks=[], anchor=tuple(anchor))

    graph = interaction_graph(o, anchor, cfg)
    validator = lambda picked: _structure_consistent(o, graph, picked, anchor, cfg)
    repeated = repeated_vars(graph, cfg.kmax, validator=validator)
    structure = minimal_blocks(o, repeated, anchor, cfg, graph=graph)

    for b in structure.blocks:
        psi = isolate_psi_data(
            o, b.vars, anchor, cfg.psi_points_per_var * len(b.vars), cfg.seed, cfg
        )
        b.psi_factors = factor_partition(psi, cfg, box=o.box)
        if b.repeated:
            omega = isolate_omega_data(
                o, b.vars, b.repeated, anchor,
                cfg.omega_points_per_var * len(b.repeated), cfg.seed, cfg,
            )
            b.omega_factors = factor_partition(omega, cfg, box=o.box)
        else:
            b.omega_factors = ()

    if not _reconstruction_ok(o, structure, cfg):
        raise NotSeparableError(
            "not a GS system under current tolerances: reconstruction residual too large"
        )
    structure.validate(o.arity)
    return structure

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

import gsfit.detect as det
from gsfit import expr as ex
from gsfit.bench import CASES, STREAM_DEMO, get_case, run_case, suite_seeds
from gsfit.config import RunConfig, rng
from gsfit.detect import (
    PAIR_PROBES,
    Anchor,
    DetectionError,
    InteractionGraph,
    detect_structure,
    factor_partition,
    interaction_graph,
    isolate_omega_data,
    isolate_psi_data,
    minimal_blocks,
    mixed_diff,
    repeated_vars,
)
from gsfit.oracle import DomainBox, Oracle, make_oracle

from helpers import random_tree

CFG = RunConfig(seed=1)


def graph_from_edges(n, edges):
    scores = np.zeros((n, n))
    for i, j in edges:
        scores[i - 1, j - 1] = scores[j - 1, i - 1] = 1.0
    return InteractionGraph(n=n, scores=scores, tol=1e-8)


def test_mixed_diff_zero_for_additive_pair():
    o = make_oracle(ex.parse("x1+x2", 2), DomainBox.cube(-3, 3, 2))
    assert mixed_diff(o, 1, 2, [0.5, 0.5], probes=8, seed=3) < 1e-12


def test_mixed_diff_product_pair_quadruple_arithmetic():
    # the defining quadruple: f=x1*x2 at u=0,u'=1,v=0,v'=1 gives |1-0-0+0| = 1
    f = ex.parse("x1*x2", 2)
    vals = f.eval_batch(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float))
    assert abs(vals[3] - vals[1] - vals[2] + vals[0]) == pytest.approx(1.0)
    o = make_oracle(f, DomainBox.cube(-3, 3, 2))
    assert mixed_diff(o, 1, 2, [0.5, 0.5], probes=8, seed=3) > 1e-3


def test_mixed_diff_case4_scores():
    spec = CASES[4]
    o = spec.oracle()
    anchor = [0.7, 0.6, 0.9]
    assert mixed_diff(o, 1, 2, anchor, 8, 1) < 1e-12
    assert mixed_diff(o, 1, 3, anchor, 8, 1) > 1e-4
    assert mixed_diff(o, 2, 3, anchor, 8, 1) > 1e-4


def test_mixed_diff_symmetric_same_seed():
    o = CASES[5].oracle()
    anchor = [0.5, -0.7, 1.1, 0.8]
    for i, j in [(1, 2), (2, 4), (1, 4)]:
        assert mixed_diff(o, i, j, anchor, 8, 9) == mixed_diff(o, j, i, anchor, 8, 9)


def test_interaction_graph_case9_complete():
    o = CASES[9].oracle()
    g = interaction_graph(Anchor(o, [0.8, 0.9, 0.7, 0.6, 1.0, 1.1], CFG))
    assert len(g.edges()) == 15  # K6


def test_interaction_graph_case2_single_edge():
    o = CASES[2].oracle()
    g = interaction_graph(Anchor(o, [0.8, 0.9, 0.7], CFG))
    assert g.edges() == [(2, 3)]


def test_interaction_graph_additive_empty():
    o = make_oracle(ex.parse("x1+x2+x3", 3), DomainBox.cube(-3, 3, 3))
    g = interaction_graph(Anchor(o, [0.5, 0.5, 0.5], CFG))
    assert g.edges() == []


def walk_pair(attempt, probes, tol=math.inf):
    # the stop rule of the scorer's rounds, attempt by attempt: one
    # attempt, then as many as the pair still lacks probes, until it has
    # them all or, after one of these batches, its score clears tol. An
    # attempt gives its four values (f0, f1, f2, f3) and scores
    # |f0 - f1 - f2 + f3|; up to 11 invalid attempts in a row
    diff = max_abs = 0.0
    filled = invalid_run = t = 0
    batch = 1
    while True:
        for _ in range(batch):
            f = attempt(t)
            t += 1
            if not np.all(np.isfinite(f)):
                invalid_run += 1
                if invalid_run == 11:
                    raise DetectionError(
                        "degenerate domain: probes keep hitting invalid points"
                    )
                continue
            invalid_run = 0
            filled += 1
            diff = max(diff, abs(f[0] - f[1] - f[2] + f[3]))
            max_abs = max(max_abs, float(np.max(np.abs(f))))
        score = float(diff / max(1.0, max_abs))
        if filled == probes or score > tol:
            return score
        batch = probes - filled


class AnchoredReference:
    """The anchored scorer's points, one oracle call a point: f(anchor)
    once, each single move X_v[t] once on first use, and each attempt's
    joint move. X_v[t] is the t-th draw of variable v's own stream, keyed
    by the attempt (0,) of a hand-built anchor."""

    def __init__(self, o, anchor, seed):
        self.o, self.anchor = o, np.asarray(anchor, dtype=float)
        self.f_anchor = o(self.anchor)
        self.streams = {v: rng(seed, 101, 0, v) for v in range(1, o.arity + 1)}
        self.moves = {v: [] for v in self.streams}
        self.single = {}

    def move(self, v, t):
        while len(self.moves[v]) <= t:
            self.moves[v].append(
                self.streams[v].uniform(self.o.box.lo[v - 1], self.o.box.hi[v - 1])
            )
        return self.moves[v][t]

    def value(self, moved):
        x = self.anchor.copy()
        for v, t in moved:
            x[v - 1] = self.move(v, t)
        return self.o(x)

    def attempt(self, a, b, t):
        """f(X_a, X_b), f(X_a, anchor_b), f(anchor_a, X_b), f(anchor)."""
        for v in (a, b):
            if (v, t) not in self.single:
                self.single[v, t] = self.value([(v, t)])
        joint = self.value([(a, t), (b, t)])
        return np.array([joint, self.single[a, t], self.single[b, t], self.f_anchor])


def reference_graph_scores(o, anchor, seed, tol=math.inf):
    # the anchored scorer probe by probe
    probes = AnchoredReference(o, anchor, seed)
    n = o.arity
    scores = np.zeros((n, n))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        s = walk_pair(lambda t: probes.attempt(i, j, t), PAIR_PROBES, tol)
        scores[i - 1, j - 1] = scores[j - 1, i - 1] = s
    return scores


def quadruple_graph_scores(o, anchor, seed, tol=math.inf):
    # the scorer the anchored one replaced: each attempt of pair (i, j) is
    # a fresh quadruple f(u,v), f(u,v'), f(u',v), f(u',v') from the pair's
    # own stream, one 4-point oracle call
    lo, hi = o.box.lo_array(), o.box.hi_array()
    n = o.arity
    scores = np.zeros((n, n))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        r = rng(seed, 101, i, j)

        def attempt(t):
            u, up = r.uniform(lo[i - 1], hi[i - 1], size=2)
            v, vp = r.uniform(lo[j - 1], hi[j - 1], size=2)
            pts = np.tile(anchor, (4, 1))
            pts[:, i - 1] = (u, u, up, up)
            pts[:, j - 1] = (v, vp, v, vp)
            return o.eval_batch(pts)

        s = walk_pair(attempt, PAIR_PROBES, tol)
        scores[i - 1, j - 1] = scores[j - 1, i - 1] = s
    return scores


def central_anchor(box, seed):
    lo, hi = box.lo_array(), box.hi_array()
    u = np.random.default_rng(seed).random(box.arity)
    return lo + (0.25 + 0.5 * u) * (hi - lo)


@pytest.mark.parametrize("no", sorted(CASES))
def test_interaction_graph_matches_probe_by_probe_reference(no):
    for seed in range(6):
        o_ref, o_new = CASES[no].oracle(), CASES[no].oracle()
        anchor = central_anchor(o_ref.box, seed)
        want = reference_graph_scores(o_ref, anchor, seed, RunConfig().tol_detect)
        got = interaction_graph(Anchor(o_new, anchor, RunConfig(seed=seed)))
        assert got.scores.tobytes() == want.tobytes()
        assert o_new.eval_count == o_ref.eval_count


def test_interaction_graph_matches_reference_where_probes_hit_invalid_points():
    # ln(x1) is invalid on half the box, so some attempts are redrawn
    make = lambda: make_oracle(ex.parse("ln(x1)+x2", 2), DomainBox.cube(-3, 3, 2))
    succeeded = 0
    for seed in range(6):
        o_ref, o_new = make(), make()
        try:
            want = reference_graph_scores(o_ref, [0.5, 0.5], seed, RunConfig().tol_detect)
        except DetectionError as err:
            with pytest.raises(DetectionError, match=str(err)):
                interaction_graph(Anchor(o_new, [0.5, 0.5], RunConfig(seed=seed)))
            continue
        got = interaction_graph(Anchor(o_new, [0.5, 0.5], RunConfig(seed=seed)))
        assert got.scores.tobytes() == want.tobytes()
        assert o_new.eval_count == o_ref.eval_count
        assert o_ref.eval_count > 4 * PAIR_PROBES   # redraws happened
        succeeded += 1
    assert succeeded >= 2


@pytest.mark.parametrize("no", [9, 10])
def test_interaction_graph_is_two_oracle_calls_on_a_valid_domain(no, monkeypatch):
    # at an anchor that holds f(anchor), as a drawn one does: the first
    # move of every variable and one joint move of every pair; then the
    # other moves of the variables of the pairs that are no edge yet, and
    # those pairs' joint moves. Case 9's graph is complete, so one call
    calls = []
    inner = Oracle.eval_batch

    def spy(self, points):
        calls.append(len(points))
        return inner(self, points)

    o = CASES[no].oracle()
    point = central_anchor(o.box, 0)
    at = Anchor(o, point, CFG, o(point))
    monkeypatch.setattr(Oracle, "eval_batch", spy)
    g = interaction_graph(at)
    pairs = list(itertools.combinations(range(1, o.arity + 1), 2))
    non_edges = [p for p in pairs if not g.has_edge(*p)]
    touched = {v for p in non_edges for v in p}
    rest = (PAIR_PROBES - 1) * (len(non_edges) + len(touched))
    assert calls == [o.arity + len(pairs)] + ([rest] if non_edges else [])
    assert (not non_edges) == (no == 9)


def test_the_graph_call_schedule_where_probes_hit_invalid_points(monkeypatch):
    # ln(x1) is invalid on half the box: the first call holds both first
    # moves and the one joint move, each later one the attempts the pair
    # still lacks probes and the moves they read first, past PAIR_PROBES
    # where invalid attempts used them up
    want = {
        0: [3, 24, 12, 3, 3],
        1: [3, 21, 9, 6],
        2: [3, 24, 15, 12, 12, 3, 3],
        3: [3, 24, 12, 6, 3],
        4: [3, 24, 12, 9, 6],
        5: [3, 21, 12],
    }
    calls = []
    inner = Oracle.eval_batch

    def spy(self, points):
        calls.append(len(points))
        return inner(self, points)

    for seed, sizes in want.items():
        o = make_oracle(ex.parse("ln(x1)+x2", 2), DomainBox.cube(-3, 3, 2))
        at = Anchor(o, [0.5, 0.5], RunConfig(seed=seed), o([0.5, 0.5]))
        calls.clear()
        monkeypatch.setattr(Oracle, "eval_batch", spy)
        g = interaction_graph(at)
        monkeypatch.setattr(Oracle, "eval_batch", inner)
        assert calls == sizes, seed
        assert g.edges() == []


def test_mixed_diff_is_the_graph_score():
    # bit-equal where the pair is no edge; on an edge the graph stopped
    # probing once the score cleared tol, and both scores clear it
    o = CASES[7].oracle()
    anchor = central_anchor(o.box, 3)
    g = interaction_graph(Anchor(o, anchor, RunConfig(seed=3)))
    kinds = set()
    for i, j in itertools.combinations(range(1, 6), 2):
        full = mixed_diff(o, i, j, anchor, PAIR_PROBES, 3)
        if g.has_edge(i, j):
            assert full > g.tol
        else:
            assert full == g.scores[i - 1, j - 1]
        kinds.add(g.has_edge(i, j))
    assert kinds == {True, False}


def fuzz_graph_targets():
    # 300 random targets, 2-5 variables, on [-3,3] and [0.5,3] in turn:
    # (seed, a maker of fresh oracles, anchor)
    gen = np.random.default_rng(1)
    for k in range(300):
        n = int(gen.integers(2, 6))
        lo, hi = [(-3.0, 3.0), (0.5, 3.0)][k % 2]
        box = DomainBox.cube(lo, hi, n)
        target = random_tree(gen, n)
        yield k, (lambda t=target, b=box: make_oracle(t, b)), central_anchor(box, k)


def test_early_stop_never_changes_an_edge():
    # the graph's edges are those of the full 8-probe scores, its non-edge
    # scores are bit-equal to them, and it never makes more evaluations.
    # Stopping draws a prefix of each pair's attempts, so it can avoid the
    # invalid-points error (see test_early_stop_can_avoid_the_probe_error),
    # never cause it
    tol = RunConfig().tol_detect
    scored = fewer = 0
    for k, make, anchor in fuzz_graph_targets():
        o_full, o_new = make(), make()
        with np.errstate(all="ignore"):
            try:
                g = interaction_graph(Anchor(o_new, anchor, RunConfig(seed=k)))
            except DetectionError:
                with pytest.raises(DetectionError):
                    reference_graph_scores(o_full, anchor, k)
                continue
            try:
                full = reference_graph_scores(o_full, anchor, k)
            except DetectionError:
                continue
        assert np.array_equal(g.scores > tol, full > tol)
        non_edge = full <= tol
        assert g.scores[non_edge].tobytes() == full[non_edge].tobytes()
        assert o_new.eval_count <= o_full.eval_count
        fewer += o_new.eval_count < o_full.eval_count
        scored += 1
    assert scored >= 250 and fewer >= 30


def test_early_stop_can_avoid_the_probe_error():
    # sqrt(x1-2) is valid on a sixth of x1's range: the first valid
    # attempt proves the x1*x2 edge, while the full schedule's eight
    # probes meet 11 invalid attempts in a row at three of these six seeds
    make = lambda: make_oracle(ex.parse("x1*x2+sqrt(x1-2)", 2), DomainBox.cube(-3, 3, 2))
    avoided = 0
    for seed in range(10, 16):
        with np.errstate(invalid="ignore"):
            g = interaction_graph(Anchor(make(), [2.5, 0.5], RunConfig(seed=seed)))
            assert g.edges() == [(1, 2)]
            try:
                reference_graph_scores(make(), [2.5, 0.5], seed)
            except DetectionError:
                avoided += 1
    assert avoided >= 1


def test_anchored_graph_has_the_quadruple_graphs_edges():
    # against the scorer of fresh 4-point quadruples: the same edges
    # wherever both succeed, and the probe error no more often
    tol = RunConfig().tol_detect
    both = anchored_errors = quadruple_errors = 0
    for k, make, anchor in fuzz_graph_targets():
        with np.errstate(all="ignore"):
            try:
                g = interaction_graph(Anchor(make(), anchor, RunConfig(seed=k)))
            except DetectionError:
                g = None
                anchored_errors += 1
            try:
                q = quadruple_graph_scores(make(), anchor, k, tol)
            except DetectionError:
                q = None
                quadruple_errors += 1
        if g is not None and q is not None:
            assert g.edges() == InteractionGraph(g.n, q, tol).edges(), k
            both += 1
    assert both >= 250 and anchored_errors <= quadruple_errors


def test_degenerate_domain_raises_the_probe_error():
    # valid only on the unit disc of (x1, x2): the anchors are valid, but
    # most moves of x1 or x2 leave the disc
    o = make_oracle(ex.parse("sqrt(1-x1^2-x2^2)+x3", 3), DomainBox.cube(-3, 3, 3))
    with pytest.raises(
        DetectionError, match="^degenerate domain: probes keep hitting invalid points$"
    ):
        detect_structure(o, RunConfig(seed=1))


def test_a_probe_failure_redraws_the_anchor_with_fresh_probes():
    # ln(x1) is invalid on half the box. An attempt is valid where the
    # move of x1 is, whatever the (valid) anchor, and a hand-built anchor
    # probes as the first attempt's does, so at seed 390 the pair probes
    # give up at the first anchor as they do at (0.5, 0.5); the anchor
    # must be redrawn, not end detection
    make = lambda: make_oracle(ex.parse("ln(x1)+x2", 2), DomainBox.cube(-3, 3, 2))
    cfg = RunConfig(seed=390)
    with pytest.raises(det.DegenerateAnchorError, match="probes keep hitting"):
        interaction_graph(Anchor(make(), [0.5, 0.5], cfg))
    s = detect_structure(make(), cfg)
    assert [b.vars for b in s.blocks] == [(1,), (2,)]
    assert s.anchor != tuple(det.Anchor.draw(make(), cfg, (0,)).point)
    # detected at the first redraw after its first probes gave up
    assert s.anchor == tuple(det.Anchor.draw(make(), cfg, (1,)).point)


def anchor_draws(box, seed, attempt):
    # every draw of the anchor stream of `attempt`, as Anchor.draw makes them
    lo, hi = box.lo_array(), box.hi_array()
    u = rng(seed, 777, *attempt).random((det.ANCHOR_DRAWS, box.arity))
    return lo + (0.25 + 0.5 * u) * (hi - lo)


def test_an_invalid_first_draw_of_the_second_anchor_is_skipped(monkeypatch):
    # at seed 3 the first attempt's first second-anchor stream, (0, 0),
    # draws x1 < 0 first, where ln(x1) is invalid: a graph there finds no
    # valid probe of the pair (2, 3), so the stream's first valid draw is
    # used, with its value
    make = lambda: make_oracle(ex.parse("ln(x1)+x2*x3", 3), DomainBox.cube(-3, 3, 3))
    cfg = RunConfig(seed=3)
    draws = anchor_draws(make().box, cfg.seed, (0, 0))
    valid = [k for k, x in enumerate(draws) if np.isfinite(make()(x))]
    assert valid[0] > 0
    seen = []
    inner = det.interaction_graph

    def spy(at, among=None):
        if among is not None:
            seen.append((tuple(at.point), at.f, at.attempt))
        return inner(at, among)

    monkeypatch.setattr(det, "interaction_graph", spy)
    s = detect_structure(make(), cfg)
    assert [b.vars for b in s.blocks] == [(1,), (2, 3)]
    assert seen[0] == (tuple(draws[valid[0]]), make()(draws[valid[0]]), (0, 0))


def test_each_redraw_probes_from_its_own_streams(monkeypatch):
    points = {}
    inner = Oracle.eval_batch

    def spy(self, pts):
        points.setdefault(key, []).append(np.array(pts))
        return inner(self, pts)

    o = CASES[7].oracle()
    anchor = central_anchor(o.box, 3)
    f = o(anchor)
    monkeypatch.setattr(Oracle, "eval_batch", spy)
    graphs = {}
    for key in (None, 0, 1, 2):
        kwargs = {} if key is None else {"attempt": (key,)}
        graphs[key] = interaction_graph(Anchor(o, anchor, RunConfig(seed=3), f, **kwargs)).scores
    # attempt 0 probes as a hand-built anchor does
    assert graphs[0].tobytes() == graphs[None].tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(points[0], points[None]))
    for k in (1, 2):
        assert not np.array_equal(points[k][0], points[0][0])
        assert not np.array_equal(points[k][0], points[3 - k][0])


def test_each_attempt_draws_its_own_reconstruction_points_and_second_anchors(monkeypatch):
    # two attempts of one seed at one point: the second anchors of
    # minimal_blocks and the reconstruction check's points are drawn from
    # each attempt's own streams, so a redrawn anchor probes them afresh
    o = make_oracle(ex.parse("x1+x2", 2), DomainBox.cube(-3, 3, 2))
    calls, seconds, recon = [], [], []
    inner_eval, inner_graph = Oracle.eval_batch, det.interaction_graph

    def eval_spy(self, points):
        calls.append(np.array(points))
        return inner_eval(self, points)

    def graph_spy(at, among=None):
        if among is not None:
            seconds.append((at.attempt, at.point))
        return inner_graph(at, among)

    monkeypatch.setattr(Oracle, "eval_batch", eval_spy)
    monkeypatch.setattr(det, "interaction_graph", graph_spy)
    for a in (0, 1):
        at = Anchor(o, [0.5, 0.5], CFG, attempt=(a,))
        s = minimal_blocks(at, (), inner_graph(at))
        assert [b.vars for b in s.blocks] == [(1,), (2,)]
        assert det._reconstruction_ok(at, s)
        recon.append(calls[-1][:det.RECON_POINTS])
    assert [key for key, _ in seconds] == [(0, 0), (1, 0)]
    assert not np.array_equal(seconds[0][1], seconds[1][1])
    assert not np.array_equal(recon[0], recon[1])


def test_repeated_vars_case4_graph():
    g = graph_from_edges(3, [(1, 3), (2, 3)])
    assert repeated_vars(g, 3) == (3,)


def test_repeated_vars_case7_graph_peeling_order():
    g = graph_from_edges(5, [(1, 4), (1, 5), (4, 5), (2, 5), (3, 4)])
    assert repeated_vars(g, 3) == (4, 5)


def test_repeated_vars_complete_graph_empty():
    g = graph_from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert repeated_vars(g, 3) == ()


def test_repeated_vars_two_variable_cut():
    # stream-function shaped graph: K4 on 1-4 plus 5-3, 5-4
    g = graph_from_edges(
        5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 3), (5, 4)]
    )
    assert repeated_vars(g, 3) == (3, 4)


def whole_graph_best_cut(g, active, kmax):
    """The reference cut search: every subset of the active set, its gain
    counted over the whole active graph."""
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


def test_the_per_component_cut_is_the_whole_graph_cut_on_random_graphs():
    gen = np.random.default_rng(31)
    found = 0
    for _ in range(3000):
        n = int(gen.integers(1, 11))
        density = gen.uniform(0.1, 0.9)
        edges = [p for p in itertools.combinations(range(1, n + 1), 2)
                 if gen.random() < density]
        g = graph_from_edges(n, edges)
        active = {v for v in range(1, n + 1) if gen.random() < 0.8}
        kmax = int(gen.integers(1, 5))
        cut = det._best_cut(g, active, kmax)
        assert cut == whole_graph_best_cut(g, active, kmax)
        found += cut is not None
    assert det._best_cut(graph_from_edges(3, [(1, 2)]), set(), 3) is None
    assert 600 <= found <= 2400


@pytest.mark.parametrize("no", [*sorted(CASES), STREAM_DEMO.no])
def test_the_per_component_cut_is_the_whole_graph_cut_in_detection(no, monkeypatch):
    searches = []
    inner = det._best_cut

    def spy(g, active, kmax):
        cut = inner(g, active, kmax)
        searches.append(cut == whole_graph_best_cut(g, set(active), kmax))
        return cut

    monkeypatch.setattr(det, "_best_cut", spy)
    for seed in (0, 1, 7):
        detect_structure(get_case(no).oracle(), RunConfig(seed=seed))
    assert searches and all(searches)


def counted_peel(g, monkeypatch):
    """repeated_vars(g) and the number of component searches it made."""
    calls = []
    inner = InteractionGraph.components

    def spy(self, active=None):
        calls.append(1)
        return inner(self, active)

    monkeypatch.setattr(InteractionGraph, "components", spy)
    return repeated_vars(g), len(calls)


def test_disjoint_pairs_peel_in_few_component_searches(monkeypatch):
    # 32 two-variable components: the whole-graph search made 43,745
    # component searches of the 64 variables
    g = graph_from_edges(64, [(2 * i + 1, 2 * i + 2) for i in range(32)])
    repeated, calls = counted_peel(g, monkeypatch)
    assert repeated == ()
    assert calls <= 200


def test_a_hub_over_disjoint_pairs_peels_in_few_component_searches(monkeypatch):
    # vertex 65 joined to all 64 others: the whole-graph search made
    # 43,811 component searches
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(32)]
    g = graph_from_edges(65, pairs + [(v, 65) for v in range(1, 65)])
    repeated, calls = counted_peel(g, monkeypatch)
    assert repeated == (65,)
    assert calls <= 200


def blocks_at(o, repeated, anchor, cfg):
    """minimal_blocks at `anchor`, with the graph scored there."""
    at = Anchor(o, anchor, cfg)
    return minimal_blocks(at, repeated, interaction_graph(at))


def test_minimal_blocks_case6():
    o = CASES[6].oracle()
    anchor = np.array([2.0, 2.1, 1.9, 2.2, 1.8])
    s = blocks_at(o, (5,), anchor, RunConfig(seed=2))
    assert [b.vars for b in s.blocks] == [(1,), (2,), (3,), (4,)]
    assert [b.repeated for b in s.blocks] == [(), (5,), (5,), ()]


def test_minimal_blocks_case1_single():
    o = CASES[1].oracle()
    s = blocks_at(o, (), np.array([0.7, 0.8]), RunConfig(seed=2))
    assert [b.vars for b in s.blocks] == [(1, 2)]


def test_the_stability_graph_scores_no_pair_touching_a_repeated_variable(monkeypatch):
    scored = []
    inner = det._pair_scores

    def spy(at, pairs, *args, **kwargs):
        scored.append(list(pairs))
        return inner(at, pairs, *args, **kwargs)

    o = CASES[6].oracle()
    at = Anchor(o, np.array([2.0, 2.1, 1.9, 2.2, 1.8]), RunConfig(seed=2))
    g = interaction_graph(at)
    monkeypatch.setattr(det, "_pair_scores", spy)
    s = minimal_blocks(at, (5,), g)
    assert [b.vars for b in s.blocks] == [(1,), (2,), (3,), (4,)]
    assert scored and all(
        pairs == list(itertools.combinations(range(1, 5), 2)) for pairs in scored
    )


def test_minimal_blocks_additive_split():
    o = make_oracle(ex.parse("x1+x2", 2), DomainBox.cube(-3, 3, 2))
    s = blocks_at(o, (), np.array([0.4, 0.6]), RunConfig(seed=2))
    assert [b.vars for b in s.blocks] == [(1,), (2,)]


def test_isolate_psi_exact_identity_for_additive_target():
    o = make_oracle(ex.parse("x1+x2", 2), DomainBox.cube(-3, 3, 2))
    anchor = np.array([0.0, 0.0])
    d = isolate_psi_data(det.Anchor(o, anchor, RunConfig(seed=3)), (1,))
    assert np.allclose(d.values, d.points[:, 0], atol=1e-12)


def test_isolate_psi_case3_proportional_to_sin2x():
    # slicing identity: h(x1) = 10*(sin 2x1 - sin 2a1), independent of block 2
    o = CASES[3].oracle()
    anchor = np.array([0.9, 0.7, 1.1])
    d = isolate_psi_data(det.Anchor(o, anchor, RunConfig(seed=4)), (1,))
    expected = 10.0 * (np.sin(2 * d.points[:, 0]) - np.sin(2 * anchor[0]))
    assert np.allclose(d.values, expected, atol=1e-10)


def test_isolate_psi_case6_log_block_scaled_by_cos_anchor():
    o = CASES[6].oracle()
    anchor = np.array([2.0, 2.1, 1.9, 2.2, 1.8])
    d = isolate_psi_data(det.Anchor(o, anchor, RunConfig(seed=4)), (3,))
    expected = np.cos(anchor[4]) * (
        np.log(3 * d.points[:, 0] + 1.2) - np.log(3 * anchor[2] + 1.2)
    )
    assert np.allclose(d.values, expected, atol=1e-10)


def test_isolate_omega_case4_linear_in_x3():
    o = CASES[4].oracle()
    anchor = np.array([0.9, 0.7, 1.1])
    d = isolate_omega_data(det.Anchor(o, anchor, RunConfig(seed=5)), (1,), (3,))
    z = d.points[:, 0]
    coef = np.polyfit(z, d.values, 1)
    assert abs(coef[1]) < 1e-9 or np.allclose(
        d.values, coef[0] * z + coef[1], atol=1e-9 * max(1, np.abs(d.values).max())
    )
    # the through-origin shape: Delta(z) = z * (sin b1 - sin b2)
    assert np.allclose(d.values, (d.values[0] / z[0]) * z, atol=1e-9)


def test_isolate_omega_case6_quadratic_in_x5():
    o = CASES[6].oracle()
    anchor = np.array([2.0, 2.1, 1.9, 2.2, 1.8])
    d = isolate_omega_data(det.Anchor(o, anchor, RunConfig(seed=5)), (2,), (5,))
    z = d.points[:, 0]
    ratio = d.values / (z * z)
    assert np.allclose(ratio, ratio[0], rtol=1e-9)


def psi_partition(o, block_vars, anchor):
    """The psi groups of a block with no repeated variable, partitioned as
    detect_structure does."""
    at = Anchor(o, anchor, CFG)
    [(psi, omega)] = factor_partition(at, [det.Block(block_vars)])
    assert omega == ()
    return psi


def test_factor_partition_case9_groups():
    o = CASES[9].oracle()
    anchor = np.array([0.8, 0.9, 0.7, 0.6, 1.0, 1.1])
    groups = psi_partition(o, (1, 2, 3, 4, 5, 6), anchor)
    assert groups == ((1,), (2,), (3, 4), (5, 6))


def test_factor_partition_case1_splits():
    o = CASES[1].oracle()
    anchor = np.array([0.7, 0.8])
    assert psi_partition(o, (1, 2), anchor) == ((1,), (2,))


def test_factor_partition_entangled_pair_stays_together():
    o = make_oracle(ex.parse("sin(x1+x2)", 2), DomainBox.cube(-3, 3, 2))
    anchor = np.array([0.3, -0.4])
    assert psi_partition(o, (1, 2), anchor) == ((1, 2),)


def test_factor_partition_additive_pair_fused():
    # (x1+x2)/x3 with x3 pinned: x1, x2 do not interact but form one factor
    o = CASES[10].oracle()
    anchor = np.array([0.8, 0.9, 1.1, 0.7, 0.6, 1.2, 0.5])
    assert psi_partition(o, (1, 2, 3), anchor) == ((1, 2), (3,))


def test_detect_structure_tabulates_no_factor_data(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("detection tabulated a factor")

    monkeypatch.setattr(det, "isolate_psi_data", refuse)
    monkeypatch.setattr(det, "isolate_omega_data", refuse)
    for no in sorted(CASES):
        s = detect_structure(CASES[no].oracle(), RunConfig(seed=7))
        assert s.factor_count() == CASES[no].expected_factors


def test_a_single_variable_side_costs_no_partition_evaluation(monkeypatch):
    # case 4: blocks (1,) and (2,), each coupled to the one repeated x3, so
    # no side of either block has a pair to probe
    o = CASES[4].oracle()
    seen = {}
    blocks, recon = det.minimal_blocks, det._reconstruction_ok

    def after_blocks(*args, **kwargs):
        s = blocks(*args, **kwargs)
        seen["blocks"] = o.eval_count
        return s

    def before_recon(*args, **kwargs):
        seen["recon"] = o.eval_count
        return recon(*args, **kwargs)

    monkeypatch.setattr(det, "minimal_blocks", after_blocks)
    monkeypatch.setattr(det, "_reconstruction_ok", before_recon)
    s = detect_structure(o, RunConfig(seed=7))
    assert [(b.vars, b.psi_factors, b.omega_factors) for b in s.blocks] == [
        ((1,), ((1,),), ((3,),)), ((2,), ((2,),), ((3,),)),
    ]
    assert seen["recon"] == seen["blocks"]


@pytest.mark.parametrize("no", sorted(CASES) + [11])
def test_an_attempt_pays_once_for_its_shared_probes(no, monkeypatch):
    # each block's spread pair (stream 401) and each membership sweep
    # (stream 601) is drawn at most once per anchor attempt, though the
    # validator, minimal_blocks and the omega partition all read them, and
    # f(anchor) is evaluated once, though every partition grid holds the
    # anchor as its corner
    drawn, anchor_rows, state = [], [], {}
    inner_rng, inner_eval, inner_once = det._rng, Oracle.eval_batch, det._detect_once
    spec = CASES[no] if no in CASES else STREAM_DEMO

    def rng_spy(seed, *key):
        if key[0] in (401, 601):
            drawn[-1].append(key)
        return inner_rng(seed, *key)

    def eval_spy(self, points):
        points = np.asarray(points, dtype=float)
        if state["anchor"] is not None:
            anchor_rows[-1] += int(np.all(points == state["anchor"], axis=1).sum())
        return inner_eval(self, points)

    def once_spy(o, cfg, attempt):
        # the attempt's own anchor, drawn on a fresh oracle before the
        # spy counts its rows
        drawn.append([])
        anchor_rows.append(0)
        state["anchor"] = None
        state["anchor"] = det.Anchor.draw(spec.oracle(), cfg, attempt).point
        return inner_once(o, cfg, attempt)

    monkeypatch.setattr(det, "_rng", rng_spy)
    monkeypatch.setattr(Oracle, "eval_batch", eval_spy)
    monkeypatch.setattr(det, "_detect_once", once_spy)
    s = detect_structure(spec.oracle(), RunConfig(seed=7))
    assert s.blocks
    assert all(len(keys) == len(set(keys)) for keys in drawn)
    assert anchor_rows == [1] * len(drawn)
    if no in (7, 11):      # two repeated variables: the omega partition reads a spread pair
        assert any(b.omega_factors and len(b.repeated) > 1 for b in s.blocks)


@pytest.mark.parametrize("no", sorted(CASES))
def test_detect_structure_matches_expected_table(no):
    spec = CASES[no]
    s = detect_structure(spec.oracle(), RunConfig(seed=7))
    assert s.repeated == spec.expected_repeated
    assert s.block_count() == spec.expected_blocks
    assert s.factor_count() == spec.expected_factors
    s.validate(spec.dim)


def test_detect_structure_case10_details():
    s = detect_structure(CASES[10].oracle(), RunConfig(seed=7))
    assert s.repeated == (7,)
    assert [b.vars for b in s.blocks] == [(1, 2, 3), (4, 5, 6)]
    assert s.blocks[0].psi_factors == ((1, 2), (3,))
    assert s.blocks[0].omega_factors == ((7,),)
    assert s.blocks[1].psi_factors == ((4,), (5, 6))
    assert s.blocks[1].omega_factors == ((7,),)


def test_detect_structure_stream_function_demo():
    s = detect_structure(STREAM_DEMO.oracle(), RunConfig(seed=7))
    assert s.repeated == (3, 4)
    assert s.block_count() == 2
    assert [b.vars for b in s.blocks] == [(1, 2), (5,)]


def test_detect_structure_univariate():
    o = make_oracle(ex.parse("x1", 1), DomainBox.cube(-3, 3, 1))
    s = detect_structure(o, RunConfig(seed=7))
    assert s.repeated == ()
    assert [b.vars for b in s.blocks] == [(1,)]
    assert s.blocks[0].psi_factors == ((1,),)


def test_detect_structure_constant_target():
    o = make_oracle(ex.parse("5+0*x1", 1), DomainBox.cube(-3, 3, 1))
    s = detect_structure(o, RunConfig(seed=7))
    assert s.blocks == []


def test_detect_structure_counts_probes():
    o = CASES[2].oracle()
    s = detect_structure(o, RunConfig(seed=7))
    assert s.probes_used == o.eval_count


def test_detection_warns_of_no_overflow_in_a_grid_tolerance():
    # fuzz target #284: a partition grid's values reach about 1e175, where
    # the square of the grid's scale would overflow
    o = make_oracle(ex.parse("exp(x2*(4.891*x1)/(-sin(x3)))", 4), DomainBox.cube(-3, 3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = detect_structure(o, RunConfig(seed=6))
    assert [b.vars for b in s.blocks] == [(1, 2, 3), (4,)]
    assert s.probes_used == o.eval_count == 376


# fuzz targets #284 and #79 at the seeds where a pair's grid spans more
# orders of magnitude than the tolerance resolves against its largest value
@pytest.mark.parametrize("text, dims, lo, hi, seed, block", [
    ("exp(x2*(4.891*x1)/(-sin(x3)))", 4, -3, 3, 6, (1, 2, 3)),
    ("exp(x2*(4.891*x1)/(-sin(x3)))", 4, -3, 3, 1, (1, 2, 3)),
    ("exp((x1*x2)^1)^3", 4, 1, 5, 2, (1, 2)),
], ids=["284-seed6", "284-seed1", "79-seed2"])
def test_variables_inside_one_exp_stay_in_one_factor(text, dims, lo, hi, seed, block):
    o = make_oracle(ex.parse(text, dims), DomainBox.cube(lo, hi, dims))
    s = detect_structure(o, RunConfig(seed=seed))
    (b,) = [b for b in s.blocks if b.vars == block]
    assert b.psi_factors == (block,)


def test_a_grid_past_1e154_gets_the_verdict_of_its_unit_scale_twin():
    # psi grids, corner first, of a product, a sum (no interaction) and an
    # entangled pair; scaled by 1e200 each keeps its verdict, though the
    # squared scale of a rank-one tolerance on the grid's own values
    # would overflow and pass every pair as a product
    a, b = np.linspace(0.5, 2.0, 7), np.linspace(-1.0, 1.5, 7)
    grids = np.stack([f - f[0, 0] for f in (
        np.outer(np.exp(a), np.cos(b)),
        np.exp(a)[:, None] + np.cos(b)[None, :],
        np.sin(np.outer(a, b)),
    )])
    tol = RunConfig().tol_detect
    assert det._products(grids, tol).tolist() == [True, False, False]
    assert det._products(1e200 * grids, tol).tolist() == [True, False, False]


@pytest.mark.parametrize("text, dims, seeds", [
    ("(1+exp(-3*x1^2))*x2", 2, range(10)),
    ("exp(-3*x1^2)*x2+x3", 3, range(10)),
    ("(2+exp(-12*x1^2))*(3+x2)", 2, (2, 3, 6)),
])
def test_a_factor_flat_across_the_grid_still_splits(text, dims, seeds):
    # where exp(-c*x1^2) is flat, a row of differences is mostly rounding
    # noise; held to a tolerance of its own size it would fail the product
    # test and merge x1 and x2
    for seed in seeds:
        o = make_oracle(ex.parse(text, dims), DomainBox.cube(-3, 3, dims))
        s = detect_structure(o, RunConfig(seed=seed))
        assert s.blocks[0].vars == (1, 2) and s.blocks[0].psi_factors == ((1,), (2,))


def test_a_grid_row_of_rounding_noise_passes_as_a_product():
    a, b = np.array([1.6, 1.7, 0.0, 1.8, 0.4, 1.9, -1.5]), np.linspace(-1.0, 1.5, 7)
    f = np.outer(2 + np.exp(-12 * a * a), 3 + b)
    grids = np.stack([f - f[0, 0], f.T - f[0, 0]])
    assert det._products(grids, RunConfig().tol_detect).tolist() == [True, True]


def test_detection_error_when_anchor_always_invalid():
    o = make_oracle(ex.parse("ln(x1-2.5)", 1), DomainBox.cube(-3, 3, 1))
    with pytest.raises(DetectionError):
        detect_structure(o, RunConfig(seed=7))


def test_structure_json_round_trip():
    import json
    import pickle

    s = detect_structure(CASES[4].oracle(), RunConfig(seed=7))
    d = json.loads(s.to_json())
    assert d["repeated"] == [3]
    assert [b["vars"] for b in d["blocks"]] == [[1], [2]]
    assert all(b["omega_factors"] == [[3]] for b in d["blocks"])
    assert isinstance(d["probes_used"], int) and d["probes_used"] > 0
    # detection's anchor rides along for the fit, but neither into the
    # JSON view nor through pickling, since its oracle holds a lock
    assert isinstance(s.at, det.Anchor) and tuple(s.at.point) == s.anchor
    assert "at" not in d
    back = pickle.loads(pickle.dumps(s))
    assert back == s and back.at is None and s.at is not None


def permute_expr(e: ex.Expr, mapping: dict[int, int]) -> ex.Expr:
    if e.kind == "var":
        return ex.var(mapping[e.index])
    if e.kind == "const":
        return e
    return ex.Expr(e.kind, args=tuple(permute_expr(a, mapping) for a in e.args))


@pytest.mark.parametrize("no", [2, 4, 6])
def test_detection_is_permutation_equivariant(no):
    spec = CASES[no]
    mapping = {i: (i % spec.dim) + 1 for i in range(1, spec.dim + 1)}  # cyclic shift
    base = detect_structure(spec.oracle(), RunConfig(seed=13))
    permuted_target = permute_expr(spec.target, mapping)
    o2 = make_oracle(permuted_target, spec.box)
    moved = detect_structure(o2, RunConfig(seed=13))

    def mapped(sig):
        rep, blocks = sig
        rep2 = tuple(sorted(mapping[v] for v in rep))
        blocks2 = sorted(
            (
                tuple(sorted(mapping[v] for v in vars_)),
                tuple(sorted(mapping[v] for v in reps)),
                tuple(sorted(tuple(sorted(mapping[v] for v in g)) for g in psi)),
                tuple(sorted(tuple(sorted(mapping[v] for v in g)) for g in om)),
            )
            for vars_, reps, psi, om in blocks
        )
        return rep2, blocks2

    def signature(s):
        return (
            s.repeated,
            [(b.vars, b.repeated, b.psi_factors, b.omega_factors) for b in s.blocks],
        )

    got = (
        moved.repeated,
        sorted(
            (
                b.vars,
                b.repeated,
                tuple(sorted(b.psi_factors)),
                tuple(sorted(b.omega_factors)),
            )
            for b in moved.blocks
        ),
    )
    assert got == mapped(signature(base))


def test_minimal_blocks_rejects_all_repeated():
    o = CASES[4].oracle()
    with pytest.raises(DetectionError, match="empty block"):
        blocks_at(o, (1, 2, 3), np.array([0.5, 0.5, 0.5]), RunConfig(seed=1))


def _rank_one_pairwise(M, tol_abs):
    # row pair by row pair, stopping at the first failing pair
    for i in range(M.shape[0]):
        for ip in range(i + 1, M.shape[0]):
            lhs = M[i, :, None] * M[ip, None, :]
            if np.max(np.abs(lhs - lhs.T)) > tol_abs:
                return False
    return True


def test_rank_one_broadcast_decides_as_the_pairwise_loop():
    # each matrix is decided inside a stack of its shape that also holds a
    # rank-one matrix, a rank-two one and one with a NaN minor (0 * inf),
    # each at its own tolerance; every verdict must be the pairwise loop's
    # on that matrix alone
    gen = np.random.default_rng(2)
    tol = RunConfig().tol_detect
    seen = set()

    def scaled_tol(M):     # the scale _products uses
        scale = max(1.0, float(np.max(np.abs(M[np.isfinite(M)]))))
        return tol * scale * scale

    for _ in range(300):
        r, c = (int(x) for x in gen.integers(2, 8, 2))
        u, v = gen.uniform(-5, 5, r), gen.uniform(-5, 5, c)
        kind = int(gen.integers(0, 4))
        M = np.outer(u, v)
        if kind == 1:      # rank two
            M = M + np.outer(gen.uniform(-5, 5, r), gen.uniform(-5, 5, c))
        tol_abs = scaled_tol(M)
        if kind == 2:      # one entry nudged so its largest minor is near tol_abs
            i, j = int(gen.integers(0, r)), int(gen.integers(0, c))
            others = np.abs(np.delete(M, i, axis=0)).max()
            M[i, j] += gen.uniform(0.5, 1.5) * tol_abs / others
        if kind == 3:      # a NaN minor passes its row pair
            M[int(gen.integers(0, r)), int(gen.integers(0, c))] = np.inf
            M[0, 0] = 0.0
        rank_one = np.outer(np.arange(1.0, r + 1), np.arange(2.0, c + 2))
        rank_two = rank_one + np.eye(r, c)
        nan_minor = rank_one.copy()
        nan_minor[0, 0], nan_minor[-1, -1] = 0.0, np.inf
        stack = np.stack([rank_one, M, rank_two, nan_minor])
        tols = np.array([scaled_tol(rank_one), tol_abs, scaled_tol(rank_two),
                         scaled_tol(nan_minor)])
        with np.errstate(invalid="ignore"):
            want = [_rank_one_pairwise(m, t) for m, t in zip(stack, tols)]
            got = det._rank_one(stack, tols[:, None])
        assert got.tolist() == want
        assert want[0] and not want[2]
        seen.add((kind, want[1]))
    # both verdicts occur among the near-tolerance matrices
    assert {(0, True), (1, False), (2, True), (2, False)} <= seen


def test_mostly_invalid_reconstruction_redraws_the_anchor():
    # ln(x1) is valid on a quarter of the box: most reconstruction points
    # are invalid, which says nothing about separability
    o = make_oracle(ex.parse("ln(x1)+x2", 2), DomainBox((-3.0, -3.0), (1.0, 3.0)))
    s = det.GsStructure(repeated=(), blocks=[det.Block((1,), (), ((1,),)),
                                             det.Block((2,), (), ((2,),))],
                        anchor=(0.5, 0.5))
    with pytest.raises(det.DegenerateAnchorError, match="reconstruction"):
        det._reconstruction_ok(det.Anchor(o, s.anchor, RunConfig(seed=4)), s)


# Detect-only reports of cases 1-11 at their first suite seed:
# (probes_used, probes_used before the partition grids took their corner
# from values already held, sha256 of the canonical JSON at those earlier
# counts, most Oracle.eval_batch calls). Each stage of an anchor attempt
# evaluates its probes in one call, which took the calls from 7, 9, 9,
# 12, 13, 16, 22, 15, 21, 24, 17 down to these. Pair probes stop once a
# pair interacts, the factor partition probes the target without
# tabulating the blocks first, the pair probes are anchored differences
# that share f(anchor) and the single moves, an attempt evaluates
# f(anchor), each spread pair and each membership sweep once, and neither
# a partition grid's corner nor a lone block's reconstruction slice is
# evaluated again. So probes_used is below
# that of the full pair schedule (292, 501, 501, 612, 901, 1286, 1529,
# 1270, 2066, 2368, 1529), of the tabulating partition (236, 445, 445,
# 492, 665, 1102, 1165, 1002, 1226, 1728, 1053) and of the fresh 4-point
# quadruples (139, 299, 299, 250, 375, 762, 746, 663, 937, 1294, 651);
# the reports differ from those only in their counts.
_DETECT_BUDGET = {
    1: (104, 137, "bc83191d687e1cfca991ff3e13d59d213c965f47693a4f7c165b69525882a3f7", 6),
    2: (244, 245, "0136ce47e21dd18b94553248238b5156e65ebdb19061b87b2b1664d7ad30d688", 8),
    3: (244, 245, "13c7051ae839d2535f5511e6cef8430150bc19d51c3ec90d4f99a8aace8f164c", 8),
    4: (229, 229, "e7591649e49376aeb11f1ba62f9410801d3a25e9599c5176304e6e06ad0528d3", 9),
    5: (312, 313, "30bbee9e85b3740d49bfcdd41e6249042589789f99dec6c9fc4537c608630b44", 10),
    6: (492, 492, "dcd45e4c6ac646af56b268ef2231567f1ac98f129f47ee90b06ece240a519ec8", 9),
    7: (592, 594, "65166523f016d35e324f01dbea6befb43aeae02977d80edc366f9c7cd6768bcf", 13),
    8: (455, 456, "6a4019f3800a7ad37383c6cfa9cd232447ab0cfe71a85e7152233ee94a795521", 10),
    9: (812, 859, "f487cf37befecb61da3de506272177f7528b2b0bcca8603e7e731ddc96850f79", 6),
    10: (791, 797, "8d439b23c1a283ad4d22382459aa9215e73aa122194944b245d4b02cfaa0a491", 16),
    11: (557, 562, "26901d0c87f69119ec216492daa4ddea31d2dfac9e5cd553816135add2044728", 10),
}


@pytest.mark.parametrize("no", sorted(_DETECT_BUDGET))
def test_detection_reports_are_unchanged_in_fewer_oracle_calls(no, monkeypatch):
    calls = []
    inner = Oracle.eval_batch

    def spy(self, points):
        calls.append(len(points))
        return inner(self, points)

    monkeypatch.setattr(Oracle, "eval_batch", spy)
    probes, probes_before, sha, most_calls = _DETECT_BUDGET[no]
    report = run_case(no, suite_seeds(0, no, 1)[0], detect_only=True)
    assert report.error is None
    assert report.detect_evals == report.oracle_evals == sum(calls) == probes
    assert len(calls) <= most_calls
    # at the earlier counts, the report is the earlier one byte for byte
    report.detect_evals = report.oracle_evals = probes_before
    report.structure["probes_used"] = probes_before
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == sha

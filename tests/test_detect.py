import numpy as np
import pytest

from gsfit import expr as ex
from gsfit.bench import CASES, STREAM_DEMO
from gsfit.config import RunConfig
from gsfit.detect import (
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
from gsfit.oracle import DomainBox, make_oracle

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
    g = interaction_graph(o, [0.8, 0.9, 0.7, 0.6, 1.0, 1.1], CFG)
    assert len(g.edges()) == 15  # K6


def test_interaction_graph_case2_single_edge():
    o = CASES[2].oracle()
    g = interaction_graph(o, [0.8, 0.9, 0.7], CFG)
    assert g.edges() == [(2, 3)]


def test_interaction_graph_additive_empty():
    o = make_oracle(ex.parse("x1+x2+x3", 3), DomainBox.cube(-3, 3, 3))
    g = interaction_graph(o, [0.5, 0.5, 0.5], CFG)
    assert g.edges() == []


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


def test_minimal_blocks_case6():
    o = CASES[6].oracle()
    anchor = np.array([2.0, 2.1, 1.9, 2.2, 1.8])
    s = minimal_blocks(o, (5,), anchor, RunConfig(seed=2))
    assert [b.vars for b in s.blocks] == [(1,), (2,), (3,), (4,)]
    assert [b.repeated for b in s.blocks] == [(), (5,), (5,), ()]


def test_minimal_blocks_case1_single():
    o = CASES[1].oracle()
    s = minimal_blocks(o, (), np.array([0.7, 0.8]), RunConfig(seed=2))
    assert [b.vars for b in s.blocks] == [(1, 2)]


def test_minimal_blocks_additive_split():
    o = make_oracle(ex.parse("x1+x2", 2), DomainBox.cube(-3, 3, 2))
    s = minimal_blocks(o, (), np.array([0.4, 0.6]), RunConfig(seed=2))
    assert [b.vars for b in s.blocks] == [(1,), (2,)]


def test_isolate_psi_exact_identity_for_additive_target():
    o = make_oracle(ex.parse("x1+x2", 2), DomainBox.cube(-3, 3, 2))
    anchor = np.array([0.0, 0.0])
    d = isolate_psi_data(o, (1,), anchor, 40, RunConfig(seed=3))
    assert np.allclose(d.values, d.points[:, 0], atol=1e-12)


def test_isolate_psi_case3_proportional_to_sin2x():
    # slicing identity: h(x1) = 10*(sin 2x1 - sin 2a1), independent of block 2
    o = CASES[3].oracle()
    anchor = np.array([0.9, 0.7, 1.1])
    d = isolate_psi_data(o, (1,), anchor, 60, RunConfig(seed=4))
    expected = 10.0 * (np.sin(2 * d.points[:, 0]) - np.sin(2 * anchor[0]))
    assert np.allclose(d.values, expected, atol=1e-10)


def test_isolate_psi_case6_log_block_scaled_by_cos_anchor():
    o = CASES[6].oracle()
    anchor = np.array([2.0, 2.1, 1.9, 2.2, 1.8])
    d = isolate_psi_data(o, (3,), anchor, 60, RunConfig(seed=4))
    expected = np.cos(anchor[4]) * (
        np.log(3 * d.points[:, 0] + 1.2) - np.log(3 * anchor[2] + 1.2)
    )
    assert np.allclose(d.values, expected, atol=1e-10)


def test_isolate_omega_case4_linear_in_x3():
    o = CASES[4].oracle()
    anchor = np.array([0.9, 0.7, 1.1])
    d = isolate_omega_data(o, (1,), (3,), anchor, 48, RunConfig(seed=5))
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
    d = isolate_omega_data(o, (2,), (5,), anchor, 48, RunConfig(seed=5))
    z = d.points[:, 0]
    ratio = d.values / (z * z)
    assert np.allclose(ratio, ratio[0], rtol=1e-9)


def test_factor_partition_case9_groups():
    o = CASES[9].oracle()
    anchor = np.array([0.8, 0.9, 0.7, 0.6, 1.0, 1.1])
    d = isolate_psi_data(o, (1, 2, 3, 4, 5, 6), anchor, 120, RunConfig(seed=6))
    groups = factor_partition(d, CFG, box=o.box)
    assert groups == ((1,), (2,), (3, 4), (5, 6))


def test_factor_partition_case1_splits():
    o = CASES[1].oracle()
    anchor = np.array([0.7, 0.8])
    d = isolate_psi_data(o, (1, 2), anchor, 60, RunConfig(seed=6))
    assert factor_partition(d, CFG, box=o.box) == ((1,), (2,))


def test_factor_partition_entangled_pair_stays_together():
    o = make_oracle(ex.parse("sin(x1+x2)", 2), DomainBox.cube(-3, 3, 2))
    anchor = np.array([0.3, -0.4])
    d = isolate_psi_data(o, (1, 2), anchor, 60, RunConfig(seed=6))
    assert factor_partition(d, CFG, box=o.box) == ((1, 2),)


def test_factor_partition_additive_pair_fused():
    # (x1+x2)/x3 with x3 pinned: x1, x2 do not interact but form one factor
    o = CASES[10].oracle()
    anchor = np.array([0.8, 0.9, 1.1, 0.7, 0.6, 1.2, 0.5])
    d = isolate_psi_data(o, (1, 2, 3), anchor, 90, RunConfig(seed=6))
    assert factor_partition(d, CFG, box=o.box) == ((1, 2), (3,))


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


def test_detection_error_when_anchor_always_invalid():
    o = make_oracle(ex.parse("ln(x1-2.5)", 1), DomainBox.cube(-3, 3, 1))
    with pytest.raises(DetectionError):
        detect_structure(o, RunConfig(seed=7))


def test_structure_json_round_trip():
    import json

    s = detect_structure(CASES[4].oracle(), RunConfig(seed=7))
    d = json.loads(s.to_json())
    assert d["repeated"] == [3]
    assert [b["vars"] for b in d["blocks"]] == [[1], [2]]
    assert all(b["omega_factors"] == [[3]] for b in d["blocks"])
    assert isinstance(d["probes_used"], int) and d["probes_used"] > 0


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
    permuted_target = permute_expr(spec.target(), mapping)
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
        minimal_blocks(o, (1, 2, 3), np.array([0.5, 0.5, 0.5]), RunConfig(seed=1))

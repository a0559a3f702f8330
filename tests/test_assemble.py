import json
import math

import numpy as np
import pytest

from gsfit import expr as ex
from gsfit.assemble import (
    BasisTerm,
    assemble_and_validate,
    build_basis,
    fit_structure_factors,
    least_squares,
)
from gsfit.bench import CASES
from gsfit.config import RunConfig
from gsfit.detect import Block, GsStructure, detect_structure
from gsfit.fit import FactorModel
from gsfit.oracle import DomainBox, SampleSet, make_oracle


def fake_model(e: ex.Expr, vars_: tuple[int, ...]) -> FactorModel:
    return FactorModel(
        skeleton_name="given", var_indices=vars_, theta=np.zeros(0), expr=e,
        train_mse=0.0, converged=True,
    )


def term_of(e: ex.Expr, block=0, subset=(0,)) -> BasisTerm:
    return BasisTerm(block_index=block, factor_subset=subset, expr=e)


def sample_of(points: np.ndarray, values: np.ndarray) -> SampleSet:
    return SampleSet(points=points, values=values, seed=0)


def dummy_structure(n_blocks: int) -> GsStructure:
    blocks = [Block(vars=(i + 1,), psi_factors=((i + 1,),)) for i in range(n_blocks)]
    return GsStructure(repeated=(), blocks=blocks, anchor=(0.0,) * n_blocks)


def test_build_basis_subset_counts():
    models = [
        fake_model(ex.parse("cos(x7)", 7), (7,)),
        fake_model(ex.parse("x4", 7), (4,)),
        fake_model(ex.parse("sin(x5*x6)", 7), (5, 6)),
    ]
    s = dummy_structure(1)
    terms = build_basis(s, [models])
    assert len(terms) == 7  # 2^3 - 1 nonempty subsets


def test_build_basis_case3_term_count():
    s = dummy_structure(2)
    factors = [
        [fake_model(ex.parse("sin(2*x1)", 3), (1,))],
        [fake_model(ex.parse("x2^2", 3), (2,)), fake_model(ex.parse("cos(x3)", 3), (3,))],
    ]
    terms = build_basis(s, factors)
    assert len(terms) == 1 + 3


def test_build_basis_single_factor_block():
    s = dummy_structure(1)
    terms = build_basis(s, [[fake_model(ex.parse("x1", 1), (1,))]])
    assert len(terms) == 1


def test_build_basis_explosion_guard():
    s = dummy_structure(1)
    models = [fake_model(ex.parse("x1", 7), (1,)) for _ in range(7)]
    with pytest.raises(ValueError, match="basis explosion"):
        build_basis(s, [models])


def test_least_squares_exact_sine_model():
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, size=(100, 1))
    y = 2.0 + 3.0 * np.sin(x[:, 0])
    terms = [term_of(ex.parse("sin(x1)", 1))]
    c0, c, mse, deficient = least_squares(terms, sample_of(x, y))
    assert c0 == pytest.approx(2.0, abs=1e-12)
    assert c[0] == pytest.approx(3.0, abs=1e-12)
    assert mse <= 1e-24
    assert not deficient


def test_least_squares_case3_exact_shape_coefficients():
    spec = CASES[3]
    o = spec.oracle()
    train = o.sample(600, seed=4)
    terms = [
        term_of(ex.parse("sin(2*x1)", 3)),
        term_of(ex.parse("x2^2*cos(x3)", 3)),
    ]
    c0, c, mse, _ = least_squares(terms, train)
    assert c0 == pytest.approx(1.2, abs=1e-9)
    assert c[0] == pytest.approx(10.0, abs=1e-9)
    assert c[1] == pytest.approx(-3.0, abs=1e-9)
    assert mse <= 1e-18


def test_least_squares_duplicate_column_flags_deficiency():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, size=(50, 1))
    y = x[:, 0] * 4.0
    terms = [term_of(ex.parse("x1", 1)), term_of(ex.parse("x1", 1))]
    c0, c, mse, deficient = least_squares(terms, sample_of(x, y))
    assert deficient
    assert mse <= 1e-20  # fit still returned


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(2)
    x = rng.uniform(-3, 3, size=(200, 2))
    y = 1 + 2 * np.sin(x[:, 0]) + 0.3 * x[:, 1] ** 2 + np.cos(x[:, 0] * x[:, 1])
    terms = [
        term_of(ex.parse("sin(x1)", 2)),
        term_of(ex.parse("x2^2", 2)),
        term_of(ex.parse("x1", 2)),
    ]
    c0, c, mse, _ = least_squares(terms, sample_of(x, y))
    resid = y - c0 - sum(ci * t.evaluate(x) for ci, t in zip(c, terms))
    for t in terms:
        col = t.evaluate(x)
        assert abs(resid @ col) <= 1e-9 * np.linalg.norm(resid) * np.linalg.norm(col)


def test_least_squares_nested_basis_monotone_training_mse():
    rng = np.random.default_rng(3)
    x = rng.uniform(-3, 3, size=(150, 1))
    y = np.exp(x[:, 0]) + 0.5 * x[:, 0]
    pool = [
        term_of(ex.parse("x1", 1)),
        term_of(ex.parse("x1^2", 1)),
        term_of(ex.parse("sin(x1)", 1)),
        term_of(ex.parse("exp(x1)", 1)),
    ]
    prev = math.inf
    for k in range(1, len(pool) + 1):
        _, _, mse, _ = least_squares(pool[:k], sample_of(x, y))
        assert mse <= prev + 1e-15
        prev = mse


def test_least_squares_drops_invalid_points_with_warning():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(0.5, 3, size=(95, 1)),
                        rng.uniform(-1.0, -0.5, size=(5, 1))])
    y = np.log(np.abs(x[:, 0]))
    terms = [term_of(ex.parse("ln(x1)", 1))]
    with pytest.warns(UserWarning, match="dropped 5"):
        c0, c, mse, _ = least_squares(terms, sample_of(x, y))
    assert c[0] == pytest.approx(1.0, abs=1e-10)


def test_least_squares_too_many_invalid_errors():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, -0.5, size=(100, 1))
    y = np.ones(100)
    terms = [term_of(ex.parse("ln(x1)", 1))]
    with pytest.raises(ValueError, match="invalid"):
        least_squares(terms, sample_of(x, y))


def test_least_squares_needs_enough_points():
    x = np.zeros((3, 1))
    terms = [term_of(ex.parse("x1", 1))]
    with pytest.raises(ValueError, match="twice"):
        least_squares(terms, sample_of(x, np.zeros(3)))


def test_assemble_case2_validates_below_tolerance():
    spec = CASES[2]
    o = spec.oracle()
    s = detect_structure(o, RunConfig(seed=3))
    model = assemble_and_validate(s, o, RunConfig(seed=3))
    assert model.success
    assert model.val_mse <= 1e-6


def test_assemble_zero_target():
    o = make_oracle(ex.parse("0*x1", 1), DomainBox.cube(-3, 3, 1))
    s = detect_structure(o, RunConfig(seed=3))
    model = assemble_and_validate(s, o, RunConfig(seed=3))
    assert model.c0 == pytest.approx(0.0, abs=1e-12)
    assert model.val_mse <= 1e-20
    assert model.success


def test_assembled_expr_matches_weighted_sum():
    spec = CASES[4]
    o = spec.oracle()
    s = detect_structure(o, RunConfig(seed=5))
    model = assemble_and_validate(s, o, RunConfig(seed=5))
    rng = np.random.default_rng(8)
    pts = rng.uniform(-3, 3, size=(100, 3))
    direct = model.predict(pts)
    composed = model.expr.eval_batch(pts)
    scale = np.maximum(1.0, np.abs(direct))
    assert np.all(np.abs(direct - composed) <= 1e-12 * scale)


def test_assembled_model_json_keys():
    spec = CASES[1]
    o = spec.oracle()
    s = detect_structure(o, RunConfig(seed=6))
    model = assemble_and_validate(s, o, RunConfig(seed=6))
    d = json.loads(model.to_json())
    assert set(d) >= {"c0", "terms", "expr", "train_mse", "val_mse", "success"}
    assert all(set(t) == {"block", "factor_subset", "expr", "coeff"} for t in d["terms"])
    assert d["success"] is True


def test_fit_structure_factors_counts_match_partition():
    spec = CASES[6]
    o = spec.oracle()
    s = detect_structure(o, RunConfig(seed=2))
    factors = fit_structure_factors(s, o, RunConfig(seed=2), 2)
    assert [len(f) for f in factors] == [b.factor_count() for b in s.blocks]

import copy
import math
import pickle

import numpy as np
import pytest

from gsfit import expr as ex
from gsfit import fit
from gsfit.fit import skeleton_stream

from helpers import INDEPENDENT_TARGETS, random_tree, reference_eval

CASE_TEXTS = {
    1: ("0.5*exp(x1)*sin(2*x2)", 2),
    6: (
        "10+0.2*x1-0.2*x5^2*sin(x2)+cos(x5)*ln(3*x3+1.2)-1.2*exp(0.5*x4)",
        5,
    ),
}


def test_parse_case1_evaluates():
    e = ex.parse(*CASE_TEXTS[1])
    assert e.evaluate([0.0, math.pi / 4]) == pytest.approx(0.5, rel=1e-12)


def test_parse_single_variable():
    e = ex.parse("x1", 1)
    assert e.kind == "var" and e.index == 1
    assert e.complexity() == 1


def test_parse_error_position():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("sin(", 1)
    assert err.value.position == 4


@pytest.mark.parametrize("text, value", [
    ("2.5e-3*x1", 2.5e-3), ("1E5", 1e5), ("1e+2", 100.0), (".5e1", 5.0),
])
def test_parse_numbers_with_an_exponent(text, value):
    assert ex.parse(text, 1).evaluate([1.0]) == value


def test_an_exponent_without_digits_is_a_parse_error():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("3e", 1)
    assert err.value.position == 1


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(ex.ParseError):
        ex.parse("x3+1", 2)


def test_parse_trailing_garbage():
    with pytest.raises(ex.ParseError):
        ex.parse("x1+", 1)


_X1, _TWO = ex.var(1), ex.const(2.0)


@pytest.mark.parametrize("text, tree", [
    ("-x1^2", ex.unary("neg", ex.unary("square", _X1))),
    ("exp(-x1^2)", ex.unary("exp", ex.unary("neg", ex.unary("square", _X1)))),
    ("-2^2", ex.unary("neg", ex.unary("square", _TWO))),
    ("x1^-2", ex.binary("pow", _X1, ex.unary("neg", _TWO))),
    ("(-x1)^2", ex.unary("square", ex.unary("neg", _X1))),
    ("x2*-x1^3", ex.binary("mul", ex.var(2),
                           ex.unary("neg", ex.binary("pow", _X1, ex.const(3.0))))),
])
def test_unary_minus_binds_looser_than_power(text, tree):
    assert ex.parse(text, 2) == tree
    assert ex.parse(tree.to_text(), 2) == tree


def test_eval_ln_domain_violation_is_nan():
    e = ex.parse("ln(x1)", 1)
    assert math.isnan(e.evaluate([-1.0]))


def test_eval_div_by_zero_is_nan():
    e = ex.parse("1/x1", 1)
    assert math.isnan(e.evaluate([0.0]))


def test_invalid_propagates_to_root():
    e = ex.parse("2+sin(ln(x1))", 1)
    assert math.isnan(e.evaluate([-3.0]))


def test_case6_value_at_2s_matches_independent_calculator():
    # independent: math-module evaluation of the case 6 formula
    expected = INDEPENDENT_TARGETS[6]([2.0] * 5)
    e = ex.parse(*CASE_TEXTS[6])
    assert e.evaluate([2.0] * 5) == pytest.approx(expected, rel=1e-12)


def test_complexity_examples():
    assert ex.parse("x1", 1).complexity() == 1
    assert ex.parse("sin(2*x2)", 2).complexity() == 4
    assert ex.parse(*CASE_TEXTS[1]).complexity() == 9


def test_eval_batch_matches_scalar():
    e = ex.parse("x1*sin(x2)-exp(x1)/x2", 2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(32, 2))
    batch = e.eval_batch(pts)
    for p, v in zip(pts, batch):
        s = e.evaluate(p)
        if math.isnan(s):
            assert math.isnan(v)
        else:
            assert v == pytest.approx(s, rel=1e-14)


def test_eval_arity_mismatch_raises():
    e = ex.parse("x2", 2)
    with pytest.raises(ValueError):
        e.eval_batch(np.zeros((4, 1)))


def test_arity_bound_is_cached_without_changing_equality_or_errors():
    e, twin = ex.parse("x3*sin(x1)", 3), ex.parse("x3*sin(x1)", 3)
    assert e.eval_batch(np.ones((2, 3))).shape == (2,)   # fills e's cache
    assert e.arity_bound() == 3 and "_arity_bound" in vars(e)
    assert "_arity_bound" not in vars(twin)
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
    with pytest.raises(ValueError, match="references x3"):
        e.eval_batch(np.zeros((4, 2)))


def test_print_parse_round_trip_random_trees():
    rng = np.random.default_rng(20240811)
    checked = 0
    for _ in range(1000):
        t = random_tree(rng, arity=3)
        text = t.to_text()
        back = ex.parse(text, 3)
        pts = rng.uniform(-3, 3, size=(16, 3))
        a = t.eval_batch(pts)
        b = back.eval_batch(pts)
        both_nan = np.isnan(a) & np.isnan(b)
        close = np.isclose(a, b, rtol=1e-12, atol=1e-300)
        assert np.all(both_nan | close), f"round trip changed values for {text!r}"
        checked += 1
    assert checked == 1000


def test_print_uses_17_significant_digits():
    v = 0.1234567890123456789
    e = ex.const(v)
    assert ex.parse(e.to_text(), 1).value == v


@pytest.mark.parametrize("op, inner", [
    ("mul", "div"), ("add", "sub"), ("mul", "mul"), ("add", "add"),
])
def test_right_operand_of_equal_precedence_keeps_its_parentheses(op, inner):
    x1, x2, x3 = ex.var(1), ex.var(2), ex.var(3)
    t = ex.binary(op, x1, ex.binary(inner, x2, x3))
    assert ex.parse(t.to_text(), 3) == t, t.to_text()


def test_parse_rejects_template_parameters():
    with pytest.raises(ex.ParseError):
        ex.parse("p0*x1", 1)


def test_template_text_round_trips():
    for k in (1, 2, 3):
        for sk in skeleton_stream(k, max_nodes=14):
            for col in sk.columns:
                assert ex.parse_template(col.to_text(), k) == col, sk.name


def test_template_eval_and_bind_agree():
    t = ex.parse_template("x2*sin(p0*x1+p1)", 2)
    assert t.param_bound() == 2 and t.arity_bound() == 2
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(16, 2))
    theta = np.array([1.5, -0.25])
    bound = t.bind(theta, (3, 1))
    assert bound.to_text() == "x1*sin(1.5*x3+(-0.25))"
    full = np.zeros((16, 3))
    full[:, 2], full[:, 0] = pts[:, 0], pts[:, 1]
    assert np.array_equal(bound.eval_batch(full), t._eval(pts, theta))


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_compiled_eval_matches_the_recursive_walk_bit_for_bit(seed):
    # boxes reach into invalid regions (ln, sqrt and 1/ of non-positive
    # values), so NaN positions are compared too, through the bytes
    rng = np.random.default_rng(seed)
    for _ in range(60):
        arity = int(rng.integers(1, 4))
        t = random_tree(rng, arity)
        pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 70)), arity))
        with np.errstate(all="ignore"):
            want = reference_eval(t, pts)
            assert _same_bytes(t._eval(pts), want), t.to_text()


def test_compiled_templates_match_the_recursive_walk_with_parameter_columns():
    rng = np.random.default_rng(11)
    for k, stream in fit._STREAMS.items():
        V = rng.uniform(-3.0, 3.0, size=(40, k))
        for sk in stream:
            X = rng.uniform(-4.0, 4.0, size=(7, max(sk.nl_count, 1)))
            theta = [X[:, j:j + 1] for j in range(X.shape[1])]
            for col in sk.columns:
                with np.errstate(all="ignore"):
                    want = reference_eval(col, V, theta)
                    got = col._eval(V, theta)
                assert _same_bytes(got, want), (sk.name, col.to_text())


def test_expr_stays_a_plain_value_after_evaluation():
    t = ex.parse("ln(x1)*sin(2*x2)/(x1-x2)+x2^3", 2)
    pts = np.random.default_rng(3).uniform(-3.0, 3.0, size=(25, 2))
    before = (pickle.dumps(t), copy.copy(t), hash(t))
    want = t.eval_batch(pts)
    assert pickle.dumps(t) == before[0]
    twin = ex.parse(t.to_text(), 2)            # never evaluated
    for other in (copy.copy(t), copy.deepcopy(t), before[1], twin):
        assert other == t and hash(other) == hash(t) == before[2]
    back = pickle.loads(pickle.dumps(t))
    assert back == t and hash(back) == hash(t)
    assert _same_bytes(back.eval_batch(pts), want)
    assert _same_bytes(pickle.loads(before[0]).eval_batch(pts), want)

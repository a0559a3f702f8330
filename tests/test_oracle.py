import numpy as np
import pytest

from gsfit import expr as ex
from gsfit.oracle import (
    DomainBox, Oracle, SampleError, make_oracle, uniform,
)


def test_box_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        DomainBox((0.0,), (0.0,))


@pytest.mark.parametrize("lo,hi", [
    ((0.0, -3.0), (1.0, np.inf)),
    ((-np.inf,), (1.0,)),
    ((np.nan,), (1.0,)),
])
def test_box_rejects_bounds_that_are_not_finite(lo, hi):
    with pytest.raises(ValueError, match="bounds must be finite"):
        DomainBox(lo, hi)


def test_sample_uniform_within_box_and_counts():
    box = DomainBox.cube(-3, 3, 2)
    pts = box.uniform(400, np.random.default_rng(7))
    assert pts.shape == (400, 2)
    assert np.all(pts >= -3) and np.all(pts <= 3)


def test_sample_uniform_case6_box():
    box = DomainBox.cube(1, 3, 5)
    pts = box.uniform(1000, np.random.default_rng(1))
    assert np.all(pts >= 1) and np.all(pts <= 3)


def test_sample_uniform_is_seed_deterministic():
    box = DomainBox.cube(-1, 4, 3)
    a = box.uniform(64, np.random.default_rng(11))
    b = box.uniform(64, np.random.default_rng(11))
    assert np.array_equal(a, b)


def test_uniform_mean_within_three_standard_errors():
    box = DomainBox((-3.0, 1.0), (3.0, 3.0))
    pts = box.uniform(100_000, np.random.default_rng(5))
    for j, (lo, hi) in enumerate(zip(box.lo, box.hi)):
        mid = 0.5 * (lo + hi)
        se = (hi - lo) / np.sqrt(12 * len(pts))
        assert abs(pts[:, j].mean() - mid) < 3 * se


def test_uniform_is_bit_identical_to_generator_uniform():
    # detection draws through `uniform`; its points must be the ones
    # rng.uniform(lo, hi, size) gives, bounds broadcast over the shape
    gen = np.random.default_rng(5)
    for k in range(2000):
        shape = tuple(int(d) for d in gen.integers(1, 6, int(gen.integers(1, 3))))
        width = shape[-1] if k % 2 else 1
        lo = gen.uniform(-1e3, 1e3, width) * 10.0 ** gen.integers(-6, 3)
        hi = lo + gen.uniform(1e-9, 1e3, width)
        if width == 1:
            lo, hi = lo[0], hi[0]
        got = uniform(np.random.default_rng(k), lo, hi, shape)
        want = np.random.default_rng(k).uniform(lo, hi, shape)
        assert got.tobytes() == want.tobytes()


def test_make_oracle_counter_semantics():
    target = ex.parse("0.5*exp(x1)*sin(2*x2)", 2)
    box = DomainBox.cube(-3, 3, 2)
    o = make_oracle(target, box)
    assert o.arity == 2
    assert o.eval_count == 0
    o.eval_batch(((box.lo_array() + box.hi_array()) / 2)[None])
    assert o.eval_count == 1
    o.eval_batch(box.uniform(1000, np.random.default_rng(2)))
    assert o.eval_count == 1001


def test_oracle_arity_mismatch():
    with pytest.raises(ValueError):
        make_oracle(ex.parse("x3", 3), DomainBox.cube(0, 1, 2))


def test_sample_redraws_invalid_rows():
    # 1/x1 is invalid only on a measure-zero set; sample() must come back clean
    o = make_oracle(ex.parse("1/x1", 1), DomainBox.cube(-1, 1, 1))
    s = o.sample(200, np.random.default_rng(3))
    assert np.all(np.isfinite(s.values))


def test_counter_is_thread_safe():
    import threading

    o = make_oracle(ex.parse("x1", 1), DomainBox.cube(-1, 1, 1))
    pts = np.zeros((100, 1))

    def work():
        for _ in range(50):
            o.eval_batch(pts)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert o.eval_count == 4 * 50 * 100


class _InvalidFirst(Oracle):
    """x1 on [-1, 1], but every value of the first `bad_calls` batches is NaN."""

    def __init__(self, bad_calls: int):
        super().__init__(ex.parse("x1", 1), DomainBox.cube(-1, 1, 1))
        self.bad_calls = bad_calls
        self.calls = 0

    def eval_batch(self, points):
        self.calls += 1
        vals = super().eval_batch(points)
        return np.full(len(vals), np.nan) if self.calls <= self.bad_calls else vals


def test_sample_accepts_a_last_redraw_that_makes_every_value_finite():
    o = _InvalidFirst(bad_calls=20)   # the draw and 19 redraws fail, the 20th holds
    s = o.sample(30, np.random.default_rng(2))
    assert o.calls == 21
    assert np.all(np.isfinite(s.values))
    assert np.array_equal(s.values, s.points[:, 0])


def test_sample_still_invalid_after_twenty_redraws_raises_sample_error():
    o = _InvalidFirst(bad_calls=21)
    with pytest.raises(SampleError, match="fully valid sample"):
        o.sample(30, np.random.default_rng(2))
    assert o.calls == 21

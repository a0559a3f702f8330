"""Shared test utilities: random tree generation and independent targets.

The lambdas here are written against the math module on purpose: they are
the independent calculators the expression evaluator is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from gsfit import expr as ex
from gsfit import fit as ft

# The ten benchmark targets, recomputed independently of the parser.
INDEPENDENT_TARGETS = {
    1: lambda x: 0.5 * math.exp(x[0]) * math.sin(2 * x[1]),
    2: lambda x: 2 * math.cos(x[0]) + math.sin(3 * x[1] - x[2]),
    3: lambda x: 1.2 + 10 * math.sin(2 * x[0]) - 3 * x[1] ** 2 * math.cos(x[2]),
    4: lambda x: x[2] * math.sin(x[0]) - 2 * x[2] * math.cos(x[1]),
    5: lambda x: 2 * x[0] * math.sin(x[1]) * math.cos(x[3]) - 0.5 * x[3] * math.cos(x[2]),
    6: lambda x: 10 + 0.2 * x[0] - 0.2 * x[4] ** 2 * math.sin(x[1])
    + math.cos(x[4]) * math.log(3 * x[2] + 1.2) - 1.2 * math.exp(0.5 * x[3]),
    7: lambda x: 2 * x[3] * x[4] * math.sin(x[0]) - x[4] * x[1]
    + 0.5 * math.exp(x[2]) * math.cos(x[3]),
    8: lambda x: 1.2 + 2 * x[3] * math.cos(x[1])
    + 0.5 * math.exp(1.2 * x[2]) * math.sin(3 * x[0]) * math.cos(x[3])
    - 2 * math.cos(1.5 * x[4] + 5),
    9: lambda x: 0.5 * math.cos(x[2] * x[3]) / (math.exp(x[0]) * x[1] ** 2)
    * math.sin(1.5 * x[4] - 2 * x[5]),
    10: lambda x: 1.2 - 2 * (x[0] + x[1]) / x[2] * math.cos(x[6])
    + 0.5 * math.exp(x[6]) * x[3] * math.sin(x[4] * x[5]),
}

# Stream function around a circular cylinder, demo case (x = V, theta, R, r, G).
STREAM_INDEPENDENT = lambda x: (x[0] * x[3] * math.sin(x[1])) * (
    1 - x[2] ** 2 / x[3] ** 2
) + x[4] / (2 * math.pi) * math.log(x[3] / x[2])

# The wide case 12: x65 times 32 two-variable terms, four shapes in turn.
_WIDE_SHAPES = (
    lambda a, b: math.sin(a) * b,
    lambda a, b: math.exp(0.5 * a) * b,
    lambda a, b: math.cos(0.5 * a) * b ** 2,
    lambda a, b: a ** 2 / b,
)
WIDE_INDEPENDENT = lambda x: sum(
    x[64] * _WIDE_SHAPES[i % 4](x[2 * i], x[2 * i + 1]) for i in range(32)
)


def random_tree(rng: np.random.Generator, arity: int, depth: int = 0) -> ex.Expr:
    """Random expression tree over x1..x<arity>, depth-limited."""
    if depth >= 4 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.const(round(float(rng.uniform(-5, 5)), 3))
        return ex.var(int(rng.integers(1, arity + 1)))
    r = rng.random()
    if r < 0.45:
        op = ["add", "sub", "mul", "div"][int(rng.integers(0, 4))]
        return ex.binary(op, random_tree(rng, arity, depth + 1), random_tree(rng, arity, depth + 1))
    if r < 0.55:
        # keep pow exponents small so most evaluations stay finite
        return ex.binary("pow", random_tree(rng, arity, depth + 1), ex.const(float(rng.integers(1, 4))))
    op = ["neg", "sin", "cos", "exp", "ln", "sqrt", "square"][int(rng.integers(0, 7))]
    return ex.unary(op, random_tree(rng, arity, depth + 1))


def reference_eval(e: ex.Expr, pts: np.ndarray, theta=()) -> np.ndarray:
    """Recursive evaluator, node by node: the reference `Expr._eval`'s
    compiled form must match bit for bit."""
    k = e.kind
    if k == "const":
        return np.full(pts.shape[0], e.value)
    if k == "var":
        return pts[:, e.index - 1].copy()
    if k == "param":
        return theta[e.index]
    if k in ex.BINARY_OPS:
        a = reference_eval(e.args[0], pts, theta)
        b = reference_eval(e.args[1], pts, theta)
        if k == "add":
            return a + b
        if k == "sub":
            return a - b
        if k == "mul":
            return a * b
        if k == "div":
            return np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), np.nan)
        return np.power(a, b)
    a = reference_eval(e.args[0], pts, theta)
    if k == "neg":
        return -a
    if k == "sin":
        return np.sin(a)
    if k == "cos":
        return np.cos(a)
    if k == "exp":
        return np.exp(a)
    if k == "ln":
        return np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), np.nan)
    if k == "sqrt":
        return np.where(a >= 0.0, np.sqrt(np.where(a >= 0.0, a, 0.0)), np.nan)
    if k == "square":
        return a * a
    raise ValueError(f"unknown node kind {k!r}")


def reference_polish(residuals, objective, x, val):
    """The Gauss-Newton polish with no stall stop: it stops only when no
    step length improves, or after `fit._POLISH_ITERS` iterations. Wherever
    it closes to 1e-12, `fit._polish` must return its (x, val) bit for bit."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    for _ in range(ft._POLISH_ITERS):
        h = ft._POLISH_FD_STEP * (1.0 + np.abs(x))
        X = np.tile(x, (d + 1, 1))
        X[1:] += np.diag(h)
        R, ok = residuals(X)
        if not (ok.all() and np.all(np.isfinite(R))):
            break
        J = (R[1:] - R[0]) / h[:, None]
        step = np.linalg.lstsq(J.T, -R[0], rcond=ft._POLISH_RCOND)[0]
        cands = np.clip(x + ft._POLISH_LENGTHS * step, -ft.PARAM_BOUND,
                        ft.PARAM_BOUND)
        vals = objective(cands)
        i = int(np.argmin(vals))
        if not vals[i] < val:
            break
        x, val = cands[i], float(vals[i])
    return x, val


def reference_subset_rss(G, b, yy, S):
    """The library's subset scores by batched LU: each subset's Gram matrix
    is singular where its `np.linalg.det` is at most `fit._LIBRARY_MIN_DET`,
    and its RSS is yy less b_S . solve(G_S, b_S), inf where negative beyond
    1e-12 of yy. `fit._subset_rss`'s closed-form Cholesky must agree with
    it to rounding."""
    Gs = G[S[:, :, None], S[:, None, :]]
    bs = b[S]
    ok = np.linalg.det(Gs) > ft._LIBRARY_MIN_DET
    Gs[~ok] = np.eye(S.shape[1])
    r = yy - (bs * np.linalg.solve(Gs, bs[:, :, None])[:, :, 0]).sum(axis=1)
    r[~(ok & (r >= -1e-12 * yy))] = math.inf
    return r

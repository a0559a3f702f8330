"""Factor determination: a table of skeleton templates plus a hybrid
simplex evolution optimizer.

A skeleton is a tuple of column templates, written in the expression
grammar over the factor's local variables x1..xk and parameters p0, p1,
... (`expr.parse_template`). Its model is the sum of lin_j * column_j,
and a column "1" is the offset. The templates are the only definition of
a skeleton: the objective evaluates them, the fitted model is bound from
them, and their node counts give the complexity that caps the stream.

Factor data is only identified up to an affine transform, so every
skeleton carries an explicit amplitude and (usually) offset. The lin_j
enter the model linearly and are solved by least squares inside the
objective; the evolutionary search only has to handle the parameters
inside the columns (frequencies, growth rates, inner shifts), which keeps
it in one to three dimensions.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expr as ex


@dataclass
class OptimizerConfig:
    """Controls for the simplex-evolution optimizer.

    pop_size, max_generations and stagnation_window default to the
    dimension-dependent schedules 10+10d, 500d and 50d when left None.
    """

    pop_size: int | None = None
    lo: float = -50.0
    hi: float = 50.0
    target_tol: float = 1e-6
    max_generations: int | None = None
    stagnation_window: int | None = None
    seed: int = 0

    def resolved(self, d: int) -> tuple[int, int, int]:
        np_ = self.pop_size if self.pop_size is not None else 10 + 10 * d
        if np_ < 4:
            raise ValueError("population size must be at least 4")
        gens = self.max_generations if self.max_generations is not None else 500 * d
        stag = (
            self.stagnation_window
            if self.stagnation_window is not None
            else 50 * d
        )
        return np_, gens, stag


def ldse_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds,
    cfg: OptimizerConfig,
    init_guesses=None,
) -> tuple[np.ndarray, float]:
    """Population search with low-dimensional simplex moves.

    `objective` maps a (P, d) array of parameter rows to P values;
    non-finite values count as inf. Updates are generation-synchronous:
    every generation, each agent draws m+1 distinct population members
    (m = min(d, 3)) from the population as it stood at the start of the
    generation; the worst vertex of that simplex is reflected through the
    centroid of the rest, with an inside contraction as fallback, and the
    agent is replaced whenever its candidate improves on it. All
    reflections are scored in one objective call, the contractions in a
    second, so a run makes at most 1 + 2 * generations calls. Candidates
    are clipped to the bounds. Deterministic for a fixed seed.
    """
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    if np.any(lo >= hi):
        raise ValueError("each bound must satisfy lo < hi")
    d = len(bounds)
    n_pop, max_gens, stagnation = cfg.resolved(d)
    rng = np.random.default_rng(cfg.seed)

    def f(X: np.ndarray) -> np.ndarray:
        v = np.asarray(objective(X), dtype=float)
        return np.where(np.isfinite(v), v, math.inf)

    pop = lo + rng.random((n_pop, d)) * (hi - lo)
    if init_guesses:
        # half the population starts as jittered copies of the guesses so
        # the simplex moves can refine around them immediately
        slots = n_pop // 2
        for k in range(slots):
            g = np.asarray(init_guesses[k % len(init_guesses)], dtype=float)
            if k >= len(init_guesses):
                g = g + rng.normal(0.0, 0.05, d) * (1.0 + np.abs(g))
            pop[k] = np.clip(g, lo, hi)
    vals = f(pop)

    best_i = int(np.argmin(vals))
    best_x, best_val = pop[best_i].copy(), float(vals[best_i])
    m = min(d, 3)
    agents = np.arange(n_pop)
    last_improve = 0
    for gen in range(max_gens):
        if best_val <= cfg.target_tol or gen - last_improve > stagnation:
            break
        idx = rng.integers(0, n_pop, size=(n_pop, m + 1))
        while True:
            # a row of distinct members has only its m+1 diagonal matches
            dup = (idx[:, :, None] == idx[:, None, :]).sum(axis=(1, 2)) > m + 1
            if not dup.any():
                break
            idx[dup] = rng.integers(0, n_pop, size=(int(dup.sum()), m + 1))
        worst = np.argmax(vals[idx], axis=1)
        rest = np.ones(idx.shape, dtype=bool)
        rest[agents, worst] = False
        centroid = pop[idx[rest].reshape(n_pop, m)].mean(axis=1)
        xw = pop[idx[agents, worst]]
        cand = np.clip(2.0 * centroid - xw, lo, hi)
        fc = f(cand)
        retry = ~(fc < vals)
        if retry.any():
            cand[retry] = np.clip(0.5 * (centroid[retry] + xw[retry]), lo, hi)
            fc[retry] = f(cand[retry])
        better = fc < vals
        pop[better] = cand[better]
        vals[better] = fc[better]
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            if vals[i] < best_val - 1e-12:
                last_improve = gen
            best_val = float(vals[i])
            best_x = pop[i].copy()
    return best_x, best_val


# --------------------------------------------------------------------------
# skeletons

_OFFSET = ex.const(1.0)


@dataclass(frozen=True)
class Skeleton:
    """Model sum_j lin_j * columns[j] over the factor's local variables.

    The lin_j are solved by least squares; the nl_count parameters p<k>
    are searched by the optimizer, starting from the candidates
    `hints(V, y)` proposes. A skeleton with parameters has one column
    besides the offset, whose amplitude and offset the objective solves in
    closed form. Everything else is read off the column templates.
    """

    name: str
    columns: tuple[ex.Expr, ...]
    hints: Callable | None = field(repr=False, default=None)

    def _shapes(self) -> list[ex.Expr]:
        return [c for c in self.columns if c != _OFFSET]

    @property
    def nl_count(self) -> int:
        return max(c.param_bound() for c in self.columns)

    @property
    def var_count(self) -> int:
        return max(c.arity_bound() for c in self.columns)

    @property
    def lin_count(self) -> int:
        return len(self.columns)

    @property
    def has_offset(self) -> bool:
        return _OFFSET in self.columns

    @property
    def complexity(self) -> int:
        """Node count of the non-offset columns joined by add; a bare
        constant counts 1."""
        shapes = self._shapes()
        return max(1, sum(c.complexity() for c in shapes) + len(shapes) - 1)

    def design(self, V: np.ndarray, nl) -> np.ndarray | None:
        """Columns at the local points V, or None where any is invalid."""
        B = np.column_stack([c._eval(V, nl) for c in self.columns])
        return B if np.all(np.isfinite(B)) else None

    def model(self, nl, lin, var_map) -> ex.Expr:
        """The fitted model over the global variables var_map."""
        terms = [
            ex.const(a) if c == _OFFSET else ex.mul(ex.const(a), c.bind(nl, var_map))
            for a, c in zip(lin, self.columns)
        ]
        return functools.reduce(ex.add, terms)


def _lstsq_cols(cols: np.ndarray, y: np.ndarray):
    # normal equations for the tiny systems in the optimizer hot loop,
    # with an SVD fallback when they are singular
    if cols.shape[1] <= 3:
        gram = cols.T @ cols
        try:
            c = np.linalg.solve(gram, cols.T @ y)
        except np.linalg.LinAlgError:
            c = None
        if c is not None and np.all(np.isfinite(c)):
            r = y - cols @ c
            return c, float(r @ r / len(y))
    c, *_ = np.linalg.lstsq(cols, y, rcond=None)
    r = y - cols @ c
    return c, float(r @ r / len(y))


# ---- hint generators -------------------------------------------------------
# Each proposes starting points in its skeleton's parameter space;
# `_ranked_hints` scores them with the skeleton's own objective.


def _with_phase(kind: str, freqs, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(freqs..., phase): a sin/cos pair fitted at argument t gives the phase."""
    cols = np.column_stack([np.sin(t), np.cos(t), np.ones(len(t))])
    (a, b, _), _ = _lstsq_cols(cols, y)
    phase = math.atan2(b, a) if kind == "sin" else math.atan2(-a, b)
    return np.array([*freqs, phase])


def _trig_hints(kind: str, col: int = 0):
    def h(V, y):
        v = V[:, col]
        span = float(np.max(v) - np.min(v)) or 1.0
        return [_with_phase(kind, (w,), w * v, y)
                for w in np.linspace(0.3, 40.0, 160) / span]

    return h


def _trig2_hints(kind: str):
    def h(V, y):
        u, w = V[:, 0], V[:, 1]
        span_u = float(np.max(u) - np.min(u)) or 1.0
        span_w = float(np.max(w) - np.min(w)) or 1.0
        return [_with_phase(kind, (w1, w2), w1 * u + w2 * w, y)
                for w1 in np.linspace(0.4, 24.0, 24) / span_u
                for w2 in np.linspace(-24.0, 24.0, 33) / span_w]

    return h


def _trig_prod_hints(V, y):
    t = V[:, 0] * V[:, 1]
    span = float(np.max(t) - np.min(t)) or 1.0
    return [np.array([w]) for w in np.linspace(0.3, 30.0, 120) / span]


def _exp_hints(col: int = 0):
    def h(V, y):
        # growth rates whose exponent stays within +-700 on the data
        span = max(1e-9, float(np.max(np.abs(V[:, col]))))
        return [np.array([min(8.0, 700.0 / span) * w / 8.0])
                for w in np.linspace(-8.0, 8.0, 81) if abs(w) > 1e-9]

    return h


def _exp2_hints(V, y):
    grid = np.linspace(-6.0, 6.0, 21)
    return [np.array([a, b]) for a in grid for b in grid
            if abs(a) > 1e-9 or abs(b) > 1e-9]


def _inner_affine_hints(V, y):
    """(slope, shift) pairs keeping the inner argument positive on the data."""
    v = V[:, 0]
    out = []
    for b in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0):
        for sgn in (1.0, -1.0):
            edge = np.min(sgn * b * v)
            for margin in (0.2, 0.6, 1.5, 4.0, 10.0):
                out.append(np.array([sgn * b, margin - edge]))
    return out


def _ln2_hints(V, y):
    u, w = V[:, 0], V[:, 1]
    out = []
    for b1 in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        for b2 in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            edge = np.min(b1 * u + b2 * w)
            for margin in (0.3, 1.0, 3.0, 8.0):
                out.append(np.array([b1, b2, margin - edge]))
    return out


# ---- the table -------------------------------------------------------------


def _sk(name: str, *columns: str, hints=None) -> Skeleton:
    return Skeleton(name, tuple(ex.parse_template(c, 3) for c in columns), hints)


# Streams by factor variable count, tried in table order. Both trig
# families share the phase trick; ln, sqrt and 1/ share the feasible inner
# affine scan.
_STREAMS = {
    1: (
        _sk("const", "1"),
        _sk("affine", "x1", "1"),
        _sk("square", "x1^2"),
        _sk("square_offset", "x1^2", "1"),
        _sk("inverse", "1/x1", "1"),
        _sk("inverse_square", "1/x1^2", "1"),
        _sk("cubic", "x1^3", "1"),
        _sk("quadratic", "x1^2", "x1", "1"),
        _sk("exp_scaled", "exp(p0*x1)", "1", hints=_exp_hints()),
        _sk("sin_affine", "sin(p0*x1+p1)", "1", hints=_trig_hints("sin")),
        _sk("cos_affine", "cos(p0*x1+p1)", "1", hints=_trig_hints("cos")),
        _sk("ln_affine", "ln(p0*x1+p1)", "1", hints=_inner_affine_hints),
        _sk("sqrt_affine", "sqrt(p0*x1+p1)", "1", hints=_inner_affine_hints),
        _sk("recip_affine", "1/(p0*x1+p1)", "1", hints=_inner_affine_hints),
        _sk("vexp", "x1*exp(p0*x1)", "1", hints=_exp_hints()),
        _sk("vsin", "x1*sin(p0*x1+p1)", "1", hints=_trig_hints("sin")),
    ),
    2: (
        _sk("bilinear", "x1*x2", "1"),
        _sk("affine2", "x1", "x2", "1"),
        _sk("bilinear_full", "x1*x2", "x1", "x2", "1"),
        _sk("ratio", "x1/x2", "1"),
        _sk("sin_affine2", "sin(p0*x1+p1*x2+p2)", "1", hints=_trig2_hints("sin")),
        _sk("cos_affine2", "cos(p0*x1+p1*x2+p2)", "1", hints=_trig2_hints("cos")),
        _sk("exp_affine2", "exp(p0*x1+p1*x2)", "1", hints=_exp2_hints),
        _sk("sin_prod", "sin(p0*x1*x2)", "1", hints=_trig_prod_hints),
        _sk("cos_prod", "cos(p0*x1*x2)", "1", hints=_trig_prod_hints),
        _sk("ln_affine2", "ln(p0*x1+p1*x2+p2)", "1", hints=_ln2_hints),
        _sk("ln_ratio_pos", "ln(x1/x2)", "1"),
        _sk("ln_ratio_neg", "ln(-x1/x2)", "1"),
        _sk("prod_sin", "x1*sin(p0*x2+p1)", "1", hints=_trig_hints("sin", col=1)),
        _sk("prod_exp", "x1*exp(p0*x2)", "1", hints=_exp_hints(col=1)),
    ),
    3: (
        _sk("affine3", "x1", "x2", "x3", "1"),
        _sk("trilinear", "x1*x2*x3", "1"),
        _sk("ratio2", "x1/x3", "x2/x3", "1"),
        _sk("ratio2_const", "x1/x3", "x2/x3", "1/x3", "1"),
        _sk("sin_affine3", "sin(p0*x1+p1*x2+p2*x3+p3)", "1"),
        _sk("cos_affine3", "cos(p0*x1+p1*x2+p2*x3+p3)", "1"),
        _sk("exp_affine3", "exp(p0*x1+p1*x2+p2*x3+p3)", "1"),
    ),
}


def skeleton_stream(var_count: int, max_nodes: int = 12) -> list[Skeleton]:
    """The table's skeletons for var_count variables, in table order, whose
    templates have at most max_nodes nodes (see Skeleton.complexity)."""
    if var_count not in _STREAMS:
        raise ValueError("skeleton streams cover 1 to 3 variables")
    if max_nodes < 3:
        raise ValueError("max_nodes must be at least 3")
    return [s for s in _STREAMS[var_count] if s.complexity <= max_nodes]


# --------------------------------------------------------------------------
# factor fitting


@dataclass
class FactorModel:
    """A fitted factor: chosen skeleton, parameters, and provenance.

    The model represents the centered, unit-variance image of the tabulated
    responses (factor data only identifies the factor up to an affine
    transform, and the normalized representative keeps the assembly basis
    well conditioned). shift and scale record the normalization applied.
    """

    skeleton_name: str
    var_indices: tuple[int, ...]
    theta: np.ndarray
    expr: ex.Expr
    train_mse: float          # MSE against the normalized responses
    converged: bool
    shift: float
    scale: float
    fit_values: np.ndarray = field(repr=False, default=None)
    data: object = field(repr=False, default=None)

    def predict(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        full = np.zeros((pts.shape[0], max(self.var_indices)))
        for k, v in enumerate(self.var_indices):
            full[:, v - 1] = pts[:, k]
        return self.expr.eval_batch(full)

    def recompute_mse(self) -> float:
        pred = self.predict(self.data.points)
        r = self.fit_values - pred
        return float(np.mean(r * r))


def derived_seed(base: int, *key: int) -> int:
    """Independent integer seed for the stream `key` under `base`."""
    return int(np.random.SeedSequence(base, spawn_key=key).generate_state(1)[0])


def _make_objective(sk: Skeleton, V, y):
    """Batched profile objective over the nonlinear parameters.

    Maps a (P, nl_count) array of parameter rows to P values. The shape
    column is evaluated once for all rows, each parameter broadcast as a
    (P, 1) column, and the optimal amplitude (and offset) of every row is
    solved in closed form from its 2x2 normal equations. A row scores its
    MSE, or inf where the shape is invalid or the solve is singular.
    """
    shape = sk._shapes()[0]
    offset = sk.has_offset
    n = len(y)
    y_sum = float(y.sum())

    def objective(X):
        S = shape._eval(V, [X[:, k:k + 1] for k in range(X.shape[1])])
        a11 = (S * S).sum(axis=1)
        b1 = S @ y
        if offset:
            a12 = S.sum(axis=1)
            det = a11 * n - a12 * a12
            ok = np.isfinite(a11) & (det > 1e-300 * np.maximum(1.0, a11 * n))
            c1 = (b1 * n - y_sum * a12) / det
            c2 = (a11 * y_sum - a12 * b1) / det
            R = y - c1[:, None] * S - c2[:, None]
        else:
            ok = np.isfinite(a11) & (a11 > 0.0)
            R = y - (b1 / a11)[:, None] * S
        mse = (R * R).sum(axis=1) / n
        return np.where(ok & np.isfinite(mse), mse, math.inf)

    return objective


# hint candidates scored per objective call; bounds the (rows, points)
# temporaries of the widest scans (sin_affine2 proposes 792)
_HINT_CHUNK = 64


def _ranked_hints(sk: Skeleton, objective, V, y, top: int = 3):
    """The skeleton's best `top` hint candidates under its own objective,
    and the best score (inf when there are none)."""
    if sk.hints is None:
        return [], math.inf
    cands = np.asarray(sk.hints(V, y), dtype=float)
    scores = np.concatenate(
        [objective(cands[i:i + _HINT_CHUNK])
         for i in range(0, len(cands), _HINT_CHUNK)]
    )
    order = [k for k in sorted(range(len(cands)), key=scores.__getitem__)[:top]
             if scores[k] < math.inf]
    return [cands[k] for k in order], (float(scores[order[0]]) if order else math.inf)


def _fit_skeleton(sk: Skeleton, V, y, cfg: OptimizerConfig, rank: int):
    """Best (nl, lin, mse) for one skeleton on normalized data."""
    nl = np.empty(0)
    if sk.nl_count:
        objective = _make_objective(sk, V, y)
        hints, hint_best = _ranked_hints(sk, objective, V, y)
        # Hint quality decides the search budget: on unit-variance data, a
        # dense grid scan that still leaves most of the variance unexplained
        # means the family cannot represent the data, so a short
        # confirmation run suffices.
        hopeless = bool(hints) and hint_best > 0.5
        inner = dataclasses.replace(
            cfg,
            target_tol=1e-14,
            max_generations=80 if hopeless else 300,
            stagnation_window=40,
        )
        bounds = [(cfg.lo, cfg.hi)] * sk.nl_count
        best = None
        for restart in range(3):
            run_cfg = dataclasses.replace(inner, seed=derived_seed(cfg.seed, rank, restart))
            x, val = ldse_minimize(objective, bounds, run_cfg, init_guesses=hints)
            if best is None or val < best[1]:
                best = (x, val)
            if val <= 1e-12:
                break
        nl = best[0]
    B = sk.design(V, nl)
    if B is None:
        return None
    lin, mse = _lstsq_cols(B, y)
    return nl, lin, mse


def fit_factor(data, cfg: OptimizerConfig, max_nodes: int = 12) -> FactorModel:
    """Walk the skeleton stream; accept the first fit within tolerance.

    Responses are centered and scaled to unit standard deviation before
    fitting; the returned model represents that normalized image (the data
    identifies the factor only up to an affine transform, and the outer
    linear assembly absorbs the normalization). Acceptance compares the
    normalized MSE against cfg.target_tol.
    """
    V = np.asarray(data.points, dtype=float)
    y = np.asarray(data.values, dtype=float)
    if V.ndim != 2 or len(V) == 0:
        raise ValueError("factor data must be a non-empty 2-D point table")
    shift = float(np.mean(y))
    scale = float(np.std(y))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    yn = (y - shift) / scale

    best = None  # (mse, sk, nl, lin)
    # templates evaluate outside their domains and overflow by design;
    # such parameters score inf
    with np.errstate(all="ignore"):
        for rank, sk in enumerate(skeleton_stream(len(data.vars), max_nodes)):
            out = _fit_skeleton(sk, V, yn, cfg, rank)
            if out is None:
                continue
            nl, lin, mse = out
            if best is None or mse < best[0]:
                best = (mse, sk, nl, lin)
            if mse <= cfg.target_tol:
                break
    if best is None:
        raise RuntimeError("no skeleton produced a finite fit")
    mse, sk, nl, lin = best
    return FactorModel(
        skeleton_name=sk.name,
        var_indices=tuple(data.vars),
        theta=np.concatenate([nl, lin]),
        expr=sk.model(nl, lin, tuple(data.vars)),
        train_mse=mse,
        converged=bool(mse <= cfg.target_tol),
        shift=shift,
        scale=scale,
        fit_values=yn,
        data=data,
    )

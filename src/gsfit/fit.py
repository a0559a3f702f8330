"""Factor determination: a generated monomial library, a table of
parametric skeleton templates, and a hybrid simplex evolution optimizer.

A skeleton is a tuple of column templates, written in the expression
grammar over the factor's local variables x1..xk and parameters p0, p1,
... (`expr.parse_template`). Its model is the sum of lin_j * column_j,
and a column "1" is the offset. The templates are the only definition of
a skeleton: the objective evaluates them, the fitted model is bound from
them, their node counts give the complexity that caps the stream, and
the starting rows of a search are read off them (`_scan`).

Factor data is only identified up to an affine transform, so every
skeleton carries an explicit amplitude and offset. The lin_j enter the
model linearly and are solved by least squares inside the objective; the
scan, polish and search only handle the parameters inside the columns
(frequencies, growth rates, inner shifts), one to four.

Every skeleton that is linear in its coefficients and built of monomials
is generated rather than listed: the sum of zero to three monomials
x1^e1 * ... * xk^ek (each e_i from -2 to 3) plus an offset, chosen by
sparse regression over that basis (`_library`), as in FFX and SINDy. The
table holds the parametric families and the two parameter-free rows that
are not monomials, ln(x1/x2) and ln(-x1/x2).

Each variable count's stream lists its rows simplest first, by node
count. A parametric family is scanned and polished, first out to +-24
radians across the data span and then, for sin and cos, out to what the
sample resolves; the polish stops once Gauss-Newton stalls above `EXACT_MSE`.
Only families both passes leave open get LDSE (`_walk`): no benchmark factor
is one, and the 300-target fit fuzz (tests/fuzz_exits.py) makes 688 runs.

Every candidate is scored once. A shifted sin's scan row is scored by the
2x2 solve that gives its phase (`_with_phase`), every other scan row by
its objective, and each library subset by the closed-form Cholesky factor
of its Gram matrix (`_subset_rss`). What does not depend on the data is
built once per process, on first use, and never at import: the first
scan pass's grids (`_first_scan_grid`), the library's subset lists
(`_library_table`) and the polish's difference stencil (`_fd_stencil`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from .config import RunConfig, rng as _rng


class FitError(ValueError):
    """A factor or the assembled basis is beyond what the fitter handles."""


# box searched for every nonlinear skeleton parameter
PARAM_BOUND = 50.0

# a normalized MSE at or below this is an exact fit, where searches stop
EXACT_MSE = 1e-12


def ldse_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds,
    *,
    rng: np.random.Generator,
    target_tol: float,
    max_generations: int | None = None,
    stagnation_window: int | None = None,
    init_guesses=None,
) -> tuple[np.ndarray, float]:
    """Population search with low-dimensional simplex moves.

    `objective` maps a (P, d) array of parameter rows to P values;
    non-finite values count as inf. The population has 10 + 10d agents;
    max_generations and stagnation_window default to 500d and 50d when
    None. Updates are generation-synchronous:
    every generation, each agent draws m+1 distinct population members
    (m = min(d, 3)) from the population as it stood at the start of the
    generation; the worst vertex of that simplex is reflected through the
    centroid of the rest, with an inside contraction as fallback, and the
    agent is replaced whenever its candidate improves on it. All
    reflections are scored in one objective call, the contractions in a
    second, so a run makes at most 1 + 2 * generations calls. Candidates
    are clipped to the bounds. Every random draw is read from `rng`.

    A run stops when its best reaches target_tol, after max_generations,
    or when stagnation_window generations pass without an improvement. An
    improvement must beat the best by more than max(1e-12, 1e-6 * best):
    a run converging to zero is held to the flat 1e-12 step, and a run
    stuck above zero stops once it gains less than one part in a million
    per generation.
    """
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    if np.any(lo >= hi):
        raise ValueError("each bound must satisfy lo < hi")
    d = len(bounds)
    n_pop = 10 + 10 * d
    max_gens = 500 * d if max_generations is None else max_generations
    stagnation = 50 * d if stagnation_window is None else stagnation_window

    def f(X: np.ndarray) -> np.ndarray:
        v = np.asarray(objective(X), dtype=float)
        return np.where(np.isfinite(v), v, math.inf)

    pop = lo + rng.random((n_pop, d)) * (hi - lo)
    if init_guesses:
        # half the population starts as jittered copies of the guesses so
        # the simplex moves can refine around them immediately
        for k in range(n_pop // 2):
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
        if best_val <= target_tol or gen - last_improve > stagnation:
            break
        idx = rng.integers(0, n_pop, size=(n_pop, m + 1))
        while True:
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
            # only a gain of more than one part in a million (1e-12 once
            # the best is below 1e-6) postpones the stagnation stop
            if best_val == math.inf or vals[i] < best_val - max(1e-12, 1e-6 * best_val):
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
    are searched by the optimizer, starting from the rows `_scan` reads
    off the template. A skeleton with parameters has one column besides
    the offset, whose amplitude and offset the objective solves in closed
    form. Everything else is read off the column templates.
    """

    name: str
    columns: tuple[ex.Expr, ...]

    def _shapes(self) -> list[ex.Expr]:
        return [c for c in self.columns if c != _OFFSET]

    @property
    def nl_count(self) -> int:
        return max(c.param_bound() for c in self.columns)

    @property
    def complexity(self) -> int:
        """Node count of the non-offset columns joined by add; a bare
        constant counts 1."""
        shapes = self._shapes()
        return max(1, sum(c.complexity() for c in shapes) + len(shapes) - 1)

    @functools.cached_property
    def form(self) -> _Form:
        """The shape column's `_Form`, read once, on first use."""
        return _read_form(self.name, self._shapes()[0])

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
    # fit_factor's refit: normal equations on tiny systems, an SVD solve
    # when those are singular
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


# ---- the scan --------------------------------------------------------------


class _Form(NamedTuple):
    """A parametric shape lead * g(p0*m_0 + ... + p<K-1>*m_<K-1> [+ p<K>]),
    from which `_scan` builds the starting rows of its family's search."""

    lead: ex.Expr | None        # parameter-free factor in front of g, or None
    g: str                      # sin, cos, exp, ln, sqrt, or recip for 1/(.)
    terms: tuple[ex.Expr, ...]  # m_k, the multiplier of p_k
    shift: bool                 # whether p_K, K = len(terms), is added last


def _read_form(name: str, shape: ex.Expr) -> _Form:
    """Read a shape column into its `_Form`; raise ValueError for a shape
    outside that form."""
    lead = None
    if shape.kind == "mul" and not shape.args[0].param_bound():
        lead, shape = shape.args
    g = "recip" if shape.kind == "div" and shape.args[0] == _OFFSET else shape.kind
    summands = [shape.args[-1] if shape.args else shape]
    while summands[0].kind == "add":
        summands[:1] = summands[0].args
    shift = summands[-1].kind == "param"
    terms = []
    for s in summands[:len(summands) - shift]:
        factors = []
        while s.kind == "mul":
            s, f = s.args
            factors.insert(0, f)
        if s == ex.Expr("param", index=len(terms)) and factors and not any(
                f.param_bound() for f in factors):
            terms.append(functools.reduce(ex.mul, factors))
    if (g not in ("sin", "cos", "exp", "ln", "sqrt", "recip") or not terms
            or len(terms) + shift != len(summands)
            or (shift and summands[-1].index != len(terms))):
        raise ValueError(f"{name}: {shape} is not lead * g(p0*m0 + p1*m1 + ... [+ pK])"
                         " with g sin, cos, exp, ln, sqrt or 1/")
    return _Form(lead, g, tuple(terms), shift)


# each p_k's scan axis in the first pass, in radians (sin, cos) or e-folds
# (exp) across the span of its m_k on the data, both signs
_SCAN_STEP = 1.5
_SCAN_REACH = np.linspace(_SCAN_STEP, 24.0, 16)
# ln, sqrt and 1/: the pole's distance below the inner argument's minimum,
# in spans of the inner argument
_SCAN_POLES = np.geomspace(0.01, 100.0, 49)
# the second pass reaches sin and cos, on the same step, out to the
# parameter box, as far as a family's grid stays within this many rows
_WIDE_SCAN_ROWS = 2048


def _wide_reach(form: _Form, V: np.ndarray) -> np.ndarray | None:
    """A sin or cos family's second-pass reach axis on the points V, cut
    at `_WIDE_SCAN_ROWS` grid rows and where all rows beyond leave the
    parameter box; None where that adds nothing to `_SCAN_REACH`."""
    if form.g not in ("sin", "cos"):
        return None
    span = max(float(np.ptp(m._eval(V))) or 1.0 for m in form.terms)
    steps = np.arange(1, int(PARAM_BOUND * span / _SCAN_STEP) + 1)
    reach = _SCAN_STEP * steps[(2 * steps) ** len(form.terms) // 2 <= _WIDE_SCAN_ROWS]
    return reach if len(reach) > len(_SCAN_REACH) else None


def _scan_grid(g: str, K: int, reach: np.ndarray) -> np.ndarray:
    """The scan's rows in units of the span of each m_k: every combination
    of K axes +-reach, first axis slowest, with a positive first axis for
    sin and cos and only the grid's outer edge, scaled in to the innermost
    reach, for ln, sqrt and 1/."""
    axis = np.concatenate([-reach[::-1], reach])
    A = np.stack(np.meshgrid(*[axis] * K, indexing="ij"), axis=-1).reshape(-1, K)
    if g in ("sin", "cos"):
        return A[A[:, 0] > 0.0]
    if g in ("ln", "sqrt", "recip"):
        return A[np.abs(A).max(axis=1) == reach[-1]] * (reach[0] / reach[-1])
    return A


@functools.cache
def _first_scan_grid(g: str, K: int) -> np.ndarray:
    """`_scan_grid` along `_SCAN_REACH`, built once per (g, K) on first use
    and read-only."""
    A = _scan_grid(g, K, _SCAN_REACH)
    A.flags.writeable = False
    return A


def _scan(sk: Skeleton, V: np.ndarray, y: np.ndarray, reach: np.ndarray):
    """Starting rows (candidates, nl_count) for a parametric skeleton, and
    each row's MSE where the scan solves it (the phased sin rows, see
    `_with_phase`), nan elsewhere.

    Each p_k runs along +-reach (ascending) over the span of m_k on the
    data; sin and cos keep the first axis positive, as its sign only flips
    the amplitude. ln, sqrt and 1/ see only the direction of the inner
    argument (a common factor of it and the shift changes only their
    amplitude or offset), so they keep the grid's outer edge, scaled in to
    the innermost reach, which leaves the polish room in the parameter
    box. The shift is the closed-form phase for sin (`_with_phase`; the
    table holds no shifted cos), 0 for exp, and for ln, sqrt and 1/ a pole
    `_SCAN_POLES` spans of the inner argument below its minimum. Rows
    outside the parameter box are dropped. The grid, in units of the
    spans, depends on no data: along `_SCAN_REACH` it is built once per
    process (`_first_scan_grid`), along a wider reach once per call.
    """
    form = sk.form
    K = len(form.terms)
    M = np.column_stack([m._eval(V) for m in form.terms])
    span = np.ptp(M, axis=0)
    A = (_first_scan_grid(form.g, K) if reach is _SCAN_REACH
         else _scan_grid(form.g, K, reach))
    rows = A / np.where(span > 0.0, span, 1.0)
    mse = None
    if form.shift and form.g == "sin":
        lead = 1.0 if form.lead is None else form.lead._eval(V)
        rows, mse = _with_phase(rows, M, y, lead)
    elif form.shift and form.g == "exp":
        rows = np.column_stack([rows, np.zeros(len(rows))])
    elif form.shift:
        u = sum(rows[:, k:k + 1] * M[:, k] for k in range(K))
        low = u.min(axis=1)
        shifts = (u.max(axis=1) - low)[:, None] * _SCAN_POLES - low[:, None]
        rows = np.column_stack([np.repeat(rows, len(_SCAN_POLES), axis=0), shifts.ravel()])
    if mse is None:
        mse = np.full(len(rows), math.nan)
    inside = np.all(np.abs(rows) <= PARAM_BOUND, axis=1)
    return rows[inside], mse[inside]


def _with_phase(freqs: np.ndarray, X: np.ndarray, y: np.ndarray, lead=1.0):
    """Rows (freqs..., phase) of a sin column for every row of freqs at
    once, and each row's MSE: the pair lead * sin(t), lead * cos(t) fitted
    at the argument t = sum_k freqs[:, k] * X[:, k] gives the phase;
    `lead` is a scalar or the lead factor's values.

    Centering the data profiles the offset out, so each row's [sin, cos, 1]
    least-squares fit is a closed-form 2x2 solve (a, b) on the centered
    sin and cos columns s, c. That fit's MSE, (yc.yc - a*(s.yc) -
    b*(c.yc)) / n, is the row's MSE under its own objective, since
    a*sin(t) + b*cos(t) is a multiple of sin(t + phase) (variable
    projection; Golub and Pereyra 1973). A row whose 2x2 system is
    singular has no regular fit: it gets phase 0 and scores inf, as a
    singular fit does in `_make_objective` and `_subset_rss`. Rows are
    solved `_HINT_CHUNK` at a time, which bounds the (rows, points)
    temporaries.
    """
    yc = y - y.mean()
    yy = yc @ yc
    a = np.empty(len(freqs))
    b = np.empty(len(freqs))
    mse = np.empty(len(freqs))
    for i in range(0, len(freqs), _HINT_CHUNK):
        F = freqs[i:i + _HINT_CHUNK]
        t = F[:, :1] * X[:, 0]
        for k in range(1, X.shape[1]):
            t = t + F[:, k:k + 1] * X[:, k]
        s = np.sin(t) * lead
        c = np.cos(t) * lead
        s -= s.mean(axis=1, keepdims=True)
        c -= c.mean(axis=1, keepdims=True)
        a11 = (s * s).sum(axis=1)
        a22 = (c * c).sum(axis=1)
        a12 = (s * c).sum(axis=1)
        b1 = s @ yc
        b2 = c @ yc
        det = a11 * a22 - a12 * a12
        ok = np.isfinite(det) & (det > 1e-300 * np.maximum(1.0, a11 * a22))
        ai = np.where(ok, (b1 * a22 - b2 * a12) / det, 1.0)
        bi = np.where(ok, (a11 * b2 - a12 * b1) / det, 0.0)
        m = (yy - ai * b1 - bi * b2) / len(y)
        m[~(ok & np.isfinite(m))] = math.inf
        a[i:i + len(F)], b[i:i + len(F)], mse[i:i + len(F)] = ai, bi, m
    return np.column_stack([freqs, np.arctan2(b, a)]), mse


# ---- the table -------------------------------------------------------------


def _sk(name: str, *columns: str) -> Skeleton:
    sk = Skeleton(name, tuple(ex.parse_template(c, 3) for c in columns))
    if sk.nl_count:
        if sk.columns[1:] != (_OFFSET,):
            raise ValueError(f"{name}: a skeleton with parameters is one shape column and '1'")
        form = sk.form  # a shape the scan cannot read fails here, at import
        if form.g == "cos" and form.shift:
            # cos(u + p) = sin(u + p + pi/2): a sin row scans, polishes and
            # scores the same functions
            raise ValueError(f"{name}: write a shifted cos as a shifted sin")
    return sk


# Streams by factor variable count, simplest first: in non-decreasing
# Skeleton.complexity, ties in the order listed. `_walk` tries them in this
# order, which also breaks ties between the parametric rows' scan scores.
# Sums of monomials are `_library`'s.
_STREAMS = {
    1: (
        _sk("exp_scaled", "exp(p0*x1)", "1"),
        _sk("sin_affine", "sin(p0*x1+p1)", "1"),
        _sk("ln_affine", "ln(p0*x1+p1)", "1"),
        _sk("sqrt_affine", "sqrt(p0*x1+p1)", "1"),
        _sk("vexp", "x1*exp(p0*x1)", "1"),
        _sk("recip_affine", "1/(p0*x1+p1)", "1"),
        _sk("vsin", "x1*sin(p0*x1+p1)", "1"),
    ),
    2: (
        _sk("ln_ratio_pos", "ln(x1/x2)", "1"),
        _sk("ln_ratio_neg", "ln(-x1/x2)", "1"),
        _sk("sin_prod", "sin(p0*x1*x2)", "1"),
        _sk("cos_prod", "cos(p0*x1*x2)", "1"),
        _sk("prod_exp", "x1*exp(p0*x2)", "1"),
        _sk("exp_affine2", "exp(p0*x1+p1*x2)", "1"),
        _sk("prod_sin", "x1*sin(p0*x2+p1)", "1"),
        _sk("sin_affine2", "sin(p0*x1+p1*x2+p2)", "1"),
        _sk("ln_affine2", "ln(p0*x1+p1*x2+p2)", "1"),
    ),
    3: (
        _sk("sin_affine3", "sin(p0*x1+p1*x2+p2*x3+p3)", "1"),
        _sk("exp_affine3", "exp(p0*x1+p1*x2+p2*x3+p3)", "1"),
    ),
}

def skeleton_stream(var_count: int, max_nodes: int = RunConfig.max_nodes) -> list[Skeleton]:
    """The table's skeletons for var_count variables, simplest first, whose
    templates have at most max_nodes nodes (see Skeleton.complexity)."""
    if var_count not in _STREAMS:
        raise FitError("skeleton streams cover 1 to 3 variables")
    if max_nodes < 3:
        raise ValueError("max_nodes must be at least 3")
    return [s for s in _STREAMS[var_count] if s.complexity <= max_nodes]


# ---- the monomial library ---------------------------------------------------

# each variable's exponent in a library column
_LIBRARY_POWERS = (-2, -1, 0, 1, 2, 3)
# a subset whose Gram matrix of centered unit-norm columns has a smaller
# determinant counts as singular
_LIBRARY_MIN_DET = 1e-10


def _monomial_text(exps: tuple[int, ...]) -> str:
    """The monomial with exponents exps, as template text: x1^2*x2/x3."""

    def power(i, e):
        return f"x{i}" if e == 1 else f"x{i}^{e}"

    num = [power(i, e) for i, e in enumerate(exps, 1) if e > 0]
    den = [power(i, -e) for i, e in enumerate(exps, 1) if e < 0]
    text = "*".join(num) or "1"
    if den:
        text += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
    return text


@functools.cache
def _monomials(k: int) -> tuple[tuple[ex.Expr, int, tuple[int, ...]], ...]:
    """(template, node count, exponents) of every monomial x1^e1 * ... *
    xk^ek with each e_i in `_LIBRARY_POWERS` and not all zero, fewest
    nodes first; built on first use. Of equal node counts, xk's exponent
    varies slowest and x1's fastest, so x1 comes before x2 before x3 and a
    sum such as x1 + x2 keeps its columns in variable order."""
    exps = [e[::-1] for e in itertools.product(_LIBRARY_POWERS, repeat=k) if any(e)]
    cols = [(ex.parse_template(_monomial_text(e), k), e) for e in exps]
    return tuple(sorted(((c, c.complexity(), e) for c, e in cols), key=lambda m: m[1]))


class _LibraryTable(NamedTuple):
    """The library of k variables within a node cap, before any data."""

    columns: tuple[ex.Expr, ...]      # the `_monomials` within the cap
    nodes: np.ndarray                 # their node counts
    exps: np.ndarray                  # (columns, k) their exponents
    subsets: tuple[np.ndarray, ...]   # (count, size) column positions, size 1 to 3


@functools.cache
def _library_table(k: int, max_nodes: int) -> _LibraryTable:
    """The library table of k variables within max_nodes, built once per
    (k, max_nodes) on first use. Its subsets of each size are those within
    the cap (see Skeleton.complexity), in itertools.combinations order:
    each subset of a size is extended by each later column that keeps it
    within the cap. Columns come fewest nodes first, so those run from the
    one after the subset's last up to a searchsorted bound."""
    monos = [(m, size, e) for m, size, e in _monomials(k) if size <= max_nodes]
    nodes = np.array([size for _, size, _ in monos], dtype=int)
    exps = np.array([e for _, _, e in monos], dtype=int).reshape(len(monos), k)
    exps.flags.writeable = False
    S = np.empty((1, 0), dtype=int)  # the subsets of the last size: the empty one
    used = np.zeros(1, dtype=int)    # their columns' node counts
    subsets = []
    for size in range(1, 4):
        start = S[:, -1] + 1 if size > 1 else 0
        stop = np.searchsorted(nodes, max_nodes - used - (size - 1), side="right")
        count = np.maximum(stop - start, 0)
        row = np.repeat(np.arange(len(S)), count)
        j = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        S, used = np.column_stack([S[row], j]), used[row] + nodes[j]
        S.flags.writeable = False
        subsets.append(S)
    return _LibraryTable(tuple(m for m, _, _ in monos), nodes, exps, tuple(subsets))


def _subset_rss(G: np.ndarray, b: np.ndarray, yy: float, S: np.ndarray) -> np.ndarray:
    """Normal-equation RSS of y on each row of column indices S (B, s),
    s from 1 to 3; inf where the subset's Gram matrix is singular or its
    RSS is negative beyond rounding (1e-12 of yy; an exact fit lands on
    either side of zero). G and b are the columns' Gram matrix and their
    products with y, yy = y @ y, all on centered data.

    Each subset's Gram matrix is factored G_S = L L^T in closed form, one
    element-wise array operation over all subsets per entry of L: its
    determinant is the product of the pivots L_ii^2, and with z = L^-1 b_S
    the RSS is yy - z.z. A subset with a pivot that is not positive, or a
    determinant below `_LIBRARY_MIN_DET`, counts as singular.
    """
    size = S.shape[1]
    L = {}                 # (i, j) -> column L_ij over the subsets, j <= i
    z = []
    det = np.ones(len(S))
    ok = np.ones(len(S), dtype=bool)
    rss = np.full(len(S), yy)
    for i in range(size):
        for j in range(i):
            L[i, j] = (G[S[:, i], S[:, j]] - sum(L[i, k] * L[j, k] for k in range(j))) / L[j, j]
        pivot = G[S[:, i], S[:, i]] - sum(L[i, k] * L[i, k] for k in range(i))
        det *= pivot
        ok &= pivot > 0.0
        L[i, i] = np.sqrt(np.where(ok, pivot, 1.0))
        z.append((b[S[:, i]] - sum(L[i, k] * z[k] for k in range(i))) / L[i, i])
        rss -= z[i] * z[i]
    rss[~(ok & (det > _LIBRARY_MIN_DET) & (rss >= -1e-12 * yy))] = math.inf
    return rss


def _monomial_values(V: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """The values on the data V of the monomials with exponents exps, one
    row a monomial, built at once from each variable's table of powers
    [1, x, x*x, x^3] by the operations of their templates, in the same
    order, so to the same floats: the numerator is the left-to-right
    product of the tables at the positive exponents, the denominator that
    at the negated negative ones, and the quotient `expr._div`'s, NaN
    where the denominator is 0. A factor 1 changes no float."""
    x = np.ascontiguousarray(V.T)
    powers = np.empty((4, *x.shape))  # [power, variable, point]
    with np.errstate(all="ignore"):
        powers[0], powers[1] = 1.0, x
        np.multiply(x, x, out=powers[2])
        np.power(x, np.full(x.shape, 3.0), out=powers[3])
        up, down = np.maximum(exps, 0), np.maximum(-exps, 0)
        num, den = powers[up[:, 0], 0], powers[down[:, 0], 0]
        for i in range(1, len(x)):
            num, den = num * powers[up[:, i], i], den * powers[down[:, i], i]
        return ex._div(num, den)


def _library_values(V: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which library columns, the `_monomial_values` of exponents exps,
    to keep on the data V, and the kept columns' values centered and
    scaled to unit norm (kept, points). A column is dropped where it is
    non-finite or constant on the data (the offset's duplicates) or its
    centered unit-norm values equal a kept column's bit for bit (its
    duplicates). All columns are centered and scaled in one array step;
    each norm is its own row's dot product."""
    Z = _monomial_values(V, exps)
    Z -= Z.mean(axis=1, keepdims=True)
    norm = np.sqrt([z @ z for z in Z])
    keep = np.isfinite(norm) & (norm > 0.0)
    Z /= norm[:, None]
    seen = set()
    for i in np.flatnonzero(keep):
        keep[i] = Z[i].tobytes() not in seen
        seen.add(Z[i].tobytes())
    return keep, Z[keep]


def _library(V: np.ndarray, y: np.ndarray, max_nodes: int):
    """The best sum of 0 to 3 `_library_table` columns that
    `_library_values` keeps on the data, plus an offset, as a
    parameter-free skeleton named "monomials", and whether it fits to a
    normalized MSE of `EXACT_MSE`.

    Centering profiles the offset out, and unit-norm columns condition the
    Gram matrix. The empty sum, the offset alone, leaves y's own RSS. The
    search is exhaustive within max_nodes: the subsets are those of the
    `_library_table`, built once per process for the variable count and
    max_nodes, less those with a column dropped on the data, so every
    size's subsets come in itertools.combinations order. Each size's
    subsets are scored at once by `_subset_rss`'s closed-form Cholesky,
    smallest size first, and the first size whose best fits to `EXACT_MSE` wins;
    else the lowest RSS over every size does. Ties go to the earlier
    subset.
    """
    exact_rss = EXACT_MSE * len(V)
    table = _library_table(V.shape[1], max_nodes)
    keep, Z = _library_values(V, table.exps)
    row = np.cumsum(keep) - 1  # each kept column's row in Z
    yc = y - y.mean()
    G, b, yy = Z @ Z.T, Z @ yc, float(yc @ yc)
    best = (yy, np.empty(0, dtype=int))  # (rss, subset of table columns)
    for S in table.subsets:
        if best[0] <= exact_rss:
            break
        S = S[keep[S].all(axis=1)]
        if not len(S):
            break
        rss = _subset_rss(G, b, yy, row[S])
        i = int(np.argmin(rss))
        if rss[i] < best[0]:
            best = (float(rss[i]), S[i])
    cols = tuple(table.columns[j] for j in best[1])
    return Skeleton("monomials", cols + (_OFFSET,)), best[0] <= exact_rss


# --------------------------------------------------------------------------
# factor fitting


@dataclass
class FactorModel:
    """A fitted factor: chosen skeleton, parameters, and provenance.

    The model represents the centered, unit-variance image of the tabulated
    responses (factor data only identifies the factor up to an affine
    transform, and the normalized representative keeps the assembly basis
    well conditioned).
    """

    skeleton_name: str
    var_indices: tuple[int, ...]
    theta: np.ndarray
    expr: ex.Expr
    train_mse: float          # MSE against the normalized responses
    converged: bool


def _make_residuals(sk: Skeleton, V, y):
    """Batched profile residuals over the nonlinear parameters.

    Maps a (P, nl_count) array of parameter rows to the (P, n) residuals
    y - c1 * S - c2 and a (P,) mask of the rows whose fit is regular. The
    shape column S is evaluated once for all rows, each parameter
    broadcast as a (P, 1) column, and the optimal amplitude c1 and offset
    c2 of every row are solved in closed form from its 2x2 normal
    equations; a row whose shape is invalid, or whose solve is singular
    to rounding, its determinant within n * eps of n * sum(S^2), as on a
    constant shape, is masked out.
    """
    shape = sk._shapes()[0]
    n = len(y)
    y_sum = float(y.sum())
    rounding = n * np.finfo(float).eps

    def residuals(X):
        S = shape._eval(V, [X[:, k:k + 1] for k in range(X.shape[1])])
        R = S * S  # one (P, n) buffer: first S^2, then the residual
        a11 = R.sum(axis=1)
        b1 = S @ y
        a12 = S.sum(axis=1)
        a11n = a11 * n
        det = a11n - a12 * a12
        ok = np.isfinite(a11) & (det > rounding * a11n)
        c1 = (b1 * n - y_sum * a12) / det
        c2 = (a11 * y_sum - a12 * b1) / det
        np.multiply(c1[:, None], S, out=R)
        np.subtract(y, R, out=R)
        R -= c2[:, None]
        return R, ok

    return residuals


def _make_objective(sk: Skeleton, V, y):
    """Batched profile objective over the nonlinear parameters: each row's
    MSE under `_make_residuals`, or inf where its fit is not regular."""
    residuals = _make_residuals(sk, V, y)
    n = len(y)

    def objective(X):
        R, ok = residuals(X)
        R *= R
        mse = R.sum(axis=1) / n
        mse[~(ok & np.isfinite(mse))] = math.inf
        return mse

    return objective


# Gauss-Newton polish of a family's best scan row (see `_polish`)
_POLISH_ITERS = 12
# an accepted step above EXACT_MSE that leaves more than this share of the MSE
# ends the polish: on a zero-residual fit, even the shortest length (0.1)
# of a linearly converging step keeps (1 - 0.1)^2 = 0.81 of it
_POLISH_STALL = 0.9
_POLISH_FD_STEP = 1e-7     # forward-difference step, times 1 + |p|
_POLISH_RCOND = 1e-5       # singular values below this share of the largest are cut
_POLISH_LENGTHS = np.array([1.0, 0.5, 0.25, 0.1])[:, None]


@functools.cache
def _fd_stencil(d: int) -> np.ndarray:
    """The polish's forward-difference stencil in d parameters: a zero
    row, for the point itself, then the identity, one step per parameter;
    built once per d on first use and read-only."""
    E = np.vstack([np.zeros(d), np.eye(d)])
    E.flags.writeable = False
    return E


def _polish(residuals, objective, x, val):
    """Gauss-Newton on the profile residual from the point x of objective
    value val; returns the best (x, val) seen, never worse than the start.

    The amplitude and offset are solved in closed form at every point
    (variable projection), so the steps move only the nonlinear
    parameters. Each iteration evaluates the residuals at x and at x plus
    one forward-difference step per parameter in one batch, takes a
    truncated least-squares Gauss-Newton step (families whose shape
    depends only on a ratio of parameters, such as ln(p0*x1+p1), have a
    scale-degenerate Jacobian, and a plain solve runs off along its null
    direction), and scores a few step lengths, clipped to the parameter
    box, in one objective call. It stops when no length improves, after
    `_POLISH_ITERS` iterations, or when it stalls: a step that leaves the
    MSE above `EXACT_MSE` and above `_POLISH_STALL` times the MSE before it.
    Near a fit that closes, Gauss-Newton converges at least linearly, so a
    stalled family is left open: to the second scan pass or LDSE, should it
    close from further off. Below `EXACT_MSE` it runs on: an exact fit keeps
    improving in its last digits, which a basis such as 1/x^2 magnifies in
    the assembly.
    """
    x = np.asarray(x, dtype=float)
    d = len(x)
    for _ in range(_POLISH_ITERS):
        h = _POLISH_FD_STEP * (1.0 + np.abs(x))
        X = x + _fd_stencil(d) * h
        X[0] = x  # x itself, a -0.0 included
        R, ok = residuals(X)
        if not (ok.all() and np.all(np.isfinite(R))):
            break
        J = (R[1:] - R[0]) / h[:, None]
        step = np.linalg.lstsq(J.T, -R[0], rcond=_POLISH_RCOND)[0]
        cands = np.clip(x + _POLISH_LENGTHS * step, -PARAM_BOUND, PARAM_BOUND)
        vals = objective(cands)
        i = int(np.argmin(vals))
        if not vals[i] < val:
            break
        x, val, last = cands[i], float(vals[i]), val
        if val > max(EXACT_MSE, _POLISH_STALL * last):
            break
    return x, val


# scan rows scored or phase-solved per batch; bounds the (rows, points)
# temporaries of the widest scans
_HINT_CHUNK = 64

def _ranked_hints(sk: Skeleton, objective, V, y, reach, top: int = 3):
    """The skeleton's best `top` scan rows (`_scan` along reach) and the
    best score (inf when every row scores inf). A phased sin row scores
    its `_with_phase` MSE; every other row, its own objective, `_HINT_CHUNK`
    rows at a time."""
    cands, scores = _scan(sk, V, y, reach)
    for i in range(0, len(cands), _HINT_CHUNK):
        chunk = scores[i:i + _HINT_CHUNK]  # a view: filled in place
        todo = np.isnan(chunk)
        if todo.any():
            chunk[todo] = objective(cands[i:i + _HINT_CHUNK])[todo]
    order = [k for k in np.argsort(scores, kind="stable")[:top] if scores[k] < math.inf]
    return [cands[k] for k in order], (float(scores[order[0]]) if order else math.inf)


# LDSE restarts per family left open by both scan passes
_RESTARTS = 2


def _walk(stream: list[Skeleton], V, y, seed: int, max_nodes: int, ldse: bool = True):
    """Yield (skeleton, nl) in the order fit_factor tries them.

    The monomial library (`_library`, within max_nodes) searches first.
    Its best subset is yielded at once if it fits to `EXACT_MSE` (the offset
    alone does on constant data), and otherwise only after the last LDSE
    family, where it competes on MSE, so that an inexact sum of monomials
    cannot take the place of a parametric family that a polish or LDSE
    fits exactly. Next come the table's parameter-free rows, in stream
    order, simplest first. Only when the caller asks past them are the
    parametric rows taken, in two scan passes, each in stream order: each
    family is scanned along `_SCAN_REACH`; then each sin and cos family
    left open is scanned again out to the parameter box, as far as its
    grid's rows allow (`_wide_reach`). A scan that beats the family's best
    so far has its best row polished (`_polish`); a family that polishes
    to `EXACT_MSE` is yielded at once; an open one keeps only its scan rows
    and scan score. The families still open then get LDSE in
    order of best scan score (ties in stream order), each `_RESTARTS` runs
    from its best scan rows, stopping early only at `EXACT_MSE`, and its best
    run is yielded before the next family's first. A run reads the stream
    rng(seed, 1101, rank, restart), rank the skeleton's in the stream.
    Without `ldse` the walk skips that stage: the families still open are
    not yielded, and an inexact library fit follows the second scan pass.
    """
    library, exact = _library(V, y, max_nodes)
    if exact:
        yield library, np.empty(0)
    for sk in stream:
        if not sk.nl_count:
            yield sk, np.empty(0)
    # (best scan score, rank, skeleton, objective, best scan rows) of each
    # parametric family no pass has closed yet
    left = [(math.inf, rank, sk, _make_objective(sk, V, y), [])
            for rank, sk in enumerate(stream) if sk.nl_count]
    for wide in (False, True):
        still = []
        for family in left:
            score, rank, sk, objective, _ = family
            reach = _wide_reach(sk.form, V) if wide else _SCAN_REACH
            hints, hint_best = ([], math.inf) if reach is None else _ranked_hints(
                sk, objective, V, y, reach)
            if not hint_best < score:
                still.append(family)
                continue
            x, val = _polish(_make_residuals(sk, V, y), objective, hints[0], hint_best)
            if val <= EXACT_MSE:
                yield sk, x
                continue
            still.append((hint_best, rank, sk, objective, hints))
        left = still
    if not ldse:
        left = []
    for _, rank, sk, objective, hints in sorted(left, key=lambda f: f[0]):
        best = None
        for restart in range(_RESTARTS):
            x, val = ldse_minimize(
                objective, [(-PARAM_BOUND, PARAM_BOUND)] * sk.nl_count,
                rng=_rng(seed, 1101, rank, restart), target_tol=1e-14,
                max_generations=300, stagnation_window=40, init_guesses=hints,
            )
            if best is None or val < best[1]:
                best = (x, val)
            if val <= EXACT_MSE:
                break
        yield sk, best[0]
    if not exact:
        yield library, np.empty(0)


def fit_factor(data, cfg: RunConfig) -> FactorModel:
    """Fit the factor with the first skeleton within tolerance, else the best.

    Skeletons are tried in `_walk`'s order: an exact fit of the monomial
    library, the table's parameter-free rows, the scanned and polished
    parametric rows, LDSE, and last an inexact library fit. The first
    within tolerance is accepted; without one, the lowest MSE wins, and
    equal MSEs go to the skeleton tried first.
    Responses are centered and scaled to unit standard deviation before
    fitting; the returned model represents that normalized image (the
    data identifies the factor only up to an affine transform, and the
    outer linear assembly absorbs the normalization).
    Acceptance compares the normalized MSE against cfg.tol_target. A
    sweep's first block (`data.first_block`) is fitted by the block rule:
    no LDSE, and acceptance at min(EXACT_MSE, cfg.tol_target).
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
    tol = min(EXACT_MSE, cfg.tol_target) if data.first_block else cfg.tol_target

    best = None  # (mse, sk, nl, lin)
    # templates evaluate outside their domains and overflow by design;
    # such parameters score inf
    with np.errstate(all="ignore"):
        for sk, nl in _walk(skeleton_stream(len(data.vars), cfg.max_nodes), V, yn, cfg.seed,
                             cfg.max_nodes, not data.first_block):
            B = sk.design(V, nl)
            if B is None:
                continue
            lin, mse = _lstsq_cols(B, yn)
            if best is None or mse < best[0]:
                best = (mse, sk, nl, lin)
            if mse <= tol:
                break
    if best is None:
        raise FitError("no skeleton produced a finite fit")
    mse, sk, nl, lin = best
    return FactorModel(
        skeleton_name=sk.name,
        var_indices=tuple(data.vars),
        theta=np.concatenate([nl, lin]),
        expr=sk.model(nl, lin, tuple(data.vars)),
        train_mse=mse,
        converged=bool(mse <= tol),
    )

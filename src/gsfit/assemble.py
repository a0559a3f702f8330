"""Global assembly: factor subset-product basis, linear solve, validation.

Sliced factor data is only an affine image of the true factors, so a block
c * omega * psi expands into cross terms of the fitted factors. Emitting
one basis term per nonempty factor subset of each block absorbs every such
cross term exactly and keeps the outer problem linear.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import detect as det
from . import fit as ft
from . import expr as ex
from .config import RunConfig, rng
from .oracle import Oracle, SampleSet

# points per basis column, the constant's included, of validation's
# first block, and of the training sample when a model solved on the
# least that `least_squares` accepts, 2 per column, does not accept on
# that block
TRAIN_POINTS_PER_TERM = 20
# validation accepts on its first block when the block's MSE is at most
# this share of tol_target
EARLY_ACCEPT = 1e-3


@dataclass
class BasisTerm:
    """Product of some of one block's fitted factors."""

    block_index: int
    factor_subset: tuple[int, ...]       # positions in the block's factor list
    expr: ex.Expr = field(repr=False)    # the product tree, left to right
    # the subset's factor expressions, in order; by default expr alone
    factors: tuple[ex.Expr, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if not self.factors:
            self.factors = (self.expr,)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Kept only because perfbench's tracer wraps it as `assemble.term`;
        goes with ROADMAP item 5's tracer change."""
        return self.expr.eval_batch(points)


def basis_columns(terms: list[BasisTerm], points: np.ndarray) -> list[np.ndarray]:
    """Each term's values at the points, every factor evaluated once.

    A term's column is the left-to-right product of its factors' columns,
    non-finite values mapped to NaN: the same multiplications, in the same
    order, as evaluating its product tree, so the same floats as
    `BasisTerm.evaluate`. A factor value that is invalid makes the product
    invalid either way.
    """
    seen: dict[int, np.ndarray] = {}

    def column(e: ex.Expr) -> np.ndarray:
        if id(e) not in seen:
            seen[id(e)] = e.eval_batch(points)
        return seen[id(e)]

    with np.errstate(all="ignore"):
        cols = [functools.reduce(np.multiply, map(column, t.factors)) for t in terms]
        return [np.where(np.isfinite(c), c, np.nan) for c in cols]


@dataclass
class AssembledModel:
    """Final model: constant plus coefficient-weighted basis terms."""

    c0: float
    terms: list[BasisTerm]
    coefficients: np.ndarray
    expr: ex.Expr
    train_mse: float
    val_mse: float
    success: bool
    rank_deficient: bool = False
    # the factors that missed tolerance; not part of to_dict(), so
    # canonical JSON does not carry it
    unconverged: tuple[ft.FactorModel, ...] = field(default=(), repr=False)

    def predict(self, points: np.ndarray) -> np.ndarray:
        out = np.full(points.shape[0], self.c0)
        for c, col in zip(self.coefficients, basis_columns(self.terms, points)):
            out = out + c * col
        return out

    def to_dict(self) -> dict:
        return {
            "c0": self.c0,
            "terms": [
                {
                    "block": t.block_index,
                    "factor_subset": list(t.factor_subset),
                    "expr": t.expr.to_text(),
                    "coeff": float(c),
                }
                for c, t in zip(self.coefficients, self.terms)
            ],
            "expr": self.expr.to_text(),
            "train_mse": self.train_mse,
            "val_mse": self.val_mse,
            "success": self.success,
            "rank_deficient": self.rank_deficient,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def build_basis(
    structure: det.GsStructure, factors: list[list[ft.FactorModel]]
) -> list[BasisTerm]:
    """One term per nonempty factor subset of every block."""
    terms: list[BasisTerm] = []
    for bi, models in enumerate(factors):
        if len(models) > 6:
            raise ft.FitError(
                f"basis explosion: block {bi} has {len(models)} factors"
            )
        for size in range(1, len(models) + 1):
            for subset in itertools.combinations(range(len(models)), size):
                factors = tuple(models[k].expr for k in subset)
                terms.append(BasisTerm(
                    block_index=bi, factor_subset=subset,
                    expr=functools.reduce(ex.mul, factors), factors=factors,
                ))
    return terms


def least_squares(terms: list[BasisTerm], train: SampleSet):
    """Solve for the constant and term coefficients on a training set.

    Training points where any term (or the target) is invalid are dropped
    with a warning. More than 20 percent dropped, or fewer valid points
    left than twice the basis columns, the constant's included, raise
    fit.FitError, without a warning. Returns (c0, coefficients,
    train_mse, rank_deficient).
    """
    n = len(train)
    design = np.column_stack([np.ones(n), *basis_columns(terms, train.points)])
    good = np.all(np.isfinite(design), axis=1) & np.isfinite(train.values)
    dropped = int(n - good.sum())
    if dropped > 0.2 * n:
        raise ft.FitError(f"{dropped} of {n} training points invalid under the basis")
    if n - dropped < 2 * (len(terms) + 1):
        raise ft.FitError("need at least twice as many valid training points as terms")
    if dropped:
        warnings.warn(f"dropped {dropped} invalid training points", stacklevel=2)
    design, y = design[good], train.values[good]
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    train_mse = float(resid @ resid / len(y))
    return float(coef[0]), coef[1:], train_mse, bool(rank < design.shape[1])


def _compose_expr(c0: float, coefficients: np.ndarray, terms: list[BasisTerm]) -> ex.Expr:
    out = ex.const(float(c0))
    for c, t in zip(coefficients, terms):
        out = ex.add(out, ex.mul(ex.const(float(c)), t.expr))
    return out


def _fit_sweep(cfg: RunConfig, isolate, *args) -> ft.FactorModel:
    """Fit a factor on the first block of its sweep, `isolate(*args,
    first_block=True)`, and, unless that fit is exact, on the whole sweep,
    `isolate(*args)`, whose rest is drawn only then.

    The block fit runs no LDSE and is accepted only at a normalized MSE of
    at most min(fit.EXACT_MSE, cfg.tol_target). A block that is mostly
    invalid, or whose fit raises FitError, also goes on to the whole
    sweep, which is fitted as a sweep drawn at once is, LDSE included.
    """
    block = isolate(*args, first_block=True)
    if block is not None:
        exact = replace(cfg, tol_target=min(ft.EXACT_MSE, cfg.tol_target))
        with contextlib.suppress(ft.FitError):
            model = ft.fit_factor(block, exact, ldse=False)
            if model.converged:
                return model
    return ft.fit_factor(isolate(*args), cfg)


def fit_structure_factors(
    structure: det.GsStructure, oracle: Oracle, cfg: RunConfig
) -> list[list[ft.FactorModel]]:
    """Per-factor sweeps and symbolic fits for every block of a structure,
    each sweep sequential (`_fit_sweep`): a first block of
    detect.FIRST_BLOCK_PER_VAR points a variable, and the rest of the
    sweep only when the block does not fit exactly.
    The sweeps share one `detect.Anchor`: detection's own, `structure.at`,
    when it probed this oracle under this cfg, so that f(anchor) and each
    block's spread pair are not evaluated again. Otherwise a fresh one
    evaluates f(anchor) once, in the first psi sweep, and each block's
    spread pair once. Every sweep evaluation happens inside a call of
    `detect.isolate_psi_data` or `detect.isolate_omega_data`."""
    at = structure.at
    if at is None or at.o is not oracle or at.cfg != cfg:
        at = det.Anchor(oracle, structure.anchor, cfg)
    return [
        [_fit_sweep(cfg, det.isolate_psi_data, at, g) for g in b.psi_factors]
        + [_fit_sweep(cfg, det.isolate_omega_data, at, b.vars, g) for g in b.omega_factors]
        for b in structure.blocks
    ]


def assemble_and_validate(
    structure: det.GsStructure, oracle: Oracle, cfg: RunConfig
) -> AssembledModel:
    """Fit factors, solve the outer linear problem, validate on fresh data.

    Training and validation are both sequential, each reading one stream
    in two steps. With n basis columns, the constant's included, the
    model is first solved on b = 2 * n training points, the least
    `least_squares` accepts, and validation draws its first block of
    TRAIN_POINTS_PER_TERM * n points. The model accepts on that block,
    val_mse the block's MSE, when that MSE is at most EARLY_ACCEPT *
    tol_target. Otherwise, or when a basis term is invalid at one of the
    b points, which leaves too few for `least_squares`, the training
    stream goes on to draw the other TRAIN_POINTS_PER_TERM * n - b points
    and the model is solved again on all of them. That model is
    validated on the same block, and when the block does not accept it,
    the block's stream goes on to draw the rest of the full sample: N =
    cfg.samples_per_var * n_vars points, or as many as the block where
    that is more. val_mse is then the MSE on all N. Redraws aside, each
    stream's rows are those one draw from it would give. The model
    succeeds when val_mse is within cfg.tol_target; either way it lists
    the factors that missed tolerance as `unconverged`.
    """
    factors = fit_structure_factors(structure, oracle, cfg)
    terms = build_basis(structure, factors)
    unconverged = tuple(f for models in factors for f in models if not f.converged)

    def solved(train: SampleSet) -> AssembledModel:
        c0, coefs, train_mse, deficient = least_squares(terms, train)
        return AssembledModel(
            c0=c0, terms=terms, coefficients=coefs,
            expr=_compose_expr(c0, coefs, terms), train_mse=train_mse,
            val_mse=math.inf, success=False, rank_deficient=deficient,
            unconverged=unconverged,
        )

    n_train = TRAIN_POINTS_PER_TERM * (len(terms) + 1)
    train_stream, val_stream = rng(cfg.seed, 1001), rng(cfg.seed, 1002)
    train = oracle.sample(2 * (len(terms) + 1), train_stream)
    block = None
    try:
        model = solved(train)
    except ft.FitError:
        model = None
    else:
        block = oracle.sample(n_train, val_stream)
        model.val_mse = _mse(model, block)
    if model is None or model.val_mse > EARLY_ACCEPT * cfg.tol_target:
        model = solved(_joined(train, oracle.sample(n_train - len(train), train_stream)))
        if block is None:
            block = oracle.sample(n_train, val_stream)
        model.val_mse = _mse(model, block)
        n_val = max(cfg.samples_per_var * oracle.arity, n_train)
        if n_val > n_train and model.val_mse > EARLY_ACCEPT * cfg.tol_target:
            model.val_mse = _mse(model, _joined(block, oracle.sample(n_val - n_train,
                                                                     val_stream)))
    model.success = bool(model.val_mse <= cfg.tol_target)
    return model


def _joined(head: SampleSet, tail: SampleSet) -> SampleSet:
    return SampleSet(np.vstack([head.points, tail.points]),
                     np.concatenate([head.values, tail.values]))


def _mse(model: AssembledModel, sample: SampleSet) -> float:
    """MSE of the model on a sample; inf when over 20% of it is invalid."""
    pred = model.predict(sample.points)
    good = np.isfinite(pred) & np.isfinite(sample.values)
    if good.sum() < 0.8 * len(sample):
        return math.inf
    r = sample.values[good] - pred[good]
    mse = float(r @ r / good.sum())
    return mse if np.isfinite(mse) else math.inf

"""Global assembly: factor subset-product basis, linear solve, validation.

Sliced factor data is only an affine image of the true factors, so a block
c * omega * psi expands into cross terms of the fitted factors. Emitting
one basis term per nonempty factor subset of each block absorbs every such
cross term exactly and keeps the outer problem linear.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import detect as det
from . import fit as ft
from . import expr as ex
from .config import RunConfig, derived_seed
from .oracle import Oracle, SampleSet

@dataclass
class BasisTerm:
    """Product of some of one block's fitted factors."""

    block_index: int
    factor_subset: tuple[int, ...]       # positions in the block's factor list
    expr: ex.Expr = field(repr=False)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return self.expr.eval_batch(points)


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
        for c, t in zip(self.coefficients, self.terms):
            out = out + c * t.evaluate(points)
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
    """One term per nonempty factor subset of every block.

    A factor whose model reads no variable (a variable the target ignores
    fits as the constant 0) takes no part: its subsets would only repeat
    the constant or another term. The rest keep their positions in the
    block's factor list.
    """
    terms: list[BasisTerm] = []
    for bi, models in enumerate(factors):
        if len(models) > 6:
            raise ft.FitError(
                f"basis explosion: block {bi} has {len(models)} factors"
            )
        varying = [k for k, m in enumerate(models) if m.expr.arity_bound()]
        for size in range(1, len(varying) + 1):
            for subset in itertools.combinations(varying, size):
                e = models[subset[0]].expr
                for k in subset[1:]:
                    e = ex.mul(e, models[k].expr)
                terms.append(BasisTerm(block_index=bi, factor_subset=subset, expr=e))
    return terms


def least_squares(terms: list[BasisTerm], train: SampleSet):
    """Solve for the constant and term coefficients on a training set.

    Training points where any term (or the target) is invalid are dropped
    with a warning. Too few training points for the basis, or more than
    20 percent dropped, raise fit.FitError. Returns (c0, coefficients,
    train_mse, rank_deficient).
    """
    n = len(train)
    if n < 2 * (len(terms) + 1):
        raise ft.FitError("need at least twice as many training points as terms")
    cols = [np.ones(n)]
    for t in terms:
        cols.append(t.evaluate(train.points))
    design = np.column_stack(cols)
    good = np.all(np.isfinite(design), axis=1) & np.isfinite(train.values)
    dropped = int(n - good.sum())
    if dropped:
        if dropped > 0.2 * n:
            raise ft.FitError(
                f"{dropped} of {n} training points invalid under the basis"
            )
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


def fit_structure_factors(
    structure: det.GsStructure, oracle: Oracle, cfg: RunConfig
) -> list[list[ft.FactorModel]]:
    """Per-factor sweeps and symbolic fits for every block of a structure."""
    anchor = np.asarray(structure.anchor)
    out: list[list[ft.FactorModel]] = []
    for b in structure.blocks:
        models: list[ft.FactorModel] = []
        for group in b.psi_factors:
            data = det.isolate_psi_data(
                oracle, group, anchor, det.PSI_POINTS_PER_VAR * len(group), cfg
            )
            models.append(ft.fit_factor(data, cfg))
        for group in b.omega_factors:
            data = det.isolate_omega_data(
                oracle, b.vars, group, anchor,
                max(48, det.OMEGA_POINTS_PER_VAR * len(group)), cfg,
            )
            models.append(ft.fit_factor(data, cfg))
        out.append(models)
    return out


def assemble_and_validate(
    structure: det.GsStructure, oracle: Oracle, cfg: RunConfig
) -> AssembledModel:
    """Fit factors, solve the outer linear problem, validate on fresh data.

    Trains and validates on independent samples of cfg.samples_per_var * n
    points each. The model succeeds when its validation MSE is within
    cfg.tol_target; either way it lists the factors that missed tolerance
    as `unconverged`.
    """
    n_samples = cfg.samples_per_var * oracle.arity
    factors = fit_structure_factors(structure, oracle, cfg)
    terms = build_basis(structure, factors)
    train = oracle.sample(n_samples, derived_seed(cfg.seed, 1))
    c0, coefs, train_mse, deficient = least_squares(terms, train)
    model = AssembledModel(
        c0=c0,
        terms=terms,
        coefficients=coefs,
        expr=_compose_expr(c0, coefs, terms),
        train_mse=train_mse,
        val_mse=math.inf,
        success=False,
        rank_deficient=deficient,
        unconverged=tuple(f for models in factors for f in models if not f.converged),
    )
    model.val_mse = _mse(model, oracle.sample(n_samples, derived_seed(cfg.seed, 2)))
    model.success = bool(model.val_mse <= cfg.tol_target)
    return model


def _mse(model: AssembledModel, sample: SampleSet) -> float:
    """MSE of the model on a sample; inf when over 20% of it is invalid."""
    pred = model.predict(sample.points)
    good = np.isfinite(pred) & np.isfinite(sample.values)
    if good.sum() < 0.8 * len(sample):
        return math.inf
    r = sample.values[good] - pred[good]
    mse = float(r @ r / good.sum())
    return mse if np.isfinite(mse) else math.inf

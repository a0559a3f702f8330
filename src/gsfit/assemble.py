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
from dataclasses import dataclass, field, replace

import numpy as np

from . import detect as det
from . import fit as ft
from . import expr as ex
from .config import RunConfig, derived_seed
from .oracle import Oracle, SampleSet

# fresh fits after a validation miss, made only while every factor converges
MAX_RETRIES = 3


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
    retries: int = 0
    # factors of the last attempt that missed tolerance, which ended the
    # retries; not part of to_dict(), so canonical JSON does not carry it
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
            "retries": self.retries,
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
    structure: det.GsStructure, oracle: Oracle, cfg: RunConfig, sweep_seed: int
) -> list[list[ft.FactorModel]]:
    """Per-factor sweeps and symbolic fits for every block of a structure.

    The sweeps draw their points from sweep_seed, the fits from cfg.seed.
    """
    sweep_cfg = replace(cfg, seed=sweep_seed)
    anchor = np.asarray(structure.anchor)
    out: list[list[ft.FactorModel]] = []
    for b in structure.blocks:
        models: list[ft.FactorModel] = []
        for group in b.psi_factors:
            data = det.isolate_psi_data(
                oracle, group, anchor, det.PSI_POINTS_PER_VAR * len(group), sweep_cfg
            )
            models.append(ft.fit_factor(data, cfg))
        for group in b.omega_factors:
            data = det.isolate_omega_data(
                oracle, b.vars, group, anchor,
                max(48, det.OMEGA_POINTS_PER_VAR * len(group)), sweep_cfg,
            )
            models.append(ft.fit_factor(data, cfg))
        out.append(models)
    return out


def assemble_and_validate(
    structure: det.GsStructure, oracle: Oracle, cfg: RunConfig
) -> AssembledModel:
    """Fit factors, solve the outer linear problem, validate on fresh data.

    Trains and validates on independent samples of cfg.samples_per_var * n
    points each. On a validation miss the whole fit is retried with new
    sweep seeds, up to MAX_RETRIES times, but only while every factor of
    the attempt converged: a fresh sample can rescue an unlucky draw, not
    a factor that no skeleton fits, so an attempt with an unconverged
    factor is the last one (its factors are kept on the model as
    `unconverged`). Attempt k sweeps and samples with seed cfg.seed + 101k.
    The best model found is returned either way; its `retries` counts the
    retries made.
    """
    n_samples = cfg.samples_per_var * oracle.arity
    best: AssembledModel | None = None
    for attempt in range(MAX_RETRIES + 1):
        sweep_seed = cfg.seed + 101 * attempt
        factors = fit_structure_factors(structure, oracle, cfg, sweep_seed)
        terms = build_basis(structure, factors)
        train = oracle.sample(n_samples, derived_seed(sweep_seed, 1))
        c0, coefs, train_mse, deficient = least_squares(terms, train)
        val = oracle.sample(n_samples, derived_seed(sweep_seed, 2))
        model = AssembledModel(
            c0=c0,
            terms=terms,
            coefficients=coefs,
            expr=_compose_expr(c0, coefs, terms),
            train_mse=train_mse,
            val_mse=math.inf,
            success=False,
            rank_deficient=deficient,
        )
        model.val_mse = _mse(model, val)
        model.success = bool(model.val_mse <= cfg.tol_target)
        if best is None or model.val_mse < best.val_mse:
            best = model
        if model.success:
            break
        unconverged = tuple(f for models in factors for f in models if not f.converged)
        if unconverged:
            best.unconverged = unconverged
            break
    best.retries = attempt
    return best


def _mse(model: AssembledModel, sample: SampleSet) -> float:
    """MSE of the model on a sample; inf when over 20% of it is invalid."""
    pred = model.predict(sample.points)
    good = np.isfinite(pred) & np.isfinite(sample.values)
    if good.sum() < 0.8 * len(sample):
        return math.inf
    r = sample.values[good] - pred[good]
    mse = float(r @ r / good.sum())
    return mse if np.isfinite(mse) else math.inf

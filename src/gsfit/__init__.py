"""Recover and refit the separable structure of black-box functions."""

from .expr import Expr, ParseError, parse
from .oracle import DomainBox, Oracle, SampleError, SampleSet, make_oracle
from .config import RunConfig
from .detect import (
    Anchor,
    DetectionError,
    FactorData,
    GsStructure,
    InteractionGraph,
    NotSeparableError,
    detect_structure,
    factor_partition,
    interaction_graph,
    isolate_omega_data,
    isolate_psi_data,
    minimal_blocks,
    repeated_vars,
)
from .fit import (
    FactorModel,
    FitError,
    Skeleton,
    fit_factor,
    ldse_minimize,
    skeleton_stream,
)
from .assemble import (
    AssembledModel,
    BasisTerm,
    assemble_and_validate,
    build_basis,
    least_squares,
)
from .bench import CASES, STREAM_DEMO, CaseReport, CaseSpec, SuiteReport, run_case, run_suite

__version__ = "0.1.0"

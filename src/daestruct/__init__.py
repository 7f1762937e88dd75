"""Structural analysis of differential-algebraic equation systems.

Parse or build a square DAE model, extract its signature matrix, compute
canonical offsets and block-triangular forms, classify quasilinearity,
derive minimal initialization sets and a stage-by-stage solution schedule,
and optionally execute that schedule numerically with Taylor coefficients.
"""

from .analysis import Analysis, analyze
from .btf import (
    Block,
    BlockPartition,
    LocalOffsets,
    UniformityViolation,
    coarse_btf,
    fine_btf,
    local_offsets,
)
from .codelist import (
    CodeList,
    DaeModel,
    Expr,
    ModelBuilder,
    ModelError,
    cos,
    der,
    exp,
    log,
    render_model,
    sin,
    sqrt,
    validate_model,
)
from .executor import (
    DivisionByZeroSeries,
    ExecutorError,
    InfeasibleConstraint,
    LogSqrtDomain,
    MissingInitialization,
    NewtonDivergence,
    SingularJacobian,
    SolutionReport,
    StageSolveReport,
    StatePoint,
    TaylorSeries,
    numeric_jacobian,
    solve_stage,
    solve_to_order,
    taylor_eval,
)
from .parser import ParseError, parse_model
from .ql import EquationQl, QlCode, QlReport, m_sets, vectorized_ql
from .scheme import (
    InitSets,
    Schedule,
    StageTask,
    basic_init_set,
    classify_stage,
    fine_block_init,
    render_schedule,
    stage_sets,
)
from .sigma import (
    GlobalOffsets,
    JacobianPattern,
    SignatureMatrix,
    StructurallyIllPosed,
    StructuralMetrics,
    Transversal,
    canonical_offsets,
    highest_value_transversal,
    jacobian_pattern,
    signature_matrix,
    signature_vectors,
    structural_metrics,
)

__version__ = "0.1.0"

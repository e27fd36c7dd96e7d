"""Kernel-calculus workbench: sesqui-analytic kernels, jets and certification."""

from .calculus import (
    phi_gram,
    series_head_coefficients,
)
from .automorphisms import (
    CocycleSpec,
    MobiusMap,
    curvature_quasi_check,
    quasi_invariance_residual,
)
from .errors import (
    BracketError,
    BranchError,
    DomainError,
    EvaluationError,
    KernelCalcError,
    OrderCapError,
    ParseError,
    ShapeError,
)
from .expr import (
    BallCurvature,
    BallPower,
    Curvature,
    DiagonalSeries,
    JetKernel,
    JetTable,
    KernelExpr,
    LogHessian,
    Pow,
    Product,
    Scale,
    Sum,
    SzegoDisc,
    Tensor,
    bergman_ball,
    bergman_disc,
)
from .geometry import (
    DomainSpec,
    MultiIndex,
    Point,
    sample_points,
    unit_ball,
    unit_disc,
    polydisc,
)
from .parser import parse_kernel
from .positivity import (
    GramReport,
    MultiplierBound,
    WallachEstimate,
    gram,
    kernel_order_check,
    min_eigenvalue,
    multiplier_bound,
    ordinary_wallach_scan,
    psd_check,
    wallach_scan,
)
from .rkhs import (
    RkhsElement,
    element,
    inner_product,
    norm,
    z2_tensor_e1_norm,
)

__version__ = "0.1.0"

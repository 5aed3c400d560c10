"""Numerical laboratory for weighted Sobolev embeddings on cusp domains."""

from .geometry import (
    Ball,
    Box,
    CuspDomain,
    IntegralVerdict,
    QuadratureGrid,
    RefinementSchedule,
    Verdict,
    grid,
    h1_domain,
    integrate,
    unit_interval,
)
from .weights import (
    ApReport,
    BallFamily,
    Weight,
    ap_check,
    ap_ratio,
    polynomial_ap_range,
    theorem10_condition,
)
from .cuspmap import (
    CuspMap,
    DistortionReport,
    check_quasiisometry,
    distortion_Ia,
    distortion_report,
    jacobian_Ja,
)
from .exponents import (
    EmbeddingQuery,
    ThresholdReport,
    Witness,
    besov_threshold,
    cor2_threshold,
    cor4_bound,
    lemma3_transfer,
    select_witness,
    thm3_Kw,
    thm6_threshold,
    thm8_threshold,
    thm9_sstar,
    witness_satisfies,
)
from .mollifier import (
    MollifierKernel,
    MollifySpec,
    SmoothField,
    commutation_check,
    convergence_test,
    mollify,
)
from .pde import (
    CuspSection,
    FemSolution,
    Mesh,
    assemble,
    convergence_rate,
    l2_error,
    manufactured_rhs,
    solve_dirichlet,
    triangulate,
    weak_residual,
)
from .probe import ProbeReport, TrialFamily, embedding_ratio, run_probe

__version__ = "0.1.0"

"""Moment-inequality nonlocality tests for multipartite spin-J systems.

The package evaluates a single family of criteria comparing a ladder-product
moment L = |<prod_k J_k^{s_k}>|^2 against a bound moment R whose per-site
factors encode the local model being ruled out: hidden-variable sites carry
Jx^2 + Jy^2, quantum sites carry either the C_J-shifted form (fixed spin J)
or the ladder products J+-J-+.  B = sqrt(L/R) > 1 certifies, in increasing
strength: entanglement (all sites quantum), LHS(T,N) failure / EPR steering
(T quantum sites), Bell nonlocality (none).

Two independent evaluation routes: closed-form log-domain sums valid for
any N, and a brute-force oracle that sums every site-operator product over
the state's support in the d^N product basis, used to verify them.
"""

__version__ = "0.1.0"

from .spin_algebra import (
    BoundSource,
    SpinMatrices,
    SpinQuantum,
    UncertaintyBound,
    build_spin_matrices,
    cj_bound,
    compute_cj,
)
from .states import (
    Bosonic,
    CapExceededError,
    Custom,
    GeneralizedGHZ,
    SpinOneR,
    StateFamily,
    SupportVector,
    SymmetricCorrelatedState,
    UniformMax,
    dense_vector,
    make_state,
    support_vector,
)
from .kinds import Bell, CriterionKind, EntanglementCJ, EntanglementHZ, SiteOp, Steering, parse_kind
from .oracle import expect_product, lhs_moment, rhs_moment
from .analytic import (
    b_bell,
    b_ent_cj,
    b_ent_hz,
    b_ratio,
    b_steer_t,
    ghz_cj_detection_threshold,
)
from .criteria import Backend, CriterionResult, SignChoice, evaluate, nested_verdicts
from .optimizer import (
    MinSitesResult,
    OptimizationReport,
    min_sites_for_violation,
    optimize_amplitudes,
    scan_curve,
)

__all__ = [
    "__version__",
    "BoundSource",
    "SpinMatrices",
    "SpinQuantum",
    "UncertaintyBound",
    "build_spin_matrices",
    "cj_bound",
    "compute_cj",
    "Bosonic",
    "CapExceededError",
    "Custom",
    "GeneralizedGHZ",
    "SpinOneR",
    "StateFamily",
    "SupportVector",
    "SymmetricCorrelatedState",
    "UniformMax",
    "dense_vector",
    "make_state",
    "support_vector",
    "Bell",
    "CriterionKind",
    "EntanglementCJ",
    "EntanglementHZ",
    "Steering",
    "parse_kind",
    "SiteOp",
    "expect_product",
    "lhs_moment",
    "rhs_moment",
    "b_bell",
    "b_ent_cj",
    "b_ent_hz",
    "b_ratio",
    "b_steer_t",
    "ghz_cj_detection_threshold",
    "Backend",
    "CriterionResult",
    "SignChoice",
    "evaluate",
    "nested_verdicts",
    "MinSitesResult",
    "OptimizationReport",
    "min_sites_for_violation",
    "optimize_amplitudes",
    "scan_curve",
]

"""Transient price impact trading model with super-replication duality tools.

Evaluates wealth of bounded-variation schedules under depth/resilience spread
dynamics, prices super-replication of exogenous payoffs on finite scenario
trees, reads dual certificates off the primal and evaluates given ones, and
verifies the closed-form call price and shadow-price optimality conditions.
"""

from .applications import (
    CallVerification,
    ExponentialUtility,
    LogUtility,
    PowerUtility,
    ShadowVerdict,
    buy_and_hold,
    call_price_formula,
    make_utility,
    shadow_price_check,
    verify_call_superreplication,
)
from .duality import (
    BandFeasibility,
    DualCertificate,
    FeasibilityReport,
    WeakDualityReport,
    certificate_from,
    check_feasibility,
    constraint_bound,
    dual_objective,
    restore_feasibility,
    shadow_band_feasibility,
    weak_duality_check,
)
from .market import (
    ImpactParams,
    LiquiditySpec,
    MarketSpec,
    MuWeights,
    TimeGrid,
    ValidationReport,
    validate_assumptions,
)
from .solver import (
    PriceReport,
    SolverOptions,
    default_certificate,
    dual_ascent,
    gap_report,
    primal_solve,
)
from .strategy import (
    TradeSchedule,
    check_terminal_zero,
    convex_combine,
    normalize,
    position_path,
    total_variation,
)
from .tree import (
    NodeMeasure,
    ScenarioTree,
    TiltResult,
    conditional_expectation,
    is_martingale,
    q_tail_probability,
    tilt_to_martingale,
)
from .wealth import (
    PathSums,
    SpreadState,
    TreeWealth,
    WealthBreakdown,
    consistency_check,
    convexity_gap,
    eta_path,
    lambda_functional,
    path_sums,
    quadratic_scaling,
    terminal_cash_direct,
    tree_terminal_cash_direct,
    tree_wealth,
    tv_bound,
)

__version__ = "0.1.0"

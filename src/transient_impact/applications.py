"""Applications: call super-replication in closed form and shadow-price verification.

Buying one unit immediately and unwinding at maturity super-replicates a
cash-settled call whenever the unaffected price stays non-negative; funded at
the closed-form cost below, that schedule ends with cash exactly equal to the
terminal price on every path.  The shadow-price check verifies a candidate
utility-optimal schedule through a certificate built from its own spread
state: a martingale inside the band that touches the boundary exactly where
the schedule trades certifies optimality (a sufficient condition, so failure
to find one is reported as inconclusive, never as suboptimal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .duality import band_pins, constraint_bound, leaf_measure, shadow_band_feasibility
from .errors import NotApplicable, TerminalNotZero
from .market import MarketSpec, as_curve, finite
from .strategy import TradeSchedule, check_terminal_zero, normalize
from .tree import ScenarioTree, is_martingale
from .wealth import path_sums, terminal_cash_direct, tree_wealth

SHADOW_RTOL = 1e-8
CALL_IDENTITY_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Utility families (analytic derivatives; needed exactly by the measure tilt)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialUtility:
    """u(x) = -exp(-a x) / a with risk aversion a > 0; defined on all of R."""

    risk_aversion: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.risk_aversion < np.inf:  # NaN fails too
            raise ValueError("risk aversion must be > 0 and finite")

    def value(self, x):
        return -np.exp(-self.risk_aversion * np.asarray(x)) / self.risk_aversion

    def derivative(self, x):
        return np.exp(-self.risk_aversion * np.asarray(x))

    def in_domain(self, x) -> bool:
        return bool(np.all(np.isfinite(x)))


@dataclass(frozen=True)
class PowerUtility:
    """u(x) = x**p / p with exponent p in (0, 1); requires wealth > 0."""

    exponent: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.exponent < 1.0:
            raise ValueError("power exponent must lie in (0, 1)")

    def value(self, x):
        return np.asarray(x) ** self.exponent / self.exponent

    def derivative(self, x):
        return np.asarray(x) ** (self.exponent - 1.0)

    def in_domain(self, x) -> bool:
        return bool(np.all(np.asarray(x) > 0.0))


@dataclass(frozen=True)
class LogUtility:
    """u(x) = log(x); requires wealth > 0."""

    def value(self, x):
        return np.log(np.asarray(x))

    def derivative(self, x):
        return 1.0 / np.asarray(x)

    def in_domain(self, x) -> bool:
        return bool(np.all(np.asarray(x) > 0.0))


def make_utility(kind: str, param: float | None = None):
    kind = kind.lower()
    if kind in ("exp", "exponential"):
        return ExponentialUtility(param if param is not None else 1.0)
    if kind == "power":
        return PowerUtility(param if param is not None else 0.5)
    if kind == "log":
        if param is not None:
            raise ValueError("log utility takes no parameter")
        return LogUtility()
    raise ValueError(f"unknown utility family: {kind!r}")


# ---------------------------------------------------------------------------
# Call options
# ---------------------------------------------------------------------------


def call_price_formula(market: MarketSpec, p0: float) -> float:
    """Closed-form super-replication cost of a cash-settled call.

    Applies to deterministic depth/resilience curves and an initial position
    of at most one unit.  The value does not depend on the strike: the payoff
    is dominated by the terminal price itself, and holding one unit is already
    the cheapest way to dominate that.
    """
    imp = market.impact
    if imp.x0 > 1.0:
        raise NotApplicable("closed form requires an initial position of at most one unit")
    a = 1.0 - imp.x0
    delta0 = float(market.liquidity.delta[0])
    delta_T = float(market.liquidity.delta[-1])
    rho_T = float(market.rho()[-1])
    return (
        p0 * a
        - 0.5 * imp.iota * imp.x0**2
        + imp.zeta0 * a
        + a**2 / (2.0 * delta0)
        + (imp.zeta0 + a / delta0) / rho_T
        + 1.0 / (2.0 * delta_T)
    )


def buy_and_hold(market: MarketSpec) -> TradeSchedule:
    """Take the position to one unit immediately, unwind it at maturity."""
    if market.impact.x0 > 1.0:
        raise NotApplicable("buy-and-hold construction requires x0 <= 1")
    return TradeSchedule(*_buy_and_hold_trades(market), market.impact.x0)


def _buy_and_hold_trades(market: MarketSpec) -> tuple[np.ndarray, np.ndarray]:
    n = market.grid.n_points
    buys = np.zeros(n)
    sells = np.zeros(n)
    buys[0] = 1.0 - market.impact.x0
    sells[-1] = 1.0
    return buys, sells


@dataclass(frozen=True)
class CallVerification:
    """Path-wise outcome of running buy-and-hold funded at the closed form."""

    price: float
    terminal_cash: np.ndarray
    terminal_price: np.ndarray
    payoff: np.ndarray
    max_identity_error: float
    identity_holds: bool
    dominates_payoff: bool


def verify_call_superreplication(market: MarketSpec, P, strike: float) -> CallVerification:
    """Check the funded buy-and-hold ends with cash equal to the terminal price.

    Exact (to rounding) on every path; domination of the call payoff then
    follows from non-negativity of the price, which is validated here.  ``P``
    is one path ``(N+1,)``, scenario rows ``(S, N+1)`` or an iterator of
    time-row blocks ``(k, S)``, read once.
    """
    buys, sells = _buy_and_hold_trades(market)
    sums = path_sums(P, buys - sells)  # first, so a fault in a price file outranks the position check
    if sums.low < 0.0:
        raise ValueError("price paths must be non-negative")
    p0 = float(sums.first[0])
    if np.max(np.abs(sums.first - p0)) > 1e-12 * (1.0 + abs(p0)):
        raise ValueError("all scenario paths must start from the same price")

    price = call_price_formula(market, p0)
    imp = market.impact
    funded = replace(market, impact=replace(imp, xi0=price))
    cash = np.atleast_1d(terminal_cash_direct(buy_and_hold(market), funded, sums))
    terminal = sums.last
    if strike < 0.0:
        raise ValueError("strike must be >= 0")
    payoff = np.maximum(terminal - strike, 0.0)
    err = float(np.max(np.abs(cash - terminal)))
    scale = 1.0 + float(np.max(np.abs(terminal)))
    identity = err <= CALL_IDENTITY_RTOL * scale
    return CallVerification(
        price=price,
        terminal_cash=cash,
        terminal_price=terminal,
        payoff=payoff,
        max_identity_error=err,
        identity_holds=identity,
        dominates_payoff=bool(np.all(cash >= payoff - CALL_IDENTITY_RTOL * scale)),
    )


# ---------------------------------------------------------------------------
# Shadow prices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShadowVerdict:
    """Result of the verification: "optimal" or "inconclusive", with diagnostics.

    The three violations are ``None`` when no band martingale was given or found.
    """

    verdict: str
    reasons: tuple[str, ...]
    q_hat: np.ndarray
    lambda_hat: np.ndarray
    M_hat: np.ndarray | None
    martingale_defect: float | None
    band_violation: float | None
    flat_off_violation: float | None
    expected_utility: float


def shadow_price_check(tree: ScenarioTree, market: MarketSpec, schedule: TradeSchedule, utility,
                       M_hat=None) -> ShadowVerdict:
    """Verify utility optimality of a candidate schedule via a shadow price.

    Builds the measure proportional to marginal utility of the candidate's
    terminal cash, the spread process equal to the candidate's scaled spread
    and the induced band; then checks that the given (or searched-for)
    martingale stays inside the band and touches its lower/upper boundary
    exactly where the candidate sells/buys.  All three checks passing
    certifies the candidate maximises expected utility among liquidating
    schedules; anything else is inconclusive.  ``utility`` is one of the
    families above; ``M_hat`` (one value per node) is searched for when not given.
    """
    schedule = normalize(schedule)
    if not np.all(check_terminal_zero(schedule, tree)):
        raise TerminalNotZero("candidate schedule must liquidate on every scenario")
    tw = tree_wealth(tree, schedule, market.impact)
    if not utility.in_domain(tw.xi_T):
        raise ValueError("terminal cash leaves the utility's domain")

    reach_p = tree.reach_probabilities()
    q_hat = leaf_measure(tree, reach_p[tree.leaves] * utility.derivative(tw.xi_T))
    alpha_hat = tw.eta
    lam_hat = constraint_bound(tree, q_hat, alpha_hat)
    pin = band_pins(tree, schedule, lam_hat)

    scale = 1.0 + float(np.max(np.abs(tree.P)) + np.max(lam_hat))
    tol = SHADOW_RTOL * scale

    reasons: list[str] = []
    if M_hat is None:
        band = shadow_band_feasibility(tree, q_hat, lam_hat, pin=pin)
        if not band.feasible:
            reasons.append(f"no band martingale with the required boundary contacts (empty at node {band.empty_node})")
        M_hat = band.M
    else:
        M_hat = finite(as_curve(M_hat, tree.n_nodes, "M_hat"), "M_hat")

    defect = band_violation = flat_violation = None
    if M_hat is not None:
        _, defect = is_martingale(tree, q_hat, M_hat)
        if defect > tol:
            reasons.append(f"candidate martingale has drift {defect:.3e}")
        band_violation = float(np.max(np.abs(tree.P - M_hat) - lam_hat))
        if band_violation > tol:
            reasons.append(f"band violated by {band_violation:.3e}")
        flat_violation = float(max((abs(M_hat[n] - edge) for n, edge in pin.items()), default=0.0))
        if flat_violation > tol:
            reasons.append(f"martingale leaves the boundary on trading nodes by {flat_violation:.3e}")

    expected_utility = float(np.dot(reach_p[tree.leaves], utility.value(tw.xi_T)))
    return ShadowVerdict(
        verdict="optimal" if not reasons else "inconclusive",
        reasons=tuple(reasons),
        q_hat=q_hat,
        lambda_hat=lam_hat,
        M_hat=M_hat,
        martingale_defect=defect,
        band_violation=band_violation,
        flat_off_violation=flat_violation,
        expected_utility=expected_utility,
    )

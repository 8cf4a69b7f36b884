"""Spread state, terminal cash and its convex decomposition.

Two routes to the same terminal cash: the direct midpoint-execution rule
(trades fill at the average of pre- and post-trade mid price and half-spread)
and the decomposition ``cash = v0 - (price integral + quadratic spread
penalty)`` which isolates a convex functional of the schedule.  Both are exact
for grid-point trading and agree to rounding whenever the terminal position is
zero; the penalty integrates the squared scaled spread against the liquidity
weights, interval weights against the value at the left grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, TerminalNotZero
from .market import MarketSpec, build_mu
from .strategy import TradeSchedule, check_terminal_zero, convex_combine, normalize, position_path


@dataclass(frozen=True)
class SpreadState:
    """Half-spread dynamics along a deterministic grid.

    ``eta`` is the resilience-scaled spread (constant between trades), ``zeta``
    the half-spread itself; ``*_pre`` are the pre-trade limits at each grid
    point.
    """

    eta: np.ndarray
    eta_pre: np.ndarray
    zeta: np.ndarray
    zeta_pre: np.ndarray


@dataclass(frozen=True)
class WealthBreakdown:
    """Terminal cash split into its base value and convex cost functional.

    ``xi_T = v0 - lambda_T`` equals the directly computed terminal cash
    whenever the terminal position is zero; ``lambda_T`` is always
    ``p_integral + eta_penalty``.
    """

    xi_T: np.ndarray | float
    lambda_T: np.ndarray | float
    v0: float
    p_integral: np.ndarray | float
    eta_penalty: float


def _check_slots(schedule: TradeSchedule, market: MarketSpec) -> None:
    if schedule.n_slots != market.grid.n_points:
        raise GridMismatch(
            f"schedule has {schedule.n_slots} slots but the grid has {market.grid.n_points} points"
        )


def _prices(P, n_points: int) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[np.newaxis, :]
    if P.ndim != 2 or P.shape[1] != n_points:
        raise ValueError(f"price paths must have {n_points} columns")
    return P


def _collapse(values: np.ndarray, was_1d: bool):
    return float(values[0]) if was_1d else values


def book_value(impact, delta0: float) -> float:
    """Book value of the initial position and spread state at initial depth ``delta0``."""
    return 0.5 * (impact.iota * impact.x0**2 + delta0 * impact.zeta0**2)


def eta_path(schedule: TradeSchedule, market: MarketSpec) -> SpreadState:
    """Scaled spread and half-spread along the grid, pre- and post-trade."""
    _check_slots(schedule, market)
    rho = market.rho()
    bump = rho / market.liquidity.delta * schedule.gross()
    eta = market.impact.zeta0 + np.cumsum(bump)
    eta_pre = np.concatenate([[market.impact.zeta0], eta[:-1]])
    return SpreadState(eta=eta, eta_pre=eta_pre, zeta=eta / rho, zeta_pre=eta_pre / rho)


def terminal_cash_direct(schedule: TradeSchedule, market: MarketSpec, P):
    """Terminal cash from midpoint-rule execution against one or many price paths.

    Each trade pays the average of pre- and post-trade shifted mid price on
    the net quantity and the average of pre- and post-trade half-spread on the
    gross quantity.  ``P`` may be one path ``(N+1,)`` or a matrix of scenario
    rows ``(S, N+1)``.
    """
    _check_slots(schedule, market)
    P2, was_1d = _prices(P, market.grid.n_points), np.ndim(P) == 1
    net = schedule.net()
    pos = position_path(schedule)
    pos_pre = np.concatenate([[schedule.x0], pos[:-1]])
    spread = eta_path(schedule, market)

    mid_cost = P2 @ net + market.impact.iota * 0.5 * float(np.dot(pos_pre + pos, net))
    spread_cost = 0.5 * float(np.dot(spread.zeta_pre + spread.zeta, schedule.gross()))
    cash = market.impact.xi0 - mid_cost - spread_cost
    return _collapse(cash, was_1d)


def lambda_functional(schedule: TradeSchedule, market: MarketSpec, P) -> WealthBreakdown:
    """Convex decomposition of terminal cash.

    ``p_integral`` integrates the unaffected price against the net trades;
    ``eta_penalty`` is half the squared scaled spread against the liquidity
    weights (interval weights paired with the left value, the atom with the
    terminal one).  ``xi_T = v0 - lambda_T`` is the terminal cash whenever the
    schedule liquidates.
    """
    _check_slots(schedule, market)
    P2, was_1d = _prices(P, market.grid.n_points), np.ndim(P) == 1
    mu = build_mu(market.kappa(), require_strict=False)
    eta = eta_path(schedule, market).eta

    p_integral = P2 @ schedule.net()
    eta_penalty = 0.5 * (float(np.dot(mu.interior, eta[:-1] ** 2)) + mu.atom * eta[-1] ** 2)
    lam = p_integral + eta_penalty
    v0 = market.impact.xi0 + book_value(market.impact, float(market.liquidity.delta[0]))
    return WealthBreakdown(
        xi_T=_collapse(v0 - lam, was_1d),
        lambda_T=_collapse(lam, was_1d),
        v0=v0,
        p_integral=_collapse(p_integral, was_1d),
        eta_penalty=eta_penalty,
    )


def consistency_check(schedule: TradeSchedule, market: MarketSpec, P) -> float:
    """Largest gap between the two cash computations across scenarios.

    Requires a liquidating schedule; contract: the gap stays below
    ``1e-10 * (1 + |v0| + |lambda|)``.
    """
    if not check_terminal_zero(schedule):
        raise TerminalNotZero("consistency check requires a schedule with zero terminal position")
    direct = np.atleast_1d(terminal_cash_direct(schedule, market, P))
    breakdown = lambda_functional(schedule, market, P)
    return float(np.max(np.abs(direct - np.atleast_1d(breakdown.xi_T))))


def tv_bound(market: MarketSpec, P, level: float):
    """A priori bound on total traded volume given a cap on the cost functional.

    Returns ``(C, bound)`` where the spread penalty dominates ``TV**2 / C``
    with ``C = 2 / (kappa_T * min(rho/delta)**2)``, and ``bound`` solves
    ``x**2 = C * (max|P| * x + level**2)``: every schedule whose cost
    functional stays below ``level**2`` has total variation at most ``bound``
    (one bound per scenario row of ``P``).
    """
    P2, was_1d = _prices(P, market.grid.n_points), np.ndim(P) == 1
    rho = market.rho()
    kappa_T = float(market.kappa()[-1])
    min_ratio = float(np.min(rho / market.liquidity.delta))
    C = 2.0 / (kappa_T * min_ratio**2)
    p_sup = np.max(np.abs(P2), axis=1)
    bound = 0.5 * (C * p_sup + np.sqrt((C * p_sup) ** 2 + 4.0 * C * level**2))
    return C, _collapse(bound, was_1d)


def convexity_gap(s0: TradeSchedule, s1: TradeSchedule, market: MarketSpec, P):
    """Half-sum of cost functionals minus the cost of the midpoint schedule.

    The midpoint is formed trade-wise (gross combination) and every schedule
    is costed through its canonical buy/sell decomposition, so the gap is the
    convexity surplus of the cost functional as a functional of the position
    path: non-negative on every scenario, strictly positive whenever the two
    canonical spread states differ.
    """
    mid = normalize(convex_combine(s0, s1, 0.5))
    lam0 = lambda_functional(normalize(s0), market, P).lambda_T
    lam1 = lambda_functional(normalize(s1), market, P).lambda_T
    lam_mid = lambda_functional(mid, market, P).lambda_T
    return 0.5 * (lam0 + lam1) - lam_mid


def _scale_schedule(schedule: TradeSchedule, c: float) -> TradeSchedule:
    return TradeSchedule(c * schedule.buys, c * schedule.sells, schedule.x0)


def quadratic_scaling(schedule: TradeSchedule, market: MarketSpec, P):
    """Coefficients ``(a, b, q)`` of the cost functional under trade scaling.

    Scaling all trades by ``c`` moves the cost functional along the parabola
    ``a + b*c + q*c**2`` with ``q = 0.5 * integral of (eta - zeta0)**2``
    against the liquidity weights, hence ``q >= 0`` with equality only for the
    empty schedule.  The polynomial identity is re-verified internally at
    ``c in {0, 1, 2}``.
    """
    _check_slots(schedule, market)
    P2, was_1d = _prices(P, market.grid.n_points), np.ndim(P) == 1
    mu = build_mu(market.kappa(), require_strict=False)
    zeta0 = market.impact.zeta0
    excess = eta_path(schedule, market).eta - zeta0

    a = 0.5 * zeta0**2 * mu.total
    mu_excess = float(np.dot(mu.interior, excess[:-1])) + mu.atom * excess[-1]
    b = P2 @ schedule.net() + zeta0 * mu_excess
    q = 0.5 * (float(np.dot(mu.interior, excess[:-1] ** 2)) + mu.atom * excess[-1] ** 2)

    for c in (0.0, 1.0, 2.0):
        lam = np.atleast_1d(lambda_functional(_scale_schedule(schedule, c), market, P2).lambda_T)
        fit = a + b * c + q * c**2
        scale = 1.0 + np.max(np.abs(lam))
        if np.max(np.abs(lam - fit)) > 1e-10 * scale:  # pragma: no cover - algebraic identity
            raise ArithmeticError("scaling coefficients do not reproduce the cost functional")
    return a, _collapse(b, was_1d), q


# ---------------------------------------------------------------------------
# Scenario-tree evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeWealth:
    """Per-node spread state and per-leaf cash of a schedule on a tree."""

    eta: np.ndarray
    position: np.ndarray
    p_integral: np.ndarray
    eta_penalty: np.ndarray
    lambda_T: np.ndarray
    xi_T: np.ndarray
    v0: float


def tree_wealth(tree, schedule: TradeSchedule, impact) -> TreeWealth:
    """Evaluate the cash decomposition of a node-indexed schedule on a tree."""
    if schedule.n_slots != tree.n_nodes:
        raise GridMismatch("schedule must have one slot per tree node")
    gross = schedule.gross()
    eta = tree.accumulate(tree.rho / tree.delta * gross, initial=impact.zeta0)
    position = tree.accumulate(schedule.net(), initial=schedule.x0)
    p_run = tree.accumulate(tree.P * schedule.net(), initial=0.0)

    pen_contrib = np.zeros(tree.n_nodes)
    pen_contrib[1:] = tree.edge_weight[1:] * eta[tree.parent[1:]] ** 2
    pen_run = tree.accumulate(pen_contrib, initial=0.0)

    leaves = tree.leaves
    eta_penalty = 0.5 * (pen_run[leaves] + tree.kappa[leaves] * eta[leaves] ** 2)
    lam = p_run[leaves] + eta_penalty
    v0 = impact.xi0 + book_value(impact, float(tree.delta[0]))
    return TreeWealth(
        eta=eta,
        position=position,
        p_integral=p_run[leaves],
        eta_penalty=eta_penalty,
        lambda_T=lam,
        xi_T=v0 - lam,
        v0=v0,
    )


def tree_terminal_cash_direct(tree, schedule: TradeSchedule, impact) -> np.ndarray:
    """Midpoint-rule terminal cash per leaf for a node-indexed schedule."""
    if schedule.n_slots != tree.n_nodes:
        raise GridMismatch("schedule must have one slot per tree node")
    net = schedule.net()
    gross = schedule.gross()
    eta = tree.accumulate(tree.rho / tree.delta * gross, initial=impact.zeta0)
    position = tree.accumulate(net, initial=schedule.x0)

    eta_pre = np.empty(tree.n_nodes)
    eta_pre[0] = impact.zeta0
    eta_pre[1:] = eta[tree.parent[1:]]
    pos_pre = np.empty(tree.n_nodes)
    pos_pre[0] = schedule.x0
    pos_pre[1:] = position[tree.parent[1:]]

    zeta = eta / tree.rho
    zeta_pre = eta_pre / tree.rho
    spend = (tree.P + impact.iota * 0.5 * (pos_pre + position)) * net
    spend += 0.5 * (zeta_pre + zeta) * gross
    total = tree.accumulate(spend, initial=0.0)
    return impact.xi0 - total[tree.leaves]

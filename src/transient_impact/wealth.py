"""Spread state, terminal cash and its convex decomposition.

Two routes to the same terminal cash: the direct midpoint-execution rule,
each trade paying from its parent's state to its own, and the decomposition
``cash = v0 - (price integral + spread penalty)``.  Both agree to rounding
whenever the terminal position is zero.  The spread is Markov, so on a
scenario tree :func:`tree_states` gives every node's position, spread and
running penalty in one down-sweep, and the midpoint cash is a down-sweep too,
the nodes' payments summed along the paths by ``tree.accumulate``.  A
deterministic grid is the one-scenario case: the grid functions run the same
code on the market's one-path tree at price 0.  The price enters the cash
only linearly, so of each price path they need only its integral against the
trades and its first and last price, which :func:`path_sums` gathers in one
pass over time-row blocks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatch, TerminalNotZero
from .market import MarketSpec
from .strategy import TradeSchedule, check_terminal_zero, convex_combine, normalize
from .tree import ScenarioTree


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
    eta_penalty: np.ndarray | float


@dataclass(frozen=True)
class PathSums:
    """What the grid functions read of each price path, gathered in one pass over its rows.

    Per scenario: the price integral ``p_integral = sum(P * net)`` against the
    trades ``net`` it was taken with, and the first and last price.  ``low`` is
    the lowest price of all, ``n_points`` the number of grid points read and
    ``was_1d`` whether ``P`` was one path.
    """

    net: np.ndarray
    p_integral: np.ndarray
    first: np.ndarray
    last: np.ndarray
    low: float
    n_points: int
    was_1d: bool


def _time_blocks(P):
    """``P`` as time-row blocks ``(k, S)``, and whether it was one path.

    An iterator of blocks, as :func:`formats.price_path_blocks` yields, passes
    through; one path ``(N+1,)`` or scenario rows ``(S, N+1)`` is one block.
    """
    if isinstance(P, Iterator):
        return P, False
    P = np.asarray(P, dtype=float)
    if P.ndim not in (1, 2):
        raise ValueError("price paths must be one path or scenario rows")
    return [np.atleast_2d(P).T], P.ndim == 1


def path_sums(P, net) -> PathSums:
    """Read ``P`` once, block by block, into its :class:`PathSums` against the trades ``net``.

    ``P`` is one path ``(N+1,)``, scenario rows ``(S, N+1)``, an iterator of
    time-row blocks ``(k, S)``, or the sums of an earlier pass against equal
    trades, which come back as they are.  Memory stays O(scenarios) on top of
    one block.  A path longer than ``net`` is read to its end, so a fault
    further down a price file still surfaces, but gets no integral.
    """
    net = np.asarray(net, dtype=float)
    if isinstance(P, PathSums):
        if not np.array_equal(P.net, net):
            raise ValueError("path sums were taken against other trades")
        return P
    blocks, was_1d = _time_blocks(P)
    rows, low, integral, first, last = 0, np.inf, None, np.empty(0), np.empty(0)
    for block in blocks:
        k = block.shape[0]
        if k == 0:  # scenario rows of no grid points: refused by the row count
            continue
        if rows == 0:
            first = block[0].copy()
        if rows + k <= net.size:
            part = block.T @ net[rows : rows + k]
            integral = part if integral is None else integral + part
        rows, low, last = rows + k, min(low, float(block.min(initial=np.inf))), block[-1].copy()
        del block  # so that no earlier block is held while the next one is read
    if integral is None:
        integral = np.zeros(first.size)
    return PathSums(net, integral, first, last, low, rows, was_1d)


def _chain(schedule: TradeSchedule, market: MarketSpec) -> ScenarioTree:
    """The market's one-path tree at price 0, once the schedule is known to fit its grid."""
    if schedule.n_slots != market.grid.n_points:
        raise GridMismatch(f"schedule has {schedule.n_slots} slots but the grid has {market.grid.n_points} points")
    return ScenarioTree.single_path(market, 0.0)


def _on_chain(schedule: TradeSchedule, market: MarketSpec, P):
    """The :func:`path_sums` of ``P`` against the schedule, and the market's one-path tree.

    The prices are read first, so a fault in a price file outranks a schedule
    that does not fit the grid, which outranks paths that do not.
    """
    sums = path_sums(P, schedule.net())
    chain = _chain(schedule, market)
    if sums.n_points != market.grid.n_points:
        raise ValueError(f"price paths must have {market.grid.n_points} grid points, got {sums.n_points}")
    return sums, chain


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


def _midpoint_spend(impact, net, gross, x_pre, x, eta_pre, eta, rho):
    """Each trade's pay beyond ``P * net``: pre/post-trade means of the shifted mid price and half-spread."""
    mid = impact.iota * 0.5 * (x_pre + x)
    half_spread = 0.5 * (eta_pre + eta) / rho
    return mid * net + half_spread * gross


def eta_path(schedule: TradeSchedule, market: MarketSpec) -> SpreadState:
    """Scaled spread and half-spread along the grid, pre- and post-trade."""
    chain = _chain(schedule, market)
    eta = tree_states(chain, schedule.net(), schedule.gross(), schedule.x0, market.impact.zeta0)[:, 1]
    eta_pre = np.r_[market.impact.zeta0, eta[:-1]]
    return SpreadState(eta=eta, eta_pre=eta_pre, zeta=eta / chain.rho, zeta_pre=eta_pre / chain.rho)


def terminal_cash_direct(schedule: TradeSchedule, market: MarketSpec, P):
    """Midpoint-rule terminal cash against ``P``: any form :func:`path_sums` reads, in one pass."""
    sums, chain = _on_chain(schedule, market, P)
    cash = tree_terminal_cash_direct(chain, schedule, market.impact)[0] - sums.p_integral
    return _collapse(cash, sums.was_1d)


def lambda_functional(schedule: TradeSchedule, market: MarketSpec, P) -> WealthBreakdown:
    """Convex decomposition of terminal cash against ``P``: any form :func:`path_sums` reads, in one pass.

    ``p_integral`` integrates the unaffected price against the net trades;
    ``eta_penalty`` is the spread penalty of the schedule.
    ``xi_T = v0 - lambda_T`` is the terminal cash whenever the schedule
    liquidates.
    """
    sums, chain = _on_chain(schedule, market, P)
    tw = tree_wealth(chain, schedule, market.impact)
    eta_penalty = float(tw.eta_penalty[0])
    lam = sums.p_integral + eta_penalty
    return WealthBreakdown(
        xi_T=_collapse(tw.v0 - lam, sums.was_1d),
        lambda_T=_collapse(lam, sums.was_1d),
        v0=tw.v0,
        p_integral=_collapse(sums.p_integral, sums.was_1d),
        eta_penalty=eta_penalty,
    )


def consistency_check(schedule: TradeSchedule, market: MarketSpec, P) -> float:
    """Largest gap between the two cash computations across scenarios.

    Requires a liquidating schedule; contract: the gap stays below
    ``1e-10 * (1 + |v0| + |lambda|)``.  ``P`` is read twice, so it is one
    path ``(N+1,)`` or scenario rows ``(S, N+1)``.
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
    (one bound per scenario row of ``P``, one path ``(N+1,)`` or scenario rows
    ``(S, N+1)``).
    """
    P2, was_1d = _prices(P, market.grid.n_points), np.ndim(P) == 1
    chain = ScenarioTree.single_path(market, 0.0)
    kappa_T = float(chain.kappa[-1])
    min_ratio = float(np.min(chain.rho / chain.delta))
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
    canonical spread states differ.  ``P`` is read three times, so it is one
    path ``(N+1,)`` or scenario rows ``(S, N+1)``.
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
    empty schedule.  ``P`` is any form :func:`path_sums` reads, read once.
    """
    sums, chain = _on_chain(schedule, market, P)

    def penalty(s: TradeSchedule, impact) -> float:
        return float(tree_wealth(chain, s, impact).eta_penalty[0])

    a = penalty(_scale_schedule(schedule, 0.0), market.impact)
    q = penalty(schedule, replace(market.impact, zeta0=0.0))
    # the penalty of zeta0 + (eta - zeta0) is a + q plus the cross term, which is linear in c
    cross = penalty(schedule, market.impact) - a - q
    return a, _collapse(sums.p_integral + cross, sums.was_1d), q


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


def tree_states(tree, net, gross, x0: float, zeta0: float) -> np.ndarray:
    """Per node, after its trade ``net``/``gross``: position, spread, price integral and interval penalty.

    The last two run along the path: ``sum(P * net)`` and ``sum(w *
    eta_parent**2)``, each interval mass ``w`` met by the spread at its upper
    end.  A leaf's atom ``kappa * eta**2`` is the caller's.
    """
    if np.shape(net) != (tree.n_nodes,):
        raise GridMismatch("schedule must have one slot per tree node")
    step = np.stack([net, tree.rho / tree.delta * gross, tree.P * net, tree.edge_weight], axis=1)

    def down(acc, nodes):
        add = step[nodes]
        add[:, 3] *= acc[:, 1] ** 2  # the interval's mass meets the parent's spread
        acc += add
        return acc

    return tree.down_sweep(step[0] + (x0, zeta0, 0.0, 0.0), down)  # the root's mass is 0


def tree_wealth(tree, schedule: TradeSchedule, impact) -> TreeWealth:
    """Evaluate the cash decomposition of a node-indexed schedule on a tree."""
    position, eta, p_run, pen_run = tree_states(tree, schedule.net(), schedule.gross(), schedule.x0, impact.zeta0).T
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
    """Midpoint-rule terminal cash per leaf for a node-indexed schedule: each node's trade pays from its
    parent's state (``x0`` and ``zeta0`` at the root) to its own, summed down the paths."""
    net, gross = schedule.net(), schedule.gross()
    x, eta, p_run, _ = tree_states(tree, net, gross, schedule.x0, impact.zeta0).T
    x_pre, eta_pre = np.r_[schedule.x0, x[tree.parent[1:]]], np.r_[impact.zeta0, eta[tree.parent[1:]]]
    spend = _midpoint_spend(impact, net, gross, x_pre, x, eta_pre, eta, tree.rho)
    return impact.xi0 - (p_run[tree.leaves] + tree.accumulate(spend)[tree.leaves])

"""Dual certificates: price-band constraint, penalized objective, weak duality.

A certificate is a triple (node measure, martingale, spread process).  It is
feasible when the unaffected price stays within a band around the martingale
whose width is the discounted conditional liquidity-weighted mass of the
spread process.  The penalized expectation of the payoff under a feasible
certificate can never exceed any super-replicating initial cash; the verifier
returns that margin together with the exact slack decomposition that makes the
inequality an identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleCertificate, SuperReplicationViolated, TerminalNotZero
from .market import MarketSpec, as_curve, finite
from .strategy import TradeSchedule, check_terminal_zero
from .tree import NodeMeasure, ScenarioTree, is_martingale
from .wealth import tree_wealth

FEASIBILITY_RTOL = 1e-10
WEAK_DUALITY_RTOL = 1e-9


@dataclass(frozen=True)
class DualCertificate:
    """Node measure, martingale values per node and optional spread process."""

    q: NodeMeasure
    M: np.ndarray
    alpha: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "M", np.asarray(self.M, dtype=float))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))

    def alpha_or_default(self, tree: ScenarioTree, zeta0: float) -> np.ndarray:
        if self.alpha is None:
            return np.full(tree.n_nodes, float(zeta0))
        return as_curve(self.alpha, tree.n_nodes, "alpha")


def leaf_payoff(tree: ScenarioTree, H) -> np.ndarray:
    """The payoff as one finite, non-negative value per leaf, in leaf-id order."""
    H = finite(as_curve(H, tree.leaves.size, "H"), "payoff")
    if np.any(H < 0.0):
        raise ValueError("payoff must be non-negative")
    return H


def node_penalty_weights(tree: ScenarioTree, reach) -> np.ndarray:
    """Measure-weighted liquidity mass attached to each node's spread value.

    Interval masses are paired with the node at the left end of the interval,
    the terminal atom with the leaf; each is weighted by ``reach``, the
    probability under the measure of reaching the node that ends the interval.
    """
    w = tree.child_sum(reach * tree.edge_weight)
    w[tree.leaves] += reach[tree.leaves] * tree.kappa[tree.leaves]
    return w


def constraint_bound(tree: ScenarioTree, cert: DualCertificate, market: MarketSpec) -> np.ndarray:
    """Band width per node: discounted conditional remaining spread mass.

    Backward recursion of ``F(n) = sum_children q * (interval_mass * alpha(n)
    + F(child))`` with ``F(leaf) = atom * alpha(leaf)``; the bound is
    ``rho/delta * F``.  With zero resilience and a constant spread process the
    bound telescopes to that constant at every node.
    """
    alpha = cert.alpha_or_default(tree, market.impact.zeta0)
    leaves = tree.leaves
    edge = tree.edge_weight * alpha[tree.parent]  # the root's entry is never read
    F = tree.up_sweep(cert.q.transitions, tree.kappa[leaves] * alpha[leaves], edge)
    return tree.rho / tree.delta * F


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    worst_violation: float
    worst_node: int
    bound: np.ndarray

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.feasible


def check_feasibility(tree: ScenarioTree, cert: DualCertificate, market: MarketSpec) -> FeasibilityReport:
    """Check the price stays within the certificate's band at every node.

    The band is defined on any tree; what a rising liquidity curve breaks is
    the value's meaning, so :func:`dual_objective` holds that guard.
    """
    B = constraint_bound(tree, cert, market)
    violation = np.abs(tree.P - cert.M) - B
    worst = int(np.argmax(violation))
    scale = 1.0 + float(np.max(np.abs(tree.P)) + np.max(np.abs(cert.M)) + np.max(np.abs(B)))
    return FeasibilityReport(
        feasible=bool(violation[worst] <= FEASIBILITY_RTOL * scale),
        worst_violation=float(violation[worst]),
        worst_node=worst,
        bound=B,
    )


def restore_feasibility(tree: ScenarioTree, cert: DualCertificate, market: MarketSpec) -> DualCertificate:
    """Raise the spread process just enough to re-establish feasibility.

    Adding a constant ``c`` to the spread process widens the band by exactly
    ``c / rho`` at every node, so one bump by the worst discounted violation,
    confirmed by a second check, repairs any certificate with finite entries.
    """
    cert = replace(cert, alpha=cert.alpha_or_default(tree, market.impact.zeta0))
    report = check_feasibility(tree, cert, market)
    if report.feasible:
        return cert
    bump = float(np.max((np.abs(tree.P - cert.M) - report.bound) * tree.rho))
    cert = replace(cert, alpha=cert.alpha + bump * (1.0 + 1e-12) + 1e-15)
    report = check_feasibility(tree, cert, market)
    if not report.feasible:
        raise InfeasibleCertificate(f"repair left the band violated at node {report.worst_node}")
    return cert


def dual_objective(tree: ScenarioTree, cert: DualCertificate, market: MarketSpec, H) -> float:
    """Penalized expectation: payoff mean minus spread penalty and position value."""
    tree.require_decay()
    H = leaf_payoff(tree, H)
    imp = market.impact
    reach = tree.reach_probabilities(cert.q)
    expected_payoff = float(np.dot(reach[tree.leaves], H))
    dev = cert.alpha_or_default(tree, imp.zeta0) - imp.zeta0
    penalty = float(np.dot(node_penalty_weights(tree, reach), dev**2))
    m0 = float(cert.M[0])
    return expected_payoff - 0.5 * penalty - m0 * imp.x0 - 0.5 * imp.iota * imp.x0**2


@dataclass(frozen=True)
class WeakDualityReport:
    """Margin of a super-replicating cash level over a certificate value.

    The margin decomposes exactly into four non-negative slacks: surplus of
    terminal cash over the payoff, sign slack of trades against the price-
    martingale gap, unused band width, and the quadratic spread-mismatch term.
    ``decomposition_residual`` is the rounding left over from that identity.
    """

    margin: float
    primal_cash: float
    dual_value: float
    slack_super_replication: float
    slack_trade_sign: float
    slack_band: float
    slack_quadratic: float
    decomposition_residual: float


def weak_duality_check(
    tree: ScenarioTree,
    market: MarketSpec,
    schedule: TradeSchedule,
    xi0: float,
    cert: DualCertificate,
    H,
) -> WeakDualityReport:
    """Verify a (cash, schedule) pair dominates a certificate's value.

    Requires the schedule to liquidate and super-replicate the payoff from
    ``xi0`` and the certificate to be feasible with a true martingale; returns
    the margin (never materially negative) and its slack decomposition.
    """
    tree.require_decay()
    H = leaf_payoff(tree, H)
    if not np.all(check_terminal_zero(schedule, tree)):
        raise TerminalNotZero("schedule does not liquidate on every scenario")
    imp = replace(market.impact, xi0=float(xi0))
    tw = tree_wealth(tree, schedule, imp)

    scale = 1.0 + abs(xi0) + float(np.max(np.abs(H)) + np.max(np.abs(tree.P)))
    tol = WEAK_DUALITY_RTOL * scale
    shortfall = float(np.min(tw.xi_T - H))
    if shortfall < -tol:
        raise SuperReplicationViolated(f"terminal cash falls {-shortfall:.3e} short of the payoff")

    ok_mart, defect = is_martingale(tree, cert.q, cert.M)
    if not ok_mart:
        raise InfeasibleCertificate(f"certificate martingale has drift {defect:.3e}")
    feas = check_feasibility(tree, cert, market)
    if not feas.feasible:
        raise InfeasibleCertificate(f"band violated by {feas.worst_violation:.3e} at node {feas.worst_node}")

    dual_value = dual_objective(tree, cert, market, H)
    margin = float(xi0) - dual_value

    # Exact slack decomposition of the margin.
    alpha = cert.alpha_or_default(tree, market.impact.zeta0)
    reach = tree.reach_probabilities(cert.q)
    gap = tree.P - cert.M
    net = schedule.net()
    gross = schedule.gross()
    slack_super = float(np.dot(reach[tree.leaves], tw.xi_T - H))
    slack_sign = float(np.dot(reach, gap * net + np.abs(gap) * gross))
    slack_band = float(np.dot(reach, (feas.bound - np.abs(gap)) * gross))
    slack_quad = 0.5 * float(np.dot(node_penalty_weights(tree, reach), (tw.eta - alpha) ** 2))
    residual = margin - (slack_super + slack_sign + slack_band + slack_quad)

    return WeakDualityReport(
        margin=margin,
        primal_cash=float(xi0),
        dual_value=dual_value,
        slack_super_replication=slack_super,
        slack_trade_sign=slack_sign,
        slack_band=slack_band,
        slack_quadratic=slack_quad,
        decomposition_residual=float(residual),
    )

"""Dual certificates: price-band constraint, penalized objective, weak duality.

A certificate is a triple (node measure, martingale, spread process).  It is
feasible when the unaffected price stays within a band around the martingale
whose width is the discounted conditional liquidity-weighted mass of the
spread process.  The penalized expectation of the payoff under a feasible
certificate can never exceed any super-replicating initial cash; the verifier
returns that margin together with the exact slack decomposition that makes the
inequality an identity.  :func:`certificate_from` reads a certificate off a
solved primal by complementary slackness: the measure from its leaf
multipliers, the spread process from its spread, and the martingale from its
closing trades' multipliers, which puts it on the band's edge where the
schedule trades (or, without them, any martingale inside the band).  The one
repair is :func:`restore_feasibility`, the one validity rule :func:`check_certificate`,
which :func:`require_certificate` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleCertificate, SuperReplicationViolated, TerminalNotZero
from .market import MarketSpec, as_curve, finite
from .strategy import TradeSchedule, check_terminal_zero
from .tree import NodeMeasure, ScenarioTree, conditional_expectation, is_martingale
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


def check_feasibility(tree: ScenarioTree, cert: DualCertificate, market: MarketSpec) -> FeasibilityReport:
    """Check the price stays within the certificate's band at every node.

    The band is defined on any tree; what a rising liquidity curve breaks is
    the value's meaning, so :func:`dual_objective` holds that guard.
    ``worst_node`` is the lowest node within the feasibility tolerance of
    the worst, not the argmax among rounding-level ties (the argmax for NaN).
    """
    B = constraint_bound(tree, cert, market)
    violation = np.abs(tree.P - cert.M) - B
    worst = float(np.max(violation))
    tol = FEASIBILITY_RTOL * (1.0 + float(np.max(np.abs(tree.P)) + np.max(np.abs(cert.M)) + np.max(np.abs(B))))
    near = violation >= worst - tol
    return FeasibilityReport(
        feasible=bool(worst <= tol),
        worst_violation=worst,
        worst_node=int(np.argmax(near if near.any() else violation)),
        bound=B,
    )


def restore_feasibility(tree: ScenarioTree, cert: DualCertificate, market: MarketSpec) -> DualCertificate:
    """Raise each node's spread by the largest ``max(|P - M| - B, 0) * rho`` on its path from the root.

    Adding ``c`` to the spread on a node's subtree widens that node's band by
    ``c / rho`` and, on a decaying liquidity curve, narrows none, so every
    positive violation is repaired (none: the spread comes back unchanged).
    One check confirms it, else :class:`InfeasibleCertificate` is raised.
    """
    cert = replace(cert, alpha=cert.alpha_or_default(tree, market.impact.zeta0))
    violation = np.maximum(np.abs(tree.P - cert.M) - constraint_bound(tree, cert, market), 0.0) * tree.rho
    raise_by = tree.down_sweep(violation[0], lambda acc, nodes: np.maximum(acc, violation[nodes]))
    cert = replace(cert, alpha=cert.alpha + raise_by)
    report = check_feasibility(tree, cert, market)
    if not report.feasible:
        raise InfeasibleCertificate(f"repair left the band violated at node {report.worst_node}")
    return cert


@dataclass(frozen=True)
class CertificateCheck:
    """What makes ``(q, M, alpha)`` a certificate: ``q`` a measure, ``M`` a martingale under it, inside the band.

    ``measure`` is the message :meth:`NodeMeasure.for_tree` refuses ``q`` with,
    else ``None``; ``drift`` is ``M``'s largest one-step drift under ``q`` and
    ``martingale`` whether it is within tolerance; ``band`` is the
    :func:`check_feasibility` report.
    """

    measure: str | None
    martingale: bool
    drift: float
    band: FeasibilityReport

    @property
    def valid(self) -> bool:
        return self.measure is None and self.martingale and self.band.feasible


def check_certificate(tree: ScenarioTree, cert: DualCertificate, market: MarketSpec) -> CertificateCheck:
    """Judge ``q``, ``M``'s drift under it and the band; :func:`require_certificate` refuses what fails.

    A ``q`` of the wrong length or with a NaN or infinite entry is no input to judge: it raises.
    """
    finite(as_curve(cert.q.transitions, tree.n_nodes, "transitions"), "measure transitions")
    try:
        NodeMeasure.for_tree(tree, cert.q.transitions)
        measure = None
    except ValueError as exc:
        measure = str(exc)
    martingale, drift = is_martingale(tree, cert.q, cert.M)
    return CertificateCheck(measure, martingale, drift, check_feasibility(tree, cert, market))


def require_certificate(tree: ScenarioTree, cert: DualCertificate, market: MarketSpec) -> FeasibilityReport:
    """Report the band of a certificate whose value bounds the price; refuse anything else.

    :func:`check_certificate` must find it valid: a refused measure raises
    ``ValueError``, a drifting ``M`` or a violated band :class:`InfeasibleCertificate`.
    """
    check = check_certificate(tree, cert, market)
    if check.measure is not None:
        raise ValueError(check.measure)
    if not check.martingale:
        raise InfeasibleCertificate(f"certificate martingale has drift {check.drift:.3e}")
    band = check.band
    if not band.feasible:
        raise InfeasibleCertificate(f"band violated by {band.worst_violation:.3e} at node {band.worst_node}")
    return band


@dataclass(frozen=True)
class BandFeasibility:
    """Either a martingale within the band or the first node with empty interval.

    ``deficit`` is the widening of every band, on each side, that leaves no
    interval empty when nothing is pinned; zero when the band is feasible.
    """

    feasible: bool
    M: np.ndarray | None
    empty_node: int | None
    deficit: float = 0.0


def shadow_band_feasibility(tree: ScenarioTree, q, lam, pin: dict[int, float] | None = None) -> BandFeasibility:
    """Search for a martingale under ``q`` inside the band ``[P - lam, P + lam]``.

    One ``fold_up`` over ``(lo, hi)`` rows: a node's admissible interval is its
    own band (a single value where pinned) intersected with the q-weighted sums
    of its children's, the range of expectations of admissible child values.
    Infeasibility is a result; non-finite widths or pins raise ``NonFiniteInput``,
    and a pin on anything but a node id in ``[0, n_nodes)`` raises ``ValueError``.
    """
    lam = finite(as_curve(lam, tree.n_nodes, "lam"), "band widths")
    if np.any(lam < 0.0):
        raise ValueError("band widths must be >= 0")
    slack = 1e-12 * (1.0 + float(np.max(np.abs(tree.P)) + np.max(lam)))

    band = np.column_stack((tree.P - lam, tree.P + lam))  # own interval, then the admissible one
    for node, value in (pin or {}).items():
        if not (isinstance(node, (int, np.integer)) and 0 <= node < tree.n_nodes):
            raise ValueError(f"pinned node must be a node id in [0, {tree.n_nodes}), got {node!r}")
        value = float(finite(value, "pinned values"))
        band[node] = max(band[node, 0], value - slack), min(band[node, 1], value + slack)
    expected = np.zeros_like(band)  # the children's expected interval ends, zero at leaves

    def intersect(sums, nodes):
        expected[nodes] = sums
        band[nodes, 0] = np.maximum(band[nodes, 0], sums[:, 0])
        band[nodes, 1] = np.minimum(band[nodes, 1], sums[:, 1])
        return q.transitions[nodes, None] * band[nodes]

    tree.fold_up(q.transitions[tree.leaves, None] * band[tree.leaves], intersect)
    lo, hi = band.T
    empty = np.flatnonzero(lo > hi + slack)
    if empty.size:
        # the first empty node a leaves-up pass meets: deepest, then lowest id
        first = empty[np.argmax(tree.t_index[empty])]
        # Widening every band by w lowers every lo and raises every hi by w (the
        # transitions sum to one), so half the largest overlap closes them all.
        deficit = 0.5 * float(np.max(lo - hi))
        return BandFeasibility(feasible=False, M=None, empty_node=int(first), deficit=deficit)

    # Every child takes the same fraction of its interval, chosen so the
    # children's expectation is the parent's value.
    exp_lo = expected[:, 0]
    span = expected[:, 1] - exp_lo

    def place(m_parent, nodes):
        par = tree.parent[nodes]
        theta = np.divide(m_parent - exp_lo[par], span[par], out=np.zeros(nodes.size), where=span[par] > 0.0)
        return lo[nodes] + np.clip(theta, 0.0, 1.0) * (hi[nodes] - lo[nodes])

    M = tree.down_sweep(0.5 * (lo[0] + hi[0]), place)
    return BandFeasibility(feasible=True, M=M, empty_node=None)


def leaf_measure(tree: ScenarioTree, leaf_weights) -> NodeMeasure:
    """Measure whose leaf probabilities are proportional to ``leaf_weights`` (leaf-id order).

    Each transition is the node's share of its parent's weight (the reference
    transition where the parent has none); with no weight at all the measure
    is the reference one.  The weights must be finite and non-negative, and
    weight on a leaf behind a zero-probability branch is refused, not dropped.
    """
    leaf_mass = finite(as_curve(leaf_weights, tree.leaves.size, "leaf_weights"), "leaf weights")
    if np.any(leaf_mass < 0.0):
        raise ValueError("leaf weights must be >= 0")
    total = float(np.sum(leaf_mass))
    if not total > 0.0:
        return NodeMeasure.reference(tree)
    marginal = tree.up_sweep(np.ones(tree.n_nodes), leaf_mass / total)
    transitions = np.ones(tree.n_nodes)
    nonroot = np.arange(1, tree.n_nodes)
    parent_mass = marginal[tree.parent[nonroot]]
    transitions[nonroot] = np.where(
        parent_mass > 0.0,
        marginal[nonroot] / np.where(parent_mass > 0.0, parent_mass, 1.0),
        tree.p_transition[nonroot],
    )
    return NodeMeasure.for_tree(tree, transitions)


def band_pins(tree: ScenarioTree, schedule: TradeSchedule, lam) -> dict[int, float]:
    """Band edge at every trading node: ``P - lam`` where the schedule sells, ``P + lam`` where it buys."""
    pin = {int(n): float(tree.P[n] - lam[n]) for n in np.flatnonzero(schedule.sells > 0.0)}
    pin.update({int(n): float(tree.P[n] + lam[n]) for n in np.flatnonzero(schedule.buys > 0.0)})
    return pin


def certificate_from(tree: ScenarioTree, market: MarketSpec, schedule: TradeSchedule, leaf_weights,
                     closing=None) -> DualCertificate:
    """Feasible certificate read off a schedule and the primal's multipliers.

    The measure is :func:`leaf_measure` of the leaf weights, none of them on
    a leaf behind a zero-probability branch, and the spread process the
    schedule's spread.  Given the closing-trade multipliers ``closing`` (per
    leaf, ``y+`` and ``y-`` on ``±x_pre - g <= 0``), the martingale is read
    off them: ``M_T = P_T - B_T (y+ - y-) / (y+ + y-)`` on each leaf's band
    width ``B_T`` (``M_T = P_T`` where both are zero), and ``M`` its
    conditional expectation.  At an optimum, stationarity in the closing
    trade makes ``y+ + y-`` the leaf weight times ``B_T``, so ``M_T`` is
    ``P_T - (y+ - y-) / weight``, and stationarity in the buys and sells
    then puts ``M`` inside every band, on its edge where the schedule
    trades.  The ratio, unlike a division by the weight, stays in the band
    on leaves that carry no weight.  Without ``closing``, ``M`` is a band
    martingale: anywhere inside the band, else inside the band widened by
    its deficit.  :func:`restore_feasibility` then raises the spread where
    ``M`` leaves its band.
    """
    q = leaf_measure(tree, leaf_weights)
    alpha = tree_wealth(tree, schedule, market.impact).eta
    lam = constraint_bound(tree, DualCertificate(q=q, M=np.zeros(tree.n_nodes), alpha=alpha), market)
    if closing is None:
        band = shadow_band_feasibility(tree, q, lam)
        if not band.feasible:
            band = shadow_band_feasibility(tree, q, lam + band.deficit)
        M = band.M
    else:
        y_long, y_short = np.asarray(closing, dtype=float).T
        total = y_long + y_short
        share = np.divide(y_long - y_short, total, out=np.zeros(total.size), where=total > 0.0)
        leaves = tree.leaves
        M = conditional_expectation(tree, q, tree.P[leaves] - lam[leaves] * share)
    return restore_feasibility(tree, DualCertificate(q=q, M=M, alpha=alpha), market)


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

    Requires the schedule to liquidate and to super-replicate the payoff from
    ``xi0`` almost surely, and the certificate to pass
    :func:`require_certificate`; returns the margin (never materially
    negative) and its slack decomposition.
    """
    tree.require_decay()
    H = leaf_payoff(tree, H)
    if not np.all(check_terminal_zero(schedule, tree)):
        raise TerminalNotZero("schedule does not liquidate on every scenario")
    imp = replace(market.impact, xi0=float(xi0))
    tw = tree_wealth(tree, schedule, imp)

    scale = 1.0 + abs(xi0) + float(np.max(np.abs(H)) + np.max(np.abs(tree.P)))
    tol = WEAK_DUALITY_RTOL * scale
    shortfall = float(np.min((tw.xi_T - H)[tree.reached_part()[1][tree.leaves]]))
    if shortfall < -tol:
        raise SuperReplicationViolated(f"terminal cash falls {-shortfall:.3e} short of the payoff")

    feas = require_certificate(tree, cert, market)

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

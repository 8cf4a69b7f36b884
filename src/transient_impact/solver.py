"""Super-replication pricing on scenario trees: primal, oracle and dual search.

The primal program minimises, over non-negative buy/sell quantities at every
non-terminal node, the worst-leaf sum of payoff and cost functional; terminal
liquidation is built in structurally (the leaf trade closes the running
position), so the feasible set is an orthant.  The solver anneals a soft
maximum over leaves and runs projected gradient steps with a backtracking line
search; everything is deterministic.  The dual search performs monotone
projected-gradient ascent over (measure logits, terminal martingale values,
spread process) with feasibility restored after every trial step, so each
emitted certificate is exactly feasible.  The gap between both sides is
reported, never assumed zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .duality import (
    DualCertificate,
    check_feasibility,
    dual_objective,
    node_penalty_weights,
    restore_feasibility,
)
from .errors import InfeasibleInit, InstanceTooLarge, WeakDualityViolated
from .market import MarketSpec, as_curve
from .strategy import TradeSchedule, normalize
from .tree import NodeMeasure, ScenarioTree, conditional_expectation
from .wealth import book_value, leaf_path_rows, spread_penalty, tree_wealth


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs shared by the primal and dual iterations."""

    tol: float = 1e-6
    max_iter: int = 12000
    smoothing_levels: tuple[float, ...] = (
        3e-1, 1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7,
    )


@dataclass(frozen=True)
class PriceReport:
    """Primal value, optimizing schedule, best certificate value and their gap."""

    primal_value: float | None = None
    strategy: TradeSchedule | None = None
    dual_value: float | None = None
    certificate: DualCertificate | None = None
    gap: float | None = None
    iterations: int = 0
    primal_converged: bool = True
    dual_converged: bool = True


# ---------------------------------------------------------------------------
# Primal side
# ---------------------------------------------------------------------------


class _PrimalProblem:
    """Leaf-path layout of the min-max objective and its gradient."""

    def __init__(self, tree: ScenarioTree, market: MarketSpec, H):
        self.tree = tree
        self.impact = market.impact
        self.H = as_curve(H, tree.leaves.size, "H")
        if np.any(self.H < 0.0):
            raise ValueError("payoff must be non-negative")

        self.decision = np.flatnonzero(~tree.is_leaf)
        self.n_dec = self.decision.size
        slot_of = np.full(tree.n_nodes, -1)
        slot_of[self.decision] = np.arange(self.n_dec)

        paths, self.c_path, self.w_path, self.kappa_leaf = leaf_path_rows(tree)  # (L, n_levels) rows
        self.var_idx = slot_of[paths[:, :-1]]
        self.P_path = tree.P[paths]

    def leaf_values(self, b, s, eps):
        """Per-leaf payoff-plus-cost and state; the leaf slot closes ``x_pre``, its size smoothed by ``eps``."""
        bp, sp = b[self.var_idx], s[self.var_idx]
        nu = bp - sp
        x_pre = self.impact.x0 + nu.sum(axis=1)
        ghat = np.sqrt(x_pre**2 + eps**2) if eps > 0.0 else np.abs(x_pre)
        gross = np.concatenate([bp + sp, ghat[:, None]], axis=1)
        eta, pen = spread_penalty(self.impact.zeta0, self.c_path, gross, self.w_path, self.kappa_leaf)
        pint = (self.P_path[:, :-1] * nu).sum(axis=1) - self.P_path[:, -1] * x_pre
        return self.H + pint + pen, x_pre, ghat, eta

    def objective_and_gradient(self, u, tau, eps):
        """Annealed soft maximum over leaves and its gradient on the orthant."""
        b, s = u[: self.n_dec], u[self.n_dec :]
        vals, x_pre, ghat, eta = self.leaf_values(b, s, eps)
        eta_leaf = eta[:, -1]

        shifted = (vals - vals.max()) / tau
        weights = np.exp(shifted)
        weights /= weights.sum()
        smooth = vals.max() + tau * np.log(np.sum(np.exp(shifted)))

        # Suffix sums pairing interval masses with the left spread value.
        m = self.w_path * eta[:, :-1]  # contribution of eta_{j-1} to interval j
        tail = np.cumsum(m[:, ::-1], axis=1)[:, ::-1]
        tail += (self.kappa_leaf * eta_leaf)[:, None]
        dprice = self.P_path[:, :-1] - self.P_path[:, -1][:, None]
        sign = np.divide(x_pre, ghat, out=np.zeros_like(ghat), where=ghat > 0.0)
        closing = (self.kappa_leaf * eta_leaf * self.c_path[:, -1] * sign)[:, None]
        dv_db = dprice + self.c_path[:, :-1] * tail + closing
        dv_ds = -dprice + self.c_path[:, :-1] * tail - closing

        slots = self.var_idx.ravel()
        gb = np.bincount(slots, (weights[:, None] * dv_db).ravel(), self.n_dec)
        gs = np.bincount(slots, (weights[:, None] * dv_ds).ravel(), self.n_dec)
        return smooth, np.concatenate([gb, gs])

    def cash_requirement(self, u) -> tuple[float, TradeSchedule]:
        """Exact worst-leaf cash needed by the normalized schedule built from ``u``."""
        schedule = self.schedule(u)
        tw = tree_wealth(self.tree, schedule, replace(self.impact, xi0=0.0))
        return float(np.max(self.H - tw.xi_T)), schedule

    def schedule(self, u) -> TradeSchedule:
        """Node-indexed schedule with the forced closing trade at each leaf."""
        b, s = u[: self.n_dec], u[self.n_dec :]
        buys = np.zeros(self.tree.n_nodes)
        sells = np.zeros(self.tree.n_nodes)
        buys[self.decision] = b
        sells[self.decision] = s
        pos = self.tree.accumulate(buys - sells, initial=self.impact.x0)
        leaves = self.tree.leaves
        close = pos[leaves]  # position carried into the terminal trade
        buys[leaves] = np.maximum(-close, 0.0)
        sells[leaves] = np.maximum(close, 0.0)
        return normalize(TradeSchedule(buys, sells, self.impact.x0))


def primal_solve(tree: ScenarioTree, market: MarketSpec, H, options: SolverOptions | None = None) -> PriceReport:
    """Least initial cash whose forced-liquidation schedule dominates the payoff.

    Deterministic annealed-softmax projected gradient; the returned value is
    the exact worst-leaf cash requirement of the returned schedule, so it is
    always sufficient (feasible) whatever the convergence flag says.
    """
    opts = options or SolverOptions()
    prob = _PrimalProblem(tree, market, H)
    u = np.zeros(2 * prob.n_dec)

    vals0, *_ = prob.leaf_values(u[: prob.n_dec], u[prob.n_dec :], 0.0)
    scale = max(1.0, float(vals0.max() - vals0.min()), float(np.max(np.abs(prob.H), initial=0.0)))
    eps_base = 1.0 + abs(market.impact.x0)

    iterations = 0
    converged = False
    for k, level in enumerate(opts.smoothing_levels):
        # unused budget of early-converging levels rolls over to the
        # small-temperature levels, which need the most steps
        remaining = max(0, opts.max_iter - iterations)
        per_level = max(50, remaining // (len(opts.smoothing_levels) - k))
        tau = max(scale * level, 1e-9 * scale)
        eps = eps_base * level
        f, grad = prob.objective_and_gradient(u, tau, eps)
        step = 1.0 / (1.0 + float(np.max(np.abs(grad))))
        level_converged = False
        for _ in range(per_level):
            iterations += 1
            improved = False
            for _ in range(40):
                u_new = np.maximum(u - step * grad, 0.0)
                f_new, grad_new = prob.objective_and_gradient(u_new, tau, eps)
                move = float(np.dot(grad, u - u_new))
                if f_new <= f - 1e-4 * move and f_new < f:
                    improved = True
                    break
                step *= 0.5
            if not improved:
                level_converged = True
                break
            if f - f_new < opts.tol * scale * 1e-3:
                u, f, grad = u_new, f_new, grad_new
                level_converged = True
                break
            u, f, grad = u_new, f_new, grad_new
            step *= 2.0
        converged = level_converged

    # The annealing leaves dust-sized trades behind; trimming them is free to
    # try because the exact requirement of each candidate is re-evaluated.
    value, schedule = prob.cash_requirement(u)
    u_scale = max(1.0, float(np.max(u, initial=0.0)))
    for threshold in (1e-8, 1e-5, 1e-3):
        trimmed = np.where(u > threshold * u_scale, u, 0.0)
        trimmed_value, trimmed_schedule = prob.cash_requirement(trimmed)
        if trimmed_value < value:
            value, schedule = trimmed_value, trimmed_schedule
    return PriceReport(
        primal_value=value,
        strategy=schedule,
        iterations=iterations,
        primal_converged=converged,
    )


def brute_force_oracle(tree: ScenarioTree, market: MarketSpec, H, trade_grid) -> float:
    """Exhaustive minimisation of the worst-leaf cash requirement on a trade lattice.

    Every non-terminal node picks its net trade from ``trade_grid``; leaves
    liquidate.  The result is an upper bound on the true optimum and, by
    convexity, within one lattice step of it.  Only tiny instances are
    accepted (at most 3 periods, 3 branches per node, 1000 lattice points).
    """
    grid = np.asarray(trade_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("trade grid must be a non-empty 1-d array")
    if tree.n_levels - 1 > 3:
        raise InstanceTooLarge("oracle accepts at most 3 periods")
    if max(len(k) for k in tree.children) > 3:
        raise InstanceTooLarge("oracle accepts at most 3 branches per node")
    if grid.size > 1000:
        raise InstanceTooLarge("oracle accepts at most 1000 lattice points per trade")
    depth = tree.t_index[tree.leaves]
    if float(np.sum(grid.size ** depth.astype(float))) > 5e7:
        raise InstanceTooLarge("lattice enumeration would be too large")

    H = as_curve(H, tree.leaves.size, "H")
    if np.any(H < 0.0):
        raise ValueError("payoff must be non-negative")
    H_by_node = np.zeros(tree.n_nodes)
    H_by_node[tree.leaves] = H
    imp = market.impact
    c = tree.rho / tree.delta

    def visit(node: int, x_pre: float, eta_pre: float, pint: float, pen: float) -> float:
        if tree.is_leaf[node]:
            net = -x_pre
            eta = eta_pre + c[node] * abs(net)
            value = pint + tree.P[node] * net + 0.5 * (pen + tree.kappa[node] * eta**2)
            return H_by_node[node] + value
        best = np.inf
        for net in grid:
            eta = eta_pre + c[node] * abs(net)
            pint_next = pint + tree.P[node] * net
            worst = -np.inf
            for child in tree.children[node]:
                worst = max(
                    worst,
                    visit(int(child), x_pre + net, eta, pint_next, pen + tree.edge_weight[child] * eta**2),
                )
            best = min(best, worst)
        return best

    raw = visit(0, imp.x0, imp.zeta0, 0.0, 0.0)
    return float(raw - book_value(imp, float(tree.delta[0])))


# ---------------------------------------------------------------------------
# Dual side
# ---------------------------------------------------------------------------


def default_certificate(tree: ScenarioTree, market: MarketSpec) -> DualCertificate:
    """Feasible starting certificate: reference measure, projected price, flat spread."""
    q = NodeMeasure.reference(tree)
    M = conditional_expectation(tree, q, tree.P[tree.leaves])
    cert = DualCertificate(q=q, M=M, alpha=np.full(tree.n_nodes, market.impact.zeta0))
    return restore_feasibility(tree, cert, market)


class _DualProblem:
    """Differentiable parametrisation of the certificate objective."""

    def __init__(self, tree: ScenarioTree, market: MarketSpec, H):
        self.tree = tree
        self.market = market
        self.H = as_curve(H, tree.leaves.size, "H")
        self.free = tree.p_transition > 0.0
        self.free[0] = False

    def measure(self, logits: np.ndarray) -> np.ndarray:
        """Softmax of the logits over each node's free children; null branches get zero."""
        tree = self.tree
        kids = np.flatnonzero(self.free)
        par = tree.parent[kids]
        top = np.full(tree.n_nodes, -np.inf)
        np.maximum.at(top, par, logits[kids])
        w = np.zeros(tree.n_nodes)
        w[kids] = np.exp(logits[kids] - top[par])
        q = np.zeros(tree.n_nodes)
        q[0] = 1.0
        q[kids] = w[kids] / tree.child_sum(w)[par]
        return q

    def build(self, params) -> DualCertificate:
        logits, m_terminal, alpha = params
        q = NodeMeasure(self.measure(logits))
        M = conditional_expectation(self.tree, q, m_terminal)
        cert = DualCertificate(q=q, M=M, alpha=alpha.copy())
        return restore_feasibility(self.tree, cert, self.market)

    def value_and_gradients(self, params):
        """Objective of the unrepaired certificate and its parameter gradients."""
        logits, m_terminal, alpha = params
        tree = self.tree
        imp = self.market.impact
        q = self.measure(logits)
        reach = tree.reach_probabilities(q)
        dev = alpha - imp.zeta0

        leaves = tree.leaves
        leaf_val = self.H - imp.x0 * m_terminal - 0.5 * dev[leaves] ** 2 * tree.kappa[leaves]
        edge = -0.5 * dev[tree.parent] ** 2 * tree.edge_weight  # value attached to each edge
        val = tree.up_sweep(q, leaf_val, edge)
        objective = float(val[0] - 0.5 * imp.iota * imp.x0**2)

        g_alpha = node_penalty_weights(tree, reach) * -dev

        g_m = -imp.x0 * reach[leaves]

        g_logits = np.zeros(tree.n_nodes)
        idx = np.flatnonzero(self.free)
        par = tree.parent[idx]
        g_logits[idx] = reach[par] * q[idx] * (edge[idx] + val[idx] - val[par])
        return objective, (g_logits, g_m, g_alpha)


def dual_ascent(
    tree: ScenarioTree,
    market: MarketSpec,
    H,
    init_cert: DualCertificate,
    options: SolverOptions | None = None,
) -> PriceReport:
    """Monotone certificate improvement from a feasible start.

    Projected-gradient ascent on (measure logits, terminal martingale values,
    spread process); each trial step along the gradient is repaired by raising
    the spread process and accepted only if the repaired certificate improves
    the objective.  The returned certificate is exactly feasible and never
    worse than the initial one.
    """
    opts = options or SolverOptions()
    report = check_feasibility(tree, init_cert, market)
    if not report.feasible:
        raise InfeasibleInit(
            f"initial certificate violates the band by {report.worst_violation:.3e} at node {report.worst_node}"
        )
    prob = _DualProblem(tree, market, H)
    best_value = dual_objective(tree, init_cert, market, prob.H)
    best_cert = init_cert

    q0 = init_cert.q.transitions
    logits = np.where(prob.free, np.log(np.clip(q0, 1e-12, None)), 0.0)
    m_terminal = np.asarray(init_cert.M, dtype=float)[tree.leaves].copy()
    alpha = init_cert.alpha_or_default(tree, market.impact.zeta0).copy()
    params = (logits, m_terminal, alpha)

    start = prob.build(params)
    current = dual_objective(tree, start, market, prob.H)
    if current > best_value:
        best_value, best_cert = current, start

    obj_scale = 1.0 + abs(best_value) + float(np.max(prob.H, initial=0.0))
    step = 1.0
    iterations = 0
    converged = False
    while iterations < opts.max_iter:
        iterations += 1
        _, (g_logits, g_m, g_alpha) = prob.value_and_gradients(params)
        norm = max(
            float(np.max(np.abs(g_logits), initial=0.0)),
            float(np.max(np.abs(g_m), initial=0.0)),
            float(np.max(np.abs(g_alpha), initial=0.0)),
            1e-12,
        )
        # The repair is invisible to the gradient, so scan the full step and each block
        # over 18 halvings (72 trials) and keep the best improving one.  Ascent sign only:
        # a step against the gradient loses to first order and never won on a tested tree.
        blocks = ((1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        best_trial = None
        best_trial_value = current + 1e-15 * obj_scale
        for w_logits, w_m, w_alpha in blocks:
            s = step
            for _ in range(18):
                trial = (
                    params[0] + s / norm * w_logits * g_logits,
                    params[1] + s / norm * w_m * g_m,
                    params[2] + s / norm * w_alpha * g_alpha,
                )
                cert = prob.build(trial)
                value = dual_objective(tree, cert, market, prob.H)
                if value > best_trial_value:
                    best_trial, best_trial_value, best_step = (trial, cert), value, s
                s *= 0.5
        if best_trial is None:
            converged = True
            break
        trial, cert = best_trial
        # Rebase the spread process onto its repaired value so the next
        # gradient sees the true penalty.
        params = (trial[0], trial[1], np.asarray(cert.alpha, dtype=float).copy())
        current = best_trial_value
        if current > best_value:
            best_value, best_cert = current, cert
        step = min(best_step * 2.0, 1e3)

    return PriceReport(
        dual_value=best_value,
        certificate=best_cert,
        iterations=iterations,
        dual_converged=converged,
    )


def gap_report(tree: ScenarioTree, market: MarketSpec, H, options: SolverOptions | None = None) -> PriceReport:
    """Run both sides and report their values and gap (weak duality enforced)."""
    opts = options or SolverOptions()
    primal = primal_solve(tree, market, H, opts)
    dual = dual_ascent(tree, market, H, default_certificate(tree, market), opts)
    gap = float(primal.primal_value - dual.dual_value)
    scale = 1.0 + abs(primal.primal_value) + abs(dual.dual_value)
    if gap < -1e-9 * scale:
        raise WeakDualityViolated(f"weak duality violated: gap {gap:.3e}")
    return replace(
        primal,
        dual_value=dual.dual_value,
        certificate=dual.certificate,
        gap=gap,
        iterations=primal.iterations + dual.iterations,
        dual_converged=dual.dual_converged,
    )

"""Shared deterministic instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import transient_impact as ti
from transient_impact.duality import leaf_payoff
from transient_impact.wealth import book_value


def random_market(rng, max_steps=50, min_steps=1, iota=None, zeta0=None, x0=None, xi0=None):
    """Market with strictly positive resilience and strictly decreasing liquidity curve."""
    n_steps = int(rng.integers(min_steps, max_steps + 1))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, n_steps))])
    n = n_steps + 1
    r = rng.uniform(0.05, 2.0, n)
    rho = ti.MarketSpec.build(times, 1.0, r).rho()
    kappa0 = rng.uniform(2.0, 20.0)
    kappa = kappa0 * np.concatenate([[1.0], np.cumprod(rng.uniform(0.55, 0.98, n_steps))])
    delta = kappa * rho**2
    return ti.MarketSpec.build(
        times,
        delta,
        r,
        iota=rng.uniform(0.0, 1.0) if iota is None else iota,
        zeta0=rng.uniform(0.0, 0.5) if zeta0 is None else zeta0,
        x0=rng.uniform(-2.0, 2.0) if x0 is None else x0,
        xi0=rng.uniform(-5.0, 5.0) if xi0 is None else xi0,
    )


def random_schedule(rng, n_slots, x0=0.0, liquidating=True, scale=1.0):
    buys = rng.uniform(0.0, scale, n_slots) * (rng.random(n_slots) < 0.7)
    sells = rng.uniform(0.0, scale, n_slots) * (rng.random(n_slots) < 0.7)
    if liquidating:
        buys[-1] = sells[-1] = 0.0
        open_pos = x0 + np.sum(buys[:-1] - sells[:-1])
        if open_pos >= 0.0:
            sells[-1] = open_pos
        else:
            buys[-1] = -open_pos
    return ti.TradeSchedule(buys, sells, x0)


def random_paths(rng, n_points, n_scenarios=1, p0=100.0, vol=3.0, positive=False):
    steps = rng.normal(0.0, vol, (n_scenarios, n_points - 1))
    paths = p0 + np.concatenate([np.zeros((n_scenarios, 1)), np.cumsum(steps, axis=1)], axis=1)
    if positive:
        paths = np.abs(paths) + 0.5
        paths[:, 0] = p0
    return paths


def random_tree(rng, depth=2, max_branch=3, p0=100.0, vol=4.0, stochastic_liquidity=False,
                martingale=False, positive=False):
    """Random scenario tree; liquidity satisfies the decay condition on every edge."""
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.5, depth))])
    r0 = rng.uniform(0.05, 1.5)
    kappa0 = rng.uniform(4.0, 15.0)
    nodes = [dict(parent=-1, p_transition=1.0, P=p0, r=r0, kappa=kappa0)]
    level = [0]
    for _ in range(depth):
        new = []
        for par in level:
            k = int(rng.integers(2, max_branch + 1))
            probs = rng.dirichlet(np.ones(k) * 3.0)
            for j in range(k):
                price = nodes[par]["P"] + rng.normal(0.0, vol)
                if positive:
                    price = max(price, 0.5)
                kappa = nodes[par]["kappa"] * (rng.uniform(0.55, 0.95) if stochastic_liquidity else 0.8)
                r = rng.uniform(0.05, 1.5) if stochastic_liquidity else r0
                nodes.append(dict(parent=par, p_transition=float(probs[j]), P=float(price), r=r, kappa=kappa))
                new.append(len(nodes) - 1)
        level = new
    # depth/resilience per node from the kappa targets: delta = kappa * rho**2
    parent = np.array([n["parent"] for n in nodes])
    r_arr = np.array([n["r"] for n in nodes])
    rho = np.ones(len(nodes))
    dt = np.diff(times)
    t_index = np.zeros(len(nodes), dtype=int)
    for i in range(1, len(nodes)):
        t_index[i] = t_index[parent[i]] + 1
        rho[i] = rho[parent[i]] * np.exp(r_arr[parent[i]] * dt[t_index[parent[i]]])
    delta = np.array([n["kappa"] for n in nodes]) * rho**2
    tree = ti.ScenarioTree(
        times,
        parent,
        np.array([n["p_transition"] for n in nodes]),
        np.array([n["P"] for n in nodes]),
        delta,
        r_arr,
    )
    if martingale:
        P = ti.conditional_expectation(tree, tree.p_transition, tree.P[tree.leaves])
        tree = ti.ScenarioTree(times, parent, tree.p_transition, P, delta, r_arr)
    return tree


def random_nonincreasing_offset(rng, n_points, lipschitz=2.0):
    drops = rng.uniform(0.0, lipschitz, n_points - 1)
    return rng.uniform(0.0, 3.0) - np.concatenate([[0.0], np.cumsum(drops)])


def sign_change_tree(rng, depth, g, p0=100.0):
    """Tree where the offset-shifted price has child increments of both signs everywhere."""
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.5, depth))])
    nodes = [dict(parent=-1, p_transition=1.0, P=p0)]
    level = [0]
    for lvl in range(depth):
        drift = g[lvl] - g[lvl + 1]  # price move that keeps P + g flat
        new = []
        for par in level:
            k = int(rng.integers(2, 4))
            probs = rng.dirichlet(np.ones(k))
            moves = [drift - rng.uniform(0.1, 4.0), drift + rng.uniform(0.1, 4.0)]
            moves += [drift + rng.normal(0.0, 2.0) for _ in range(k - 2)]
            for j in range(k):
                price = max(nodes[par]["P"] + moves[j], 0.01)
                nodes.append(dict(parent=par, p_transition=float(probs[j]), P=float(price)))
                new.append(len(nodes) - 1)
        level = new
    return ti.ScenarioTree.from_node_dicts(times, nodes, default_delta=10.0, default_r=0.5)


def market_for_tree(rng, tree, **impact):
    """Deterministic market spec sharing the tree's grid (impact parameters only)."""
    kwargs = dict(
        iota=impact.get("iota", float(rng.uniform(0.0, 1.0))),
        zeta0=impact.get("zeta0", float(rng.uniform(0.0, 0.4))),
        x0=impact.get("x0", float(rng.uniform(-1.5, 1.5))),
        xi0=impact.get("xi0", float(rng.uniform(-5.0, 5.0))),
    )
    # Use the root-path curves; node-level values live on the tree itself.
    n = tree.n_levels
    delta0 = float(tree.delta[0])
    return ti.MarketSpec.build(tree.times, np.full(n, delta0), np.full(n, float(tree.r[0])), **kwargs)


def random_tree_schedule(rng, tree, x0=0.0, scale=1.0):
    """Adapted node-indexed schedule with forced liquidation at every leaf."""
    buys = rng.uniform(0.0, scale, tree.n_nodes) * (rng.random(tree.n_nodes) < 0.7)
    sells = rng.uniform(0.0, scale, tree.n_nodes) * (rng.random(tree.n_nodes) < 0.7)
    buys[tree.leaves] = sells[tree.leaves] = 0.0
    pos = tree.accumulate(buys - sells, initial=x0)
    close = pos[tree.leaves]
    buys[tree.leaves] = np.maximum(-close, 0.0)
    sells[tree.leaves] = np.maximum(close, 0.0)
    return ti.TradeSchedule(buys, sells, x0)


def ref_children(tree):
    """Child ids of every node, in id order, read off the parent pointers."""
    return [np.flatnonzero(tree.parent == node) for node in range(tree.n_nodes)]


def ref_leaf_paths(tree):
    """Node ids along every root-to-leaf path: one row per leaf (leaf-id order), one column per level."""
    paths = np.empty((tree.leaves.size, tree.n_levels), dtype=int)
    for row, leaf in enumerate(tree.leaves):
        node = leaf
        for k in range(tree.n_levels - 1, -1, -1):
            paths[row, k] = node
            node = tree.parent[node]
    return paths


def random_certificate(rng, tree, market):
    """Feasible certificate: random measure, projected perturbed price, random spread."""
    children = ref_children(tree)
    q = np.zeros(tree.n_nodes)
    q[0] = 1.0
    for node in np.flatnonzero(~tree.is_leaf):
        kids = children[node]
        w = rng.dirichlet(np.ones(kids.size))
        q[kids] = w
    measure = tree.measure(q)
    m_terminal = tree.P[tree.leaves] * rng.uniform(0.9, 1.1, tree.leaves.size)
    M = ti.conditional_expectation(tree, measure, m_terminal)
    alpha = market.impact.zeta0 + rng.uniform(0.0, 1.0, tree.n_nodes)
    cert = ti.DualCertificate(q=measure, M=M, alpha=alpha)
    return ti.restore_feasibility(tree, cert, market)


def exhaustive_utility_search(tree, market, utility, trade_grid):
    """Best expected utility over adapted lattice schedules with forced liquidation."""
    from itertools import product

    decision = np.flatnonzero(~tree.is_leaf)
    reach = tree.reach_probabilities()
    leaf_reach = reach[tree.leaves]
    x0 = market.impact.x0
    best = -np.inf
    for combo in product(trade_grid, repeat=decision.size):
        buys = np.zeros(tree.n_nodes)
        sells = np.zeros(tree.n_nodes)
        c = np.asarray(combo)
        buys[decision] = np.maximum(c, 0.0)
        sells[decision] = np.maximum(-c, 0.0)
        pos = tree.accumulate(buys - sells, initial=x0)
        close = pos[tree.leaves]
        buys[tree.leaves] = np.maximum(-close, 0.0)
        sells[tree.leaves] = np.maximum(close, 0.0)
        tw = ti.tree_wealth(tree, ti.TradeSchedule(buys, sells, x0), market.impact)
        if not utility.in_domain(tw.xi_T):
            continue
        best = max(best, float(np.dot(leaf_reach, utility.value(tw.xi_T))))
    return best


class OracleTooLarge(Exception):
    """The instance exceeds the size limits of :func:`brute_force_oracle`."""


def brute_force_oracle(tree, market, H, trade_grid) -> float:
    """Exhaustive minimisation of the worst-leaf cash requirement on a trade lattice.

    Every non-terminal node picks its net trade from ``trade_grid``; leaves
    liquidate, and those behind a zero-probability branch constrain nothing.
    The result is an upper bound on the true optimum and, by convexity,
    within one lattice step of it.  Only tiny instances are accepted (at
    most 3 periods, 3 branches per node, 1000 lattice points).
    """
    grid = np.asarray(trade_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("trade grid must be a non-empty 1-d array")
    if tree.n_levels - 1 > 3:
        raise OracleTooLarge("oracle accepts at most 3 periods")
    if np.bincount(tree.parent[1:]).max() > 3:
        raise OracleTooLarge("oracle accepts at most 3 branches per node")
    if grid.size > 1000:
        raise OracleTooLarge("oracle accepts at most 1000 lattice points per trade")
    depth = tree.t_index[tree.leaves]
    if float(np.sum(grid.size ** depth.astype(float))) > 5e7:
        raise OracleTooLarge("lattice enumeration would be too large")

    H = leaf_payoff(tree, H)
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
        kids = np.flatnonzero(tree.parent == node)
        for net in grid:
            eta = eta_pre + c[node] * abs(net)
            pint_next = pint + tree.P[node] * net
            worst = -np.inf
            for child in kids[tree.p_transition[kids] > 0.0]:
                worst = max(
                    worst,
                    visit(int(child), x_pre + net, eta, pint_next, pen + tree.edge_weight[child] * eta**2),
                )
            best = min(best, worst)
        return best

    raw = visit(0, imp.x0, imp.zeta0, 0.0, 0.0)
    return float(raw - book_value(imp, float(tree.delta[0])))


def super_replication_cash(tree, market, schedule, H):
    """Smallest initial cash making the schedule dominate the payoff leaf-wise."""
    from dataclasses import replace

    tw = ti.tree_wealth(tree, schedule, replace(market.impact, xi0=0.0))
    return float(np.max(np.asarray(H) - tw.xi_T))


@pytest.fixture
def rng():
    return np.random.default_rng(20240214)

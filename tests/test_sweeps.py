"""Differential tests: the level-sweep kernels against the per-node loops they replaced.

The reference functions below are the plain loop versions, kept as oracles.
They read only ``tree.parent`` and the per-node data, and derive children and
levels themselves, so they do not share the sweep primitives under test.  The
tree wealth oracles are the node-wise ``accumulate`` versions that the
leaf-path spread/penalty kernel replaced.  The dual-search oracles are the
scan over both step signs and the four-pass repair that the ascent-sign scan
and the one-bump repair replaced; certificates and values must agree exactly.

Tolerances are fixed by the arithmetic: down-sweeps (sums and products along
paths) keep the operation order of the loops and must agree exactly; where a
sum over children is reordered, entries must agree to ``rtol=1e-12``, with an
absolute floor of ``1e-12`` times the largest reference entry for entries that
come out of a cancelling sum.
"""

from dataclasses import replace

import numpy as np
import pytest

import transient_impact as ti
from transient_impact.duality import node_penalty_weights
from transient_impact.errors import InfeasibleCertificate
from transient_impact.solver import _DualProblem, _PrimalProblem
from transient_impact.wealth import book_value

from conftest import market_for_tree, random_tree_schedule

RTOL = 1e-12


def assert_close(actual, expected):
    expected = np.asarray(expected, dtype=float)
    floor = RTOL * float(np.max(np.abs(expected), initial=0.0))
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=floor)


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def sweep_tree(rng, depth_first=False):
    """Tree with 1-5 children per node and some zero-probability branches.

    Ids are given level by level, or in depth-first order, where the levels
    interleave.
    """
    depth = int(rng.integers(1, 5))

    def grow(level):
        if level == depth:
            return []
        return [grow(level + 1) for _ in range(int(rng.integers(1, 6)))]

    root = grow(0)
    parent = _depth_first_parents(root) if depth_first else _level_order_parents(root)
    parent = np.asarray(parent)
    n = parent.size

    p = np.ones(n)
    for node in range(n):
        kids = np.flatnonzero(parent == node)
        if kids.size:
            w = rng.uniform(0.1, 1.0, kids.size) * (rng.random(kids.size) > 0.25)
            if not w.any():
                w[rng.integers(kids.size)] = 1.0
            p[kids] = w / w.sum()
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.5, depth))])
    return ti.ScenarioTree(
        times,
        parent,
        p,
        rng.uniform(60.0, 140.0, n),
        rng.uniform(5.0, 20.0, n),
        rng.uniform(0.0, 1.5, n),
    )


def _level_order_parents(root):
    parent, queue = [-1], [(root, 0)]
    while queue:
        node, node_id = queue.pop(0)
        for kid in node:
            queue.append((kid, len(parent)))
            parent.append(node_id)
    return parent


def _depth_first_parents(root):
    parent = []

    def visit(node, par):
        node_id = len(parent)
        parent.append(par)
        for kid in node:
            visit(kid, node_id)

    visit(root, -1)
    return parent


def trees():
    rng = np.random.default_rng(20240521)
    out = [sweep_tree(rng) for _ in range(12)]
    out += [sweep_tree(rng, depth_first=True) for _ in range(12)]
    return out


TREES = trees()


def test_depth_first_trees_interleave_levels():
    assert any(np.any(np.diff(t.t_index) < 0) for t in TREES)
    assert any(np.any(t.p_transition == 0.0) for t in TREES)
    assert {int(np.bincount(t.parent[1:]).max()) for t in TREES} >= {4, 5}


def random_measure(rng, tree):
    """Transitions that keep every zero-probability branch at zero."""
    children = ref_children(tree)
    q = np.zeros(tree.n_nodes)
    q[0] = 1.0
    for node in np.flatnonzero(~tree.is_leaf):
        kids = children[node]
        kids = kids[tree.p_transition[kids] > 0.0]
        q[kids] = rng.dirichlet(np.ones(kids.size))
    return ti.NodeMeasure.for_tree(tree, q)


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------


def ref_children(tree):
    return [np.flatnonzero(tree.parent == node) for node in range(tree.n_nodes)]


def ref_t_index(tree):
    t_index = np.zeros(tree.n_nodes, dtype=int)
    for node in range(1, tree.n_nodes):
        t_index[node] = t_index[tree.parent[node]] + 1
    return t_index


def ref_levels(tree):
    t_index = ref_t_index(tree)
    return [np.flatnonzero(t_index == k) for k in range(t_index.max() + 1)]


def ref_rho(tree):
    t_index = ref_t_index(tree)
    dt = np.diff(tree.times)
    rho = np.ones(tree.n_nodes)
    for node in range(1, tree.n_nodes):
        par = tree.parent[node]
        rho[node] = rho[par] * np.exp(tree.r[par] * dt[t_index[par]])
    return rho


def ref_accumulate(tree, values, initial):
    out = np.empty(tree.n_nodes)
    out[0] = initial + values[0]
    out[1:] = values[1:]
    for node in range(1, tree.n_nodes):
        out[node] += out[tree.parent[node]]
    return out


def ref_reach(tree, q):
    out = q.copy()
    for node in range(1, tree.n_nodes):
        out[node] *= out[tree.parent[node]]
    return out


def ref_leaf_paths(tree):
    paths = np.empty((tree.leaves.size, tree.n_levels), dtype=int)
    for row, leaf in enumerate(tree.leaves):
        node = leaf
        for k in range(tree.n_levels - 1, -1, -1):
            paths[row, k] = node
            node = tree.parent[node]
    return paths


def ref_conditional_expectation(tree, q, leaf_values):
    children = ref_children(tree)
    out = np.zeros(tree.n_nodes)
    out[tree.leaves] = leaf_values
    for level in reversed(ref_levels(tree)[:-1]):
        for node in level:
            kids = children[node]
            out[node] = float(np.dot(q[kids], out[kids]))
    return out


def ref_is_martingale(tree, q, M):
    children = ref_children(tree)
    defect = 0.0
    for node in np.flatnonzero(~tree.is_leaf):
        kids = children[node]
        defect = max(defect, abs(float(np.dot(q[kids], M[kids])) - M[node]))
    scale = 1.0 + float(np.max(np.abs(M)))
    return defect <= ti.tree.MARTINGALE_RTOL * scale, defect


def ref_constraint_bound(tree, q, alpha):
    children = ref_children(tree)
    F = np.zeros(tree.n_nodes)
    leaves = tree.leaves
    F[leaves] = tree.kappa[leaves] * alpha[leaves]
    for level in reversed(ref_levels(tree)[:-1]):
        for node in level:
            kids = children[node]
            F[node] = float(np.dot(q[kids], tree.edge_weight[kids] * alpha[node] + F[kids]))
    return tree.rho / tree.delta * F


def ref_node_penalty_weights(tree, q):
    reach = ref_reach(tree, q)
    w = np.zeros(tree.n_nodes)
    np.add.at(w, tree.parent[1:], reach[1:] * tree.edge_weight[1:])
    w[tree.leaves] += reach[tree.leaves] * tree.kappa[tree.leaves]
    return w


def ref_measure(tree, free, logits):
    children = ref_children(tree)
    q = np.zeros(tree.n_nodes)
    q[0] = 1.0
    for node in np.flatnonzero(~tree.is_leaf):
        kids = children[node]
        kids = kids[free[kids]]
        z = logits[kids] - logits[kids].max()
        w = np.exp(z)
        q[kids] = w / w.sum()
    return q


def ref_value_and_gradients(tree, market, H, free, params):
    logits, m_terminal, alpha = params
    children = ref_children(tree)
    imp = market.impact
    q = ref_measure(tree, free, logits)
    reach = ref_reach(tree, q)
    dev = alpha - imp.zeta0

    val = np.zeros(tree.n_nodes)
    leaves = tree.leaves
    val[leaves] = H - imp.x0 * m_terminal - 0.5 * dev[leaves] ** 2 * tree.kappa[leaves]
    edge = -0.5 * dev[tree.parent] ** 2 * tree.edge_weight
    for level in reversed(ref_levels(tree)[:-1]):
        for node in level:
            kids = children[node]
            val[node] = float(np.dot(q[kids], edge[kids] + val[kids]))
    objective = float(val[0] - 0.5 * imp.iota * imp.x0**2)

    g_alpha = np.zeros(tree.n_nodes)
    np.add.at(g_alpha, tree.parent[1:], reach[1:] * tree.edge_weight[1:])
    g_alpha[leaves] += reach[leaves] * tree.kappa[leaves]
    g_alpha *= -dev
    g_m = -imp.x0 * reach[leaves]
    g_logits = np.zeros(tree.n_nodes)
    idx = np.flatnonzero(free)
    par = tree.parent[idx]
    g_logits[idx] = reach[par] * q[idx] * (edge[idx] + val[idx] - val[par])
    return objective, (g_logits, g_m, g_alpha)


def ref_tree_wealth(tree, schedule, impact):
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
    return ti.TreeWealth(
        eta=eta,
        position=position,
        p_integral=p_run[leaves],
        eta_penalty=eta_penalty,
        lambda_T=lam,
        xi_T=v0 - lam,
        v0=v0,
    )


def ref_tree_terminal_cash_direct(tree, schedule, impact):
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


def ref_shadow_band_feasibility(tree, q, lam, pin):
    children = ref_children(tree)
    slack = 1e-12 * (1.0 + float(np.max(np.abs(tree.P)) + np.max(lam)))
    lo = tree.P - lam
    hi = tree.P + lam
    for node, value in pin.items():
        lo[node] = max(lo[node], value - slack)
        hi[node] = min(hi[node], value + slack)
    for level in reversed(ref_levels(tree)):
        for node in level:
            kids = children[node]
            if kids.size:
                lo[node] = max(lo[node], float(np.dot(q[kids], lo[kids])))
                hi[node] = min(hi[node], float(np.dot(q[kids], hi[kids])))
            if lo[node] > hi[node] + slack:
                return False, None, int(node)

    M = np.empty(tree.n_nodes)
    M[0] = 0.5 * (lo[0] + hi[0])
    for node in range(tree.n_nodes):
        kids = children[node]
        if not kids.size:
            continue
        exp_lo = float(np.dot(q[kids], lo[kids]))
        exp_hi = float(np.dot(q[kids], hi[kids]))
        theta = 0.0 if exp_hi <= exp_lo else (M[node] - exp_lo) / (exp_hi - exp_lo)
        theta = min(max(theta, 0.0), 1.0)
        M[kids] = lo[kids] + theta * (hi[kids] - lo[kids])
    return True, M, None


def ref_restore_feasibility(tree, cert, market):
    """Up to four bumps of the spread process, each re-checked."""
    alpha = cert.alpha_or_default(tree, market.impact.zeta0)
    cert = replace(cert, alpha=alpha)
    for _ in range(4):
        report = ti.check_feasibility(tree, cert, market)
        if report.feasible:
            return cert
        gap = np.abs(tree.P - cert.M) - report.bound
        bump = float(np.max(gap * tree.rho))
        cert = replace(cert, alpha=cert.alpha + bump * (1.0 + 1e-12) + 1e-15)
    raise InfeasibleCertificate("could not restore feasibility")


def ref_default_certificate(tree, market):
    q = ti.NodeMeasure.reference(tree)
    M = ti.conditional_expectation(tree, q, tree.P[tree.leaves])
    cert = ti.DualCertificate(q=q, M=M, alpha=np.full(tree.n_nodes, market.impact.zeta0))
    return ref_restore_feasibility(tree, cert, market)


def ref_dual_ascent(tree, market, H, init_cert, options):
    """The pattern scan over both signs, with the starting certificate built twice."""
    prob = _DualProblem(tree, market, H)

    def build(params):
        logits, m_terminal, alpha = params
        q = ti.NodeMeasure(prob.measure(logits))
        M = ti.conditional_expectation(tree, q, m_terminal)
        return ref_restore_feasibility(tree, ti.DualCertificate(q=q, M=M, alpha=alpha.copy()), market)

    best_value = ti.dual_objective(tree, init_cert, market, prob.H)
    best_cert = init_cert
    logits = np.where(prob.free, np.log(np.clip(init_cert.q.transitions, 1e-12, None)), 0.0)
    m_terminal = np.asarray(init_cert.M, dtype=float)[tree.leaves].copy()
    alpha = init_cert.alpha_or_default(tree, market.impact.zeta0).copy()
    params = (logits, m_terminal, alpha)
    current = ti.dual_objective(tree, build(params), market, prob.H)
    if current > best_value:
        best_value, best_cert = current, build(params)

    obj_scale = 1.0 + abs(best_value) + float(np.max(prob.H, initial=0.0))
    step = 1.0
    iterations = 0
    converged = False
    while iterations < options.max_iter:
        iterations += 1
        _, grads = prob.value_and_gradients(params)
        norm = max(max(float(np.max(np.abs(g), initial=0.0)) for g in grads), 1e-12)
        blocks = ((1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        best_trial = None
        best_trial_value = current + 1e-15 * obj_scale
        for weights in blocks:
            for sign in (1.0, -1.0):
                s = sign * step
                for _ in range(18):
                    trial = tuple(p + s / norm * w * g for p, w, g in zip(params, weights, grads))
                    cert = build(trial)
                    value = ti.dual_objective(tree, cert, market, prob.H)
                    if value > best_trial_value:
                        best_trial, best_trial_value, best_step = (trial, cert), value, abs(s)
                    s *= 0.5
        if best_trial is None:
            converged = True
            break
        trial, cert = best_trial
        params = (trial[0], trial[1], np.asarray(cert.alpha, dtype=float).copy())
        current = best_trial_value
        if current > best_value:
            best_value, best_cert = current, cert
        step = min(best_step * 2.0, 1e3)
    return best_value, best_cert, iterations, converged


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tree", TREES)
def test_constructor_layout_and_discount(tree):
    np.testing.assert_array_equal(tree.t_index, ref_t_index(tree))
    np.testing.assert_array_equal(tree.rho, ref_rho(tree))
    for got, want in zip(tree.children, ref_children(tree)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(tree.levels, ref_levels(tree)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("tree", TREES)
def test_down_sweeps_exact(tree):
    rng = np.random.default_rng(tree.n_nodes)
    values = rng.normal(0.0, 3.0, tree.n_nodes)
    np.testing.assert_array_equal(tree.accumulate(values, initial=1.5), ref_accumulate(tree, values, 1.5))
    np.testing.assert_array_equal(tree.reach_probabilities(), ref_reach(tree, tree.p_transition))
    q = random_measure(rng, tree)
    np.testing.assert_array_equal(tree.reach_probabilities(q), ref_reach(tree, q.transitions))
    np.testing.assert_array_equal(tree.leaf_paths(), ref_leaf_paths(tree))
    np.testing.assert_array_equal(tree.path_nodes(tree.leaves[-1]), ref_leaf_paths(tree)[-1])


@pytest.mark.parametrize("tree", TREES)
def test_conditional_expectation_and_martingale_check(tree):
    rng = np.random.default_rng(tree.n_nodes + 1)
    q = random_measure(rng, tree)
    leaf_values = rng.uniform(50.0, 150.0, tree.leaves.size)
    M = ti.conditional_expectation(tree, q, leaf_values)
    assert_close(M, ref_conditional_expectation(tree, q.transitions, leaf_values))
    assert ti.is_martingale(tree, q, M)[0] and ref_is_martingale(tree, q.transitions, M)[0]

    drifting = M + rng.normal(0.0, 1.0, tree.n_nodes)
    ok, defect = ti.is_martingale(tree, q, drifting)
    ref_ok, ref_defect = ref_is_martingale(tree, q.transitions, drifting)
    assert ok == ref_ok
    assert_close(defect, ref_defect)


@pytest.mark.parametrize("tree", TREES)
def test_constraint_bound_and_penalty_weights(tree):
    rng = np.random.default_rng(tree.n_nodes + 2)
    market = market_for_tree(rng, tree)
    q = random_measure(rng, tree)
    alpha = market.impact.zeta0 + rng.uniform(0.0, 1.0, tree.n_nodes)
    cert = ti.DualCertificate(q=q, M=tree.P, alpha=alpha)
    assert_close(ti.constraint_bound(tree, cert, market), ref_constraint_bound(tree, q.transitions, alpha))
    assert_close(node_penalty_weights(tree, tree.reach_probabilities(q)), ref_node_penalty_weights(tree, q.transitions))


@pytest.mark.parametrize("tree", TREES)
def test_dual_measure_and_gradients(tree):
    rng = np.random.default_rng(tree.n_nodes + 3)
    market = market_for_tree(rng, tree)
    H = np.maximum(tree.P[tree.leaves] - 100.0, 0.0)
    prob = _DualProblem(tree, market, H)
    logits = rng.normal(0.0, 2.0, tree.n_nodes)
    params = (logits, rng.uniform(60.0, 140.0, tree.leaves.size), rng.uniform(0.0, 1.0, tree.n_nodes))

    assert_close(prob.measure(logits), ref_measure(tree, prob.free, logits))
    value, grads = prob.value_and_gradients(params)
    ref_value, ref_grads = ref_value_and_gradients(tree, market, H, prob.free, params)
    assert_close(value, ref_value)
    for got, want in zip(grads, ref_grads):
        assert_close(got, want)


def test_shadow_band_feasibility_with_and_without_pins():
    rng = np.random.default_rng(7)
    outcomes = set()
    for tree in TREES:
        q = random_measure(rng, tree)
        for _ in range(4):
            lam = rng.uniform(0.0, 25.0, tree.n_nodes)
            pin = {}
            if rng.random() < 0.5:
                for node in rng.choice(tree.n_nodes, size=min(3, tree.n_nodes), replace=False):
                    pin[int(node)] = float(tree.P[node] + rng.choice([-1.0, 1.0]) * lam[node])
            band = ti.shadow_band_feasibility(tree, q, lam, pin=pin)
            feasible, M, empty_node = ref_shadow_band_feasibility(tree, q.transitions, lam, pin)
            assert band.feasible == feasible
            assert band.empty_node == empty_node
            if feasible:
                assert_close(band.M, M)
            outcomes.add((feasible, bool(pin)))
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


@pytest.mark.parametrize("tree", TREES)
def test_tree_wealth_kernels(tree):
    rng = np.random.default_rng(tree.n_nodes + 4)
    market = market_for_tree(rng, tree)
    x0 = market.impact.x0
    open_position = ti.TradeSchedule(
        rng.uniform(0.0, 1.0, tree.n_nodes), rng.uniform(0.0, 1.0, tree.n_nodes), x0
    )
    for schedule in (random_tree_schedule(rng, tree, x0=x0), open_position):
        got = ti.tree_wealth(tree, schedule, market.impact)
        want = ref_tree_wealth(tree, schedule, market.impact)
        np.testing.assert_array_equal(got.eta, want.eta)
        np.testing.assert_array_equal(got.position, want.position)
        assert got.v0 == want.v0
        for name in ("p_integral", "eta_penalty", "lambda_T", "xi_T"):
            assert_close(getattr(got, name), getattr(want, name))
        assert_close(
            ti.tree_terminal_cash_direct(tree, schedule, market.impact),
            ref_tree_terminal_cash_direct(tree, schedule, market.impact),
        )


@pytest.mark.parametrize("tree", TREES)
def test_primal_leaf_values_match_tree_wealth(tree):
    rng = np.random.default_rng(tree.n_nodes + 5)
    market = market_for_tree(rng, tree)
    H = np.maximum(tree.P[tree.leaves] - 100.0, 0.0)
    prob = _PrimalProblem(tree, market, H)
    # one side per node, so the closing-trade schedule needs no netting
    size = rng.uniform(0.0, 1.0, prob.n_dec) * (rng.random(prob.n_dec) < 0.8)
    buy = rng.random(prob.n_dec) < 0.5
    u = np.concatenate([np.where(buy, size, 0.0), np.where(buy, 0.0, size)])
    vals = prob.leaf_values(u[: prob.n_dec], u[prob.n_dec :], 0.0)[0]
    tw = ti.tree_wealth(tree, prob.schedule(u), market.impact)
    assert_close(vals, H + tw.lambda_T)


def assert_same_certificate(got, want):
    np.testing.assert_array_equal(got.q.transitions, want.q.transitions)
    np.testing.assert_array_equal(got.M, want.M)
    np.testing.assert_array_equal(got.alpha, want.alpha)


@pytest.mark.parametrize("tree", TREES)
def test_one_bump_repair_matches_four_pass_loop(tree):
    rng = np.random.default_rng(tree.n_nodes + 6)
    market = market_for_tree(rng, tree)
    q = random_measure(rng, tree)
    repaired = 0
    for spread in (None, market.impact.zeta0 + rng.uniform(0.0, 0.5, tree.n_nodes)):
        for push in (0.0, 0.5, 5.0, 50.0):
            M = tree.P + push * rng.normal(0.0, 1.0, tree.n_nodes)
            cert = ti.DualCertificate(q=q, M=M, alpha=spread)
            got = ti.restore_feasibility(tree, cert, market)
            want = ref_restore_feasibility(tree, cert, market)
            assert_same_certificate(got, want)
            repaired += not np.array_equal(got.alpha, cert.alpha_or_default(tree, market.impact.zeta0))
    assert repaired >= 4

    broken = ti.DualCertificate(q=q, M=np.where(np.arange(tree.n_nodes) == 0, np.nan, tree.P))
    for restore in (ti.restore_feasibility, ref_restore_feasibility):
        with pytest.raises(InfeasibleCertificate):
            restore(tree, broken, market)


def dual_instances():
    """The binary reference instance and nine seeded trees, all but one run to convergence.

    Depth is made constant on each tree, so the liquidity curve decays along
    every edge (positive resilience), as the model requires.
    """
    binary = ti.ScenarioTree([0.0, 1.0], [-1, 0, 0], [1.0, 0.5, 0.5], [100.0, 110.0, 90.0], np.full(3, 10.0), np.zeros(3))
    binary_market = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0)
    out = [pytest.param(binary, binary_market, np.array([10.0, 0.0]), ti.SolverOptions(), id="binary")]
    for k in (0, 3, 5, 6, 9, 12, 15, 18, 21):
        tree = TREES[k]
        tree = ti.ScenarioTree(tree.times, tree.parent, tree.p_transition, tree.P,
                               np.full(tree.n_nodes, tree.delta[0]), tree.r)
        rng = np.random.default_rng(tree.n_nodes + 7)
        options = ti.SolverOptions(max_iter=20) if k == 5 else ti.SolverOptions()
        H = np.maximum(tree.P[tree.leaves] - 100.0, 0.0)
        out.append(pytest.param(tree, market_for_tree(rng, tree), H, options, id=f"tree{k}"))
    return out


@pytest.mark.parametrize("tree, market, H, options", dual_instances())
def test_ascent_sign_scan_matches_two_sign_scan(tree, market, H, options):
    init = ti.default_certificate(tree, market)
    ref_init = ref_default_certificate(tree, market)
    assert_same_certificate(init, ref_init)

    got = ti.dual_ascent(tree, market, H, init, options)
    value, cert, iterations, converged = ref_dual_ascent(tree, market, H, ref_init, options)
    assert got.dual_value == value
    assert got.iterations == iterations
    assert got.dual_converged == converged == (options.max_iter > 20)
    assert_same_certificate(got.certificate, cert)

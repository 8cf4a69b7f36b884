"""Differential tests: the level-sweep kernels against the per-node loops they replaced.

The reference functions below are the plain loop versions, kept as oracles.
They read only ``tree.parent`` and the per-node data, and derive children and
levels themselves, so they do not share the sweep primitives under test.  The
tree wealth oracles run one ``accumulate`` per quantity, where the node-state
kernel runs one down-sweep; the primal's leaf values are checked against
them too.  The repair oracle raises each node's spread by the largest
discounted violation found walking up its parent pointers; certificates must
agree exactly.  The four-pass uniform bump that repair replaced stays as the
old policy's oracle: no default certificate may be worth less than its.
``dual_ascent`` must never return less than its start or the default
certificate, and every certificate ``gap_report`` reports, at any Newton
budget, must pass ``weak_duality_check``.
The primal's tree-sparse Newton direction is checked at every step against
the perturbed KKT system assembled densely from per-leaf loops, its
node-state factor against the leaf-path factorisation it replaced (rebuilt
here from ``ref_leaf_paths``), and its stationarity fold and gradient scale
against the loop-built Jacobian and the scale's definition.  The fold
over a cached child layout must reproduce the ``argsort`` + ``reduceat`` fold
exactly where a node has at most eight children (beyond that ``reduceat``
sums pairwise), under ``np.maximum`` as under ``np.add``, and the closed-form
1x1 and 2x2 pivots the generic Cholesky loops.  The primal's price range, a
fold under ``np.maximum``, must equal the scatter-max over the leaf-path
table exactly, and the tilt its per-node loop: the same measure, martingale,
gap and tail bit for bit, or the same ``NoSignChange`` message.

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
from transient_impact.errors import InfeasibleCertificate, NoSignChange
from transient_impact.market import EPS_MONO
from transient_impact.solver import _PrimalProblem
from transient_impact.wealth import book_value

from conftest import market_for_tree, random_tree, random_tree_schedule, ref_children, ref_leaf_paths

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
    return tree.measure(q)


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------


def ref_t_index(tree):
    t_index = np.zeros(tree.n_nodes, dtype=int)
    for node in range(1, tree.n_nodes):
        t_index[node] = t_index[tree.parent[node]] + 1
    return t_index


def ref_levels(tree):
    t_index = ref_t_index(tree)
    return [np.flatnonzero(t_index == k) for k in range(t_index.max() + 1)]


def ref_fold_up(tree, leaf_rows, step, combine=np.add):
    """The fold that the cached child layout replaced: group siblings, then one ``reduceat`` per level."""
    rows = np.asarray(leaf_rows)
    levels = ref_levels(tree)
    for upper, lower in zip(levels[-2::-1], levels[:0:-1]):
        par = tree.parent[lower]
        if np.any(par[1:] < par[:-1]):  # siblings not adjacent: group them first
            order = np.argsort(par, kind="stable")
            par, rows = par[order], rows[order]
        starts = np.flatnonzero(np.r_[True, par[1:] != par[:-1]])
        rows = step(combine.reduceat(rows, starts, axis=0), upper)
    return rows[0]


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
    """Per node, the spread raised by the largest discounted violation on its path from the root."""
    bound = ti.check_feasibility(tree, cert).bound
    violation = np.maximum(np.abs(tree.P - cert.M) - bound, 0.0) * tree.rho
    alpha = cert.alpha.copy()
    for node in range(tree.n_nodes):
        worst, walk = violation[node], tree.parent[node]
        while walk >= 0:
            worst = np.maximum(worst, violation[walk])  # NaN-propagating, unlike max()
            walk = tree.parent[walk]
        alpha[node] += worst
    cert = replace(cert, alpha=alpha)
    if not ti.check_feasibility(tree, cert).feasible:
        raise InfeasibleCertificate("could not restore feasibility")
    return cert


def four_pass_restore(tree, cert, market):
    """The old policy: up to four uniform bumps of the spread process, each re-checked."""
    for _ in range(4):
        report = ti.check_feasibility(tree, cert)
        if report.feasible:
            return cert
        gap = np.abs(tree.P - cert.M) - report.bound
        bump = float(np.max(gap * tree.rho))
        cert = replace(cert, alpha=cert.alpha + bump * (1.0 + 1e-12) + 1e-15)
    raise InfeasibleCertificate("could not restore feasibility")


def ref_default_certificate(tree, market, restore=ref_restore_feasibility):
    q = tree.p_transition
    M = ti.conditional_expectation(tree, q, tree.P[tree.leaves])
    cert = ti.DualCertificate(q=q, M=M, alpha=np.full(tree.n_nodes, market.impact.zeta0))
    return restore(tree, cert, market)


def ref_tilt_to_martingale(tree, g, eps):
    """The per-node loop that one sort of the edges replaced: each node's extreme admissible children
    by ``argmin``/``argmax`` over its children in id order."""
    g = ti.tree.as_curve(g, tree.n_levels, "g")
    if np.any(np.diff(g) > 0.0):
        raise ValueError("offset function must be non-increasing")
    children = ref_children(tree)
    q = np.zeros(tree.n_nodes)
    q[0] = 1.0
    shifted = tree.P + g[tree.t_index]
    for node in np.flatnonzero(~tree.is_leaf):
        kids = children[node]
        kids = kids[tree.p_transition[kids] > 0.0]
        if kids.size == 0:
            raise NoSignChange(f"node {node} has no admissible branches")
        inc = shifted[kids] - shifted[node]
        lo = int(kids[np.argmin(inc)])
        hi = int(kids[np.argmax(inc)])
        d_lo = shifted[lo] - shifted[node]
        d_hi = shifted[hi] - shifted[node]
        if d_lo > 0.0 or d_hi < 0.0:
            raise NoSignChange(
                f"increments at node {node} do not change sign "
                f"(range [{d_lo:.6g}, {d_hi:.6g}])"
            )
        if d_hi > d_lo:
            w_lo = d_hi / (d_hi - d_lo)
            q[lo] += w_lo
            q[hi] += 1.0 - w_lo
        else:  # all admissible increments vanish
            q[lo] += 1.0
    measure = tree.measure(q)
    M = ti.conditional_expectation(tree, measure, shifted[tree.leaves])
    gap = float(np.max(np.abs(shifted - M)))
    tail = ti.tree.q_tail_probability(tree, measure, eps)
    return ti.TiltResult(measure=measure, martingale=M, max_abs_gap=gap, tail_probability=tail)


def ref_price_range(tree):
    """Each decision node's largest price move to a leaf below it, level order, over the leaf-path table."""
    paths = ref_leaf_paths(tree)
    price_range = np.zeros(tree.n_nodes)
    np.maximum.at(price_range, paths, np.abs(tree.P[paths] - tree.P[tree.leaves, None]))
    return price_range[np.concatenate(ref_levels(tree)[:-1])]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tree", TREES)
def test_constructor_layout_and_discount(tree):
    np.testing.assert_array_equal(tree.t_index, ref_t_index(tree))
    np.testing.assert_array_equal(tree.rho, ref_rho(tree))
    for got, want in zip(tree.levels, ref_levels(tree)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("tree", TREES)
def test_down_sweeps_exact(tree):
    rng = np.random.default_rng(tree.n_nodes)
    values = rng.normal(0.0, 3.0, tree.n_nodes)
    np.testing.assert_array_equal(tree.accumulate(values, initial=1.5), ref_accumulate(tree, values, 1.5))
    np.testing.assert_array_equal(tree.reach_probabilities(), ref_reach(tree, tree.p_transition))
    q = random_measure(rng, tree)
    np.testing.assert_array_equal(tree.reach_probabilities(q), ref_reach(tree, q))


def fold_trees():
    """The sweep trees, conftest random trees with 2-5 children per node, and one with scattered siblings."""
    from conftest import random_tree

    out = [pytest.param(tree, id=f"sweep{k}") for k, tree in enumerate(TREES)]
    for seed in range(5, 11):
        out.append(pytest.param(random_tree(np.random.default_rng(seed), depth=3, max_branch=5), id=f"random{seed}"))
    # renumber each level of a level-ordered tree at random: siblings are no longer adjacent
    rng = np.random.default_rng(11)
    tree = random_tree(rng, depth=3, max_branch=5)
    new_id = np.concatenate([rng.permutation(level) for level in tree.levels])
    perm = np.argsort(new_id)  # old id -> new id
    parent = np.r_[-1, perm[tree.parent[new_id[1:]]]]
    scattered = ti.ScenarioTree(tree.times, parent, tree.p_transition[new_id], tree.P[new_id],
                                tree.delta[new_id], tree.r[new_id])
    assert any(np.any(np.diff(scattered.parent[level]) < 0) for level in scattered.levels)
    out.append(pytest.param(scattered, id="scattered"))
    return out


# row shapes per combining ufunc; the sums keep the ids they had before np.maximum was a case
FOLD_CASES = [pytest.param(shape, combine, id=f"{prefix}shape{k}")
              for prefix, combine in (("", np.add), ("maximum-", np.maximum))
              for k, shape in enumerate([(), (3,), (4, 4)])]


@pytest.mark.parametrize("tree", fold_trees())
@pytest.mark.parametrize("shape, combine", FOLD_CASES)
def test_fold_matches_reduceat_loop(tree, shape, combine):
    # Exact: the fold keeps reduceat's order, the first child combined with the running combination of the others.
    rng = np.random.default_rng(tree.n_nodes)
    leaf_rows = rng.normal(0.0, 1.0, (tree.leaves.size,) + shape) * 10.0 ** rng.uniform(-4, 4, (tree.leaves.size,) + shape)
    weight = rng.uniform(0.5, 2.0, tree.n_nodes)

    def stepper(seen):
        def step(sums, nodes):
            seen.append(sums.copy())
            return sums * weight[nodes].reshape((-1,) + (1,) * len(shape)) + sums[::-1]
        return step

    got, want = [], []
    np.testing.assert_array_equal(tree.fold_up(leaf_rows, stepper(got), combine),
                                  ref_fold_up(tree, leaf_rows, stepper(want), combine))
    assert len(got) == len(want) == tree.n_levels - 1
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("k", [9, 12])
def test_wide_node_folds_as_running_sum(k):
    # From nine children on, reduceat sums the others pairwise; the fold keeps the running sum.
    tree = ti.ScenarioTree([0.0, 1.0], [-1] + [0] * k, [1.0] + [1.0 / k] * k, np.full(k + 1, 100.0),
                           np.full(k + 1, 10.0), np.zeros(k + 1))
    rng = np.random.default_rng(k)
    rows = rng.normal(0.0, 1.0, (k, 3)) * 10.0 ** rng.uniform(-4, 4, (k, 3))
    running = rows[1].copy()
    for row in rows[2:]:
        running = running + row
    got = tree.fold_up(rows, lambda sums, nodes: sums)
    np.testing.assert_array_equal(got, rows[0] + running)
    bound = k * np.finfo(float).eps * np.abs(rows).sum(axis=0)
    assert np.all(np.abs(got - ref_fold_up(tree, rows, lambda sums, nodes: sums)) <= bound)


def price_range_trees():
    """The fold trees and the binomial call ladder at depths 2-10."""
    from test_solver import binomial_ladder

    return fold_trees() + [pytest.param(binomial_ladder(depth)[0], id=f"ladder{depth}") for depth in range(2, 11)]


@pytest.mark.parametrize("tree", price_range_trees())
def test_price_range_matches_leaf_path_max(tree):
    # Exact: max(hi - P, P + neg_lo) rounds like the largest |P_leaf - P|, since rounding is monotone.
    rng = np.random.default_rng(tree.n_nodes)
    prob = _PrimalProblem(tree, market_for_tree(rng, tree), np.zeros(tree.leaves.size))
    np.testing.assert_array_equal(prob.price_range, ref_price_range(tree))


def tilt_cases():
    """Trees and offsets on which the tilt succeeds, meets a node without a sign change, or one without
    an admissible branch, each of the last two before and after the other."""
    from conftest import random_nonincreasing_offset, sign_change_tree
    from test_solver import binomial_ladder

    rng = np.random.default_rng(44)
    out = []
    for k, tree in enumerate(TREES):
        out.append(pytest.param(tree, np.zeros(tree.n_levels), id=f"sweep{k}-flat"))
        out.append(pytest.param(tree, random_nonincreasing_offset(rng, tree.n_levels), id=f"sweep{k}-offset"))
    for k in range(6):
        tree = random_tree(rng, depth=1 + k % 3, max_branch=5)
        out.append(pytest.param(tree, np.zeros(tree.n_levels), id=f"random{k}"))
    signs = []
    for k in range(12):
        g = random_nonincreasing_offset(rng, 2 + k % 4)
        signs.append((sign_change_tree(rng, 1 + k % 4, g), g))
        out.append(pytest.param(*signs[-1], id=f"signs{k}"))

    def edited(tree, P=None, cut=()):
        """A copy of ``tree`` with prices ``P`` and the branches below the ``cut`` nodes zeroed, after the
        constructor's checks: a node with no admissible branch passes no simplex check."""
        copy = ti.ScenarioTree(tree.times, tree.parent, tree.p_transition, tree.P if P is None else P,
                               tree.delta, tree.r)
        copy.p_transition = np.where(np.isin(tree.parent, cut), 0.0, tree.p_transition)
        return copy

    for k, (tree, g) in enumerate([case for case in signs if np.sum(~case[0].is_leaf) >= 3][:4]):
        inner = np.flatnonzero(~tree.is_leaf)
        early, late = inner[len(inner) // 3], inner[-1]
        lifted = tree.P.copy()
        lifted[tree.parent == early] = tree.P[early] + 50.0  # every increment at early is positive
        out.append(pytest.param(edited(tree, P=lifted, cut=[late]), g, id=f"flat-then-bare{k}"))
        out.append(pytest.param(edited(tree, P=lifted, cut=[early]), g, id=f"bare-at-flat{k}"))
        lifted = tree.P.copy()
        lifted[tree.parent == late] = tree.P[late] - 50.0  # every increment at late is negative
        out.append(pytest.param(edited(tree, P=lifted, cut=[early]), g, id=f"bare-then-flat{k}"))
        out.append(pytest.param(edited(tree, cut=[0]), g, id=f"bare-root{k}"))
    for k, moves in enumerate([(5.0, 5.0, -5.0, -5.0), (-5.0, 5.0, -5.0, 5.0), (0.0, 0.0)]):
        tree = binomial_ladder(3, moves)[0]  # ties at both ends of every node's increments
        out.append(pytest.param(tree, np.zeros(tree.n_levels), id=f"ties{k}"))
    return out


def tilt_outcome(tilt, tree, g):
    try:
        return tilt(tree, g, eps=100.0)
    except NoSignChange as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tree, g", tilt_cases())
def test_tilt_matches_per_node_loop(tree, g):
    # Exact: each node's extreme children and their weights are the loop's, and so is the first failure.
    got, want = tilt_outcome(ti.tilt_to_martingale, tree, g), tilt_outcome(ref_tilt_to_martingale, tree, g)
    if isinstance(want, tuple):
        assert got == want
        return
    np.testing.assert_array_equal(got.measure, want.measure)
    np.testing.assert_array_equal(got.martingale, want.martingale)
    assert got.max_abs_gap == want.max_abs_gap
    assert got.tail_probability == want.tail_probability


def test_tilt_cases_meet_every_outcome():
    outcomes = [tilt_outcome(ref_tilt_to_martingale, *case.values) for case in tilt_cases()]
    messages = [out[1] for out in outcomes if isinstance(out, tuple)]
    assert sum(not isinstance(out, tuple) for out in outcomes) >= 20
    assert any("do not change sign" in m for m in messages)
    assert any("no admissible branches" in m and "node 0 " not in m for m in messages)
    assert any("no admissible branches" in m and "node 0 " in m for m in messages)


@pytest.mark.parametrize("tree", TREES)
def test_conditional_expectation_and_martingale_check(tree):
    rng = np.random.default_rng(tree.n_nodes + 1)
    q = random_measure(rng, tree)
    leaf_values = rng.uniform(50.0, 150.0, tree.leaves.size)
    M = ti.conditional_expectation(tree, q, leaf_values)
    assert_close(M, ref_conditional_expectation(tree, q, leaf_values))
    assert ti.is_martingale(tree, q, M)[0] and ref_is_martingale(tree, q, M)[0]

    drifting = M + rng.normal(0.0, 1.0, tree.n_nodes)
    ok, defect = ti.is_martingale(tree, q, drifting)
    ref_ok, ref_defect = ref_is_martingale(tree, q, drifting)
    assert ok == ref_ok
    assert_close(defect, ref_defect)


@pytest.mark.parametrize("tree", TREES)
def test_constraint_bound_and_penalty_weights(tree):
    rng = np.random.default_rng(tree.n_nodes + 2)
    market = market_for_tree(rng, tree)
    q = random_measure(rng, tree)
    alpha = market.impact.zeta0 + rng.uniform(0.0, 1.0, tree.n_nodes)
    assert_close(ti.constraint_bound(tree, q, alpha), ref_constraint_bound(tree, q, alpha))
    assert_close(node_penalty_weights(tree, tree.reach_probabilities(q)), ref_node_penalty_weights(tree, q))


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
            feasible, M, empty_node = ref_shadow_band_feasibility(tree, q, lam, pin)
            assert band.feasible == feasible
            assert band.empty_node == empty_node
            if feasible:
                assert_close(band.M, M)
            outcomes.add((feasible, bool(pin)))
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


def test_band_deficit_is_the_widening_that_empties_no_interval():
    rng = np.random.default_rng(11)
    infeasible = 0
    for tree in TREES:
        q = random_measure(rng, tree)
        for _ in range(6):
            lam = rng.uniform(0.0, 6.0, tree.n_nodes)
            band = ti.shadow_band_feasibility(tree, q, lam)
            if band.feasible:
                assert band.deficit == 0.0
                continue
            infeasible += 1
            assert band.deficit > 0.0
            assert ti.shadow_band_feasibility(tree, q, lam + band.deficit).feasible
            assert not ti.shadow_band_feasibility(tree, q, lam + 0.9 * band.deficit).feasible
    assert 0 < infeasible < 6 * len(TREES)


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
    schedule = prob.cash_requirement(u)[1]
    vals = prob.leaf_values(u[: prob.n_dec], u[prob.n_dec :], schedule.gross()[tree.leaves])[0]  # leaves close
    tw = ref_tree_wealth(tree, schedule, market.impact)
    assert_close(vals, H + tw.lambda_T)


def assert_same_certificate(got, want):
    np.testing.assert_array_equal(got.q, want.q)
    np.testing.assert_array_equal(got.M, want.M)
    np.testing.assert_array_equal(got.alpha, want.alpha)


@pytest.mark.parametrize("tree", TREES)
def test_one_bump_repair_matches_four_pass_loop(tree):
    rng = np.random.default_rng(tree.n_nodes + 6)
    market = market_for_tree(rng, tree)
    q = random_measure(rng, tree)
    repaired = 0
    flat = np.full(tree.n_nodes, market.impact.zeta0)
    for spread in (flat, market.impact.zeta0 + rng.uniform(0.0, 0.5, tree.n_nodes)):
        for push in (0.0, 0.5, 5.0, 50.0):
            M = tree.P + push * rng.normal(0.0, 1.0, tree.n_nodes)
            cert = ti.DualCertificate(q=q, M=M, alpha=spread)
            got = ti.restore_feasibility(tree, cert, market)
            want = ref_restore_feasibility(tree, cert, market)
            assert_same_certificate(got, want)
            repaired += not np.array_equal(got.alpha, cert.alpha)
    assert repaired >= 4

    broken = ti.DualCertificate(q=q, M=np.where(np.arange(tree.n_nodes) == 0, np.nan, tree.P), alpha=flat)
    for restore in (ti.restore_feasibility, ref_restore_feasibility):
        with pytest.raises(InfeasibleCertificate):
            restore(tree, broken, market)


def dual_instances():
    """The binary reference instance and nine seeded trees, all but one solved to convergence.

    Depth is made constant on each tree, so the liquidity curve decays along
    every edge (positive resilience), as the model requires.  All seeded
    trees but one have zero-probability branches.
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
def test_dual_ascent_never_loses_to_its_start(tree, market, H, options):
    default = ti.default_certificate(tree, market)
    assert_same_certificate(default, ref_default_certificate(tree, market))
    rng = np.random.default_rng(tree.n_nodes + 8)
    q = random_measure(rng, tree)
    M = ti.conditional_expectation(tree, q, tree.P[tree.leaves] * rng.uniform(0.9, 1.1, tree.leaves.size))
    spread = market.impact.zeta0 + rng.uniform(0.0, 1.0, tree.n_nodes)
    drawn = ti.restore_feasibility(tree, ti.DualCertificate(q=q, M=M, alpha=spread), market)
    # after one Newton step the certificate read off the primal is poor, so a converged one must win
    converged = ti.gap_report(tree, market, H).certificate
    for init, opts in ((default, options), (drawn, options), (converged, ti.SolverOptions(max_iter=1))):
        report = ti.dual_ascent(tree, market, H, init, opts)
        assert ti.check_feasibility(tree, report.certificate).feasible
        assert report.dual_value == ti.dual_objective(tree, report.certificate, market, H)
        for start in (init, default):
            assert report.dual_value >= ti.dual_objective(tree, start, market, H)


def budget_sweep():
    """The ladder at depths 2-8 and 60 seeded trees whose liquidity decays, each with a payoff."""
    from test_solver import binomial_ladder

    out = [(f"ladder{depth}", *binomial_ladder(depth)) for depth in range(2, 9)]
    rng = np.random.default_rng(5)
    for k in range(60):
        tree = random_tree(rng, depth=int(rng.integers(2, 5)))
        out.append((f"rand{k}", tree, market_for_tree(rng, tree), rng.uniform(0.0, 4.0, tree.leaves.size)))
    return out


BUDGET_SWEEP = budget_sweep()


@pytest.mark.parametrize("max_iter", [0, 1, 2, 5, None])
def test_every_reported_certificate_passes_weak_duality(max_iter):
    options = ti.SolverOptions() if max_iter is None else ti.SolverOptions(max_iter=max_iter)
    for name, tree, market, H in BUDGET_SWEEP:
        report = ti.gap_report(tree, market, H, options)
        check = ti.weak_duality_check(tree, market, report.strategy, report.primal_value, report.certificate, H)
        assert check.dual_value == report.dual_value, name
        assert check.margin >= -1e-9 * (1.0 + abs(report.primal_value) + abs(report.dual_value)), name


def test_default_certificate_is_worth_at_least_the_uniform_bump():
    for name, tree, market, H in BUDGET_SWEEP:
        default = ti.default_certificate(tree, market)
        uniform = ref_default_certificate(tree, market, restore=four_pass_restore)
        assert ti.dual_objective(tree, default, market, H) >= ti.dual_objective(tree, uniform, market, H), name


# ---------------------------------------------------------------------------
# Tree-sparse Newton direction against the dense KKT system
# ---------------------------------------------------------------------------


def ref_cholesky(pivot):
    """The generic Cholesky loop that the closed-form 1x1 and 2x2 pivots replaced."""
    low = np.zeros_like(pivot)
    for i in range(pivot.shape[1]):
        for j in range(i + 1):
            acc = pivot[:, i, j] - np.sum(low[:, i, :j] * low[:, j, :j], axis=1)
            if i > j:
                low[:, i, j] = acc / low[:, j, j]
            elif np.all(acc > 0.0):
                low[:, i, i] = np.sqrt(acc)
            else:
                raise np.linalg.LinAlgError("a pivot is not positive definite")
    return low


def ref_cholesky_solve(low, rhs):
    """The generic forward and backward substitution loops."""
    x = rhs.copy()
    own = low.shape[1]
    for i in range(own):
        x[:, i] -= np.einsum("nj,njc->nc", low[:, i, :i], x[:, :i])
        x[:, i] /= low[:, i, i, None]
    for i in reversed(range(own)):
        x[:, i] -= np.einsum("nj,njc->nc", low[:, i + 1 :, i], x[:, i + 1 :])
        x[:, i] /= low[:, i, i, None]
    return x


def lower_factor(columns):
    """Lower-triangular factors ``(n, own, own)`` from Cholesky columns: ``(l00,)`` or ``(l00, l10, l11)``."""
    own = 1 if len(columns) == 1 else 2
    low = np.zeros((columns[0].size, own, own))
    low[:, 0, 0] = columns[0]
    if own == 2:
        low[:, 1, 0], low[:, 1, 1] = columns[1], columns[2]
    return low


@pytest.mark.parametrize("own", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_closed_form_pivots_match_loops(own, seed):
    # a buy/sell pivot is factored by _pivots; a leaf's 1x1 pivot is one square root
    from transient_impact.solver import _pivots, _substitute

    rng = np.random.default_rng(seed)
    n, cols = int(rng.integers(1, 200)), int(rng.integers(1, 20))
    root = rng.normal(0.0, 1.0, (n, own, own)) * 10.0 ** rng.uniform(-3, 3, (n, 1, own))
    pivot = root @ root.transpose(0, 2, 1) + 1e-3 * np.eye(own)
    columns = _pivots(pivot, np.empty((3, n))) if own == 2 else np.sqrt(pivot[:, :1, 0].T)
    low = lower_factor(columns)
    np.testing.assert_array_equal(low, ref_cholesky(pivot))
    flat = list(columns) + [None] * (3 - len(columns))  # a 1x1 pivot has no l10 and l11
    broadcast = [None if column is None else column[:, None] for column in flat]
    rhs = rng.normal(0.0, 1.0, (n, own, cols)) * 10.0 ** rng.uniform(-3, 3, (n, own, cols))
    np.testing.assert_array_equal(_substitute(*broadcast, rhs, np.empty_like(rhs)), ref_cholesky_solve(low, rhs))
    # a strided right-hand side, as the factorisation passes a block's columns
    block = rng.normal(0.0, 1.0, (n, own + 3, cols + 2))
    np.testing.assert_array_equal(_substitute(*broadcast, block[:, 3:, :cols], np.empty((n, own, cols))),
                                  ref_cholesky_solve(low, block[:, 3:, :cols]))
    # one right-hand side per pivot on 1-d columns, as a solve substitutes every pivot at once
    np.testing.assert_array_equal(_substitute(*flat, rhs[:, :, 0], np.empty((n, own))),
                                  ref_cholesky_solve(low, rhs[:, :, :1])[:, :, 0])


@pytest.mark.parametrize("pivot", [
    [[0.0]], [[-1.0]], [[np.nan]],
    [[0.0, 0.0], [0.0, 1.0]], [[-2.0, 1.0], [1.0, 3.0]], [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0], [2.0, 3.0]],  # a11 - l10**2 is 0, then negative
    [[1.0, np.nan], [np.nan, 2.0]], [[1.0, 0.0], [0.0, np.nan]],
], ids=lambda p: repr(p).replace(" ", ""))
def test_pivot_that_is_not_definite_raises(pivot):
    # _pivots factors buy/sell pairs; a 1x1 pivot is tested as the leading entry of one
    from transient_impact.solver import _pivots

    good = np.eye(len(pivot))
    batch = np.array([good, pivot, good], dtype=float)
    with pytest.raises(np.linalg.LinAlgError):
        ref_cholesky(batch)
    pair = np.tile(np.eye(2), (3, 1, 1))
    pair[:, : len(pivot), : len(pivot)] = batch
    with pytest.raises(np.linalg.LinAlgError):
        _pivots(pair, np.empty((3, 3)))


def ref_closed_cholesky(pivot):
    """Closed-form Cholesky factors of a batch of 1x1 or 2x2 pivots, as 3-d arrays."""
    low = np.zeros_like(pivot)
    a00 = pivot[:, 0, 0]
    if not np.all(a00 > 0.0):
        raise np.linalg.LinAlgError("a pivot is not positive definite")
    low[:, 0, 0] = np.sqrt(a00)
    if pivot.shape[1] == 2:
        low[:, 1, 0] = l10 = pivot[:, 1, 0] / low[:, 0, 0]
        a11 = pivot[:, 1, 1] - l10 * l10
        if not np.all(a11 > 0.0):
            raise np.linalg.LinAlgError("a pivot is not positive definite")
        low[:, 1, 1] = np.sqrt(a11)
    return low


def ref_closed_cholesky_solve(low, rhs):
    """Solve ``low @ low.T @ x = rhs`` for a batch of right-hand sides ``rhs`` of shape ``(n, own, cols)``."""
    l00 = low[:, 0, 0, None]
    x = np.empty_like(rhs)
    np.divide(rhs[:, 0], l00, out=x[:, 0])
    if low.shape[1] == 2:
        l10, l11 = low[:, 1, 0, None], low[:, 1, 1, None]
        x[:, 1] = (rhs[:, 1] - l10 * x[:, 0]) / l11 / l11
        x[:, 0] -= l10 * x[:, 1]
    x[:, 0] /= l00
    return x


def ref_path_layout(prob, it):
    """The leaf-path layout that node states replaced, rebuilt from ``ref_leaf_paths`` at an iterate.

    Per leaf, the entries are ``[t, b_0, s_0, ..., b_{D-1}, s_{D-1}, g]``:
    the bound, the buy and sell of each decision node on its path, root
    first, and its closing trade.  Returns each path's decision slots, its
    ``rho / delta`` and penalty mass per slot (the leaf's atom last), and
    the three constraint rows in the layout: the leaf value's gradient less
    ``t``, then ``±x_pre - g``.
    """
    tree = prob.tree
    paths = ref_leaf_paths(tree)
    slots = prob.slot_of[paths[:, :-1]]
    c = tree.rho[paths] / tree.delta[paths]
    mass = np.concatenate([tree.edge_weight[paths[:, 1:]], tree.kappa[paths[:, -1:]]], axis=1)
    spread = c * np.concatenate([it.trades.sum(axis=1)[slots], it.close[:, None]], axis=1)
    spread[:, 0] += prob.impact.zeta0
    eta = np.cumsum(spread, axis=1)
    tail = c * np.cumsum((mass * eta)[:, ::-1], axis=1)[:, ::-1]  # d value / d gross, per slot
    dprice = tree.P[paths[:, :-1]] - tree.P[paths[:, -1:]]
    rows = np.zeros((paths.shape[0], 3, 2 * paths.shape[1]))
    rows[:, 0, 0] = -1.0
    rows[:, 0, 1:-1:2], rows[:, 0, 2:-1:2], rows[:, 0, -1] = tail[:, :-1] + dprice, tail[:, :-1] - dprice, tail[:, -1]
    rows[:, 1, 1:-1:2], rows[:, 1, 2:-1:2] = 1.0, -1.0
    rows[:, 2] = -rows[:, 1]
    rows[:, 1:, -1] = -1.0
    return slots, c, mass, rows


def ref_newton_leaves(it, layout):
    """The leaves' step of the Newton matrix on freshly allocated arrays: leaf blocks, leaf pivots
    (1x1 factors and couplings, as 3-d arrays) and the bounds' barrier diagonal."""
    _, c, mass, rows = layout
    n_slots = mass.shape[1]
    gross_of = np.repeat(np.arange(n_slots), [2] * (n_slots - 1) + [1])  # layout entry (t excluded) -> slot
    curvature = np.zeros((mass.shape[0], n_slots, gross_of.size + 1))
    inner = curvature[:, :, 1:]
    np.multiply(np.sqrt(it.dual[:, :1] * np.maximum(mass, 0.0))[:, :, None], c[:, gross_of][:, None, :], out=inner)
    inner *= gross_of <= np.arange(n_slots)[:, None]
    roots = np.concatenate([curvature, rows * np.sqrt(it.dual / it.slack)[:, :, None]], axis=1)
    close, rest = roots[:, :, -1].copy(), roots[:, :, :-1]
    pivot = np.einsum("lr,lr->l", close, close)
    coupling = np.einsum("lr,lra->la", close, rest) / pivot[:, None]
    rest -= close[:, :, None] * coupling[:, None, :]
    blocks = np.matmul(rest.transpose(0, 2, 1), rest)
    return blocks, (np.sqrt(pivot)[:, None, None], coupling[:, None, :]), it.bound_dual / it.trades


def ref_tree_factor(prob, leaf_blocks, leaf_pivots, diag):
    """The tree factorisation on 3-d pivots: the border and, per level, the pivots' factors and couplings."""
    tree = prob.tree
    pivots = {tree.n_levels - 1: leaf_pivots}

    def step(block, nodes):
        k = int(tree.t_index[nodes[0]])
        a = 2 * k + 1
        own = diag[prob.slot_of[nodes]]
        block[:, a, a] += own[:, 0]
        block[:, a + 1, a + 1] += own[:, 1]
        chol = ref_closed_cholesky(block[:, a:, a:])
        coupling = ref_closed_cholesky_solve(chol, block[:, a:, :a])
        pivots[k] = (chol, coupling)
        reduced = block[:, :a, :a]
        reduced -= block[:, :a, a:] @ coupling
        return reduced

    return float(tree.fold_up(leaf_blocks, step)[0, 0]), pivots


def ref_tree_solve(prob, border, pivots, rows, own, t_rhs):
    """Solve with :func:`ref_tree_factor`'s factors: one row per node, in the layout of its level."""
    tree = prob.tree
    kept = {}

    def reduce(r, nodes):
        k = int(tree.t_index[nodes[0]])
        a = 2 * k + 1
        if k < tree.n_levels - 1:
            r[:, a:] += own[prob.slot_of[nodes]]
        kept[k] = r[:, a:]
        coupling = pivots[k][1]
        folded = coupling[:, 0] * r[:, a, None]
        if coupling.shape[1] == 2:
            folded += coupling[:, 1] * r[:, a + 1, None]
        return r[:, :a] - folded

    t_total = tree.fold_up(reduce(rows, tree.leaves), reduce)[0] + t_rhs

    def back(upper, nodes):
        k = int(tree.t_index[nodes[0]])
        a = 2 * k + 1
        chol, coupling = pivots[k]
        upper[:, a : a + chol.shape[1]] = (
            ref_closed_cholesky_solve(chol, kept[k][:, :, None])[:, :, 0]
            - np.einsum("nia,na->ni", coupling, upper[:, :a])
        )
        return upper

    top = np.zeros((1, rows.shape[1]))
    top[0, 0] = t_total / border
    return tree.down_sweep(back(top, np.zeros(1, dtype=int))[0], back)


def ref_kkt_blocks(prob, it):
    """Constraint Jacobian, constraint values and curvature at an iterate, assembled densely leaf by leaf.

    The variables are ``x = (t, b, s, g)``; the constraints ``c(x) <= 0``
    are all leaves' ``v_l - t``, then all ``x_pre - g``, then all ``-x_pre -
    g``.  Values, gradients and curvature of each leaf come from loops over
    its path.
    """
    tree, imp = prob.tree, prob.impact
    n, L = prob.n_dec, tree.leaves.size
    nx = 1 + 2 * n + L
    slot = {int(node): j for j, node in enumerate(prob.decision)}
    paths = ref_leaf_paths(tree)
    b, s = it.trades[:, 0], it.trades[:, 1]

    jac = np.zeros((3 * L, nx))  # constraints c(x) <= 0: v_l - t, x_pre - g, -x_pre - g
    cons = np.zeros(3 * L)
    hess = np.zeros((nx, nx))
    for row, path in enumerate(paths):
        idx = [1 + slot[int(node)] for node in path[:-1]]
        c = tree.rho[path] / tree.delta[path]
        mass = [tree.edge_weight[path[k + 1]] for k in range(path.size - 1)] + [tree.kappa[path[-1]]]
        gross = [b[i - 1] + s[i - 1] for i in idx] + [it.close[row]]
        eta, acc = [], imp.zeta0
        for k in range(path.size):
            acc += c[k] * gross[k]
            eta.append(acc)
        x_pre = imp.x0 + sum(b[i - 1] - s[i - 1] for i in idx)
        value = prob.H[row] - tree.P[path[-1]] * imp.x0 + 0.5 * sum(mass[k] * eta[k] ** 2 for k in range(path.size))
        cols = []  # (b column, s column) per slot; the closing trade has one column
        for k, i in enumerate(idx):
            value += (tree.P[path[k]] - tree.P[path[-1]]) * (b[i - 1] - s[i - 1])
            cols.append((i, n + i))
        cols.append((1 + 2 * n + row,))
        for k, group in enumerate(cols):
            tail = sum(mass[j] * eta[j] for j in range(k, path.size))
            drift = tree.P[path[k]] - tree.P[path[-1]] if k < len(idx) else 0.0
            for side, col in enumerate(group):
                jac[row, col] = c[k] * tail + (drift if side == 0 else -drift)
            for k2, group2 in enumerate(cols):
                curv = c[k] * c[k2] * sum(mass[j] for j in range(max(k, k2), path.size))
                for col in group:
                    for col2 in group2:
                        hess[col, col2] += it.dual[row, 0] * curv
        jac[row, 0] = -1.0
        cons[row] = value - it.t
        g_col = 1 + 2 * n + row
        for sign, r in ((1.0, L + row), (-1.0, 2 * L + row)):
            for i in idx:
                jac[r, i], jac[r, n + i] = sign, -sign
            jac[r, g_col] = -1.0
            cons[r] = sign * x_pre - it.close[row]
    return jac, cons, hess


def ref_kkt_direction(prob, it, target, bound_target):
    """Newton direction of the perturbed KKT conditions, assembled densely from :func:`ref_kkt_blocks`.

    Unknowns: ``x = (t, b, s, g)``, then per leaf the three slacks and three
    multipliers, then the bound multipliers of ``b`` and ``s``.
    """
    n, L = prob.n_dec, prob.tree.leaves.size
    nx = 1 + 2 * n + L
    b, s = it.trades[:, 0], it.trades[:, 1]
    jac, cons, hess = ref_kkt_blocks(prob, it)
    u = it.slack.T.ravel()  # constraint order: all leaf rows, then all x_pre - g, then all -x_pre - g
    nu = it.dual.T.ravel()
    tau = target.T.ravel()
    xb = np.concatenate([b, s])
    z = np.concatenate([it.bound_dual[:, 0], it.bound_dual[:, 1]])
    taub = np.concatenate([bound_target[:, 0], bound_target[:, 1]])
    sel = np.zeros((2 * n, nx))
    sel[np.arange(2 * n), 1 + np.arange(2 * n)] = 1.0

    grad_f = np.zeros(nx)
    grad_f[0] = 1.0
    m, q = 3 * L, 2 * n
    size = nx + 2 * m + q
    K = np.zeros((size, size))
    rhs = np.zeros(size)
    X, U, N, Z = slice(0, nx), slice(nx, nx + m), slice(nx + m, nx + 2 * m), slice(nx + 2 * m, size)
    K[X, X], K[X, N], K[X, Z] = hess, jac.T, -sel.T
    rhs[X] = -(grad_f + jac.T @ nu - sel.T @ z)
    K[U, X], K[U, U] = jac, np.eye(m)
    rhs[U] = -(cons + u)
    K[N, U], K[N, N] = np.diag(nu), np.diag(u)
    rhs[N] = tau - nu * u
    K[Z, X], K[Z, Z] = np.diag(z) @ sel, np.diag(xb)
    rhs[Z] = taub - z * xb
    d = np.linalg.solve(K, rhs)
    dx, du, dnu, dz = d[X], d[U], d[N], d[Z]
    return {
        "t": dx[0],
        "trades": np.stack([dx[1 : 1 + n], dx[1 + n : 1 + 2 * n]], axis=1),
        "close": dx[1 + 2 * n :],
        "slack": du.reshape(3, L).T,
        "dual": dnu.reshape(3, L).T,
        "bound_dual": np.stack([dz[:n], dz[n:]], axis=1),
    }


def newton_instances():
    """Convex seeded trees (constant depth per tree) and conftest random trees."""
    from conftest import random_tree

    out = []
    for k, tree in enumerate(TREES):
        tree = ti.ScenarioTree(tree.times, tree.parent, tree.p_transition, tree.P,
                               np.full(tree.n_nodes, tree.delta[0]), tree.r)
        market = market_for_tree(np.random.default_rng(tree.n_nodes + 8), tree)
        out.append(pytest.param(tree, market, np.maximum(tree.P[tree.leaves] - 100.0, 0.0), id=f"tree{k}"))
    for k in range(6):
        rng = np.random.default_rng(300 + k)
        tree = random_tree(rng, depth=1 + k % 3, stochastic_liquidity=k % 2 == 0, martingale=k >= 3)
        market = market_for_tree(rng, tree)
        out.append(pytest.param(tree, market, rng.uniform(0.0, 4.0, tree.leaves.size), id=f"random{k}"))
    return out


def ladder_instances():
    from test_solver import binomial_ladder

    return [pytest.param(*binomial_ladder(depth), id=f"ladder{depth}") for depth in (2, 4, 6, 8)]


def rising_instance():
    from test_solver import rising_instance

    return pytest.param(*rising_instance(), id="rising")


def liquidation_instance():
    """A position of 10 sold down a flat chain: at some steps a closing trade's gradient sets the scale."""
    market = ti.MarketSpec.build([0.0, 1.0, 2.0], 10.0, 0.5, x0=10.0, zeta0=0.0)
    return pytest.param(ti.ScenarioTree.single_path(market, np.full(3, 100.0)), market, np.zeros(1), id="liquidation")


def path_rows(slots, t, trades, close):
    """Each leaf's entries of a solution ``(t, trades, close)``, in the leaf-path layout."""
    return np.concatenate([np.full((close.size, 1), t), trades[slots].reshape(close.size, -1), close[:, None]], axis=1)


def ref_newton_product(slots, leaves, solution, absolute=False):
    """The condensed Newton matrix of :func:`ref_newton_leaves`' output times a solution ``(t, trades, close)``.

    Each leaf's closing-trade pivot and coupling restore its full block from
    the eliminated one.  With ``absolute``, every entry is replaced by its
    absolute value, which bounds ``|K| @ |x|``.
    """
    f = np.abs if absolute else (lambda a: a)
    blocks, (l00, coupling), diag = leaves
    l00, coupling, path = l00[:, 0, 0], f(coupling[:, 0]), f(path_rows(slots, *solution))
    closing = l00**2 * (np.einsum("la,la->l", coupling, path[:, :-1]) + path[:, -1])
    rows = np.einsum("lab,lb->la", f(blocks), path[:, :-1]) + closing[:, None] * coupling
    trade_bins = (2 * slots[:, :, None] + np.arange(2)).ravel()  # (leaf, slot, side) -> trade
    on_trades = np.bincount(trade_bins, rows[:, 1:].ravel(), diag.size).reshape(-1, 2)
    return np.concatenate([[rows[:, 0].sum()], (on_trades + f(diag * solution[1])).ravel(), closing])


@pytest.mark.parametrize("tree, market, H", ladder_instances() + newton_instances())
def test_tree_factor_matches_reference(monkeypatch, tree, market, H):
    # The node-state factor and the leaf-path factorisation solve the same Newton systems.  Both are
    # backward stable, so they are compared through the reference matrix: near convergence the
    # systems are too ill-conditioned for their solutions to agree entry by entry.
    from transient_impact import solver

    direction = solver._direction
    factors = []
    sub = tree.reached_part()[0]  # the solve sees the reached subtree
    own_entries = 2 * sub.t_index[~sub.is_leaf, None] + [1, 2]  # each decision node's buy and sell

    def checked(prob, it, res, factor, target, bound_target):
        if not factors or factors[-1][0] is not factor:
            layout = ref_path_layout(prob, it)
            leaves = ref_newton_leaves(it, layout)
            factors.append((factor, layout, leaves, *ref_tree_factor(prob, *leaves)))
        _, (slots, _, _, rows), leaves, border, pivots = factors[-1]
        rho = (target - it.dual * (it.slack - res.primal)) / it.slack
        weights, own = -(it.dual + rho), bound_target / it.trades
        want = ref_tree_solve(prob, border, pivots, np.einsum("lk,lki->li", weights, rows), own, -1.0)
        want = want[0, 0], np.take_along_axis(want[prob.decision], own_entries, axis=1), want[sub.leaves, -1]
        dt, got = factor.solve(weights, own, -1.0)
        solution = dt, got[prob.decision, 3:], got[sub.leaves, 3]
        difference = ref_newton_product(slots, leaves, [a - b for a, b in zip(solution, want)])
        assert np.max(np.abs(difference)) <= 1e-12 * np.max(ref_newton_product(slots, leaves, want, absolute=True))
        # the constraints' changes it returns are the constraint rows times its own solution
        path = path_rows(slots, *solution)
        error = np.abs(got[sub.leaves, :3] - np.einsum("lki,li->lk", rows, path))
        assert np.all(error <= 1e-12 * np.einsum("lki,li->lk", np.abs(rows), np.abs(path)))
        return direction(prob, it, res, factor, target, bound_target)

    monkeypatch.setattr(solver, "_direction", checked)
    report = ti.primal_solve(tree, market, H)
    assert len(factors) == report.iterations


def ref_gradient_scale(prob, it):
    """The gradient scale by its definition, from loops over each leaf's path.

    Below each decision node, ``A`` sums the leaves' tails ``d v_l / d eta``
    weighted by their multipliers and ``Λ`` sums the multipliers; ``Π`` is the
    largest price move to a leaf below.  The scale is the largest ``c * |A /
    Λ| + Π`` over decision nodes and ``c * kappa * eta`` over leaves.
    """
    tree = prob.tree
    A, mass_below, price_range = np.zeros(tree.n_nodes), np.zeros(tree.n_nodes), np.zeros(tree.n_nodes)
    gross = np.zeros(tree.n_nodes)
    gross[prob.decision] = it.trades.sum(axis=1)
    gross[tree.leaves] = it.close
    c = tree.rho / tree.delta
    scale = 0.0
    for path, nu in zip(ref_leaf_paths(tree), it.dual[:, 0]):
        eta, acc = [], prob.impact.zeta0
        for node in path:
            acc += c[node] * gross[node]
            eta.append(acc)
        mass = [tree.edge_weight[node] for node in path[1:]] + [tree.kappa[path[-1]]]
        for k, node in enumerate(path[:-1]):
            A[node] += nu * sum(mass[j] * eta[j] for j in range(k, path.size))
            mass_below[node] += nu
            price_range[node] = max(price_range[node], abs(tree.P[node] - tree.P[path[-1]]))
        scale = max(scale, c[path[-1]] * tree.kappa[path[-1]] * eta[-1])
    for node in prob.decision:
        scale = max(scale, c[node] * abs(A[node] / mass_below[node]) + price_range[node])
    return scale


@pytest.mark.parametrize("tree, market, H",
                         ladder_instances() + newton_instances() + [rising_instance(), liquidation_instance()])
def test_stationarity_fold_matches_dense_jacobian(monkeypatch, tree, market, H):
    # The multipliers folded up through the factor's own Jacobian give the entries of jac.T @ nu, the
    # Jacobian built leaf by leaf; the rising tree has negative edge mass.
    from transient_impact import solver

    residuals = solver._Residuals
    seen = []

    def checked(it, values, pulled):
        on_t, on_trades, on_close, scale = pulled
        jac = ref_kkt_blocks(prob, it)[0]
        nu = it.dual.T.ravel()
        got = np.concatenate([[on_t], on_trades.T.ravel(), on_close])
        assert np.all(np.abs(got - jac.T @ nu) <= 1e-12 * (np.abs(jac.T) @ nu))
        assert scale == pytest.approx(ref_gradient_scale(prob, it), rel=1e-12, abs=0.0)
        seen.append(scale)
        return residuals(it, values, pulled)

    monkeypatch.setattr(solver, "_Residuals", checked)
    sub, reached = tree.reached_part()  # the solve sees the reached subtree
    prob = solver._PrimalProblem(sub, market, H[reached[tree.leaves]])
    monkeypatch.setattr(solver, "_PrimalProblem", lambda *args: prob)
    report = ti.primal_solve(tree, market, H)
    assert len(seen) == report.iterations + 1


@pytest.mark.parametrize("tree, market, H", newton_instances())
def test_tree_sparse_newton_direction_matches_dense_kkt(monkeypatch, tree, market, H):
    from transient_impact import solver

    assert tree.decay_margin > EPS_MONO  # convex: the curvature is the true Hessian
    direction = solver._direction
    seen = []

    def checked(prob, it, res, factor, target, bound_target):
        got = direction(prob, it, res, factor, target, bound_target)
        want = ref_kkt_direction(prob, it, target, bound_target)
        # Each group is relative to its direction plus its iterate.  Multiplier directions are
        # compared in slack units, (slack / multiplier) * d(multiplier): that is how the rounding
        # of a slack direction reaches them, amplified wherever a slack is nearly closed.
        units = {"dual": it.slack / it.dual, "bound_dual": it.trades / it.bound_dual}
        for name, expected in want.items():
            unit = units.get(name, 1.0)
            error = np.max(np.abs(unit * (getattr(got, name) - expected)))
            scale = np.max(np.abs(unit * expected)) + np.max(np.abs(unit * getattr(it, name)))
            assert error <= 1e-10 * scale, (name, len(seen))
        seen.append(it.t)
        return got

    monkeypatch.setattr(solver, "_direction", checked)
    report = ti.primal_solve(tree, market, H)
    assert report.primal_converged
    assert len(seen) == 2 * report.iterations  # predictor and corrector at every step

"""Super-replication pricing on scenario trees: primal, oracle and certificates.

The primal program minimises, over non-negative buy/sell quantities at every
non-terminal node, the worst-leaf sum of payoff and cost functional; each leaf
closes the running position.  Super-replication holds almost surely: a leaf
behind a zero-probability branch, which no certificate may charge, constrains
nothing.  The program is solved in epigraph form: minimise ``t`` subject to
``v_l <= t`` per leaf, ``b, s >= 0`` per decision node and ``g_l >=
|x_pre,l|`` for each closing trade, by a primal–dual interior-point method
(Mehrotra predictor–corrector from an infeasible start).  The spread is
Markov and the wealth a price integral, so a leaf's constraints reach its
path only through its parent's state: spread, position and the running
value of the constraint.  Everything runs on these node states, O(nodes)
per Newton step: the leaf values are one down-sweep, stationarity one fold
of the multipliers through the constraints' Jacobian, and the Newton system
is factored (``_TreeFactor``) by one fixed 5x5 elimination per decision
node, without forming a dense matrix.  The iterate is one flat vector, and
each level's 2x2 pivots are kept as three columns, so a solve substitutes
them all at once.  The leaf multipliers form a probability over leaves.
The reported value is the exact cash requirement of the returned schedule,
so feasibility never rests on the solver.

No dual search runs.  ``gap_report`` alone chooses and certifies the
certificate: it reads two off the primal's multipliers and spread
(:func:`~transient_impact.duality.certificate_from`), one whose martingale
comes from the closing trades' multipliers and one with a band martingale,
and keeps the best of them, the default one and an optional given one.
Every emitted certificate is exactly feasible.  The gap between both sides
is reported, never assumed zero.  Everything is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .duality import (
    WEAK_DUALITY_RTOL,
    DualCertificate,
    certificate_from,
    dual_objective,
    leaf_payoff,
    require_certificate,
    restore_feasibility,
)
from .errors import InstanceTooLarge, WeakDualityViolated
from .market import MarketSpec
from .strategy import TradeSchedule, normalize
from .tree import NodeMeasure, ScenarioTree, _as_slice, conditional_expectation
from .wealth import book_value, tree_states, tree_wealth


# The primal search stops when its relative residual sets no new best in this many
# Newton steps, or when no step of at least this length is acceptable.
STALL_STEPS = 20
MIN_STEP = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs: the primal's relative residual tolerance and its budget of Newton steps.

    ``tol`` also sets the gap that certifies the primal optimal in :func:`gap_report`;
    it must be positive and finite.  A negative budget acts as zero.
    """

    tol: float = 1e-9
    max_iter: int = 12000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")


@dataclass(frozen=True)
class PriceReport:
    """Primal value, optimizing schedule, best certificate value and their gap.

    ``leaf_weights`` are the primal's leaf multipliers (leaf-id order), a
    probability over the reached leaves, and ``closing_multipliers`` the
    multipliers of ``x_pre - g <= 0`` and ``-x_pre - g <= 0`` on each leaf's
    closing trade (one row per leaf).  ``primal_converged`` says the primal
    value is optimal to tolerance: its Newton search met ``tol``, or, in
    :func:`gap_report`, a certificate closes the gap to ``tol * (1 + |primal|)``.
    ``dual_converged`` is the same flag.
    """

    primal_value: float | None = None
    strategy: TradeSchedule | None = None
    leaf_weights: np.ndarray | None = None
    closing_multipliers: np.ndarray | None = None
    dual_value: float | None = None
    certificate: DualCertificate | None = None
    gap: float | None = None
    iterations: int = 0
    primal_converged: bool = True

    @property
    def dual_converged(self) -> bool:
        return self.primal_converged


# ---------------------------------------------------------------------------
# Primal side
# ---------------------------------------------------------------------------


class _PrimalProblem:
    """The epigraph program on node states: values, constraint derivatives and Newton data.

    A node's state is its spread ``eta``, its position ``X`` and the running
    value ``W`` of the leaf constraint, the price integral ``∫X dP`` plus the
    penalty so far, less ``t``.  Per decision node, in level order, ``lift``
    maps its parent's state and its own buy and sell to its state; per leaf,
    ``leaf_jac`` writes the three constraints over its parent's state and its
    closing trade.  They hold every constraint derivative; :meth:`leaf_values`
    refreshes the entries that hold a spread, the only ones that change.
    """

    def __init__(self, tree: ScenarioTree, market: MarketSpec, H):
        self.tree = tree
        self.impact = market.impact
        self.H = H  # one value per leaf, checked by primal_solve

        self.decision = np.flatnonzero(~tree.is_leaf)
        self.n_dec = self.decision.size
        self.slot_of = np.full(tree.n_nodes, -1)
        self.slot_of[self.decision] = np.arange(self.n_dec)
        self.leaf_rows = _as_slice(tree.leaves)
        self.decision_rows = _as_slice(self.decision)

        # Node states.  The root's parent is the root itself: it carries no mass and no price step.
        order = np.concatenate(tree.levels[:-1])  # decision nodes in level order
        self.level_slots = _as_slice(self.slot_of[order])
        starts = np.cumsum([0] + [level.size for level in tree.levels[:-1]]).tolist()
        self.spans = [slice(a, b) for a, b in zip(starts, starts[1:])]  # each decision level's positions
        parent = np.maximum(tree.parent, 0)
        self.c, dP = tree.rho / tree.delta, tree.P - tree.P[parent]
        self.parent_of = parent[order]
        self.edge_mass = tree.edge_weight[order]
        self.convex_mass = np.maximum(self.edge_mass, 0.0)  # the curvature keeps no negative mass
        self.lift = np.zeros((order.size, 3, 5))  # [d eta, dX, dW] <- [parent's d eta, dX, dW, db, ds]
        self.lift[:, [0, 1, 2], [0, 1, 2]] = 1.0
        self.lift[:, 0, 3:] = self.c[order, None]
        self.lift[:, 1, 3:] = 1.0, -1.0
        self.lift[:, 2, 1] = -dP[order]  # W gains the price increment times the parent's position
        self.leaf_jac = np.zeros((self.H.size, 3, 4))  # constraints <- [parent's d eta, dX, dW, dg]
        self.leaf_jac[:, 0, 1] = -dP[tree.leaves]
        self.leaf_jac[:, 0, 2] = 1.0
        self.leaf_jac[:, 1:, 1:] = [[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0]]
        # Each decision node's largest price move to a leaf below it, level order: the price part of a
        # trade's gradient, from the highest P and -P among those leaves (one fold under np.maximum).
        extremes = np.empty((tree.n_nodes, 2))

        def keep(top, nodes):
            extremes[nodes] = top
            return top

        tree.fold_up(np.stack([tree.P, -tree.P], axis=1)[tree.leaves], keep, np.maximum)
        hi, neg_lo = extremes[order].T
        self.price_range = np.maximum(hi - tree.P[order], tree.P[order] + neg_lo)

    def leaf_values(self, b, s, g=None):
        """Payoff plus cost per leaf and the position each closing trade faces.

        ``g`` is the closing trades' gross size, at least ``|x_pre|``; by
        default exactly that.  The spread entries of ``lift`` and ``leaf_jac``
        are refreshed to this point.
        """
        tree, leaves = self.tree, self.leaf_rows
        net, gross = np.zeros(tree.n_nodes), np.zeros(tree.n_nodes)
        net[self.decision_rows], gross[self.decision_rows] = b - s, b + s
        states = tree_states(tree, net, gross, self.impact.x0, self.impact.zeta0)
        x_pre, eta_pre, p_run, pen_run = states[leaves].T  # a leaf's own trade is the closing one
        eta = eta_pre + self.c[leaves] * (np.abs(x_pre) if g is None else g)
        np.multiply(self.edge_mass, states[self.parent_of, 1], out=self.lift[:, 2, 0])
        slope = tree.kappa[leaves] * eta
        np.add(tree.edge_weight[leaves] * eta_pre, slope, out=self.leaf_jac[:, 0, 0])
        np.multiply(slope, self.c[leaves], out=self.leaf_jac[:, 0, 3])
        return self.H + (p_run - tree.P[leaves] * x_pre) + 0.5 * (pen_run + slope * eta), x_pre

    def pullback(self, dual):
        """The leaf multipliers ``dual`` ``(L, 3)`` times the constraints' Jacobian, and the gradient scale.

        One fold of ``leaf_jac.T @ dual`` up through each node's ``lift.T``
        gives the entries on ``t``, on each decision node's buy and sell (slot
        order) and on each closing trade.  Its spread and running-value entries
        at a node are ``A``, the multiplier-weighted sum of the tails of the
        leaves below, and ``Λ``, their multipliers' mass.  The scale of the
        values' gradients is the largest ``c * |A / Λ| + price_range`` over
        decision nodes and ``c * kappa * eta`` over leaves.
        """
        leaf = np.einsum("lk,lki->li", dual, self.leaf_jac)
        below, rows = np.empty((self.n_dec, 3)), np.empty((self.n_dec, 5))  # level order

        def step(sums, nodes):
            span = self.spans[int(self.tree.t_index[nodes[0]])]
            below[span] = sums
            return np.einsum("nij,ni->nj", self.lift[span], sums, out=rows[span])[:, :3]

        root = self.tree.fold_up(leaf[:, :3], step)  # on the root's parent state, where W holds -t
        trades = np.empty((self.n_dec, 2))
        trades[self.level_slots] = rows[:, 3:]
        c = self.lift[:, 0, 3]  # rho / delta, level order
        scale = max(float(np.abs(self.leaf_jac[:, 0, 3]).max()),
                    float(np.max(c * np.abs(below[:, 0] / below[:, 2]) + self.price_range)))
        return -float(root[2]), trades, leaf[:, 3], scale

    def cash_requirement(self, u) -> tuple[float, TradeSchedule]:
        """Exact worst-leaf cash needed by the normalized schedule built from ``u``, and that schedule."""
        schedule = _liquidating(self.tree, self.decision, u[: self.n_dec], u[self.n_dec :], self.impact.x0)
        tw = tree_wealth(self.tree, schedule, replace(self.impact, xi0=0.0))
        return float(np.max(self.H - tw.xi_T)), schedule


def _liquidating(tree: ScenarioTree, nodes, buys, sells, x0: float) -> TradeSchedule:
    """Normalized schedule of ``buys`` and ``sells`` at ``nodes``; each leaf instead closes its position."""
    b, s = np.zeros(tree.n_nodes), np.zeros(tree.n_nodes)
    b[nodes], s[nodes] = buys, sells
    leaves = tree.leaves
    b[leaves] = s[leaves] = 0.0
    close = tree.accumulate(b - s, initial=x0)[leaves]  # position carried into the terminal trade
    b[leaves], s[leaves] = np.maximum(-close, 0.0), np.maximum(close, 0.0)
    return normalize(TradeSchedule(b, s, x0))


def _pivots(pivot: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cholesky columns ``l00, l10, l11`` of a batch of 2x2 pivots ``(n, 2, 2)``, written into ``out`` ``(3, n)``.

    ``LinAlgError`` where a pivot is not positive definite, checked before each square root.
    """
    l00, l10, l11 = out
    a00 = pivot[:, 0, 0]
    if not a00.min() > 0.0:  # NaN fails too
        raise np.linalg.LinAlgError("a pivot is not positive definite")
    np.sqrt(a00, out=l00)
    np.divide(pivot[:, 1, 0], l00, out=l10)
    a11 = pivot[:, 1, 1] - l10 * l10
    if not a11.min() > 0.0:
        raise np.linalg.LinAlgError("a pivot is not positive definite")
    np.sqrt(a11, out=l11)
    return out


def _substitute(l00, l10, l11, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Solve ``low @ low.T @ x = rhs`` for pivots given by their Cholesky columns, into ``out``.

    Axis 1 of ``rhs`` and ``out`` holds each pivot's own entries, one (only
    ``l00`` is read) or two; the columns broadcast against ``rhs[:, 0]``.
    """
    x0 = np.divide(rhs[:, 0], l00, out=out[:, 0])  # forward: low @ y = rhs
    if rhs.shape[1] == 2:
        x1 = np.subtract(rhs[:, 1], l10 * x0, out=out[:, 1])
        x1 /= l11  # both substitutions of the last entry
        x1 /= l11
        x0 -= l10 * x1  # backward: low.T @ x = y
    x0 /= l00
    return out


class _TreeFactor:
    """The condensed Newton matrix, factored on node states without forming it.

    Each leaf's curvature row and three constraint rows involve only its
    closing trade and its parent's state.  Eliminating the closing trade (a
    1x1 pivot, done by the caller: ``leaf_blocks``, ``leaf_l00`` and
    ``leaf_coupling``) leaves a 3x3 block on the parent's state.  At each
    level, deepest first, a node's children's blocks are summed; the node's
    state update lifts the sum to a 5x5 block on its parent's state and its
    own buy and sell; the barrier diagonal joins the pair, and eliminating the
    pair (a 2x2 pivot) leaves a 3x3 block on the parent's state.  The root's
    parent state is ``(0, 0, -dt)``, so a scalar on ``t`` remains.

    The curvature of the penalty's mass on the edge into a node, ``max(m,
    0)`` times the leaf multipliers below it, falls on its parent's spread.
    The multipliers are summed up the tree in the same fold, in row 3 of each
    ``(4, 3)`` row.  A rising liquidity curve gives some mass a negative
    sign; leaving it out keeps the matrix definite, at the price of a slower
    (but still exact-cash) search.

    One factorisation serves any number of right-hand sides.  The 2x2
    pivots are kept as three columns ``l00``, ``l10``, ``l11`` over the
    decision nodes in level order, so a solve substitutes all of them at once.
    """

    def __init__(self, prob: _PrimalProblem, leaf_blocks, leaf_l00, leaf_coupling, diag):
        self.prob, self.leaf_l00, self.leaf_coupling = prob, leaf_l00, leaf_coupling
        self.diag = diag[prob.level_slots]
        self.pivots = np.empty((3, prob.n_dec))  # l00, l10, l11 per decision node, level order
        self.couplings = [None] * len(prob.spans)
        self.border = float(prob.tree.fold_up(leaf_blocks, self._eliminate)[2, 2])

    def _eliminate(self, sums: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Lift the children's summed blocks, add the barrier diagonal, factor the buy/sell pivots
        and write the Schur complement on the parents' states into ``sums``."""
        k = int(self.prob.tree.t_index[nodes[0]])
        span = self.prob.spans[k]
        lift = self.prob.lift[span]
        block = np.matmul(lift.transpose(0, 2, 1), np.matmul(sums[:, :3], lift))
        block[:, [3, 4], [3, 4]] += self.diag[span]
        l00, l10, l11 = _pivots(block[:, 3:, 3:], self.pivots[:, span])[:, :, None]
        coupling = self.couplings[k] = _substitute(l00, l10, l11, block[:, 3:, :3], np.empty((nodes.size, 2, 3)))
        np.subtract(block[:, :3, :3], np.matmul(block[:, :3, 3:], coupling), out=sums[:, :3])
        sums[:, 0, 0] += self.prob.convex_mass[span] * sums[:, 3, 0]  # the edge's mass meets the parent's spread
        return sums

    def solve(self, weights: np.ndarray, own: np.ndarray, t_rhs: float) -> tuple[float, np.ndarray]:
        """Solution for the leaf constraints' weights ``(L, 3)``, decision-node terms ``own`` and ``t``'s own term.

        The right-hand side is ``weights`` times the constraint rows, plus
        ``own`` on the buys and sells and ``t_rhs`` on ``t``.  Returns the
        change of ``t`` and one row of five per node: a decision node's state
        change and its buy and sell; a leaf's change of its three constraints
        and its closing trade.
        """
        prob, tree = self.prob, self.prob.tree
        own = own[prob.level_slots]
        kept = np.empty((prob.n_dec, 2))  # each decision node's own right-hand sides, level order
        leaf_rhs = np.einsum("lk,lki->li", weights, prob.leaf_jac)

        def reduce(r, nodes):
            k = int(tree.t_index[nodes[0]])
            span = prob.spans[k]
            lifted = np.einsum("nij,ni->nj", prob.lift[span], r)
            r_own = np.add(lifted[:, 3:], own[span], out=kept[span])
            return lifted[:, :3] - np.einsum("nij,ni->nj", self.couplings[k], r_own)

        root = tree.fold_up(leaf_rhs[:, :3] - self.leaf_coupling * leaf_rhs[:, 3:], reduce)  # on the root's parent
        dt = (t_rhs - root[2]) / self.border
        # Every pivot's substitutions at once, before the parents' states are known.
        x = _substitute(*self.pivots, kept, np.empty_like(kept))
        leaf_x = _substitute(self.leaf_l00, None, None, leaf_rhs[:, 3:], np.empty((leaf_rhs.shape[0], 1)))

        def back(upper, nodes):  # upper: the parents' rows, a fresh gather, state first
            k = int(tree.t_index[nodes[0]])
            if k < len(prob.spans):
                span = prob.spans[k]
                np.subtract(x[span], np.einsum("nij,nj->ni", self.couplings[k], upper[:, :3]), out=upper[:, 3:])
                upper[:, :3] = np.einsum("nij,nj->ni", prob.lift[span], upper)
            else:
                np.subtract(leaf_x[:, 0], np.einsum("li,li->l", self.leaf_coupling, upper[:, :3]), out=upper[:, 3])
                upper[:, :3] = np.einsum("lij,lj->li", prob.leaf_jac, upper[:, :4])
            return upper

        top = np.zeros((1, 5))
        top[0, 2] = -dt
        return dt, tree.down_sweep(back(top, np.zeros(1, dtype=int))[0], back)


class _Iterate:
    """Primal–dual point of the epigraph program, held as one flat vector ``z``.

    ``z`` is ``[t, close, trades, slack, dual, bound_dual]`` and the fields are
    views of it.  Per leaf, the three constraints are ``v_l - t <= 0`` and
    ``±x_pre - g <= 0`` (columns of ``slack`` and ``dual``); per decision
    node, the bounds ``b, s >= 0`` (columns of ``trades`` and
    ``bound_dual``).  Everything after ``close`` stays non-negative.
    """

    def __init__(self, z: np.ndarray, n_dec: int):
        L = (z.size - 1 - 4 * n_dec) // 7
        self.z = z
        self.close = z[1 : 1 + L]  # (L,): gross closing trade g
        self.trades = z[1 + L : 1 + L + 2 * n_dec].reshape(n_dec, 2)  # buy and sell
        self.slack, self.dual = z[1 + L + 2 * n_dec : 1 + 7 * L + 2 * n_dec].reshape(2, L, 3)
        self.bound_dual = z[1 + 7 * L + 2 * n_dec :].reshape(n_dec, 2)

    @property
    def t(self) -> float:
        return float(self.z[0])

    @property
    def bounded(self) -> np.ndarray:
        """The entries that stay non-negative: trades, slacks and multipliers."""
        return self.z[1 + self.close.size :]

    def moved(self, step: "_Iterate", a: float) -> "_Iterate":
        return _Iterate(self.z + a * step.z, self.trades.shape[0])

    def mu(self) -> float:
        """Mean complementarity product over every inequality."""
        products = float((self.dual * self.slack).sum()) + float((self.bound_dual * self.trades).sum())
        return products / (self.slack.size + self.trades.size)


class _Residuals:
    """Residuals and complementarity of the epigraph program at one iterate.

    ``values`` are ``prob.leaf_values`` at the iterate, which the line search has computed
    already, and ``pulled`` is ``prob.pullback`` of its leaf multipliers: stationarity.
    """

    def __init__(self, it: _Iterate, values, pulled):
        vals, x_pre = values
        self.primal = np.stack([vals - it.t, x_pre - it.close, -x_pre - it.close], axis=1) + it.slack
        on_t, on_trades, self.dual_close, grad_scale = pulled
        self.dual_t, self.dual_trades = 1.0 + on_t, on_trades - it.bound_dual
        self.n_ineq = it.slack.size + it.trades.size
        self.mu = it.mu()
        # Residuals relative to the problem's scale: values and trades for the constraints and
        # complementarity, gradient entries for stationarity.
        scale = 1.0 + max(abs(it.t), float(np.abs(vals).max()), float(it.close.max()))
        stationarity = max(abs(self.dual_t), float(np.abs(self.dual_trades).max(initial=0.0)),
                           float(np.abs(self.dual_close).max()))
        self.error = max(
            float(np.abs(self.primal).max()) / scale,
            stationarity / (1.0 + grad_scale),
            self.n_ineq * self.mu / scale,
        )


def _newton_matrix(prob: _PrimalProblem, it: _Iterate) -> _TreeFactor:
    """Factor the condensed Newton matrix at the last point ``prob.leaf_values`` saw: curvature
    plus constraint rows weighted by dual/slack, and the bounds' barrier diagonal.

    The penalty's mass on an edge meets the spread at its upper end, so ``W``
    gains ``mass * eta_parent * d eta_parent`` on the edge, and a leaf's value
    ``kappa * eta_leaf * d eta_leaf``.  Per leaf, the square-root rows ``R``
    are its curvature row and its three weighted constraint rows over its
    parent's state and its closing trade.  Eliminating the closing trade (the
    last column) leaves the Gram matrix of the rows projected off that column,
    so no 4x4 block is ever formed.
    """
    tree, leaves = prob.tree, prob.leaf_rows
    lam = it.dual[:, 0]
    roots = np.zeros((lam.size, 4, 4))
    roots[:, 0, 0] = np.sqrt(lam * np.maximum(tree.kappa[leaves], 0.0))
    roots[:, 0, 3] = roots[:, 0, 0] * prob.c[leaves]
    np.multiply(prob.leaf_jac, np.sqrt(it.dual / it.slack)[:, :, None], out=roots[:, 1:])
    close = roots[:, :, -1].copy()
    pivot = np.einsum("lr,lr->l", close, close)
    coupling = np.einsum("lr,lra->la", close, roots[:, :, :-1]) / pivot[:, None]
    rest = roots[:, :, :-1] - close[:, :, None] * coupling[:, None, :]
    blocks = np.zeros((lam.size, 4, 3))  # the block on the parent's state, then the multiplier
    np.matmul(rest.transpose(0, 2, 1), rest, out=blocks[:, :3])
    blocks[:, 0, 0] += np.maximum(tree.edge_weight[leaves], 0.0) * lam
    blocks[:, 3, 0] = lam
    return _TreeFactor(prob, blocks, np.sqrt(pivot), coupling, it.bound_dual / it.trades)


def _direction(prob, it: _Iterate, res: _Residuals, factor: _TreeFactor, target, bound_target) -> _Iterate:
    """Newton direction towards complementarity ``target`` (per leaf constraint) and ``bound_target``."""
    rho = (target - it.dual * (it.slack - res.primal)) / it.slack
    dt, sol = factor.solve(-(it.dual + rho), bound_target / it.trades, -1.0)
    leaf = sol[prob.leaf_rows]
    step = _Iterate(np.empty_like(it.z), prob.n_dec)
    step.z[0] = dt
    step.close[:] = leaf[:, 3]
    step.trades[:] = sol[prob.decision_rows, 3:]
    np.subtract(-res.primal, leaf[:, :3], out=step.slack)
    np.divide(target - it.dual * (it.slack + step.slack), it.slack, out=step.dual)
    np.divide(bound_target - it.bound_dual * (it.trades + step.trades), it.trades, out=step.bound_dual)
    return step


def _boundary_step(it: _Iterate, step: _Iterate) -> float:
    """Longest step in [0, 1] that keeps trades, slacks and multipliers non-negative."""
    x, dx = it.bounded, step.bounded
    falling = dx < 0.0
    return min(1.0, float(np.min(-x[falling] / dx[falling]))) if falling.any() else 1.0


def _interior_point(prob: _PrimalProblem, opts: SolverOptions) -> tuple[_Iterate, int, bool]:
    """Mehrotra predictor–corrector from an infeasible start.

    Returns the last iterate, the Newton steps taken and whether the relative
    residual met ``opts.tol``.  The search also stops when the Newton budget
    ``opts.max_iter`` runs out, when no step is acceptable, or when the
    residual sets no new best in ``STALL_STEPS`` steps (a rising liquidity
    curve can leave the program without a minimum).
    """
    L, n = prob.H.size, prob.n_dec
    it = _Iterate(np.empty(1 + 7 * L + 4 * n), n)
    it.trades[:] = 1.0
    it.close[:] = abs(prob.impact.x0) + 1.0  # equal buys and sells leave every leaf facing x0
    values = prob.leaf_values(it.trades[:, 0], it.trades[:, 1], it.close)
    x_pre = values[1]
    it.z[0] = t = float(values[0].max())
    np.maximum(-np.stack([values[0] - t, x_pre - it.close, -x_pre - it.close], axis=1), 1.0, out=it.slack)
    # leaf multipliers on the simplex, bound multipliers on the gradients' scale
    it.dual[:] = 1.0 / L
    pulled = prob.pullback(it.dual)
    it.bound_dual[:] = 1.0 + pulled[3]

    best, since_best = np.inf, 0
    budget = max(opts.max_iter, 0)
    for steps in range(budget + 1):
        res = _Residuals(it, values, pulled)
        if res.error <= opts.tol:
            return it, steps, True
        best, since_best = (res.error, 0) if res.error < best else (best, since_best + 1)
        if since_best >= STALL_STEPS or steps == budget:
            break
        try:
            factor = _newton_matrix(prob, it)
        except np.linalg.LinAlgError:  # a pivot lost definiteness to rounding
            break
        affine = _direction(prob, it, res, factor, np.zeros_like(it.slack), np.zeros_like(it.trades))
        mu_affine = it.moved(affine, _boundary_step(it, affine)).mu()
        sigma_mu = (mu_affine / res.mu) ** 3 * res.mu
        step = _direction(prob, it, res, factor, sigma_mu - affine.slack * affine.dual,
                          sigma_mu - affine.trades * affine.bound_dual)
        a = min(1.0, 0.995 * _boundary_step(it, step))
        # Linear constraints shrink their residual by (1 - a) on any step; the quadratic
        # ones may not, so shorten the step while they lag too far behind.
        quad = float(np.linalg.norm(res.primal[:, 0]))
        while a > MIN_STEP:
            trial = it.moved(step, a)
            values = prob.leaf_values(trial.trades[:, 0], trial.trades[:, 1], trial.close)  # the next residuals'
            if np.linalg.norm(values[0] - trial.t + trial.slack[:, 0]) <= (1 - 0.5 * a) * quad + a * res.n_ineq * res.mu:
                break
            a *= 0.5
        else:
            break
        it = trial
        pulled = prob.pullback(it.dual)
    return it, steps, False


def primal_solve(tree: ScenarioTree, market: MarketSpec, H, options: SolverOptions | None = None) -> PriceReport:
    """Least initial cash whose forced-liquidation schedule dominates the payoff almost surely.

    Deterministic interior-point solve of the epigraph program on the tree's
    reached part, where unreached nodes only close the position; the returned
    value is the exact worst-reached-leaf cash requirement of the returned
    schedule, so it is always sufficient (feasible) whatever the convergence
    flag says.  Holding ``x0`` and liquidating at the leaves is priced too,
    and the cheaper schedule is returned, the solver's on a tie: where doing
    nothing is optimal, its exact cash carries no rounding of the search.
    """
    H = leaf_payoff(tree, H)
    sub, reached = tree.reached_part()
    on_leaf = reached[tree.leaves]
    prob = _PrimalProblem(sub, market, H[on_leaf])
    it, steps, converged = _interior_point(prob, options or SolverOptions())
    value, schedule = min(prob.cash_requirement(it.trades.T.ravel()), prob.cash_requirement(np.zeros(2 * prob.n_dec)),
                          key=lambda priced: priced[0])
    if sub is not tree:
        schedule = _liquidating(tree, reached, schedule.buys, schedule.sells, schedule.x0)
    weights, closing = np.zeros(on_leaf.size), np.zeros((on_leaf.size, 2))
    weights[on_leaf], closing[on_leaf] = it.dual[:, 0], it.dual[:, 1:]
    return PriceReport(primal_value=value, strategy=schedule, leaf_weights=weights, closing_multipliers=closing,
                       iterations=steps, primal_converged=converged)


def brute_force_oracle(tree: ScenarioTree, market: MarketSpec, H, trade_grid) -> float:
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
        raise InstanceTooLarge("oracle accepts at most 3 periods")
    if np.bincount(tree.parent[1:]).max() > 3:
        raise InstanceTooLarge("oracle accepts at most 3 branches per node")
    if grid.size > 1000:
        raise InstanceTooLarge("oracle accepts at most 1000 lattice points per trade")
    depth = tree.t_index[tree.leaves]
    if float(np.sum(grid.size ** depth.astype(float))) > 5e7:
        raise InstanceTooLarge("lattice enumeration would be too large")

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


# ---------------------------------------------------------------------------
# Dual side
# ---------------------------------------------------------------------------


def default_certificate(tree: ScenarioTree, market: MarketSpec) -> DualCertificate:
    """Reference measure, projected price and flat spread, raised by :func:`restore_feasibility`."""
    q = NodeMeasure.reference(tree)
    M = conditional_expectation(tree, q, tree.P[tree.leaves])
    cert = DualCertificate(q=q, M=M, alpha=np.full(tree.n_nodes, market.impact.zeta0))
    return restore_feasibility(tree, cert, market)


def dual_ascent(tree: ScenarioTree, market: MarketSpec, H, init_cert: DualCertificate | None,
                options: SolverOptions | None = None) -> PriceReport:
    """:func:`gap_report` with ``init_cert`` as one more candidate; no search runs.

    The certificate read off the primal leaves a gap within the primal's own
    tolerance, so by weak duality no ascent from it could gain more.
    """
    return gap_report(tree, market, H, options, certificate=init_cert)


def gap_report(tree: ScenarioTree, market: MarketSpec, H, options: SolverOptions | None = None,
               certificate: DualCertificate | None = None) -> PriceReport:
    """Solve the primal once, certify it without a search, and report the gap (weak duality enforced).

    The candidates are two certificates read off the primal's multipliers
    and schedule (:func:`~transient_impact.duality.certificate_from`, with
    and without the closing trades' multipliers), the default one and a
    given ``certificate``, refused before any solve unless it passes
    :func:`~transient_impact.duality.require_certificate`.  The report keeps
    the one worth most, the first on a tie.  A gap within ``tol * (1 + |primal|)``
    proves the primal optimal, so it then counts as converged even where the
    Newton search stalled.
    """
    opts = options or SolverOptions()
    tree.require_decay()
    if certificate is not None:
        require_certificate(tree, certificate, market)
    primal = primal_solve(tree, market, H, opts)
    candidates = (
        certificate_from(tree, market, primal.strategy, primal.leaf_weights),
        certificate_from(tree, market, primal.strategy, primal.leaf_weights, primal.closing_multipliers),
        default_certificate(tree, market),
        *(() if certificate is None else (certificate,)),
    )
    values = [dual_objective(tree, cert, market, H) for cert in candidates]
    best = int(np.argmax(values))
    gap = float(primal.primal_value - values[best])
    scale = 1.0 + abs(primal.primal_value) + abs(values[best])
    if gap < -WEAK_DUALITY_RTOL * scale:
        raise WeakDualityViolated(f"weak duality violated: gap {gap:.3e}")
    return replace(
        primal,
        dual_value=values[best],
        certificate=candidates[best],
        gap=gap,
        primal_converged=primal.primal_converged or gap <= opts.tol * (1.0 + abs(primal.primal_value)),
    )

"""Super-replication pricing on scenario trees: primal and certificates.

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

No dual search runs.  ``primal_solve`` alone decides the verdict: where the
liquidity decays, it reads two certificates off an iterate's multipliers and
spread (:func:`~transient_impact.duality.certificate_from`), one whose
martingale comes from the closing trades' multipliers and one with a band
martingale, keeps the best of them and the default one, and stops only when
that certificate's gap proves the value optimal.  ``gap_report`` adds a given
certificate, kept only when it is worth strictly more.  Every emitted
certificate is exactly feasible.  The gap between both sides is reported,
never assumed zero.  Everything is deterministic.
"""

from __future__ import annotations

import functools
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
from .errors import WeakDualityViolated
from .market import MarketSpec
from .strategy import TradeSchedule, normalize
from .tree import NodeMeasure, ScenarioTree, _as_slice, conditional_expectation
from .wealth import tree_states, tree_wealth


# The primal search stops when its relative residual sets no new best in this many
# Newton steps, or when no step of at least this length is acceptable.
STALL_STEPS = 20
MIN_STEP = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs: the tolerance that certifies the primal and its budget of Newton steps.

    A solve is converged when its certificate's gap is at most ``tol * (1 +
    |primal|)`` (see :class:`PriceReport`); ``tol`` must be positive and
    finite.  A negative budget acts as zero.
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
    closing trade (one row per leaf).  ``primal_converged`` says the gap
    certifies the primal value optimal: ``gap <= tol * (1 + |primal|)``.  On
    a liquidity curve that rises along an edge no certificate bounds the
    price, so there ``dual_value``, ``certificate`` and ``gap`` are ``None``
    and the flag says the Newton search met ``tol``.  ``dual_converged`` is
    the same flag.  ``stop_reason`` says why the Newton search stopped:
    ``tolerance`` (its relative residual met ``tol`` and, where a certificate
    bounds the price, so did the gap), ``stalled`` (``STALL_STEPS`` steps
    without a new best residual), ``budget`` (``max_iter`` steps taken),
    ``breakdown`` (a pivot of the Newton matrix lost definiteness) or
    ``no_step`` (no step of at least ``MIN_STEP`` was acceptable);
    ``residual`` is the relative residual it stopped at.
    """

    primal_value: float
    strategy: TradeSchedule
    leaf_weights: np.ndarray
    closing_multipliers: np.ndarray
    iterations: int
    primal_converged: bool
    stop_reason: str
    residual: float
    dual_value: float | None = None
    certificate: DualCertificate | None = None
    gap: float | None = None

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


def _interior_point(prob: _PrimalProblem, opts: SolverOptions,
                    certifies=lambda it: True) -> tuple[_Iterate, int, str, float]:
    """Mehrotra predictor–corrector from an infeasible start.

    Returns the last iterate, the Newton steps taken, why the search stopped
    (:attr:`PriceReport.stop_reason`) and the relative residual there.  It
    stops at ``tolerance`` once the relative residual meets ``tol`` and
    ``certifies`` accepts the iterate; otherwise it steps on.  A rising
    liquidity curve can leave the program without a minimum, where the
    search stalls.  The budget check returns on the last pass of the loop.
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
        if res.error <= opts.tol and certifies(it):
            return it, steps, "tolerance", res.error
        best, since_best = (res.error, 0) if res.error < best else (best, since_best + 1)
        if since_best >= STALL_STEPS:
            return it, steps, "stalled", res.error
        if steps == budget:
            return it, steps, "budget", res.error
        try:
            factor = _newton_matrix(prob, it)
        except np.linalg.LinAlgError:
            return it, steps, "breakdown", res.error
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
            return it, steps, "no_step", res.error
        it = trial
        pulled = prob.pullback(it.dual)


def primal_solve(tree: ScenarioTree, market: MarketSpec, H, options: SolverOptions | None = None) -> PriceReport:
    """Least initial cash whose forced-liquidation schedule dominates the payoff almost surely, certified.

    Deterministic interior-point solve of the epigraph program on the tree's
    reached part, where unreached nodes only close the position; the returned
    value is the exact worst-reached-leaf cash requirement of the returned
    schedule, so it is always sufficient (feasible) whatever the convergence
    flag says.  Holding ``x0`` and liquidating at the leaves is priced too,
    and the cheaper schedule is returned, the solver's on a tie: where doing
    nothing is optimal, its exact cash carries no rounding of the search.

    Where the liquidity decays, an iterate that meets the Newton test is
    certified by the best of :func:`~transient_impact.duality.certificate_from`
    with and without the closing multipliers and the default certificate, the
    first on a tie: the search stops only on a gap within ``tol * (1 + |primal|)``.
    """
    opts = options or SolverOptions()
    H = leaf_payoff(tree, H)
    sub, reached = tree.reached_part()
    on_leaf = reached[tree.leaves]
    prob = _PrimalProblem(sub, market, H[on_leaf])
    hold = prob.cash_requirement(np.zeros(2 * prob.n_dec))
    default = default_certificate(tree, market) if tree.decay_margin >= 0.0 else None

    @functools.lru_cache(maxsize=1)  # an iterate that met the Newton test is certified once
    def priced(it: _Iterate) -> dict:
        """The report's fields at ``it``; with a decaying curve, its certificate and the verdict of its gap."""
        value, schedule = min(prob.cash_requirement(it.trades.T.ravel()), hold, key=lambda pair: pair[0])
        if sub is not tree:
            schedule = _liquidating(tree, reached, schedule.buys, schedule.sells, schedule.x0)
        weights, closing = np.zeros(on_leaf.size), np.zeros((on_leaf.size, 2))
        weights[on_leaf], closing[on_leaf] = it.dual[:, 0], it.dual[:, 1:]
        fields = dict(primal_value=value, strategy=schedule, leaf_weights=weights, closing_multipliers=closing)
        if default is None:
            return fields
        candidates = (certificate_from(tree, market, schedule, weights),
                      certificate_from(tree, market, schedule, weights, closing), default)
        values = [dual_objective(tree, cert, market, H) for cert in candidates]
        return fields | _certified(value, candidates, values, opts.tol)

    certifies = (lambda it: True) if default is None else (lambda it: priced(it)["primal_converged"])
    it, steps, stop, residual = _interior_point(prob, opts, certifies)
    # On a rising curve no certificate bounds the price, so the Newton test's verdict stands.
    fields = {"primal_converged": stop == "tolerance", **priced(it)}
    return PriceReport(**fields, iterations=steps, stop_reason=stop, residual=residual)


def _certified(primal_value: float, candidates, values, tol: float) -> dict:
    """The certificate of largest dual value, the first on a tie, its gap and whether the gap certifies;
    a gap below ``-WEAK_DUALITY_RTOL`` of the values' scale raises :class:`WeakDualityViolated`."""
    best = int(np.argmax(values))
    gap = float(primal_value - values[best])
    if gap < -WEAK_DUALITY_RTOL * (1.0 + abs(primal_value) + abs(values[best])):
        raise WeakDualityViolated(f"weak duality violated: gap {gap:.3e}")
    return dict(dual_value=values[best], certificate=candidates[best], gap=gap,
                primal_converged=gap <= tol * (1.0 + abs(primal_value)))


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
    """:func:`gap_report` with ``init_cert`` as one more candidate; no search runs: a converged solve's
    own certificate closes the gap to ``tol``, so by weak duality no ascent could gain more."""
    return gap_report(tree, market, H, options, certificate=init_cert)


def gap_report(tree: ScenarioTree, market: MarketSpec, H, options: SolverOptions | None = None,
               certificate: DualCertificate | None = None) -> PriceReport:
    """The certified primal solve, with a given ``certificate`` as one more candidate (weak duality enforced).

    Refuses a rising liquidity curve and a given ``certificate`` that fails
    :func:`~transient_impact.duality.require_certificate` before any solve.
    The given one replaces :func:`primal_solve`'s only when worth strictly
    more, and the verdict is then read off its gap.
    """
    opts = options or SolverOptions()
    tree.require_decay()
    if certificate is not None:
        require_certificate(tree, certificate, market)
    report = primal_solve(tree, market, H, opts)
    if certificate is None:
        return report
    values = (report.dual_value, dual_objective(tree, certificate, market, H))
    return replace(report, **_certified(report.primal_value, (report.certificate, certificate), values, opts.tol))

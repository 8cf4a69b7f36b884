"""Super-replication pricing on scenario trees: primal, oracle and certificates.

The primal program minimises, over non-negative buy/sell quantities at every
non-terminal node, the worst-leaf sum of payoff and cost functional; each leaf
closes the running position.  It is solved in epigraph form: minimise ``t``
subject to ``v_l <= t`` per leaf, ``b, s >= 0`` per decision node and
``g_l >= |x_pre,l|`` for each closing trade, by a primal–dual interior-point
method (Mehrotra predictor–corrector from an infeasible start).  Each leaf's
value depends only on the trades along its own path, so every Newton system
is solved along the tree (``_TreeFactor``) in O(nodes * depth**2) without
forming a dense matrix.  A solve allocates its large arrays once, in a
workspace of two buffers (``_Workspace``) that every Newton step writes into;
the iterate is one flat vector, and each level's 2x2 pivots are kept as three
columns, so a step makes few numpy calls and allocates no large array.  The
leaf multipliers form a probability over leaves.
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
    check_feasibility,
    dual_objective,
    leaf_payoff,
    restore_feasibility,
)
from .errors import InfeasibleInit, InstanceTooLarge, WeakDualityViolated
from .market import MarketSpec
from .strategy import TradeSchedule, normalize
from .tree import NodeMeasure, ScenarioTree, _as_slice, conditional_expectation
from .wealth import book_value, leaf_path_rows, spread_penalty, tree_wealth


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
    probability over leaves, and ``closing_multipliers`` the multipliers of
    ``x_pre - g <= 0`` and ``-x_pre - g <= 0`` on each leaf's closing trade
    (one row per leaf).  ``primal_converged`` says the primal value is
    optimal to tolerance: its Newton search met ``tol``, or, in
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
    """The epigraph program on leaf-path rows: leaf values, their gradients and curvature.

    Per leaf, Newton quantities use the layout ``[t, b_0, s_0, ..., b_{D-1},
    s_{D-1}, g]``: the bound ``t``, the buy and sell at each decision node on
    the path, root first, and the closing trade's gross size ``g``.  So a node
    at level ``k`` owns the entries from ``2k + 1`` on, two for a decision
    node and one for a leaf, and ``t`` and its ancestors fill the entries
    before them.
    """

    def __init__(self, tree: ScenarioTree, market: MarketSpec, H):
        self.tree = tree
        self.impact = market.impact
        self.H = leaf_payoff(tree, H)

        self.decision = np.flatnonzero(~tree.is_leaf)
        self.n_dec = self.decision.size
        self.slot_of = np.full(tree.n_nodes, -1)
        self.slot_of[self.decision] = np.arange(self.n_dec)

        paths, self.c_path, self.w_path, self.kappa_leaf = leaf_path_rows(tree)  # (L, n_levels) rows
        self.var_idx = self.slot_of[paths[:, :-1]]
        self.P_path = tree.P[paths]
        self.dprice = self.P_path[:, :-1] - self.P_path[:, -1:]
        self.mass = np.concatenate([self.w_path, self.kappa_leaf[:, None]], axis=1)
        depth = tree.n_levels - 1
        self.gross_of = np.repeat(np.arange(depth + 1), [2] * depth + [1])  # layout entry (t excluded) -> slot
        net_sign = np.zeros(2 * depth + 2)  # d x_pre / d layout entry
        net_sign[1:-1:2], net_sign[2:-1:2] = 1.0, -1.0
        # Constraint rows in the layout; only the leaf rows' gradient, rows[:, 0, 1:], changes.
        self.rows = np.zeros((self.H.size, 3, net_sign.size))
        self.rows[:, 0, 0] = -1.0
        self.rows[:, 1] = net_sign
        self.rows[:, 2] = -net_sign
        self.rows[:, 1:, -1] = -1.0
        self.trade_bins = (2 * self.var_idx[:, :, None] + np.arange(2)).ravel()  # (leaf, slot, side) -> trade
        self.curvature_mass = np.maximum(self.mass, 0.0)
        self.curvature_c = self.c_path[:, self.gross_of]
        self.curvature_mask = self.gross_of <= np.arange(self.mass.shape[1])[:, None]
        # Per decision level k: its own entries start at 2k + 1; its nodes' slots; their
        # positions in level order, where the factor keeps its pivots.
        starts = np.cumsum([0] + [level.size for level in tree.levels[:-1]]).tolist()
        self.plans = [(2 * k + 1, _as_slice(self.slot_of[level]), slice(starts[k], starts[k + 1]))
                      for k, level in enumerate(tree.levels[:-1])]
        self.leaf_rows = _as_slice(tree.leaves)
        own = 2 * tree.t_index[self.decision] + 1  # each decision node's first own entry
        self.own_entries = (self.decision * net_sign.size + own)[:, None] + np.arange(2)

    def leaf_values(self, b, s, g=None):
        """Payoff plus cost per leaf, the position each closing trade faces, and the spread rows.

        ``g`` is the closing trades' gross size, at least ``|x_pre|``; by default exactly that.
        """
        bp, sp = b[self.var_idx], s[self.var_idx]
        nu = bp - sp
        x_pre = self.impact.x0 + nu.sum(axis=1)
        gross = np.concatenate([bp + sp, (np.abs(x_pre) if g is None else g)[:, None]], axis=1)
        eta, pen = spread_penalty(self.impact.zeta0, self.c_path, gross, self.w_path, self.kappa_leaf)
        pint = (self.P_path[:, :-1] * nu).sum(axis=1) - self.P_path[:, -1] * x_pre
        return self.H + pint + pen, x_pre, eta

    def gradients(self, eta) -> np.ndarray:
        """Gradient rows of the leaf values at spread rows ``eta``, in the layout without ``t``.

        They are written into the leaf rows of ``self.rows``; the returned rows are a view.
        """
        tail = self.c_path * np.cumsum((self.mass * eta)[:, ::-1], axis=1)[:, ::-1]
        grad = self.rows[:, 0, 1:]  # per slot: buy, sell, ..., then the closing trade
        np.add(tail[:, :-1], self.dprice, out=grad[:, :-1:2])
        np.subtract(tail[:, :-1], self.dprice, out=grad[:, 1:-1:2])
        grad[:, -1] = tail[:, -1]
        return grad

    def curvature_rows(self, lam, out) -> np.ndarray:
        """Square-root rows ``R`` of the ``lam``-weighted curvature, written into ``out``.

        Each leaf's block is ``R.T @ R``.

        The penalty is ``0.5 * sum_k mass_k * eta_k**2`` with ``eta_k`` linear in
        the gross trades up to slot ``k``, so row ``k`` is ``sqrt(lam * mass_k)``
        times ``c`` on those trades (``t`` column zero).  A rising liquidity curve
        gives some mass a negative sign; leaving it out keeps the Newton matrix
        definite, at the price of a slower (but still exact-cash) search.
        """
        out[:, :, 0] = 0.0
        inner = out[:, :, 1:]
        np.multiply(np.sqrt(lam[:, None] * self.curvature_mass)[:, :, None], self.curvature_c[:, None, :], out=inner)
        inner *= self.curvature_mask
        return out

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


class _Workspace:
    """The large arrays of one solve's Newton steps, carved from two buffers allocated once.

    Every array starts at the front of its buffer, so writing one overwrites
    the others in that buffer.  A Newton step writes them in this order, and
    each is dead before the next one in its buffer is written:

    - ``roots`` (first buffer), the leaves' square-root rows, and ``rest``
      (second), those rows projected off the closing column (``_newton_matrix``);
    - ``blocks`` (first), the leaf blocks, from ``rest``;
    - per decision level ``k``, deepest first: ``sums[k]`` (second), the sums
      of the children's blocks that ``fold_up`` gathers from the level below,
      then ``products[k]`` (first), the Schur complement that
      ``_TreeFactor._eliminate`` takes from ``sums[k]`` and hands up;
    - ``sol`` (second), a solve's node rows (``down_sweep``), which
      ``_direction`` copies out before the next solve.

    So no step allocates a large array, and the two buffers together are no
    larger than the arrays that an allocating step held at once.
    """

    def __init__(self, prob: _PrimalProblem):
        tree = prob.tree
        L, slots, m = prob.H.size, prob.mass.shape[1], prob.rows.shape[2]
        levels = [(level.size, 2 * k + 1) for k, level in enumerate(tree.levels[:-1])]
        self.roots, self.blocks, *self.products = self._carve(
            [(L, slots + 3, m), (L, m - 1, m - 1)] + [(n, a, a) for n, a in levels])
        self.rest, self.sol, *self.sums = self._carve(
            [(L, slots + 3, m - 1), (tree.n_nodes, m)] + [(n, a + 2, a + 2) for n, a in levels])

    @staticmethod
    def _carve(shapes) -> list[np.ndarray]:
        """Arrays of the given shapes on one buffer, the size of the largest."""
        buffer = np.empty(max(map(math.prod, shapes)))
        return [buffer[: math.prod(shape)].reshape(shape) for shape in shapes]


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
    """The condensed Newton matrix, factored along the tree without forming it.

    The matrix is a sum of one block per leaf, on the leaf's layout, plus a
    diagonal on every decision node's buy and sell.  Eliminating each leaf's
    closing trade, then each level's (buy, sell) pairs from the deepest level
    to the root, leaves fill only on ancestors and on ``t``, the border; what
    remains at the root is a scalar.  The leaves' step is done by the caller
    (``leaf_blocks`` are its Schur complements, ``leaf_l00`` and
    ``leaf_coupling`` its pivots and couplings).  One factorisation serves
    any number of right-hand sides.  Every pivot is 1x1 (a leaf's closing
    trade) or 2x2 (a buy/sell pair), factored and solved in closed form; the
    2x2 pivots are kept as three columns ``l00``, ``l10``, ``l11`` over the
    decision nodes in level order, so a solve substitutes all of them at once.
    """

    def __init__(self, prob: _PrimalProblem, work: _Workspace, leaf_blocks, leaf_l00, leaf_coupling, diag):
        self.prob, self.work, self.diag = prob, work, diag
        self.leaf_l00, self.leaf_coupling = leaf_l00, leaf_coupling
        self.pivots = np.empty((3, prob.n_dec))  # l00, l10, l11 per decision node, level order
        self.couplings = [None] * len(prob.plans)
        self.border = float(prob.tree.fold_up(leaf_blocks, self._eliminate, work.sums)[0, 0])

    def _eliminate(self, block: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Add the level's barrier diagonal to ``block``, factor its pivots and return the Schur
        complement onto the entries before them, in the workspace's ``products[k]``."""
        n, k = block.shape[0], (block.shape[1] - 3) // 2
        a, slots, pos = self.prob.plans[k]
        block[:, [a, a + 1], [a, a + 1]] += self.diag[slots]
        l00, l10, l11 = _pivots(block[:, a:, a:], self.pivots[:, pos])[:, :, None]
        coupling = self.couplings[k] = _substitute(l00, l10, l11, block[:, a:, :a], np.empty((n, 2, a)))
        product = np.matmul(block[:, :a, a:], coupling, out=self.work.products[k])
        return np.subtract(block[:, :a, :a], product, out=product)

    def solve(self, rows: np.ndarray, own: np.ndarray, t_rhs: float) -> np.ndarray:
        """Solution for leaf right-hand-side rows, decision-node terms ``own`` and ``t``'s own term.

        Returns one row per node in the layout of its level: ``t``, the
        ancestors' entries and the node's own, so a leaf's row is its whole path.
        The rows are the workspace's, valid until the next solve.
        """
        prob, tree = self.prob, self.prob.tree
        kept = np.empty((prob.n_dec, 2))  # each decision node's own right-hand sides, level order

        def reduce(r, nodes):
            k = (r.shape[1] - 3) // 2
            a, slots, pos = prob.plans[k]
            r_own = np.add(r[:, a:], own[slots], out=kept[pos])
            coupling = self.couplings[k]
            folded = coupling[:, 0] * r_own[:, :1]
            folded += coupling[:, 1] * r_own[:, 1:]
            return r[:, :a] - folded

        t_total = tree.fold_up(rows[:, :-1] - self.leaf_coupling * rows[:, -1:], reduce)[0] + t_rhs
        # Every pivot's substitutions at once, before the ancestors' terms are known.
        x = _substitute(*self.pivots, kept, np.empty_like(kept))
        leaf_x = _substitute(self.leaf_l00, None, None, rows[:, -1:], np.empty((rows.shape[0], 1)))

        def back(upper, nodes):  # upper: the parents' rows, a fresh gather, zero from the nodes' entries on
            k = int(tree.t_index[nodes[0]])
            if k < len(prob.plans):
                a, _, pos = prob.plans[k]
                np.subtract(x[pos], np.einsum("nia,na->ni", self.couplings[k], upper[:, :a]), out=upper[:, a : a + 2])
            else:
                np.subtract(leaf_x, np.einsum("nia,na->ni", self.leaf_coupling[:, None, :], upper[:, :-1]),
                            out=upper[:, -1:])
            return upper

        top = np.zeros((1, rows.shape[1]))
        top[0, 0] = t_total / self.border
        return tree.down_sweep(back(top, np.zeros(1, dtype=int))[0], back, out=self.work.sol)


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
    """Constraint rows, residuals and complementarity of the epigraph program at one iterate.

    ``values`` are ``prob.leaf_values`` at the iterate, which the line search has computed already.
    """

    def __init__(self, prob: _PrimalProblem, it: _Iterate, values):
        vals, x_pre, eta = values
        grad = prob.gradients(eta)
        self.rows = prob.rows  # constraint gradients in the layout, until the next residuals rewrite them
        self.primal = np.stack([vals - it.t, x_pre - it.close, -x_pre - it.close], axis=1) + it.slack
        stat = np.einsum("lk,lki->li", it.dual, self.rows)
        self.dual_t = 1.0 + stat[:, 0].sum()
        self.dual_trades = np.bincount(prob.trade_bins, stat[:, 1:-1].ravel(), 2 * prob.n_dec).reshape(-1, 2)
        self.dual_trades -= it.bound_dual
        dual_close = stat[:, -1]
        self.n_ineq = it.slack.size + it.trades.size
        self.mu = it.mu()
        # Residuals relative to the problem's scale: values and trades for the constraints and
        # complementarity, gradient entries for stationarity.
        scale = 1.0 + max(abs(it.t), float(np.abs(vals).max()), float(it.close.max()))
        stationarity = max(abs(self.dual_t), float(np.abs(self.dual_trades).max(initial=0.0)),
                           float(np.abs(dual_close).max()))
        self.error = max(
            float(np.abs(self.primal).max()) / scale,
            stationarity / (1.0 + float(np.abs(grad).max())),
            self.n_ineq * self.mu / scale,
        )


def _newton_matrix(prob: _PrimalProblem, it: _Iterate, res: _Residuals, work: _Workspace) -> _TreeFactor:
    """Factor the condensed Newton matrix: curvature plus constraint rows weighted by dual/slack,
    and the bounds' barrier diagonal.

    Each leaf's block is ``R.T @ R`` for its square-root rows ``R``.  Eliminating
    the closing trade (the last column) leaves the Gram matrix of the rows
    projected off that column, so no leaf block is ever formed.
    """
    slots = prob.mass.shape[1]
    roots = work.roots
    prob.curvature_rows(it.dual[:, 0], roots[:, :slots])
    np.multiply(res.rows, np.sqrt(it.dual / it.slack)[:, :, None], out=roots[:, slots:])
    close = roots[:, :, -1].copy()
    pivot = np.einsum("lr,lr->l", close, close)
    coupling = np.einsum("lr,lra->la", close, roots[:, :, :-1]) / pivot[:, None]
    rest = np.subtract(roots[:, :, :-1], np.einsum("lr,la->lra", close, coupling, out=work.rest), out=work.rest)
    blocks = np.matmul(rest.transpose(0, 2, 1), rest, out=work.blocks)
    return _TreeFactor(prob, work, blocks, np.sqrt(pivot), coupling, it.bound_dual / it.trades)


def _direction(prob, it: _Iterate, res: _Residuals, factor: _TreeFactor, target, bound_target) -> _Iterate:
    """Newton direction towards complementarity ``target`` (per leaf constraint) and ``bound_target``."""
    rho = (target - it.dual * (it.slack - res.primal)) / it.slack
    rows = -np.einsum("lk,lki->li", it.dual + rho, res.rows)
    sol = factor.solve(rows, bound_target / it.trades, -1.0)
    path = sol[prob.leaf_rows]
    step = _Iterate(np.empty_like(it.z), prob.n_dec)
    step.z[0] = sol[0, 0]
    step.close[:] = path[:, -1]
    np.take(sol, prob.own_entries, out=step.trades, mode="clip")  # entries in range: clip skips a buffered copy
    np.subtract(-res.primal, np.einsum("lki,li->lk", res.rows, path), out=step.slack)
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
    work = _Workspace(prob)
    it = _Iterate(np.empty(1 + 7 * L + 4 * n), n)
    it.trades[:] = 1.0
    x_pre = prob.leaf_values(it.trades[:, 0], it.trades[:, 1])[1]
    np.add(np.abs(x_pre), 1.0, out=it.close)
    values = prob.leaf_values(it.trades[:, 0], it.trades[:, 1], it.close)
    vals, _, eta = values
    it.z[0] = t = float(vals.max())
    np.maximum(-np.stack([vals - t, x_pre - it.close, -x_pre - it.close], axis=1), 1.0, out=it.slack)
    # leaf multipliers on the simplex, bound multipliers on the gradients' scale
    it.dual[:] = 1.0 / L
    it.bound_dual[:] = 1.0 + float(np.max(np.abs(prob.gradients(eta))))

    best, since_best = np.inf, 0
    budget = max(opts.max_iter, 0)
    for steps in range(budget + 1):
        res = _Residuals(prob, it, values)
        if res.error <= opts.tol:
            return it, steps, True
        best, since_best = (res.error, 0) if res.error < best else (best, since_best + 1)
        if since_best >= STALL_STEPS or steps == budget:
            break
        try:
            factor = _newton_matrix(prob, it, res, work)
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
    return it, steps, False


def primal_solve(tree: ScenarioTree, market: MarketSpec, H, options: SolverOptions | None = None) -> PriceReport:
    """Least initial cash whose forced-liquidation schedule dominates the payoff.

    Deterministic interior-point solve of the epigraph program; the returned
    value is the exact worst-leaf cash requirement of the returned schedule,
    so it is always sufficient (feasible) whatever the convergence flag says.
    """
    prob = _PrimalProblem(tree, market, H)
    it, steps, converged = _interior_point(prob, options or SolverOptions())
    value, schedule = prob.cash_requirement(it.trades.T.ravel())
    return PriceReport(primal_value=value, strategy=schedule, leaf_weights=it.dual[:, 0].copy(),
                       closing_multipliers=it.dual[:, 1:].copy(), iterations=steps, primal_converged=converged)


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


def dual_ascent(tree: ScenarioTree, market: MarketSpec, H, init_cert: DualCertificate | None,
                options: SolverOptions | None = None) -> PriceReport:
    """:func:`gap_report` with ``init_cert`` as one more candidate; no search runs.

    The certificate read off the primal leaves a gap within the primal's own
    tolerance, so by weak duality no ascent from it could gain more.
    """
    return gap_report(tree, market, H, options, certificate=init_cert)


def _reached_primal(tree: ScenarioTree, market: MarketSpec, H, opts: SolverOptions) -> PriceReport:
    """The primal on the nodes that the tree's probabilities reach, lifted back to the whole tree.

    No measure may charge a leaf behind a zero-probability branch, so a
    certificate must be read off a primal that ignores those leaves.  Lifted
    back, the unreached nodes trade nothing and carry no multipliers.
    """
    reached = tree.reach_probabilities() > 0.0
    ids = np.cumsum(reached) - 1
    parent = np.where(tree.parent[reached] >= 0, ids[tree.parent[reached]], -1)
    sub = ScenarioTree(tree.times, parent, tree.p_transition[reached], tree.P[reached], tree.delta[reached],
                       tree.r[reached])
    on_leaf = reached[tree.leaves]
    report = primal_solve(sub, market, leaf_payoff(tree, H)[on_leaf], opts)
    buys, sells = np.zeros(tree.n_nodes), np.zeros(tree.n_nodes)
    buys[reached], sells[reached] = report.strategy.buys, report.strategy.sells
    weights, closing = np.zeros(on_leaf.size), np.zeros((on_leaf.size, 2))
    weights[on_leaf], closing[on_leaf] = report.leaf_weights, report.closing_multipliers
    return replace(report, strategy=TradeSchedule(buys, sells, report.strategy.x0), leaf_weights=weights,
                   closing_multipliers=closing)


def gap_report(tree: ScenarioTree, market: MarketSpec, H, options: SolverOptions | None = None,
               certificate: DualCertificate | None = None) -> PriceReport:
    """Solve the primal, certify it without a search, and report the gap (weak duality enforced).

    The candidates are two certificates read off the primal's multipliers
    and schedule (:func:`~transient_impact.duality.certificate_from`, with
    and without the closing trades' multipliers), the default one and a
    given ``certificate``, which must be feasible (else :class:`InfeasibleInit`,
    before any solve).  The report keeps the one worth most, the first on a
    tie.  A gap within ``tol * (1 + |primal|)`` proves the primal optimal, so
    the report then counts as converged even where the Newton search stalled.
    """
    opts = options or SolverOptions()
    tree.require_decay()
    if certificate is not None:
        feas = check_feasibility(tree, certificate, market)
        if not feas.feasible:
            raise InfeasibleInit(
                f"given certificate violates the band by {feas.worst_violation:.3e} at node {feas.worst_node}")
    primal = primal_solve(tree, market, H, opts)
    source = primal if np.all(tree.p_transition > 0.0) else _reached_primal(tree, market, H, opts)
    candidates = (
        certificate_from(tree, market, source.strategy, source.leaf_weights),
        certificate_from(tree, market, source.strategy, source.leaf_weights, source.closing_multipliers),
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

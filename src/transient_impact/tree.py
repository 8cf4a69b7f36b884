"""Finite scenario trees: filtered structure, measures, martingale tools.

Nodes are stored parents first, each node carrying the exogenous price, depth
and resilience at its time slot together with the transition probability from
its parent under the reference measure.  A re-weighted measure is the same
kind of array, one transition probability per node, which
:meth:`ScenarioTree.measure` checks; the reference measure is
``tree.p_transition`` itself.  A tree's arrays are read-only copies of its
inputs, so its constructor's checks hold for its whole life.

Every walk over the tree goes through three primitives of
:class:`ScenarioTree` on one layout, the parent pointers by level:
``down_sweep`` (root to leaves, one vectorised step per level), ``fold_up``
(leaves to root on rows of any shape, one children-combine, a sum by default,
and one caller step per level) and ``child_sum`` (each node's sum over its
children, one ``np.bincount``).  ``up_sweep``, the backward expectation, is a
fold, and no array holds every root-to-leaf path.  ``fold_up`` carries the
primal's Newton steps, so where each child sits, by rank under its parent, is
worked out once per tree: a fold is then a few gathers and combines per
level, views where the children are evenly spaced.  That layout is built on
a tree's first fold, so a tree that never folds (a market's one-path tree,
read for its liquidity curves) never pays for it.  ``tilt_to_martingale``
picks every node's extreme children by one sort of the edges per end, with no
per-node loop.  ``solver.py`` also reads ``tree.levels``, to place and size
the primal's per-level pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MonotonicityViolation, NoSignChange
from .market import TimeGrid, as_curve, decay_margin, finite, require_signs

MARTINGALE_RTOL = 1e-10
SIMPLEX_ATOL = 1e-9


class ScenarioTree:
    """Level-ordered scenario tree with per-node market data.

    Parameters
    ----------
    times : array
        Trading times shared by all scenarios, ``times[0] == 0``.
    parent : int array
        Parent node id per node; ``-1`` for the root (node 0).
    p_transition : array
        Probability of the edge from the parent, ``1.0`` at the root.
        Transition probabilities sum to one over each node's children.
    P, delta, r : arrays
        Exogenous price, market depth and resilience rate per node.
    """

    def __init__(self, times, parent, p_transition, P, delta, r):
        self.grid = TimeGrid(times)
        self.parent = np.array(parent, dtype=int)  # copies, frozen below: the caller's arrays stay writable
        n = self.parent.size
        self.p_transition = finite(as_curve(p_transition, n, "p_transition"), "p_transition").copy()
        self.P = finite(as_curve(P, n, "P"), "P").copy()
        self.delta = finite(as_curve(delta, n, "delta"), "delta").copy()
        self.r = finite(as_curve(r, n, "r"), "r").copy()
        self.t_index = _depths(self.parent)
        require_signs(self.delta, self.r)
        if np.any(self.p_transition < 0.0):
            raise ValueError("transition probabilities must be >= 0")
        if self.p_transition[0] != 1.0:
            raise ValueError("root transition probability must be 1")

        self.n_levels = _levels(self.t_index, self.grid.n_points)

        self.is_leaf = self.child_sum(np.ones(n)) == 0.0
        if np.any(self.t_index[self.is_leaf] != self.n_levels - 1):
            raise ValueError("every leaf must sit at the terminal time")
        self.leaves = np.flatnonzero(self.is_leaf)
        self.levels = [np.flatnonzero(self.t_index == k) for k in range(self.n_levels)]
        # down_sweep's writes and gathers per level below the root; a level stored contiguously is a slice
        self._level_rows = [_as_slice(level) for level in self.levels[1:]]
        self._level_parents = [self.parent[level] for level in self.levels[1:]]
        self._check_simplex(self.p_transition, "transition probabilities")

        # Per-node resilience discount and liquidity curve along the path: the accumulated
        # resilience takes each interval's rate at its left end, exact for a piecewise constant rate.
        dt = np.diff(self.grid.times)
        growth = np.ones(n)
        growth[1:] = np.exp(self.r[self.parent[1:]] * dt[self.t_index[self.parent[1:]]])
        self.rho = self.down_sweep(1.0, lambda acc, nodes: acc * growth[nodes])
        self.kappa = self.delta / self.rho**2
        # Mass of the interval ending at each node, consumed against parent-time values.
        self.edge_weight = np.zeros(n)
        self.edge_weight[1:] = self.kappa[self.parent[1:]] - self.kappa[1:]
        # Smallest relative drop of the liquidity curve along an edge: negative where it rises.
        self.decay_margin = decay_margin(self.kappa[self.parent[1:]], self.kappa[1:])
        # Read-only from here on, so the checks above hold for the tree's whole life.
        for values in (self.parent, self.p_transition, self.P, self.delta, self.r, self.t_index, self.is_leaf,
                       self.leaves, self.rho, self.kappa, self.edge_weight):
            values.setflags(write=False)

    # -- sweeps ----------------------------------------------------------------

    def down_sweep(self, root, step) -> np.ndarray:
        """Forward recursion from the root, one vectorised ``step`` per level.

        ``out[0] = root``; then, level by level, ``out[nodes] =
        step(out[parent[nodes]], nodes)``: ``step`` combines the parents'
        results with the nodes' own data, for example ``acc + v[nodes]`` for
        sums along paths or ``acc * q[nodes]`` for products.  ``root`` may be
        an array, giving one row per node.  The parents' results reach ``step``
        as a fresh gather, so it may write into them.
        """
        root = np.asarray(root)
        out = np.empty((self.n_nodes,) + root.shape, dtype=root.dtype)
        out[0] = root
        for level, rows, parents in zip(self.levels[1:], self._level_rows, self._level_parents):
            out[rows] = step(out[parents], level)
        return out

    def up_sweep(self, q, leaf_values, edge=None) -> np.ndarray:
        """Backward recursion ``out[node] = sum_c q[c] * (edge[c] + out[c])`` over children ``c``.

        Leaves take ``leaf_values`` (leaf-id order); ``edge`` defaults to zero.
        A ``fold_up`` whose step writes each level's sums into ``out`` and
        hands ``q * (edge + sums)`` up to the next level.
        """
        out = np.empty(self.n_nodes)

        def step(sums, nodes):
            out[nodes] = sums
            return q[nodes] * (sums if edge is None else edge[nodes] + sums)

        self.fold_up(step(np.asarray(leaf_values, dtype=float), self.leaves), step)
        return out

    def fold_up(self, leaf_rows, step, combine=np.add):
        """Leaves-to-root recursion on per-node rows of any shape; returns the root's row.

        ``leaf_rows`` holds one row per leaf (leaf-id order).  Then, level by
        level from the deepest internal one, the rows of the level below are
        combined over each node's children by the ufunc ``combine`` and
        ``step(sums, nodes)`` turns the results, one per node of the level in
        id order, into the level's rows.  Each result is the first child's row
        combined with the running combination (sum, by default) of the other
        children's rows, children in id order.  The results are fresh arrays,
        so ``step`` may write into them.  Which rows to gather comes from
        :attr:`_fold_layout`, computed on the tree's first fold.
        """
        rows = np.asarray(leaf_rows)
        for upper, (first, seconds, later, two) in zip(self.levels[-2::-1], self._fold_layout):
            others = rows[seconds]
            for at, kids in later:
                others[at] = combine(others[at], rows[kids])
            if two is None:  # every node has a second child
                sums = combine(rows[first], others)
            else:
                sums = rows[first]
                sums[two] = combine(sums[two], others)
            rows = step(sums, upper)
        return rows[0]

    @cached_property
    def _fold_layout(self):
        """:meth:`_child_layout` of each level with children, deepest first."""
        return [self._child_layout(upper, lower) for upper, lower in zip(self.levels[-2::-1], self.levels[:0:-1])]

    def _child_layout(self, upper, lower):
        """Where ``fold_up`` finds each child of a level, by rank among its siblings.

        ``upper`` and ``lower`` are the node ids of a level and of the level
        below.  Returns the positions in ``lower`` of each node's first child
        and of the second children (in ``upper`` order); per later rank, which
        of the nodes with a second child have a child of that rank, and where
        it is; and the positions in ``upper`` of the nodes with a second child,
        ``None`` when all have one.  Evenly spaced positions that ``fold_up``
        only reads become slices, so their rows are views.
        """
        slot = np.searchsorted(upper, self.parent[lower])  # parent's position in upper
        order = np.argsort(slot, kind="stable")  # siblings grouped, in id order
        counts = np.bincount(slot, minlength=upper.size)
        rank = np.arange(order.size) - (np.cumsum(counts) - counts)[slot[order]]  # among siblings, per entry of order
        two = np.flatnonzero(counts >= 2)
        later = [(np.searchsorted(two, slot[order[rank == r]]), _as_slice(order[rank == r]))
                 for r in range(2, int(counts.max()))]
        # fold_up combines into the first children's rows unless every node has a second child,
        # and into the second children's rows when there are later ranks
        first, seconds = order[rank == 0], order[rank == 1]
        seconds = seconds if later else _as_slice(seconds)
        if two.size == upper.size:
            return _as_slice(first), seconds, later, None
        return first, seconds, later, two

    def child_sum(self, values) -> np.ndarray:
        """Sum of a per-node quantity over each node's children (zero at leaves)."""
        return np.bincount(self.parent[1:], weights=values[1:], minlength=self.n_nodes)

    def _check_simplex(self, q, what: str) -> None:
        totals = self.child_sum(q)
        bad = np.flatnonzero(~self.is_leaf & (np.abs(totals - 1.0) > SIMPLEX_ATOL))
        if bad.size:
            raise ValueError(f"{what} at node {bad[0]} sum to {totals[bad[0]]}, not 1")

    # -- basic structure ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def accumulate(self, values, initial=0.0) -> np.ndarray:
        """Running sum of a per-node quantity along every root-to-node path."""
        values = as_curve(values, self.n_nodes, "values")
        return self.down_sweep(initial + values[0], lambda acc, nodes: acc + values[nodes])

    def reach_probabilities(self, q=None) -> np.ndarray:
        """Probability of passing through each node under the transitions ``q``, by default the reference ones."""
        q = self.p_transition if q is None else q
        return self.down_sweep(q[0], lambda acc, nodes: acc * q[nodes])

    def measure(self, transitions) -> np.ndarray:
        """``transitions`` checked to be a measure on the tree, absolutely continuous w.r.t. the reference one.

        One finite, non-negative transition per node, charging no branch of
        reference probability zero and summing to one over each node's
        children.  Returns a copy whose root transition is 1.
        """
        q = finite(as_curve(transitions, self.n_nodes, "transitions"), "measure transitions")
        if np.any(q < 0.0):
            raise ValueError("measure transitions must be >= 0")
        if np.any((self.p_transition == 0.0) & (q > 0.0)):
            raise ValueError("measure puts mass on a branch with zero reference probability")
        self._check_simplex(q, "measure transitions")
        q = q.copy()
        q[0] = 1.0
        return q

    def reached_part(self) -> tuple["ScenarioTree", np.ndarray]:
        """The subtree of the nodes that no zero-probability branch cuts off, the only ones a measure may
        charge, renumbered in id order, and their mask; the tree itself when that is every node."""
        reached = self.down_sweep(True, lambda acc, nodes: acc & (self.p_transition[nodes] > 0.0))
        if reached.all():
            return self, reached
        parent = np.where(self.parent[reached] >= 0, (np.cumsum(reached) - 1)[self.parent[reached]], -1)
        return ScenarioTree(self.times, parent, self.p_transition[reached], self.P[reached], self.delta[reached],
                            self.r[reached]), reached

    def require_decay(self) -> None:
        """Refuse a liquidity curve that rises along an edge.

        There the spread penalty has a negative weight, so a certificate's
        value is no lower bound.  A flat curve (margin 0) is accepted.  The
        margin is computed once, with the tree, so the guard is one read.
        """
        if self.decay_margin < 0.0:
            raise MonotonicityViolation(
                f"liquidity curve rises along an edge (min relative drop {self.decay_margin:.3e})"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def single_path(cls, market, P) -> "ScenarioTree":
        """Chain tree carrying one deterministic scenario of a market."""
        n = market.grid.n_points
        parent = np.arange(-1, n - 1)
        return cls(
            market.grid.times,
            parent,
            np.ones(n),
            as_curve(P, n, "P"),
            market.liquidity.delta,
            market.liquidity.r,
        )

    @classmethod
    def from_node_dicts(cls, times, nodes, default_delta=None, default_r=None) -> "ScenarioTree":
        """Build from records ``{id, parent, p_transition, P[, delta, r, t_index]}``.

        Records must be supplied in id order starting at 0, and ``id``,
        ``parent`` and ``t_index`` must be integers (not bools, floats or
        strings).  Missing depth or resilience falls back to the per-time-index
        defaults (deterministic curves broadcast onto the tree).  The records
        are read in one walk.
        """
        parent, declared, p, price, delta, r = [], [], [], [], [], []
        for i, rec in enumerate(nodes):
            if not isinstance(rec, dict):
                raise ValueError(f"node record {i} must be a JSON object")
            if _integer(rec.get("id", i), i, "id") != i:
                raise ValueError("node records must be listed in id order starting at 0")
            parent.append(_integer(rec["parent"], i, "parent"))
            if "t_index" in rec:
                declared.append((i, _integer(rec["t_index"], i, "t_index")))
            get = rec.get
            p.append(get("p_transition", _MISSING))
            price.append(get("P", _MISSING))
            delta.append(get("delta", _MISSING))
            r.append(get("r", _MISSING))
        parent = np.array(parent, dtype=int)
        t_index = _depths(parent)
        for i, level in declared:
            if level != t_index[i]:
                raise ValueError(f"node {i}: declared t_index contradicts the parent structure")
        _levels(t_index, TimeGrid(times).n_points)  # before the per-time defaults are read at each depth
        return cls(times, parent, _node_column(p, 1.0, t_index, "transition probability"),
                   _node_column(price, None, t_index, "price"), _node_column(delta, default_delta, t_index, "depth"),
                   _node_column(r, default_r, t_index, "resilience rate"))


_MISSING = object()  # a node record without the field


def _integer(value, node: int, field: str) -> int:
    """A node record's integer field: a JSON integer, not a bool, float or string."""
    if type(value) is int:  # a bool's type is bool, not int
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise ValueError(f"node {node}: {field} must be an integer, got {value!r}")


def _as_slice(idx: np.ndarray):
    """``idx`` as a slice when it is evenly spaced and increasing, else unchanged."""
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    if idx.size and step > 0 and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1, step)):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node by pointer jumping; checking ``parent[i] < i`` first makes it terminate."""
    if parent.size == 0 or parent[0] != -1:
        raise ValueError("node 0 must be the root (parent -1)")
    if np.any(parent[1:] < 0) or np.any(parent >= np.arange(parent.size)):
        raise ValueError("nodes must be stored parents first (levels may interleave; a parent's id is below its "
                         "children's)")
    depth = np.zeros(parent.size, dtype=int)
    ancestor = parent.copy()
    while (live := ancestor >= 0).any():
        depth[live] += 1
        ancestor[live] = parent[ancestor[live]]
    return depth


def _levels(t_index: np.ndarray, n_points: int) -> int:
    """The number of levels of a tree of depths ``t_index``; ``ValueError`` unless one per grid point."""
    n_levels = int(t_index.max()) + 1
    if n_levels != n_points:
        raise ValueError(f"tree depth ({n_levels} levels) does not match the time grid ({n_points} points)")
    return n_levels


def _node_column(column: list, default, t_index: np.ndarray, what: str) -> np.ndarray:
    """Per-node values read from the records; records without one take ``default`` at their time index."""
    given = np.array([value is not _MISSING for value in column], dtype=bool)
    if default is None and not given.all():
        raise ValueError(f"node {np.argmin(given)} has no {what} and no default was given")
    out = np.empty(given.size)
    out[given] = [float(value) for value in column if value is not _MISSING]
    if not given.all():
        default = np.asarray(default, dtype=float)
        out[~given] = default.reshape(-1)[t_index[~given]] if default.ndim else default
    return out


# ---------------------------------------------------------------------------
# Expectations and martingales
# ---------------------------------------------------------------------------


def _leaf_values(tree: ScenarioTree, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape == (tree.leaves.size,):
        return values
    if values.shape == (tree.n_nodes,):
        return values[tree.leaves]
    raise ValueError("values must be given per leaf or per node")


def conditional_expectation(tree: ScenarioTree, q, values) -> np.ndarray:
    """Backward recursion: node value = transition-weighted mean of children.

    ``values`` fixes the leaves (given per leaf in leaf-id order, or per node).
    Returns one value per node.
    """
    return tree.up_sweep(q, _leaf_values(tree, values))


def is_martingale(tree: ScenarioTree, q, M) -> tuple[bool, float]:
    """Largest one-step drift of ``M`` under ``q``; true when below tolerance."""
    M = as_curve(M, tree.n_nodes, "M")
    drift = np.abs(tree.child_sum(q * M) - M)[~tree.is_leaf]
    defect = float(np.max(drift, initial=0.0))
    scale = 1.0 + float(np.max(np.abs(M)))
    return defect <= MARTINGALE_RTOL * scale, defect


def q_tail_probability(tree: ScenarioTree, q, threshold: float) -> float:
    """Mass the measure puts on terminal prices above the threshold."""
    reach = tree.reach_probabilities(q)
    leaves = tree.leaves
    mass = float(np.sum(reach[leaves][tree.P[leaves] > threshold]))
    return min(max(mass, 0.0), 1.0)  # guard rounding in the transition products


# ---------------------------------------------------------------------------
# Measure tilt
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TiltResult:
    """Outcome of the drift-removing two-point tilt."""

    measure: np.ndarray
    martingale: np.ndarray
    max_abs_gap: float
    tail_probability: float


def tilt_to_martingale(tree: ScenarioTree, g, eps: float) -> TiltResult:
    """Re-weight the tree so the drift-adjusted price becomes a martingale.

    ``g`` is a non-increasing deterministic offset per time index.  At every
    internal node the children attaining the most negative and most positive
    increment of ``P + g`` (among branches with positive reference
    probability; ties broken by lowest node id) are mixed so the one-step
    drift of ``P + g`` is exactly zero.  The resulting projection of the
    terminal ``P + g`` then matches ``P + g`` at every node up to rounding.
    Reports that gap together with the tilted mass on ``{P_T > eps}``.

    Raises :class:`NoSignChange` where no such two-point mix exists.
    """
    g = finite(as_curve(g, tree.n_levels, "g"), "g")
    eps = finite(float(eps), "tail threshold eps")
    if np.any(np.diff(g) > 0.0):
        raise ValueError("offset function must be non-increasing")

    shifted = tree.P + g[tree.t_index]
    kids = np.flatnonzero(tree.p_transition[1:] > 0.0) + 1  # the admissible branches
    inc = np.full(tree.n_nodes, np.nan)  # increment over the parent, on each admissible branch
    inc[kids] = shifted[kids] - shifted[tree.parent[kids]]
    # each parent's first branch by increment up, and by increment down, lowest id among ties
    lo, hi = (kids[np.lexsort((kids, key, tree.parent[kids]))] for key in (inc[kids], -inc[kids]))
    first = np.diff(tree.parent[lo], prepend=-1) != 0
    lo, hi = lo[first], hi[first]
    d_lo, d_hi = np.full((2, tree.n_nodes), np.nan)  # per node, NaN where no branch is admissible
    d_lo[tree.parent[lo]], d_hi[tree.parent[hi]] = inc[lo], inc[hi]
    bad = np.flatnonzero(~tree.is_leaf & ~((d_lo <= 0.0) & (d_hi >= 0.0)))
    if bad.size:
        node = bad[0]
        if np.isnan(d_lo[node]):
            raise NoSignChange(f"node {node} has no admissible branches")
        raise NoSignChange(f"increments at node {node} do not change sign (range [{d_lo[node]:.6g}, {d_hi[node]:.6g}])")

    q = np.zeros(tree.n_nodes)
    q[0] = 1.0
    w_lo = np.divide(inc[hi], inc[hi] - inc[lo], out=np.ones(lo.size), where=inc[hi] > inc[lo])
    q[hi] = 1.0 - w_lo
    q[lo] = w_lo  # last: where all admissible increments vanish, lo is hi and takes all the mass

    measure = tree.measure(q)
    M = conditional_expectation(tree, measure, shifted[tree.leaves])
    gap = float(np.max(np.abs(shifted - M)))
    tail = q_tail_probability(tree, measure, eps)
    return TiltResult(measure=measure, martingale=M, max_abs_gap=gap, tail_probability=tail)

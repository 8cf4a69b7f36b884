"""Finite scenario trees: filtered structure, measures, martingale tools.

Nodes are stored parents first, each node carrying the exogenous price, depth
and resilience at its time slot together with the transition probability from
its parent under the reference measure.  A re-weighted measure is represented
the same way: one transition probability per node.

Every recursion over the tree goes through three primitives of
:class:`ScenarioTree`: ``down_sweep`` (root to leaves, one vectorised step per
level), ``up_sweep`` (leaves to root, one ``np.bincount`` per level) and
``child_sum`` (one ``np.bincount`` over all edges).  They are the only code
that walks the tree levels, so the level layout stays inside this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSignChange, NonFiniteInput
from .market import TimeGrid, as_curve

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
        self.grid = TimeGrid(np.asarray(times, dtype=float))
        self.parent = np.asarray(parent, dtype=int)
        n = self.parent.size
        self.p_transition = as_curve(p_transition, n, "p_transition")
        self.P = as_curve(P, n, "P")
        self.delta = as_curve(delta, n, "delta")
        self.r = as_curve(r, n, "r")

        for name in ("p_transition", "P", "delta", "r"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteInput(f"{name} must be finite at every node")
        self.t_index = _depths(self.parent)
        if np.any(self.delta <= 0.0):
            raise ValueError("market depth must be > 0 at every node")
        if np.any(self.r < 0.0):
            raise ValueError("resilience rate must be >= 0 at every node")
        if np.any(self.p_transition < 0.0):
            raise ValueError("transition probabilities must be >= 0")
        if self.p_transition[0] != 1.0:
            raise ValueError("root transition probability must be 1")

        self.n_levels = int(self.t_index.max()) + 1
        if self.n_levels != self.grid.n_points:
            raise ValueError(
                f"tree depth ({self.n_levels} levels) does not match the time grid "
                f"({self.grid.n_points} points)"
            )

        n_children = self.child_sum(np.ones(n)).astype(int)
        order = np.argsort(self.parent[1:], kind="stable") + 1
        self.children: list[np.ndarray] = np.split(order, np.cumsum(n_children)[:-1])
        self.is_leaf = n_children == 0
        if np.any(self.t_index[self.is_leaf] != self.n_levels - 1):
            raise ValueError("every leaf must sit at the terminal time")
        self.leaves = np.flatnonzero(self.is_leaf)
        self.levels = [np.flatnonzero(self.t_index == k) for k in range(self.n_levels)]
        self._check_simplex(self.p_transition, "transition probabilities")

        # Per-node resilience discount and liquidity curve along the path.
        dt = np.diff(self.grid.times)
        growth = np.ones(n)
        growth[1:] = np.exp(self.r[self.parent[1:]] * dt[self.t_index[self.parent[1:]]])
        self.rho = self.down_sweep(1.0, lambda acc, nodes: acc * growth[nodes])
        self.kappa = self.delta / self.rho**2
        # Mass of the interval ending at each node, consumed against parent-time values.
        self.edge_weight = np.zeros(n)
        self.edge_weight[1:] = self.kappa[self.parent[1:]] - self.kappa[1:]

    # -- sweeps ----------------------------------------------------------------

    def down_sweep(self, root, step) -> np.ndarray:
        """Forward recursion from the root, one vectorised ``step`` per level.

        ``out[0] = root``; then, level by level, ``out[nodes] =
        step(out[parent[nodes]], nodes)``: ``step`` combines the parents'
        results with the nodes' own data, for example ``acc + v[nodes]`` for
        sums along paths or ``acc * q[nodes]`` for products.  ``root`` may be
        an array, giving one row per node.
        """
        root = np.asarray(root)
        out = np.empty((self.n_nodes,) + root.shape, dtype=root.dtype)
        out[0] = root
        for level in self.levels[1:]:
            out[level] = step(out[self.parent[level]], level)
        return out

    def up_sweep(self, q, leaf_values, edge=None) -> np.ndarray:
        """Backward recursion ``out[node] = sum_c q[c] * (edge[c] + out[c])`` over children ``c``.

        Leaves take ``leaf_values`` (leaf-id order); ``edge`` defaults to zero.
        Each level is one ``np.bincount`` over the edges into it.
        """
        out = np.zeros(self.n_nodes)
        out[self.leaves] = leaf_values
        for upper, lower in zip(self.levels[-2::-1], self.levels[:0:-1]):
            term = out[lower] if edge is None else edge[lower] + out[lower]
            out[upper] = np.bincount(self.parent[lower], q[lower] * term, self.n_nodes)[upper]
        return out

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

    def path_nodes(self, leaf: int) -> np.ndarray:
        """Node ids from the root to ``leaf`` inclusive."""
        return self.leaf_paths()[np.flatnonzero(self.leaves == leaf)[0]]

    def leaf_paths(self) -> np.ndarray:
        """Node ids along every root-to-leaf path: one row per leaf, one column per level."""
        own = np.zeros((self.n_nodes, self.n_levels), dtype=int)
        own[np.arange(self.n_nodes), self.t_index] = np.arange(self.n_nodes)
        return self.down_sweep(own[0], lambda rows, nodes: rows + own[nodes])[self.leaves]

    def reach_probabilities(self, transitions=None) -> np.ndarray:
        """Probability of passing through each node (products of edge weights)."""
        q = self.p_transition if transitions is None else _transition_array(self, transitions)
        return self.down_sweep(q[0], lambda acc, nodes: acc * q[nodes])

    def validate_assumptions_pathwise(self) -> tuple[bool, float]:
        """Edge-wise check that the liquidity curve strictly decreases on every path."""
        drops = self.edge_weight[1:] / self.kappa[self.parent[1:]]
        margin = float(drops.min()) if drops.size else np.inf
        return margin > 1e-12, margin

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
        """Build from records ``{id, parent, p_transition, P[, delta, r]}``.

        Records must be supplied in id order starting at 0; missing depth or
        resilience falls back to the per-time-index defaults (deterministic
        curves broadcast onto the tree).
        """
        if not all(isinstance(rec, dict) for rec in nodes):
            raise ValueError("every node record must be a JSON object")
        if any(int(rec.get("id", i)) != i for i, rec in enumerate(nodes)):
            raise ValueError("node records must be listed in id order starting at 0")
        parent = np.array([int(rec["parent"]) for rec in nodes], dtype=int)
        t_index = _depths(parent)
        for i, rec in enumerate(nodes):
            if "t_index" in rec and int(rec["t_index"]) != t_index[i]:
                raise ValueError(f"node {i}: declared t_index contradicts the parent structure")
        p = _node_column(nodes, "p_transition", 1.0, t_index, "transition probability")
        price = _node_column(nodes, "P", None, t_index, "price")
        delta = _node_column(nodes, "delta", default_delta, t_index, "depth")
        r = _node_column(nodes, "r", default_r, t_index, "resilience rate")
        return cls(times, parent, p, price, delta, r)


def _depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node by pointer jumping; checking ``parent[i] < i`` first makes it terminate."""
    if parent.size == 0 or parent[0] != -1:
        raise ValueError("node 0 must be the root (parent -1)")
    if np.any(parent[1:] < 0) or np.any(parent >= np.arange(parent.size)):
        raise ValueError("nodes must be stored level by level with parents first")
    depth = np.zeros(parent.size, dtype=int)
    ancestor = parent.copy()
    while (live := ancestor >= 0).any():
        depth[live] += 1
        ancestor[live] = parent[ancestor[live]]
    return depth


def _node_column(nodes, key: str, default, t_index: np.ndarray, what: str) -> np.ndarray:
    """Per-node ``key`` from the records; records without it take ``default`` at their time index."""
    given = np.array([key in rec for rec in nodes], dtype=bool)
    if default is None and not given.all():
        raise ValueError(f"node {np.argmin(given)} has no {what} and no default was given")
    out = np.empty(given.size)
    out[given] = [float(rec[key]) for rec in nodes if key in rec]
    if not given.all():
        default = np.asarray(default, dtype=float)
        out[~given] = default.reshape(-1)[t_index[~given]] if default.ndim else default
    return out


@dataclass(frozen=True)
class NodeMeasure:
    """Re-weighted transition probabilities, absolutely continuous w.r.t. the tree's."""

    transitions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "transitions", np.asarray(self.transitions, dtype=float))

    @classmethod
    def for_tree(cls, tree: ScenarioTree, transitions) -> "NodeMeasure":
        q = as_curve(transitions, tree.n_nodes, "transitions")
        if not np.all(np.isfinite(q)):
            raise NonFiniteInput("measure transitions must be finite")
        if np.any(q < 0.0):
            raise ValueError("measure transitions must be >= 0")
        if np.any((tree.p_transition == 0.0) & (q > 0.0)):
            raise ValueError("measure puts mass on a branch with zero reference probability")
        tree._check_simplex(q, "measure transitions")
        q = q.copy()
        q[0] = 1.0
        return cls(q)

    @classmethod
    def reference(cls, tree: ScenarioTree) -> "NodeMeasure":
        return cls(tree.p_transition.copy())


def _transition_array(tree: ScenarioTree, q) -> np.ndarray:
    if isinstance(q, NodeMeasure):
        return q.transitions
    return as_curve(q, tree.n_nodes, "transitions")


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
    return tree.up_sweep(_transition_array(tree, q), _leaf_values(tree, values))


def is_martingale(tree: ScenarioTree, q, M) -> tuple[bool, float]:
    """Largest one-step drift of ``M`` under ``q``; true when below tolerance."""
    qt = _transition_array(tree, q)
    M = as_curve(M, tree.n_nodes, "M")
    drift = np.abs(tree.child_sum(qt * M) - M)[~tree.is_leaf]
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

    measure: NodeMeasure
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
    g = as_curve(g, tree.n_levels, "g")
    if np.any(np.diff(g) > 0.0):
        raise ValueError("offset function must be non-increasing")

    q = np.zeros(tree.n_nodes)
    q[0] = 1.0
    shifted = tree.P + g[tree.t_index]
    for node in np.flatnonzero(~tree.is_leaf):
        kids = tree.children[node]
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

    measure = NodeMeasure.for_tree(tree, q)
    M = conditional_expectation(tree, measure, shifted[tree.leaves])
    gap = float(np.max(np.abs(shifted - M)))
    tail = q_tail_probability(tree, measure, eps)
    return TiltResult(measure=measure, martingale=M, max_abs_gap=gap, tail_probability=tail)

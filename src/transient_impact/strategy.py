"""Bounded-variation trading schedules with explicit buy/sell decomposition.

A schedule attaches a non-negative buy quantity and a non-negative sell
quantity to every slot.  Slots are grid points for deterministic markets and
tree nodes for scenario trees; in the latter case a single value per node
makes the schedule adapted by construction.  ``tree=None`` everywhere below
means the slots form a single path in time order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .market import finite

TERMINAL_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class TradeSchedule:
    """Per-slot buy/sell quantities plus the initial position."""

    buys: np.ndarray
    sells: np.ndarray
    x0: float = 0.0

    def __post_init__(self):
        buys = finite(np.asarray(self.buys, dtype=float), "strategy buys")
        sells = finite(np.asarray(self.sells, dtype=float), "strategy sells")
        if buys.shape != sells.shape or buys.ndim != 1:
            raise ValueError("buys and sells must be 1-d arrays of equal length")
        if np.any(buys < 0.0) or np.any(sells < 0.0):
            raise ValueError("buy and sell quantities must be >= 0")
        object.__setattr__(self, "buys", buys)
        object.__setattr__(self, "sells", sells)
        object.__setattr__(self, "x0", finite(float(self.x0), "strategy x0"))

    @property
    def n_slots(self) -> int:
        return self.buys.size

    def net(self) -> np.ndarray:
        return self.buys - self.sells

    def gross(self) -> np.ndarray:
        return self.buys + self.sells

    @classmethod
    def zero(cls, n_slots: int, x0: float = 0.0) -> "TradeSchedule":
        return cls(np.zeros(n_slots), np.zeros(n_slots), x0)

    @classmethod
    def from_net(cls, net, x0: float = 0.0) -> "TradeSchedule":
        net = np.asarray(net, dtype=float)
        return cls(np.maximum(net, 0.0), np.maximum(-net, 0.0), x0)


def _check_same_slots(a: TradeSchedule, b: TradeSchedule) -> None:
    if a.n_slots != b.n_slots:
        raise GridMismatch(f"schedules live on different grids ({a.n_slots} vs {b.n_slots} slots)")
    if a.x0 != b.x0:
        raise GridMismatch("schedules have different initial positions")


def position_path(schedule: TradeSchedule, tree=None) -> np.ndarray:
    """Share position after the trade at each slot (pre-trade value is ``x0``)."""
    net = schedule.net()
    if tree is None:
        return schedule.x0 + np.cumsum(net)
    return tree.accumulate(net, initial=schedule.x0)


def normalize(schedule: TradeSchedule) -> TradeSchedule:
    """Cancel simultaneous buys and sells slot-wise.

    Leaves the position path unchanged and never increases total variation.
    Idempotent.
    """
    overlap = np.minimum(schedule.buys, schedule.sells)
    return TradeSchedule(schedule.buys - overlap, schedule.sells - overlap, schedule.x0)


def total_variation(schedule: TradeSchedule, tree=None):
    """Total traded volume: scalar on a path, one value per scenario on a tree."""
    gross = schedule.gross()
    if tree is None:
        return float(np.sum(gross))
    return tree.accumulate(gross, initial=0.0)[tree.leaves]


def convex_combine(s0: TradeSchedule, s1: TradeSchedule, w: float) -> TradeSchedule:
    """Slot-wise convex combination of the gross decompositions."""
    if not 0.0 <= w <= 1.0:
        raise ValueError("combination weight must lie in [0, 1]")
    _check_same_slots(s0, s1)
    return TradeSchedule(
        w * s0.buys + (1.0 - w) * s1.buys,
        w * s0.sells + (1.0 - w) * s1.sells,
        s0.x0,
    )


def check_terminal_zero(schedule: TradeSchedule, tree=None):
    """True when the terminal position vanishes (per scenario on a tree); every liquidation check uses it."""
    terminal = position_path(schedule, tree)[-1 if tree is None else tree.leaves]
    tol = TERMINAL_ZERO_RTOL * (1.0 + abs(schedule.x0) + total_variation(schedule, tree))
    flags = np.abs(terminal) <= tol
    return bool(flags) if tree is None else flags

"""Market primitives: time grid, depth/resilience curves and their regularity checks.

The model is parameterised by a market depth curve ``delta`` (shares per unit
price move) and a resilience rate ``r`` (1/time).  A deterministic market is
the one-scenario case of a scenario tree, so its derived curves are read off
its one-path :class:`~transient_impact.tree.ScenarioTree`, whose constructor
is the one code that computes them: the resilience discount ``rho``, the
decaying liquidity curve ``kappa = delta / rho**2`` and the liquidity weights
used by every wealth and certificate computation, one weight per grid
interval (the drop of ``kappa`` over it) plus a terminal atom ``kappa[-1]``.
The interval weight is always consumed against the value at the *left* grid
point; trades sit exactly on grid points, which makes this discretisation
exact for grid-point trading.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInput

# Relative strictness guard for the decay of the liquidity curve.
EPS_MONO = 1e-12


def finite(values, what: str):
    """``values`` itself when every entry is finite; otherwise :class:`NonFiniteInput`.

    The extremes carry any NaN and show any infinity, and unlike an
    elementwise test they need no temporary as large as the input.
    """
    if not (np.isfinite(np.min(values, initial=0.0)) and np.isfinite(np.max(values, initial=0.0))):
        raise NonFiniteInput(f"{what} must be finite")
    return values


def as_curve(values, n_points: int, name: str = "curve") -> np.ndarray:
    """Coerce a scalar or sequence to a length-``n_points`` float array.

    Finiteness is left to the model types: checked here, it would turn a NaN
    martingale's ``InfeasibleCertificate`` into ``NonFiniteInput``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_points, float(arr))
    if arr.shape != (n_points,):
        raise ValueError(f"{name} must be a scalar or have length {n_points}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing trading times t_0 = 0 < t_1 < ... < t_N."""

    times: np.ndarray

    def __post_init__(self):
        t = finite(np.asarray(self.times, dtype=float), "market grid")
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least two points")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def n_points(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class LiquiditySpec:
    """Per-grid-point market depth (> 0) and resilience rate (>= 0)."""

    delta: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        delta = finite(np.atleast_1d(np.asarray(self.delta, dtype=float)), "market delta")
        r = finite(np.atleast_1d(np.asarray(self.r, dtype=float)), "market r")
        if delta.shape != r.shape:
            raise ValueError("depth and resilience curves must have the same length")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class ImpactParams:
    """Permanent impact slope, initial half-spread, initial position and cash."""

    iota: float = 0.0
    zeta0: float = 0.0
    x0: float = 0.0
    xi0: float = 0.0

    def __post_init__(self):
        for name in ("iota", "zeta0", "x0", "xi0"):
            finite(getattr(self, name), f"market {name}")
        if self.iota < 0.0:
            raise ValueError("permanent impact coefficient must be >= 0")
        if self.zeta0 < 0.0:
            raise ValueError("initial half-spread must be >= 0")


@dataclass(frozen=True)
class MuWeights:
    """Liquidity weights: one mass per grid interval plus the terminal atom."""

    interior: np.ndarray
    atom: float

    @property
    def total(self) -> float:
        return float(np.sum(self.interior) + self.atom)


@dataclass(frozen=True)
class MarketSpec:
    """A validated-shape bundle of grid, liquidity curves and impact parameters."""

    grid: TimeGrid
    liquidity: LiquiditySpec
    impact: ImpactParams = field(default_factory=ImpactParams)

    def __post_init__(self):
        if self.liquidity.delta.shape != (self.grid.n_points,):
            raise ValueError("liquidity curves must have one value per grid point")

    @classmethod
    def build(cls, times, delta, r, iota=0.0, zeta0=0.0, x0=0.0, xi0=0.0) -> "MarketSpec":
        grid = TimeGrid(np.asarray(times, dtype=float))
        liq = LiquiditySpec(
            as_curve(delta, grid.n_points, "delta"),
            as_curve(r, grid.n_points, "r"),
        )
        return cls(grid, liq, ImpactParams(iota=iota, zeta0=zeta0, x0=x0, xi0=xi0))

    def rho(self) -> np.ndarray:
        return _chain(self).rho

    def kappa(self) -> np.ndarray:
        return _chain(self).kappa

    def mu(self) -> MuWeights:
        chain = _chain(self)
        return MuWeights(interior=chain.edge_weight[1:], atom=float(chain.kappa[-1]))


def _chain(market: MarketSpec):
    """The market's one-path tree at price 0; ``ValueError`` on a depth <= 0 or a resilience < 0."""
    from .tree import ScenarioTree  # tree.py imports this module

    return ScenarioTree.single_path(market, 0.0)


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------


def sign_failures(delta=(), r=()) -> list[str]:
    """The model's sign rules that depth (> 0) and resilience (>= 0) values break, one message each."""
    failures = []
    if np.any(np.asarray(delta) <= 0.0):
        failures.append("market depth must be > 0 everywhere")
    if np.any(np.asarray(r) < 0.0):
        failures.append("resilience rate must be >= 0 everywhere")
    return failures


def require_signs(delta=(), r=()) -> None:
    """Raise ``ValueError`` with the first of :func:`sign_failures`, if any."""
    failures = sign_failures(delta, r)
    if failures:
        raise ValueError(failures[0])


def decay_margin(kappa_from, kappa_to) -> float:
    """Smallest relative drop of the liquidity curve per interval: < 0 if it rises, 0 if flat, inf if none."""
    drops = (kappa_from - kappa_to) / kappa_from
    return float(drops.min()) if drops.size else np.inf


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the regularity checks on a liquidity specification."""

    passed: bool
    failures: tuple[str, ...]
    delta_over_rho_min: float
    delta_over_rho_max: float
    kappa_relative_margin: float


def validate_assumptions(grid: TimeGrid, liquidity: LiquiditySpec) -> ValidationReport:
    """Check the regularity conditions required by the pricing theory.

    Verifies positive depth, non-negative resilience, reports the (always
    finite on a grid) bounds of ``delta / rho`` and requires the liquidity
    curve ``kappa`` to be strictly decreasing with relative margin above
    ``EPS_MONO``.  Never raises; every violated clause is listed.
    """
    delta = liquidity.delta
    r = liquidity.r
    if delta.shape != (grid.n_points,):
        return ValidationReport(False, ("liquidity curves do not match the grid",), np.nan, np.nan, np.nan)
    failures = sign_failures(delta, r)

    ratio_min = ratio_max = margin = np.nan
    if not failures:
        chain = _chain(MarketSpec(grid, liquidity))
        ratio = delta / chain.rho
        ratio_min = float(ratio.min())
        ratio_max = float(ratio.max())
        margin = chain.decay_margin
        if margin <= EPS_MONO:
            failures.append(
                "liquidity curve is not strictly decreasing "
                f"(min relative drop {margin:.3e} <= {EPS_MONO:.0e}); "
                "market depth growth must stay dominated by resilience"
            )
    return ValidationReport(
        passed=not failures,
        failures=tuple(failures),
        delta_over_rho_min=ratio_min,
        delta_over_rho_max=ratio_max,
        kappa_relative_margin=margin,
    )

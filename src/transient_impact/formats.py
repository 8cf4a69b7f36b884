"""JSON/CSV loaders and writers for markets, trees, schedules and certificates."""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

from .duality import DualCertificate
from .errors import NonFiniteInput
from .market import MarketSpec
from .strategy import TradeSchedule
from .tree import NodeMeasure, ScenarioTree


class FormatError(Exception):
    """Input file failed to parse or does not match the documented schema."""


def _read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object at the top level")
    return data


def _finite(values, what: str):
    """``values`` itself when every entry is finite; otherwise :class:`NonFiniteInput`.

    The extremes carry any NaN and show any infinity, and unlike an
    elementwise test they need no temporary as large as the input.
    """
    if not (np.isfinite(np.min(values, initial=0.0)) and np.isfinite(np.max(values, initial=0.0))):
        raise NonFiniteInput(f"{what} must be finite")
    return values


def market_from_dict(data: dict) -> MarketSpec:
    try:
        curves = [_finite(np.asarray(data[k], dtype=float), f"market {k}") for k in ("grid", "delta", "r")]
        scalars = {k: _finite(float(data.get(k, 0.0)), f"market {k}") for k in ("iota", "zeta0", "x0", "xi0")}
        return MarketSpec.build(*curves, **scalars)
    except NonFiniteInput:
        raise  # readable, but outside the model's domain
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad market spec: {exc}") from exc


def load_market(path) -> MarketSpec:
    return market_from_dict(_read_json(path))


def load_tree(path, market: MarketSpec | None = None) -> ScenarioTree:
    """Tree file: ``{"levels": L, "nodes": [{id, parent, p_transition, P[, delta, r]}]}``.

    Times and default liquidity come from the market when given; otherwise the
    file must carry a ``"times"`` array and per-node depth/resilience.
    """
    data = _read_json(path)
    try:
        nodes = data["nodes"]
        if market is not None:
            times = market.grid.times
            default_delta, default_r = market.liquidity.delta, market.liquidity.r
        else:
            times = data["times"]
            default_delta = default_r = None
        tree = ScenarioTree.from_node_dicts(times, nodes, default_delta, default_r)
        levels = int(data.get("levels", tree.n_levels))
    except NonFiniteInput:
        raise  # readable, but outside the model's domain
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"bad tree file: {exc}") from exc
    if levels != tree.n_levels:
        raise FormatError(f"tree file declares {levels} levels but has {tree.n_levels}")
    return tree


def load_schedule(path, x0_default: float = 0.0) -> TradeSchedule:
    data = _read_json(path)
    try:
        return TradeSchedule(
            _finite(np.asarray(data["buys"], dtype=float), "strategy buys"),
            _finite(np.asarray(data["sells"], dtype=float), "strategy sells"),
            _finite(float(data.get("x0", x0_default)), "strategy x0"),
        )
    except NonFiniteInput:
        raise  # readable, but outside the model's domain
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad strategy file: {exc}") from exc


def load_certificate(path, tree: ScenarioTree) -> DualCertificate:
    data = _read_json(path)
    try:
        q = NodeMeasure.for_tree(tree, np.asarray(data["q_transitions"], dtype=float))
        M = _finite(np.asarray(data["M"], dtype=float), "certificate M")
        if M.shape != (tree.n_nodes,):
            raise FormatError(f"certificate M must list {tree.n_nodes} node values")
        alpha = data.get("alpha")
        alpha = None if alpha is None else _finite(np.asarray(alpha, dtype=float), "certificate alpha")
        return DualCertificate(q=q, M=M, alpha=alpha)
    except NonFiniteInput:
        raise  # readable, but outside the model's domain
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad certificate file: {exc}") from exc


def load_payoff(path, tree: ScenarioTree) -> np.ndarray:
    """Payoff file: ``{"type": "call", "strike": k}`` or ``{"type": "values", "values": [...]}``.

    Explicit values are listed per leaf in increasing node-id order.
    """
    data = _read_json(path)
    kind = data.get("type", "values")
    try:
        if kind == "call":
            strike = _finite(float(data["strike"]), "payoff strike")
            return np.maximum(tree.P[tree.leaves] - strike, 0.0)
        if kind == "values":
            values = np.asarray(data["values"], dtype=float)
            if values.shape != (tree.leaves.size,):
                raise FormatError(f"payoff must list {tree.leaves.size} leaf values")
            return _finite(values, "payoff values")
    except NonFiniteInput:
        raise  # readable, but outside the model's domain
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad payoff file: {exc}") from exc
    raise FormatError(f"unknown payoff type {kind!r}")


def load_price_paths(path) -> np.ndarray:
    """CSV with one column per scenario; returns scenario rows ``(S, N+1)``."""
    rows: list[list[float]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for line_no, row in enumerate(csv.reader(fh)):
                if not row:
                    continue
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError:
                    if line_no == 0:
                        continue  # header
                    raise FormatError(f"{path}: non-numeric value on line {line_no + 1}")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise FormatError(f"{path}: need a rectangular numeric table")
    table = np.asarray(rows, dtype=float)
    del rows  # checked only once the row list is gone, and before the transpose, in memory order
    return _finite(table, f"{path}: price paths").T


def jsonify(obj):
    """Recursively convert report objects into JSON-serialisable values."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if hasattr(obj, "__dataclass_fields__"):
        return {k: jsonify(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return str(obj)


def dump_json(obj, stream) -> None:
    json.dump(jsonify(obj), stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_node_series_csv(tree: ScenarioTree, columns: dict[str, np.ndarray], stream) -> None:
    """Per-node series (price, martingale, bound, ...) for external plotting."""
    writer = csv.writer(stream, lineterminator="\n")
    names = list(columns)
    writer.writerow(["node", "parent", "t_index", "time"] + names)
    for node in range(tree.n_nodes):
        row = [node, int(tree.parent[node]), int(tree.t_index[node]), repr(float(tree.times[tree.t_index[node]]))]
        row += [repr(float(columns[name][node])) for name in names]
        writer.writerow(row)


def schedule_to_dict(schedule: TradeSchedule) -> dict:
    return {"buys": schedule.buys, "sells": schedule.sells, "x0": schedule.x0}


def certificate_to_dict(cert: DualCertificate) -> dict:
    return {
        "q_transitions": cert.q.transitions,
        "M": cert.M,
        "alpha": cert.alpha,
    }


def write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")

"""JSON/CSV loaders and writers for markets, trees, schedules and certificates."""

from __future__ import annotations

import csv
import json
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .duality import DualCertificate
from .errors import NonFiniteInput
from .market import MarketSpec, finite
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


@contextmanager
def _schema(what: str):
    """Map a schema breach inside the block to :class:`FormatError`, prefixed by ``what``.

    A missing key, a wrong type, an unparsable value or a number too large
    for a float is a schema breach; a NaN or infinite value is readable, but
    outside the model's domain, so :class:`NonFiniteInput` passes through.
    """
    try:
        yield
    except NonFiniteInput:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"{what}: {exc}") from exc


def market_from_dict(data: dict) -> MarketSpec:
    with _schema("bad market spec"):
        scalars = {k: float(data.get(k, 0.0)) for k in ("iota", "zeta0", "x0", "xi0")}
        return MarketSpec.build(data["grid"], data["delta"], data["r"], **scalars)


def load_market(path) -> MarketSpec:
    return market_from_dict(_read_json(path))


def load_tree(path, market: MarketSpec | None = None) -> ScenarioTree:
    """Tree file: ``{"levels": L, "nodes": [{id, parent, p_transition, P[, delta, r]}]}``.

    Times and default liquidity come from the market when given; otherwise the
    file must carry a ``"times"`` array and per-node depth/resilience.
    """
    data = _read_json(path)
    with _schema("bad tree file"):
        nodes = data["nodes"]
        if market is not None:
            times = market.grid.times
            default_delta, default_r = market.liquidity.delta, market.liquidity.r
        else:
            times = data["times"]
            default_delta = default_r = None
        tree = ScenarioTree.from_node_dicts(times, nodes, default_delta, default_r)
        levels = data.get("levels", tree.n_levels)
        if isinstance(levels, bool) or not isinstance(levels, int):
            raise ValueError(f"levels must be an integer, got {levels!r}")
    if levels != tree.n_levels:
        raise FormatError(f"tree file declares {levels} levels but has {tree.n_levels}")
    return tree


def load_schedule(path, x0_default: float = 0.0) -> TradeSchedule:
    data = _read_json(path)
    with _schema("bad strategy file"):
        return TradeSchedule(data["buys"], data["sells"], data.get("x0", x0_default))


def load_certificate(path, tree: ScenarioTree) -> DualCertificate:
    data = _read_json(path)
    with _schema("bad certificate file"):
        q = NodeMeasure.for_tree(tree, np.asarray(data["q_transitions"], dtype=float))
        M = finite(np.asarray(data["M"], dtype=float), "certificate M")
        if M.shape != (tree.n_nodes,):
            raise FormatError(f"certificate M must list {tree.n_nodes} node values")
        alpha = data.get("alpha")
        if alpha is not None:
            alpha = finite(np.asarray(alpha, dtype=float), "certificate alpha")
            if alpha.ndim and alpha.shape != (tree.n_nodes,):
                raise FormatError(f"certificate alpha must be a scalar or list {tree.n_nodes} node values")
        return DualCertificate(q=q, M=M, alpha=alpha)


def load_payoff(path, tree: ScenarioTree) -> np.ndarray:
    """Payoff file: ``{"type": "call", "strike": k}`` or ``{"type": "values", "values": [...]}``.

    Explicit values are listed per leaf in increasing node-id order.
    """
    data = _read_json(path)
    kind = data.get("type", "values")
    with _schema("bad payoff file"):
        if kind == "call":
            strike = finite(float(data["strike"]), "payoff strike")
            return np.maximum(tree.P[tree.leaves] - strike, 0.0)
        if kind == "values":
            values = np.asarray(data["values"], dtype=float)
            if values.shape != (tree.leaves.size,):
                raise FormatError(f"payoff must list {tree.leaves.size} leaf values")
            return finite(values, "payoff values")
    raise FormatError(f"unknown payoff type {kind!r}")


def load_price_paths(path) -> np.ndarray:
    """CSV with one column per scenario; returns scenario rows ``(S, N+1)``.

    A first record with a cell that is not a number is a header and is skipped;
    numpy's C reader parses the rest, so Python-only syntax such as ``1_0`` fails.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if not _is_header(next(csv.reader(fh), [])):
                fh.seek(0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data: refused below
                table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except UnicodeDecodeError:
        raise  # undecodable bytes exit as they do from the JSON readers
    except ValueError as exc:  # ragged rows, text or empty cells; numpy's hint at `usecols` is cut
        raise FormatError(f"{path}: need a rectangular numeric table: {str(exc).split(';')[0]}") from exc
    if table.size == 0:
        raise FormatError(f"{path}: need a rectangular numeric table")
    return finite(table, f"{path}: price paths").T


def _is_header(record: list[str]) -> bool:
    """Whether any cell of a ``csv`` record is not a number."""
    try:
        list(map(float, record))
    except ValueError:
        return True
    return False


def jsonify(obj):
    """Recursively convert report objects into JSON-serialisable values."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":
            return obj.tolist()  # already nested lists of Python scalars
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if hasattr(obj, "__dataclass_fields__"):
        return {k: jsonify(getattr(obj, k)) for k in obj.__dataclass_fields__}
    raise TypeError(f"cannot serialise {type(obj).__name__} to JSON")


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

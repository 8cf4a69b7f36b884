"""JSON/CSV loaders and writers for markets, trees, schedules and certificates."""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .duality import DualCertificate
from .errors import NonFiniteInput
from .market import MarketSpec, as_curve, finite
from .strategy import TradeSchedule
from .tree import ScenarioTree


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


def load_certificate(path, tree: ScenarioTree, zeta0: float) -> DualCertificate:
    """Read, not judge, a certificate: one finite value per node (``alpha`` may be one for all); the root's ``q`` is 1.

    An absent or ``null`` ``alpha`` is the flat spread ``zeta0``.  Whether
    ``q`` is a measure, ``M`` a martingale under it and inside the band is
    :func:`~transient_impact.duality.check_certificate`'s verdict.
    """
    data = _read_json(path)

    def node_values(key):
        values = finite(np.asarray(data[key], dtype=float), f"certificate {key}")
        if values.shape != (tree.n_nodes,):
            raise FormatError(f"certificate {key} must list {tree.n_nodes} node values")
        return values

    with _schema("bad certificate file"):
        q = node_values("q_transitions")
        q[0] = 1.0
        M = node_values("M")
        alpha = data.get("alpha")
        alpha = finite(np.asarray(zeta0 if alpha is None else alpha, dtype=float), "certificate alpha")
        if alpha.ndim and alpha.shape != (tree.n_nodes,):
            raise FormatError(f"certificate alpha must be a scalar or list {tree.n_nodes} node values")
        return DualCertificate(q=q, M=M, alpha=as_curve(alpha, tree.n_nodes))


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


# Time rows per block of a streamed price-path CSV: a block of 5000 scenarios stays under a megabyte.
PATH_BLOCK_ROWS = 16


def load_price_paths(path) -> np.ndarray:
    """CSV with one column per scenario; returns scenario rows ``(S, N+1)``.

    The blocks of :func:`price_path_blocks`, gathered into a table that grows
    in place (``resize`` reallocates), so the table is never held twice.
    """
    blocks = price_path_blocks(path)
    table = next(blocks).copy()  # owns its data, so it can be resized
    for block in blocks:
        rows = table.shape[0]
        table.resize((rows + block.shape[0], table.shape[1]), refcheck=False)
        table[rows:] = block
    return table.T


def price_path_blocks(path):
    """Yield a price-path CSV (one column per scenario) as time-row blocks ``(k, S)``.

    A first record with a cell that is not a number is a header and is skipped;
    numpy's C reader parses the rest, :data:`PATH_BLOCK_ROWS` data rows at a
    time, so Python-only syntax such as ``1_0`` fails.  Each block is checked
    for its width and for finiteness before it is yielded: a bad row raises
    when the reader reaches it.
    """
    with _csv_errors(path):
        fh = open(path, newline="", encoding="utf-8")
    with fh:
        with _csv_errors(path):
            if not _is_header(next(csv.reader(fh), [])):
                fh.seek(0)
        lines, rows, width = iter(fh), 0, None
        while True:
            with _csv_errors(path, rows, width), warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data: the end, or refused below
                block = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, quotechar='"',
                                   max_rows=PATH_BLOCK_ROWS)
            if block.size == 0:
                if rows == 0:
                    raise FormatError(f"{path}: need a rectangular numeric table")
                return
            if width is not None and block.shape[1] != width:
                raise FormatError(f"{path}: need a rectangular numeric table: "
                                  f"the number of columns changed from {width} to {block.shape[1]} at row {rows + 1}")
            width, rows, final = block.shape[1], rows + block.shape[0], block.shape[0] < PATH_BLOCK_ROWS
            yield finite(block, f"{path}: price paths")
            if final:
                return
            del block  # so that no earlier block is held while numpy parses the next


@contextmanager
def _csv_errors(path, rows_before: int = 0, width: int | None = None):
    """Map a failure to read or parse the CSV at ``path`` to :class:`FormatError`.

    numpy numbers rows from the start of the lines it was given; adding
    ``rows_before``, the data rows read before them, makes that a row of the file.
    A block whose first row is ragged against the ``width`` of the rows before
    it makes numpy blame the row after; the message names the first row instead.
    """
    try:
        yield
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except UnicodeDecodeError:
        raise  # undecodable bytes exit as they do from the JSON readers
    except ValueError as exc:  # ragged rows, text or empty cells; numpy's hint at `usecols` is cut
        reason = str(exc).split(";")[0]
        ragged = re.match(r"the number of columns changed from (\d+) to", reason)
        if ragged and width is not None and int(ragged[1]) != width:
            reason = f"the number of columns changed from {width} to {ragged[1]} at row {rows_before + 1}"
        else:
            reason = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + rows_before}", reason)
        raise FormatError(f"{path}: need a rectangular numeric table: {reason}") from exc


def _is_header(record: list[str]) -> bool:
    """Whether any cell of a ``csv`` record is not a number."""
    try:
        list(map(float, record))
    except ValueError:
        return True
    return False


def dump_json(obj) -> str:
    """The text ``json.dump(value, stream, indent=2, sort_keys=True)`` writes for ``obj``'s JSON value, then a newline.

    The JSON value of a report object: a dataclass is the dict of its fields, a
    tuple a list, a numpy array its ``tolist()`` and a numpy number its
    ``item()``; dict keys become ``str(key)``.  Anything else raises
    ``TypeError``.  An all-finite 1-D float array, the bulk of a report, is
    rendered with one ``join``; every other value as ``json`` renders it
    (``NaN``, ``Infinity``, ASCII-escaped strings, ``[]``).
    """
    parts: list[str] = []
    _render(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _render(obj, newline: str, parts: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``parts``; ``newline`` starts a line at its depth."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64 and obj.size and np.isfinite(obj).all():
            inner = newline + "  "
            parts += ("[", inner, ("," + inner).join(map(float.__repr__, obj.tolist())), newline, "]")
        else:
            _render(obj.tolist(), newline, parts)
    elif isinstance(obj, (np.floating, np.integer)):
        _render(obj.item(), newline, parts)
    elif isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        parts.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(float.__repr__(obj) if math.isfinite(obj) else "NaN" if obj != obj else
                     "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, (dict, list, tuple)):
        if isinstance(obj, dict):
            keyed = sorted({str(k): v for k, v in obj.items()}.items())
            brackets, heads, values = "{}", [encode_basestring_ascii(k) + ": " for k, _ in keyed], [v for _, v in keyed]
        else:
            brackets, heads, values = "[]", [""] * len(obj), obj
        if not values:
            parts.append(brackets)
            return
        inner = newline + "  "
        parts.append(brackets[0])
        for i, (head, value) in enumerate(zip(heads, values)):
            parts += ("," + inner if i else inner, head)
            _render(value, inner, parts)
        parts += (newline, brackets[1])
    elif hasattr(obj, "__dataclass_fields__"):
        _render({k: getattr(obj, k) for k in obj.__dataclass_fields__}, newline, parts)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__} to JSON")


def write_node_series_csv(tree: ScenarioTree, columns: dict[str, np.ndarray]) -> str:
    """Per-node series (price, martingale, bound, ...) as CSV text, for external plotting.

    Node id, parent, time index and time, then each column as ``repr`` of a
    float: no cell, and no column name, needs CSV quoting.
    """
    cells = [map(str, range(tree.n_nodes)), map(str, tree.parent.tolist()), map(str, tree.t_index.tolist()),
             map(float.__repr__, tree.times[tree.t_index].tolist())]
    cells += [map(float.__repr__, np.asarray(values, dtype=float).tolist()) for values in columns.values()]
    rows = [",".join(["node", "parent", "t_index", "time", *columns])]
    rows += map(",".join, zip(*cells))
    rows.append("")
    return "\n".join(rows)


def certificate_to_dict(cert: DualCertificate) -> dict:
    return {
        "q_transitions": cert.q,
        "M": cert.M,
        "alpha": cert.alpha,
    }


def write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")

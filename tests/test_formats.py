"""The price-path reader and the report encoder against the loops they replaced.

``ref_load_price_paths`` is the ``csv.reader`` + ``float()`` loader that
``formats.load_price_paths`` replaced, kept as the oracle: on every table
below the two must give equal arrays, or raise exceptions of the same class.
The one permitted divergence is number syntax that only Python's ``float()``
reads (digit underscores such as ``1_0``, non-ASCII digits): the oracle reads
such a cell, the C reader refuses it with a ``FormatError`` (exit 2).
``ref_jsonify`` is the per-element walk from report objects to plain JSON
values that ``formats.dump_json`` replaced: ``dump_json`` must return the text
``json.dump(..., indent=2, sort_keys=True)`` writes for its result.
``ref_node_series_csv`` is the ``csv.writer`` loop that
``formats.write_node_series_csv`` replaced: the two must give the same text.
"""

import argparse
import csv
import io
import json
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from transient_impact import cli
from transient_impact.errors import NonFiniteInput
from transient_impact.formats import (PATH_BLOCK_ROWS, FormatError, dump_json, load_price_paths, price_path_blocks,
                                      write_node_series_csv)
from transient_impact.market import finite

from conftest import random_tree


def ref_load_price_paths(path) -> np.ndarray:
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
    return finite(np.asarray(rows, dtype=float), f"{path}: price paths").T


def outcome(loader, path):
    """The array a loader returns, or the class of the exception it raises."""
    try:
        return loader(path)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


def load_in_blocks(path) -> np.ndarray:
    """The streamed reader's blocks stacked into scenario rows, as :func:`load_price_paths` returns them."""
    return np.vstack(list(price_path_blocks(path))).T


def assert_same_outcome(path, loader=load_price_paths):
    got, want = outcome(loader, path), outcome(ref_load_price_paths, path)
    if isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, np.ndarray), got
        np.testing.assert_array_equal(got, want, strict=True)


EDGE_CASES = {
    "plain": b"100,101\n99.5,102\n",
    "header": b"s0,s1\n100,101\n99.5,102\n",
    "partial header": b"1,b\n100,101\n99.5,102\n",
    "numeric first row kept": b"1,2\n100,101\n",
    "blank lines": b"\n100,101\n\n\n99.5,102\n\n",
    "blank first line then header": b"\ns0,s1\n100,101\n",
    "whitespace-only line": b"100,101\n   \n99.5,102\n",
    "whitespace-only first line": b"   \n100\n99.5\n",
    "padded cells": b" 100 ,\t101\n99.5 , 102  \n",
    "quoted cells": b'"1","2"\n"100",101\n',
    "quoted header": b'"s0","s1"\n100,101\n',
    "quoted header with newline": b'"s\n0",s1\n100,101\n',
    "quote then digits": b'"1"2,3\n4,5\n',
    "space before quote": b' "1",2\n3,4\n',
    "doubled quotes": b'"""1""",2\n3,4\n',
    "crlf": b"s0,s1\r\n100,101\r\n99.5,102\r\n",
    "lone cr": b"100,101\r99.5,102\r",
    "trailing comma": b"100,101,\n99.5,102,\n",
    "trailing comma on first line": b"100,101,\n99.5,102\n",
    "no final newline": b"100,101\n99.5,102",
    "bom on header": b"\xef\xbb\xbfs0,s1\n100,101\n",
    "bom on data": b"\xef\xbb\xbf100,101\n99.5,102\n",
    "single row": b"100,101,102\n",
    "single column": b"100\n101\n102\n",
    "single cell": b"100\n",
    "hash cell": b"100,101\n#99,102\n",
    "hash first line": b"# paths\n100,101\n",
    "hex": b"100,101\n0x10,102\n",
    "text": b"100,101\nabc,102\n",
    "empty cell": b"100,101\n,102\n",
    "empty quoted cell": b'100,101\n"",102\n',
    "signs and exponents": b"+1e2,-0.0\n.5,5.\n1E-3,-2.5e+1\n",
    "overflow": b"100,101\n1e400,102\n",
    "nan": b"100,101\nnan,102\n",
    "NaN header row": b"s0,s1\nNaN,102\n",
    "-Infinity": b"100,101\n99,-Infinity\n",
    "inf": b"100,inf\n99,101\n",
    "nan(payload)": b"100,101\nnan(1),102\n",
    "ragged short": b"100,101\n99.5\n",
    "ragged long": b"100,101\n99.5,102,103\n",
    "ragged after header": b"a,b,c\n100,101\n",
    "nul byte": b"100,101\n1\x00,102\n",
    "form feed padding": b"100,\x0c101\n99,102\n",
    "no-break space padding": "100, 101\n99,102\n".encode(),
    "empty file": b"",
    "newlines only": b"\n\n",
    "header only": b"s0,s1\n",
    "header then blank lines": b"s0,s1\n\n\n",
    "bad utf-8": b"100,101\n\xff,102\n",
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_loader_matches_reference_on_edge_cases(tmp_path, name):
    path = tmp_path / "paths.csv"
    path.write_bytes(EDGE_CASES[name])
    assert_same_outcome(path)


def _rows(n: int, newline: str = "\n", **edits) -> bytes:
    """``n`` two-column data rows joined by ``newline``; ``edits`` maps ``r<index>`` to a replacement row."""
    rows = [edits.get(f"r{i}", f"{100 + i},{200 - i}.5") for i in range(n)]
    return (newline.join(rows) + newline).encode()


B = PATH_BLOCK_ROWS
# Files longer than one block: the fault or the odd line sits in a later block or at a boundary.
BLOCK_CASES = {
    "one full block": _rows(B),
    "two full blocks": _rows(2 * B),
    "several blocks": _rows(3 * B + 5),
    "header then several blocks": b"s0,s1\n" + _rows(3 * B + 1),
    "quoted header with newline then blocks": b'"s\n0",s1\n' + _rows(2 * B + 3),
    "ragged short in a later block": _rows(3 * B, **{f"r{2 * B + 5}": "99.5"}),
    "ragged long in a later block": _rows(3 * B, **{f"r{B + 3}": "99.5,102,103"}),
    "ragged row opens a block": _rows(3 * B, **{f"r{B}": "99.5"}),
    "ragged row ends a block": _rows(3 * B, **{f"r{B - 1}": "99.5"}),
    "narrow last block": _rows(B) + b"1\n2\n",
    "wide last block": _rows(B) + b"1,2,3\n",
    "text in a later block": _rows(3 * B, **{f"r{2 * B + 1}": "abc,102"}),
    "empty cell in a later block": _rows(2 * B, **{f"r{B + 7}": ",102"}),
    "nan in a later block": _rows(3 * B, **{f"r{2 * B + 2}": "nan,102"}),
    "inf in the last row": _rows(2 * B + 1, **{f"r{2 * B}": "100,-inf"}),
    "overflow in a later block": _rows(3 * B, **{f"r{B + 9}": "1e400,102"}),
    "blank lines at a boundary": _rows(B) + b"\n\n" + _rows(B) + b"\n",
    "blank lines inside a later block": _rows(B + 2) + b"\n   \n" + _rows(B),
    "crlf across blocks": b"s0,s1\r\n" + _rows(2 * B + 3, "\r\n"),
    "lone cr across blocks": _rows(2 * B + 3, "\r"),
    "quoted rows at a boundary": _rows(B - 1) + b'"1","2"\n"3",4\n' + _rows(B),
    "quoted newline in a later block": _rows(B + 1) + b'"1\n0",2\n' + _rows(3),
    "no final newline after blocks": _rows(2 * B + 1)[:-1],
    "hash row in a later block": _rows(2 * B, **{f"r{B + 2}": "#99,102"}),
    "bad utf-8 in a later block": _rows(2 * B) + b"\xff,1\n",
}


@pytest.mark.parametrize("name", list(BLOCK_CASES))
def test_block_reader_matches_reference_across_blocks(tmp_path, name):
    path = tmp_path / "paths.csv"
    path.write_bytes(BLOCK_CASES[name])
    assert_same_outcome(path, load_in_blocks)
    assert_same_outcome(path)


@pytest.mark.parametrize("name", [n for n in BLOCK_CASES if n.startswith(("ragged", "text", "empty"))])
def test_block_reader_names_the_row_in_the_file(tmp_path, name):
    # numpy numbers the rows of each block from the block's first; the message must number them from the top
    # of the file, as the one-block read does, also where the ragged row opens its block
    path = tmp_path / "paths.csv"
    path.write_bytes(BLOCK_CASES[name])
    with pytest.raises(FormatError) as streamed:
        load_in_blocks(path)
    with pytest.raises(FormatError) as whole:
        load_price_paths(path)
    assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("name", ["narrow last block", "wide last block"])
def test_block_reader_checks_the_width_across_blocks(tmp_path, name):
    path = tmp_path / "paths.csv"
    path.write_bytes(BLOCK_CASES[name])
    with pytest.raises(FormatError, match=f"changed from 2 to . at row {B + 1}$"):
        load_in_blocks(path)


def test_block_reader_yields_good_blocks_before_a_fault(tmp_path):
    path = tmp_path / "paths.csv"
    path.write_bytes(BLOCK_CASES["nan in a later block"])
    blocks = price_path_blocks(path)
    first, second = next(blocks), next(blocks)
    assert first.shape == second.shape == (B, 2)
    with pytest.raises(NonFiniteInput):  # a ValueError, but never mapped to FormatError
        next(blocks)


@pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("1_000.5", 1000.5), ("١", 1.0)])
def test_python_only_number_syntax_is_a_format_error(tmp_path, cell, value):
    path = tmp_path / "paths.csv"
    path.write_text(f"100,101\n{cell},102\n", encoding="utf-8")
    assert ref_load_price_paths(path)[0, 1] == value
    with pytest.raises(FormatError):
        load_price_paths(path)


def test_faults_raise_without_warnings(tmp_path):
    path = tmp_path / "paths.csv"
    for text, error in [("", FormatError), ("s0,s1\n", FormatError), ("1,2\n3\n", FormatError),
                        ("1,2\n3,x\n", FormatError), ("1,2\n3,\n", FormatError),
                        ("1,2\nnan,4\n", NonFiniteInput), ("1,2\n3,-inf\n", NonFiniteInput)]:
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input UserWarning must not leak
            with pytest.raises(error):
                load_price_paths(path)


def _format_cell(rng, value):
    text = rng.choice([repr(value), f"{value:.6f}", f"{value:g}", f"{value:.3e}", f"{value:+.2f}"])
    if rng.random() < 0.1:
        text = " " * int(rng.integers(1, 3)) + text + " " * int(rng.integers(0, 3))
    if rng.random() < 0.1:
        text = f'"{text}"'
    return text


def random_table(rng, header):
    n_rows, n_cols = int(rng.integers(1, 30)), int(rng.integers(1, 8))
    values = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.05, (n_rows, n_cols)), axis=0))
    values[rng.random(values.shape) < 0.05] *= -1.0
    rows = [[_format_cell(rng, float(v)) for v in row] for row in values]
    if header:
        rows.insert(0, [f"s{j}" for j in range(n_cols)])
    newline = rng.choice(["\n", "\r\n"])
    lines = []
    for row in rows:
        if rng.random() < 0.1:
            lines.append("")
        lines.append(",".join(row))
    return newline.join(lines) + (newline if rng.random() < 0.8 else ""), rows


def mutate(rng, rows):
    """One fault in a data row: a text, empty, non-finite or missing cell."""
    rows = [list(r) for r in rows]
    i = int(rng.integers(len(rows)))
    j = int(rng.integers(len(rows[i])))
    kind = rng.integers(5)
    if kind == 4:
        rows[i].pop(j)
    else:
        rows[i][j] = ["abc", "", "nan", "-inf"][kind]
    return rows


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_loader_matches_reference_on_random_tables(tmp_path, seed, header):
    rng = np.random.default_rng([seed, header])
    path = tmp_path / "paths.csv"
    text, rows = random_table(rng, header)
    path.write_bytes(text.encode())
    assert_same_outcome(path)
    body = mutate(rng, rows[1:] if header else rows)
    faulty = ([rows[0]] if header else []) + body
    path.write_text("\n".join(",".join(r) for r in faulty) + "\n", encoding="utf-8")
    assert_same_outcome(path)


def test_loader_memory_peak(tmp_path):
    rng = np.random.default_rng(0)
    table = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (201, 2000)), axis=0))
    path = tmp_path / "paths.csv"
    path.write_text("\n".join(",".join(f"{v:.6f}" for v in row) for row in table) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        paths = load_price_paths(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths.shape == (2000, 201)
    assert peak <= 2 * table.nbytes


def ref_jsonify(obj):
    """The per-element walk: fields of a dataclass, ``tolist()`` of an array, ``item()`` of a numpy number."""
    if isinstance(obj, dict):
        return {str(k): ref_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return ref_jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if hasattr(obj, "__dataclass_fields__"):
        return {k: ref_jsonify(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return str(obj)


@dataclass(frozen=True)
class Leg:
    price: np.ndarray
    label: str


@dataclass(frozen=True)
class Book:
    zeta: float
    legs: tuple
    inner: Leg
    note: None = None


@pytest.mark.parametrize("value", [
    np.array([1.5, -0.0, 0.0, np.nan, 1e-300, 1.0 / 3.0, 1e300]),
    np.array([[np.nan, -0.0], [2.5, -1e-17]]),
    np.array([], dtype=float),
    np.array([3, -7, 2**40], dtype=np.int64),
    np.array([[1, 2], [3, 4]], dtype=np.int32),
    np.array([7, 255], dtype=np.uint8),
    np.array([True, False, True]),
    np.array([[True], [False]]),
    np.array([0.1, 2.0], dtype=np.float32),
    np.array(["a", "b"]),
    np.array([1.0, "x", None], dtype=object),
    pytest.param(np.array([np.inf, 1.0, -np.inf]), id="infinities-1d"),
    pytest.param(np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, -1e-310]), id="subnormals-1d"),
    pytest.param(np.array([np.nan]), id="nan-only-1d"),
    pytest.param(np.array(2.5), id="float-0d"),
    pytest.param(np.array(-7), id="int-0d"),
    pytest.param(np.array(np.nan), id="nan-0d"),
    pytest.param(np.zeros((2, 0)), id="empty-2d"),
    pytest.param(np.zeros((0, 3)), id="empty-rows-2d"),
    pytest.param(np.arange(6.0).reshape(2, 3) / 7.0, id="finite-2d"),
    pytest.param([np.float64(0.1), np.float32(0.1), np.int64(-3), np.uint8(200), np.float64(-np.inf)],
                 id="numpy-scalars"),
    pytest.param(np.float64(np.nan), id="numpy-nan"),
    pytest.param(Book(0.05, (Leg(np.array([100.0, 110.0]), "up"), Leg(np.array([]), "flat")),
                      Leg(np.array([np.nan, -0.0]), "odd")), id="nested-dataclasses"),
    pytest.param((1, (2.5, ()), "x", {}), id="tuples"),
    pytest.param([True, False, None, 0, -1, 2**70, float("inf"), float("-inf"), float("nan"), -0.0, 1e16, 1e-7],
                 id="python-scalars"),
    pytest.param(["naïve € 😀", "tab\there\x00\x1f \"q\" \\ /", "\u2028\ud800", ""], id="strings"),
    pytest.param({"b": 1, "a": {"d": [], "c": {}}, "10": 2, "9": [3], 1: "int key", "é": "non-ascii key", "\n": 0},
                 id="unsorted-keys"),
], ids=lambda a: f"{a.dtype}-{a.ndim}d")
def test_jsonify_numeric_arrays_byte_identical(value):
    payload = {"values": value, "nested": [value, {"again": value}]}
    want = io.StringIO()
    json.dump(ref_jsonify(payload), want, indent=2, sort_keys=True)
    want.write("\n")
    assert dump_json(payload) == want.getvalue()


def test_jsonify_refuses_an_unknown_object(tmp_path):
    with pytest.raises(TypeError, match="cannot serialise object"):
        dump_json({"report": [object()]})
    report = tmp_path / "report.json"
    report.write_text("an earlier report\n", encoding="utf-8")
    args = argparse.Namespace(format="json", out=str(report))
    for unknown in (object(), np.bool_(True), 1j):
        with pytest.raises(TypeError, match="cannot serialise"):
            cli._emit(args, {"a": np.arange(3.0), "b": [unknown]})  # the report's first keys render before it
    assert report.read_text(encoding="utf-8") == "an earlier report\n"


def ref_node_series_csv(tree, columns) -> str:
    """The ``csv.writer`` loop that ``formats.write_node_series_csv`` replaced."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    names = list(columns)
    writer.writerow(["node", "parent", "t_index", "time"] + names)
    for node in range(tree.n_nodes):
        row = [node, int(tree.parent[node]), int(tree.t_index[node]), repr(float(tree.times[tree.t_index[node]]))]
        row += [repr(float(columns[name][node])) for name in names]
        writer.writerow(row)
    return stream.getvalue()


@pytest.mark.parametrize("seed", range(5))
def test_node_series_csv_matches_the_csv_writer(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, depth=3)
    odd = rng.choice([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300], tree.n_nodes)
    columns = {"P": tree.P, "M": rng.normal(100.0, 5.0, tree.n_nodes), "odd": odd, "ints": np.arange(tree.n_nodes)}
    assert write_node_series_csv(tree, columns) == ref_node_series_csv(tree, columns)

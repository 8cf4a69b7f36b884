"""Seeded fuzz of the CLI over malformed and non-finite input files.

Each command starts from small valid inputs.  One input file at a time is
mutated: a number replaced by NaN, an infinity, a string, null or a list; a
list replaced by a number; a key dropped; a record replaced by a value that is
not a JSON object; the whole document replaced by a list; a CSV cell made
non-finite, non-numeric or empty, or a row cut short.  Every outcome must be a
documented exit code (0, 1, 2 or 3) with no exception escaping ``cli.main``,
and a command that exits 0 must not print a NaN or an infinity.  Each command
runs every single mutation of the files it reads, plus seeded pairs of
mutations in two of them.
"""

import copy
import json

import numpy as np
import pytest

from transient_impact.cli import main

SEED = 20240607
N_PAIRS = 15

INPUTS = {
    "market": {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.5, "iota": 0.1, "zeta0": 0.05, "x0": 0.5, "xi0": 0.0},
    "tree": {
        "levels": 2,
        "nodes": [
            {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
            {"id": 1, "parent": 0, "p_transition": 0.5, "P": 110.0, "delta": 9.0, "r": 0.4},
            {"id": 2, "parent": 0, "p_transition": 0.5, "P": 90.0},
        ],
    },
    "payoff": {"type": "values", "values": [10.0, 0.0]},
    "call_payoff": {"type": "call", "strike": 100.0},
    "certificate": {"q_transitions": [1.0, 0.5, 0.5], "M": [100.0, 110.0, 90.0], "alpha": [0.05, 0.05, 0.05]},
    "strategy": {"buys": [1.0, 0.0], "sells": [0.0, 1.5], "x0": 0.5},
    # no martingale fits in this tree's band, so shadow-check finds none and reports null violations
    "drift_tree": {
        "nodes": [
            {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
            {"id": 1, "parent": 0, "p_transition": 0.5, "P": 106.0},
            {"id": 2, "parent": 0, "p_transition": 0.5, "P": 107.0},
        ],
    },
    "node_strategy": {"buys": [0.0, 0.0, 0.0], "sells": [0.0, 0.0, 0.0], "x0": 0.0},
    "paths": [["s0", "s1"], ["100.0", "100.0"], ["99.0", "103.0"]],
}

# Arguments that name an entry of INPUTS are replaced by that file's path.
COMMANDS = {
    "price": ["price", "--market", "market", "--tree", "tree", "--payoff", "payoff"],
    "price-call": ["price", "--market", "market", "--tree", "tree", "--payoff", "call_payoff"],
    "gap": ["gap", "--market", "market", "--tree", "tree", "--payoff", "payoff"],
    "dual-eval": ["dual-eval", "--market", "market", "--tree", "tree", "--certificate", "certificate",
                  "--payoff", "payoff"],
    "wealth": ["wealth", "--market", "market", "--strategy", "strategy", "--paths", "paths"],
    "call": ["call", "--market", "market", "--paths", "paths", "--strike", "100.0"],
    "shadow-check": ["shadow-check", "--market", "market", "--tree", "drift_tree", "--strategy", "node_strategy",
                     "--utility", "exp"],
    "tilt": ["tilt", "--tree", "tree", "--market", "market", "--g", "0.5,0.0"],
}

BAD_NUMBERS = (float("nan"), float("inf"), float("-inf"), "abc", None, [1.0], 10**400)
BAD_CELLS = ("nan", "inf", "abc", "")


def json_mutations(doc):
    """Every single mutation of a JSON document, as ``(path, value)``; an empty ``value`` drops the key."""
    out = [((), ([doc],))]

    def visit(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                out.append((path + (key,), ()))
                visit(value, path + (key,))
        elif isinstance(node, list):
            out.append((path, (1.0,)))
            for i, value in enumerate(node):
                if isinstance(value, dict):
                    out.extend([(path + (i,), (1,)), (path + (i,), ("node",))])
                visit(value, path + (i,))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.extend((path, (bad,)) for bad in BAD_NUMBERS)

    visit(doc, ())
    return out


def apply_json(doc, mutation):
    path, value = mutation
    if not path:
        return value[0]
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value:
        node[path[-1]] = value[0]
    else:
        del node[path[-1]]
    return doc


def csv_mutations(rows):
    out = [(i, j, cell) for i in range(1, len(rows)) for j in range(len(rows[i])) for cell in BAD_CELLS]
    out += [(i, None, None) for i in range(1, len(rows))]  # row cut short by one cell
    return out


def apply_csv(rows, mutation):
    i, j, cell = mutation
    rows = [list(row) for row in rows]
    if j is None:
        rows[i].pop()
    else:
        rows[i][j] = cell
    return rows


def mutations_of(name):
    if name == "paths":
        return [(name, m) for m in csv_mutations(INPUTS[name])]
    return [(name, m) for m in json_mutations(INPUTS[name])]


def write_inputs(directory, changes):
    """Write every input, with ``changes`` (name -> mutation) applied, and return the paths."""
    paths = {}
    for name, doc in INPUTS.items():
        path = directory / (name + (".csv" if name == "paths" else ".json"))
        if name == "paths":
            rows = apply_csv(doc, changes[name]) if name in changes else doc
            path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        else:
            data = apply_json(doc, changes[name]) if name in changes else doc
            path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    return paths


def cases(command):
    """Single mutations of every file the command reads, plus seeded pairs across two files."""
    rng = np.random.default_rng([SEED, list(COMMANDS).index(command)])
    files = [arg for arg in COMMANDS[command] if arg in INPUTS]
    singles = [[m] for name in files for m in mutations_of(name)]
    pairs = []
    for _ in range(N_PAIRS):
        first, second = (str(name) for name in rng.choice(files, size=2, replace=False))
        a, b = mutations_of(first), mutations_of(second)
        pairs.append([a[rng.integers(len(a))], b[rng.integers(len(b))]])
    return singles + pairs


def test_every_mutation_kind_is_generated():
    kinds = {type(m[1][0]).__name__ if m[1] else "drop" for m in json_mutations(INPUTS["tree"])}
    assert {"float", "str", "NoneType", "list", "int", "drop"} <= kinds
    assert all(len(cases(command)) > 4 * N_PAIRS for command in COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path, capsys, command):
    failures = []
    for case in cases(command):
        files = write_inputs(tmp_path, dict(case))
        argv = [files.get(arg, arg) for arg in COMMANDS[command]]
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escaping exception is the failure under test
            failures.append((case, f"{type(exc).__name__}: {exc}"))
            continue
        out = capsys.readouterr().out
        if code not in (0, 1, 2, 3):
            failures.append((case, f"exit code {code}"))
        elif code == 0 and ("NaN" in out or "Infinity" in out):
            failures.append((case, "exit 0 with a non-finite number in the report"))
    assert not failures, "\n".join(f"{case}: {why}" for case, why in failures[:20])


# Node ids, parents, declared time indices and the level count are JSON integers: a float,
# a bool or a string in their place is refused with exit 2, naming the record.
INTEGER_FAULTS = [
    ({1: {"id": 1.9, "parent": 0.7}}, None, "node 1"),
    ({1: {"parent": 0.7}}, None, "node 1"),
    ({2: {"parent": "0"}}, None, "node 2"),
    ({1: {"id": True}}, None, "node 1"),
    ({2: {"parent": False}}, None, "node 2"),
    ({1: {"id": 1.0}}, None, "node 1"),
    ({1: {"t_index": 1.5}}, None, "node 1"),
    ({1: {"t_index": "1"}}, None, "node 1"),
    ({}, 2.9, "levels"),
    ({}, "2", "levels"),
    ({}, True, "levels"),
]


@pytest.mark.parametrize("changes, levels, named", INTEGER_FAULTS,
                         ids=[f"{changes}-{levels}".replace(" ", "") for changes, levels, _ in INTEGER_FAULTS])
def test_tree_integer_fields_must_be_json_integers(tmp_path, capsys, changes, levels, named):
    tree = copy.deepcopy(INPUTS["tree"])
    for i, fields in changes.items():
        tree["nodes"][i].update(fields)
    if levels is not None:
        tree["levels"] = levels
    files = write_inputs(tmp_path, {})
    (tmp_path / "tree.json").write_text(json.dumps(tree), encoding="utf-8")
    argv = [files.get(arg, arg) for arg in COMMANDS["price"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert named in captured.err and "integer" in captured.err


def test_tree_integer_fields_accept_integers(tmp_path, capsys):
    tree = copy.deepcopy(INPUTS["tree"])
    tree["nodes"][1]["t_index"] = 1
    files = write_inputs(tmp_path, {})
    (tmp_path / "tree.json").write_text(json.dumps(tree), encoding="utf-8")
    assert main([files.get(arg, arg) for arg in COMMANDS["price"]]) == 0
    assert capsys.readouterr().err == ""

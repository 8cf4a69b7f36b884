"""In-memory spans around the package's public functions, and the per-layer metrics derived from them.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces each traced function at every module that bound it by name (for
example ``solver`` binds ``restore_feasibility`` and ``tree_wealth``), so a
call is traced however it is reached.  Spans are kept in memory and written
out once, when the traced pass ends.

A span's key is ``<layer>.<operation>``; the layer is the package module.
A span's self time is its duration minus the durations of its direct
children.  Every traced second belongs to exactly one span, so the layer
self times plus the root's self time add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "formats", "market", "strategy", "tree", "duality", "solver", "wealth", "applications")
# The subcommands some workload runs; the others would always read zero.
SUBCOMMANDS = ("gap", "price", "dual-search", "dual-eval", "wealth", "call")
ROOT = "root"


class Tracer:
    """Flat span store: key, start, end and parent index per span, plus event counters."""

    def __init__(self):
        self.keys: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def open(self, key: str) -> int:
        idx = len(self.keys)
        self.keys.append(key)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()  # wrappers nest, so ``idx`` is the innermost open span

    def dump(self, path) -> None:
        """Write every span as ``[key, start, end, parent]`` plus the counters."""
        spans = [list(s) for s in zip(self.keys, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counters": dict(self.counters)}, fh)


# ---------------------------------------------------------------------------
# Event hooks: counts recorded at the same boundary as the span
# ---------------------------------------------------------------------------


def _count_bytes_in(tracer, args, kwargs, result):
    tracer.counters["formats.bytes_in"] += os.path.getsize(args[0])


def _count_bytes_out(tracer, args, kwargs, result):
    tracer.counters["formats.bytes_out"] += len(args[0].encode("utf-8"))


def _count_restore_bump(tracer, args, kwargs, result):
    tree, cert, market = args[:3]
    alpha_in = cert.alpha if cert.alpha is not None else np.full(tree.n_nodes, market.impact.zeta0)
    tracer.counters["duality.restore_bumps"] += not np.array_equal(alpha_in, result.alpha)


def _count_primal(tracer, args, kwargs, result):
    tracer.counters["solver.primal_iters"] += result.iterations


def _count_dual(tracer, args, kwargs, result):
    tracer.counters["solver.dual_iters"] += result.iterations
    # The last iteration of a converged search is the one with no improving trial.
    tracer.counters["solver.dual_accepts"] += result.iterations - int(result.dual_converged)


def _targets():
    """``(key, owner, attribute, hook)`` for every traced function."""
    from transient_impact import applications, cli, duality, formats, market, solver, strategy, tree, wealth

    targets = [
        ("tree.construct", tree.ScenarioTree, "__init__", None),
        ("tree.construct", tree.ScenarioTree, "from_node_dicts", None),
        ("tree.cond_exp", tree, "conditional_expectation", None),
        ("tree.reach", tree.ScenarioTree, "reach_probabilities", None),
        ("tree.accumulate", tree.ScenarioTree, "accumulate", None),
        ("tree.is_martingale", tree, "is_martingale", None),
        ("duality.bound", duality, "constraint_bound", None),
        ("duality.feasibility", duality, "check_feasibility", None),
        ("duality.restore", duality, "restore_feasibility", _count_restore_bump),
        ("duality.objective", duality, "dual_objective", None),
        ("solver.primal", solver, "primal_solve", _count_primal),
        ("solver.dual", solver, "dual_ascent", _count_dual),
        ("solver.gap", solver, "gap_report", None),
        ("solver.default_certificate", solver, "default_certificate", None),
        ("wealth.tree", wealth, "tree_wealth", None),
        ("wealth.tree", wealth, "tree_terminal_cash_direct", None),
        ("wealth.paths", wealth, "terminal_cash_direct", None),
        ("wealth.paths", wealth, "lambda_functional", None),
        ("wealth.paths", wealth, "consistency_check", None),
        ("formats.load", formats, "load_market", _count_bytes_in),
        ("formats.load", formats, "load_tree", _count_bytes_in),
        ("formats.load", formats, "load_schedule", _count_bytes_in),
        ("formats.load", formats, "load_certificate", _count_bytes_in),
        ("formats.load", formats, "load_payoff", _count_bytes_in),
        ("formats.load_paths", formats, "load_price_paths", _count_bytes_in),
        ("formats.emit", formats, "dump_json", None),
        ("formats.emit", formats, "write_node_series_csv", None),
        ("formats.emit", formats, "write_text", _count_bytes_out),
        ("market.load", market.MarketSpec, "build", None),
        ("strategy.normalize", strategy, "normalize", None),
        ("applications.call", applications, "verify_call_superreplication", None),
        ("cli.main", cli, "main", None),
    ]
    for sub in SUBCOMMANDS:
        targets.append((f"cli.cmd.{sub}", cli, "cmd_" + sub.replace("-", "_"), None))
    return targets


def _wrap(tracer: Tracer, key: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function, at its definition and at every module that bound it by name."""
    package = [m for name, m in sys.modules.items() if name == "transient_impact" or name.startswith("transient_impact.")]
    for key, owner, attr, hook in _targets():
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(_wrap(tracer, key, original.__func__, hook)))
            else:
                setattr(owner, attr, _wrap(tracer, key, original, hook))
            continue
        original = getattr(owner, attr)
        traced = _wrap(tracer, key, original, hook)
        for module in package:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for idx, par in enumerate(parents):
        if par >= 0:
            own[par] -= ends[idx] - starts[idx]
    return own


def layer_self_times(keys, starts, ends, parents) -> dict[str, float]:
    """Self time summed per layer (the part of the key before the first dot)."""
    out = dict.fromkeys((ROOT,) + LAYERS, 0.0)
    for key, own in zip(keys, self_times(starts, ends, parents)):
        layer = key.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def _outermost(keys, parents) -> list[bool]:
    """True for spans with no ancestor of the same key (their time is not counted twice)."""
    flags = []
    for idx, key in enumerate(keys):
        par = parents[idx]
        while par >= 0 and keys[par] != key:
            par = parents[par]
        flags.append(par < 0)
    return flags


def _under(keys, parents, ancestor: str) -> list[bool]:
    """True for spans that have an ancestor with key ``ancestor``."""
    flags: list[bool] = []
    for par in parents:
        flags.append(par >= 0 and (flags[par] or keys[par] == ancestor))
    return flags


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass (the root span is the pass)."""
    keys, starts, ends, parents = tracer.keys, tracer.starts, tracer.ends, tracer.parents
    own = self_times(starts, ends, parents)
    outer = _outermost(keys, parents)
    in_dual = _under(keys, parents, "solver.dual")

    calls: Counter = Counter()
    total: Counter = Counter()
    own_by_key: Counter = Counter()
    for idx, key in enumerate(keys):
        own_by_key[key] += own[idx]
        if outer[idx]:
            calls[key] += 1
            total[key] += ends[idx] - starts[idx]
    trials = sum(1 for key, flag in zip(keys, in_dual) if flag and key == "duality.objective")
    c = tracer.counters

    m: dict[str, float] = {}
    # is_martingale is traced so its time lands in the tree layer, but no
    # workload's commands call it, so it has no metric of its own.
    for op in ("construct", "cond_exp", "reach", "accumulate"):
        m[f"tree.{op}_calls"] = calls[f"tree.{op}"]
        m[f"tree.{op}_s"] = total[f"tree.{op}"]
    for op in ("bound", "feasibility", "restore", "objective"):
        m[f"duality.{op}_calls"] = calls[f"duality.{op}"]
        m[f"duality.{op}_s"] = total[f"duality.{op}"]
    m["duality.restore_bump_ratio"] = c["duality.restore_bumps"] / max(calls["duality.restore"], 1)
    m["solver.primal_s"] = total["solver.primal"]
    m["solver.primal_self_s"] = own_by_key["solver.primal"]
    m["solver.primal_iters"] = c["solver.primal_iters"]
    m["solver.primal_s_per_iter"] = total["solver.primal"] / max(c["solver.primal_iters"], 1)
    m["solver.dual_s"] = total["solver.dual"]
    m["solver.dual_self_s"] = own_by_key["solver.dual"]
    m["solver.dual_iters"] = c["solver.dual_iters"]
    m["solver.dual_trials"] = trials
    m["solver.dual_accept_ratio"] = c["solver.dual_accepts"] / max(trials, 1)
    m["wealth.tree_calls"] = calls["wealth.tree"]
    m["wealth.tree_s"] = total["wealth.tree"]
    m["wealth.paths_s"] = total["wealth.paths"]
    m["formats.load_s"] = total["formats.load"]
    m["formats.load_paths_s"] = total["formats.load_paths"]
    m["formats.emit_s"] = total["formats.emit"]
    m["formats.bytes_in"] = c["formats.bytes_in"]
    m["formats.bytes_out"] = c["formats.bytes_out"]
    m["market.load_s"] = total["market.load"]
    m["strategy.normalize_calls"] = calls["strategy.normalize"]
    m["strategy.normalize_s"] = total["strategy.normalize"]
    m["applications.call_s"] = total["applications.call"]
    for sub in SUBCOMMANDS:
        m[f"cli.cmd_s.{sub}"] = total[f"cli.cmd.{sub}"]
    for layer, seconds in layer_self_times(keys, starts, ends, parents).items():
        m[f"{layer}.self_s"] = seconds
    m["traced_wall_s"] = sum(ends[i] - starts[i] for i, key in enumerate(keys) if key == ROOT)
    return {k: float(v) for k, v in m.items()}

"""Seeded input generators for the three benchmark workloads.

Each generator takes the workload seed and a directory, writes the JSON/CSV
files the CLI reads, and returns the list of instances it wrote.  The program
under test only ever sees these files.  The same seed always gives
byte-identical files.

Why each workload exists:

* ``binomial-gap`` is the paper's pricing problem on deep regular trees (the
  ROADMAP ladder: binomial call, depths 2/4/6/8).  Almost all of its time is
  in the tree sweeps, the certificate repair and the two solvers, so it is
  the mechanism workload for tree-kernel and dual-search changes.  The ladder
  is fixed by the ROADMAP baseline, so the seed does not change it.
* ``random-pipeline`` runs the same solver code on wide, shallow, irregular
  trees with scenario-dependent liquidity, and chains the commands through
  strategy and certificate files.  A per-level kernel gains differently here
  (few levels, few internal nodes per node), and the JSON round-trips and the
  tree wealth kernels get real work.
* ``paths-wealth`` uses no tree and no solver: a large CSV of price paths
  through ``wealth --paths`` and ``call --paths``.  It is the bypass workload
  for tree and solver changes (the prediction there is no change) and the
  mechanism workload for parsing and memory changes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BINOMIAL_DEPTHS = (2, 4, 6, 8)
BINOMIAL_STEP = 5.0
BINOMIAL_P0 = 100.0
BINOMIAL_STRIKE = 100.0

# Random trees are drawn with their node count in one band per slot, so every
# seed does about the same amount of work while sizes still span 150-400.
RANDOM_SIZE_BANDS = ((150, 200), (200, 250), (250, 300), (300, 350), (350, 400))

PATHS_POINTS = 201
PATHS_SCENARIOS = 5000
PATHS_P0 = 100.0
PATHS_STRIKE = 100.0


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def binomial_gap(seed: int, out: Path) -> list[dict]:
    """Binomial call ladder: +-5 additive steps, times on [0, 1], delta 10, r 0.5.

    ``seed`` is accepted for a uniform interface; the ladder is the fixed
    ROADMAP baseline (depth 2 gives primal 2.6051 / dual 2.5223).
    """
    del seed
    payoff = out / "payoff.json"
    _write_json(payoff, {"type": "call", "strike": BINOMIAL_STRIKE})
    instances = []
    for depth in BINOMIAL_DEPTHS:
        nodes = [{"id": 0, "parent": -1, "p_transition": 1.0, "P": BINOMIAL_P0}]
        level = [0]
        for _ in range(depth):
            nxt = []
            for par in level:
                for move in (BINOMIAL_STEP, -BINOMIAL_STEP):
                    nodes.append({"id": len(nodes), "parent": par, "p_transition": 0.5,
                                  "P": nodes[par]["P"] + move})
                    nxt.append(len(nodes) - 1)
            level = nxt
        market = out / f"market_d{depth}.json"
        tree = out / f"tree_d{depth}.json"
        _write_json(market, {"grid": np.linspace(0.0, 1.0, depth + 1).tolist(), "delta": 10.0, "r": 0.5})
        _write_json(tree, {"levels": depth + 1, "nodes": nodes})
        instances.append({"name": f"d{depth}", "market": str(market), "tree": str(tree),
                          "payoff": str(payoff), "nodes": len(nodes)})
    return instances


def _random_tree(rng: np.random.Generator, lo: int, hi: int) -> tuple[dict, dict, dict]:
    """One wide, shallow tree with per-node liquidity; node count in ``[lo, hi]``."""
    while True:
        depth = int(rng.integers(3, 5))
        counts = [1]
        kids_per_level = []
        for _ in range(depth):
            kids = rng.integers(2, 6, size=counts[-1])
            kids_per_level.append(kids)
            counts.append(int(kids.sum()))
        if lo <= sum(counts) <= hi:
            break

    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.5, depth))])
    dt = np.diff(times)
    r0 = float(rng.uniform(0.05, 1.5))
    kappa0 = float(rng.uniform(4.0, 15.0))
    # Each child's liquidity curve kappa = delta / rho**2 strictly decays from
    # its parent's, which is the model's decay condition on every edge.
    parent, t_index, prob, price, kappa, r = [-1], [0], [1.0], [100.0], [kappa0], [r0]
    level = [0]
    for k, kids in enumerate(kids_per_level):
        nxt = []
        for par, n_kids in zip(level, kids):
            probs = rng.dirichlet(np.full(int(n_kids), 3.0))
            # Centred moves make the price a martingale under the reference
            # measure, so the default certificate needs no repair and the
            # dual search starts from a meaningful bound.
            moves = rng.normal(0.0, 4.0, int(n_kids))
            moves -= float(np.dot(probs, moves))
            for j in range(int(n_kids)):
                parent.append(par)
                t_index.append(k + 1)
                prob.append(float(probs[j]))
                price.append(price[par] + float(moves[j]))
                kappa.append(kappa[par] * float(rng.uniform(0.55, 0.95)))
                r.append(float(rng.uniform(0.05, 1.5)))
                nxt.append(len(parent) - 1)
        level = nxt
    rho = [1.0]
    for node in range(1, len(parent)):
        par = parent[node]
        rho.append(rho[par] * float(np.exp(r[par] * dt[t_index[par]])))
    nodes = [
        {"id": i, "parent": parent[i], "p_transition": prob[i], "P": price[i],
         "delta": kappa[i] * rho[i] ** 2, "r": r[i]}
        for i in range(len(parent))
    ]
    market = {
        "grid": times.tolist(), "delta": kappa0, "r": r0,
        "iota": float(rng.uniform(0.0, 0.5)), "zeta0": float(rng.uniform(0.0, 0.3)),
    }
    leaves = [i for i in range(len(parent)) if t_index[i] == depth]
    payoff = {"type": "values", "values": [max(price[i] - 100.0, 0.0) for i in leaves]}
    return market, {"levels": depth + 1, "nodes": nodes}, payoff


def random_pipeline(seed: int, out: Path) -> list[dict]:
    """Seeded wide, shallow random trees (depth 3-4, 2-5 children, 150-400 nodes)."""
    rng = np.random.default_rng([seed, 1])
    instances = []
    for i, (lo, hi) in enumerate(RANDOM_SIZE_BANDS):
        market, tree, payoff = _random_tree(rng, lo, hi)
        files = {}
        for kind, obj in (("market", market), ("tree", tree), ("payoff", payoff)):
            files[kind] = str(out / f"{kind}_{i}.json")
            _write_json(Path(files[kind]), obj)
        instances.append({"name": f"t{i}", **files, "nodes": len(tree["nodes"])})
    return instances


def paths_wealth(seed: int, out: Path) -> list[dict]:
    """One CSV of positive price paths (201 grid points x 5000 scenarios) and a liquidating schedule."""
    rng = np.random.default_rng([seed, 2])
    n = PATHS_POINTS
    times = np.linspace(0.0, 1.0, n)
    market = {"grid": times.tolist(), "delta": 10.0, "r": 0.5, "iota": 0.1, "zeta0": 0.05}
    log_steps = rng.normal(-0.5 * 0.2**2 / n, 0.2 / np.sqrt(n), size=(n - 1, PATHS_SCENARIOS))
    paths = PATHS_P0 * np.exp(np.vstack([np.zeros((1, PATHS_SCENARIOS)), np.cumsum(log_steps, axis=0)]))
    # A liquidating schedule: random buys and sells whose net trades sum to zero.
    buys = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.3)
    sells = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.3)
    net = float(buys.sum() - sells.sum())
    if net > 0.0:
        sells[-1] += net
    else:
        buys[-1] -= net
    strategy = {"buys": buys.tolist(), "sells": sells.tolist(), "x0": 0.0}

    files = {"market": out / "market.json", "strategy": out / "strategy.json", "paths": out / "paths.csv"}
    _write_json(files["market"], market)
    _write_json(files["strategy"], strategy)
    with open(files["paths"], "w", encoding="utf-8") as fh:
        fh.write(",".join(f"s{j}" for j in range(PATHS_SCENARIOS)) + "\n")
        np.savetxt(fh, paths, fmt="%.18e", delimiter=",")
    return [{"name": "paths", **{k: str(v) for k, v in files.items()}, "strike": PATHS_STRIKE}]


GENERATORS = {
    "binomial-gap": binomial_gap,
    "random-pipeline": random_pipeline,
    "paths-wealth": paths_wealth,
}


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` under ``out`` and describe them."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, out)

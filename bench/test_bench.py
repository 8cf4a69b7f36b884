"""Tests of the benchmark itself: generators, trace arithmetic, wrappers, failure exit.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import generate
import run
import tracing

BENCH = Path(__file__).resolve().parent


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def _worker(tmp_path: Path, name: str, workload: str, instances, trace: bool) -> dict:
    out = tmp_path / name
    out.mkdir()
    spec, result = out / "spec.json", out / "result.json"
    spec.write_text(json.dumps({"workload": workload, "instances": instances, "out": str(out), "trace": trace,
                                "rerun": True}))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec), str(result)],
                   env=run._env(), cwd=run.ROOT, check=True, timeout=300)
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", sorted(generate.GENERATORS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    generate.generate(workload, 7, tmp_path / "a")
    generate.generate(workload, 7, tmp_path / "b")
    generate.generate(workload, 8, tmp_path / "c")
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    if workload != "binomial-gap":  # the binomial ladder is fixed by design
        assert _digests(tmp_path / "a") != _digests(tmp_path / "c")


def test_random_trees_meet_the_workload_shape(tmp_path):
    for inst in generate.generate("random-pipeline", 3, tmp_path):
        tree = json.loads(Path(inst["tree"]).read_text())
        assert 150 <= len(tree["nodes"]) <= 400
        assert tree["levels"] in (4, 5)


def test_binomial_depth2_reproduces_roadmap_baseline(tmp_path):
    instances = generate.generate("binomial-gap", 0, tmp_path / "inputs")
    (primal, dual), = _worker(tmp_path, "pass", "binomial-gap", instances[:1], False)["values"]
    # ROADMAP baseline at depth 2: primal 2.6051, dual 2.5223.  A better dual
    # search may raise the dual, so only a lower dual would be a mismatch.
    assert abs(primal - 2.6051) < 1e-3
    assert 2.5223 - 5e-5 <= dual <= primal


def test_self_times_on_nested_spans():
    # root [0, 10] > cli.main [1, 9] > solver.dual [2, 8] > duality.objective [3, 4], [5, 7]
    #                                                        > tree.reach [5.5, 6]
    keys = ["root", "cli.main", "solver.dual", "duality.objective", "duality.objective", "tree.reach"]
    starts = [0.0, 1.0, 2.0, 3.0, 5.0, 5.5]
    ends = [10.0, 9.0, 8.0, 4.0, 7.0, 6.0]
    parents = [-1, 0, 1, 2, 2, 4]
    assert tracing.self_times(starts, ends, parents) == [2.0, 2.0, 3.0, 1.0, 1.5, 0.5]
    layers = tracing.layer_self_times(keys, starts, ends, parents)
    assert layers["root"] == 2.0 and layers["cli"] == 2.0 and layers["solver"] == 3.0
    assert layers["duality"] == 2.5 and layers["tree"] == 0.5 and layers["wealth"] == 0.0
    assert sum(layers.values()) == ends[0] - starts[0]


def test_per_layer_metrics_count_nested_same_key_once():
    tracer = tracing.Tracer()
    tracer.keys = ["root", "wealth.paths", "wealth.paths", "solver.dual", "duality.objective"]
    tracer.starts = [0.0, 1.0, 1.5, 3.0, 3.5]
    tracer.ends = [5.0, 2.0, 1.8, 4.0, 3.7]
    tracer.parents = [-1, 0, 1, 0, 3]
    tracer.counters.update({"solver.dual_accepts": 1})
    m = tracing.per_layer_metrics(tracer)
    assert m["wealth.paths_s"] == 1.0
    assert m["solver.dual_trials"] == 1 and m["solver.dual_accept_ratio"] == 1.0
    assert m["solver.dual_self_s"] == pytest.approx(0.8)
    assert m["traced_wall_s"] == 5.0
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == pytest.approx(5.0)


def test_traced_and_plain_outputs_are_byte_identical(tmp_path):
    for workload, take in (("binomial-gap", 2), ("random-pipeline", 1), ("paths-wealth", 1)):
        instances = generate.generate(workload, 5, tmp_path / workload)[:take]
        plain = _worker(tmp_path, workload + "-plain", workload, instances, False)
        traced = _worker(tmp_path, workload + "-traced", workload, instances, True)
        assert [c["digest"] for c in plain["commands"]] == [c["digest"] for c in traced["commands"]]
        assert not [c["failure"] for c in plain["commands"] + traced["commands"] if c["failure"]]
        assert abs(traced["trace_residual_s"]) <= 1e-6 * traced["wall_s"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "binomial-gap", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["unit"] for m in spec["end_to_end"] if m["name"] == "setup_s"} == {"s"}
    traced = list(tracing.per_layer_metrics(tracing.Tracer())) + ["trace_overhead_ratio"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(traced)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_summarize_takes_medians_and_means():
    cmd = {"label": "gap d2", "seconds": 1.0, "dual_s": None, "failure": None, "digest": "x"}
    passes = [{"traced": False, "wall_s": w, "peak_rss_mb": 30.0, "values": [(2.0, 1.0)], "commands": [cmd]}
              for w in (3.0, 5.0, 4.0)]
    result, failures = run.summarize(passes, [0.6, 1.0, 0.8], [], trace=False)  # no host samples: unscaled
    m = result["metrics"]
    assert m["wall_s"]["value"] == 4.0 and m["setup_s"]["value"] == 0.8
    assert m["gap_rel"]["value"] == pytest.approx(1.0 / 3.0)
    assert result["correct"] and result["attempted"] == 3 and not failures


def test_summarize_scales_pass_times_to_the_reference_host():
    cmd = {"label": "call paths", "seconds": 1.0, "dual_s": None, "failure": None, "digest": "x"}
    passes = [{"traced": False, "wall_s": w, "peak_rss_mb": 80.0, "values": [], "commands": [cmd]}
              for w in (3.0, 6.0)]
    ref = calibrate.REFERENCE_S
    # Each pass is scaled by the samples just before and after it: pass 0 by
    # (-1, 0) on a host twice as slow as the reference, pass 1 by (0, 1) on a
    # host four times as slow.  Set-up time and memory are not scaled.
    host = [(-1, 2 * ref), (0, 2 * ref), (0, 4 * ref), (1, 4 * ref), (1, 4 * ref)]
    assert run.scaled_walls(passes, host) == pytest.approx([1.5, 1.5])
    result, _ = run.summarize(passes, [0.5], host, trace=False)
    m = result["metrics"]
    assert m["wall_s"]["value"] == pytest.approx(1.5) and m["setup_s"]["value"] == 0.5
    assert m["peak_rss_mb"]["value"] == 80.0


def test_reference_task_runs():
    assert 0.0 < calibrate.Reference().sample() < 60.0

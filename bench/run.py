"""Benchmark of the transient-impact CLI: one workload, one seed, a fixed measuring time.

Usage (from the repository root)::

    python3 bench/run.py --workload binomial-gap --seed 1 --seconds 60 --trace 0

The run generates the workload's inputs from the seed, then runs passes over
the workload's command sequence, each in its own process, until the next pass
would overrun ``--seconds``.  Between passes it samples set-up time (fresh
interpreters importing ``transient_impact.cli``).  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics.  On ``paths-wealth`` an untraced run also
times a reference task around every pass and reports ``wall_s`` in
reference seconds (``calibrate.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits
non-zero, printing no result, when the package source is missing or a pass
cannot run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up time is sampled about once every SAMPLE_INTERVAL_S between passes, so
# its median covers the same stretch of time as the passes' median.
SAMPLES = 12
SAMPLE_INTERVAL_S = 5.0
PASS_TIMEOUT_S = 170
IMPORT_TIMEOUT_S = 60
# Workloads whose pass times are scaled to a reference host (see calibrate.py).
# There the reference task runs for HOST_SHARE of each pass's time right after
# it, and for HOST_WARMUP_S before the first pass.  binomial-gap is not scaled:
# a run holds only three or four of its 15-s passes, and in tests the host
# samples between them did not follow its pass times, so scaling only added
# noise.
HOST_SCALED = {"paths-wealth"}
HOST_SHARE = 0.15
HOST_WARMUP_S = 1.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "primal_value": "currency",
    "dual_value": "currency",
    "gap_rel": "ratio",
}
# Workloads without a tree instance solve no pricing problem; they report this
# constant for the three value metrics, which therefore cannot move there.
NO_TREE_VALUE = 1.0


def per_layer_unit(name: str) -> str:
    if name.endswith(("_calls", "_iters", "_trials")):
        return "count"
    if ".bytes_" in name:
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_cli() -> float:
    """Seconds for a fresh interpreter to start, import the CLI and exit.

    The wait blocks until the child exits.  ``subprocess.run`` with a timeout
    would poll with sleeps of up to 50 ms and round every sample up to the
    next poll; here a timer kills an import that hangs instead.
    """
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", "import transient_impact.cli"], env=_env(), cwd=ROOT) as proc:
        guard = threading.Timer(IMPORT_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def run_pass(workload: str, instances, work: Path, index: int, trace: bool) -> dict:
    """One pass in a fresh worker process; returns the worker's result."""
    out = work / f"pass{index}"
    out.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = out / "spec.json", out / "result.json"
    # The first pass also re-runs its first command: the determinism check.
    spec = {"workload": workload, "instances": instances, "out": str(out), "trace": trace, "rerun": index == 0}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
        env=_env(), cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S, stdout=sys.stderr.fileno(),
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if trace:
        spans = out / "spans.json"
        spans.replace(WORK / f"spans-{work.name}-pass{index}.json")
    shutil.rmtree(out)
    return result


def measure(workload: str, instances, work: Path, seconds: float, trace: bool):
    """Passes until the next one would overrun ``seconds``, the set-up samples and the host samples.

    With tracing, plain and traced passes alternate.  The first import only
    fills the bytecode cache, which a user pays once, so it is not a sample.
    Each host sample is ``(index of the pass it follows, seconds)``; there are
    none when the workload is not scaled or the run is traced.
    """
    passes: list[dict] = []
    host: list[tuple[int, float]] = []
    reference = calibrate.Reference() if workload in HOST_SCALED and not trace else None

    def sample_host(budget: float) -> None:
        """Host samples for ``budget`` seconds, at least one."""
        if reference is None:
            return
        t0 = time.perf_counter()
        host.append((len(passes) - 1, reference.sample()))
        while time.perf_counter() - t0 < budget:
            host.append((len(passes) - 1, reference.sample()))

    start = time.perf_counter()
    if reference:
        reference.sample()  # warm-up, not a sample
    import_cli()
    setup = [import_cli()]
    sample_host(HOST_WARMUP_S)
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        result = run_pass(workload, instances, work, len(passes), traced)
        result["traced"] = traced
        passes.append(result)
        sample_host(HOST_SHARE * (time.perf_counter() - t0))
        last = time.perf_counter() - t0
        while len(setup) < SAMPLES and len(setup) * SAMPLE_INTERVAL_S < time.perf_counter() - start:
            setup.append(import_cli())
        enough = not trace or len(passes) >= 2
        if enough and time.perf_counter() - start + last > seconds:
            return passes, setup, host


def _value_metrics(values) -> dict[str, float]:
    if not values:
        return dict.fromkeys(("primal_value", "dual_value", "gap_rel"), NO_TREE_VALUE)
    return {
        "primal_value": statistics.fmean(p for p, _ in values),
        "dual_value": statistics.fmean(d for _, d in values),
        "gap_rel": statistics.fmean((p - d) / (1.0 + abs(p)) for p, d in values),
    }


def scaled_walls(passes: list[dict], host: list[tuple[int, float]]) -> list[float]:
    """Wall time of each plain pass, in reference seconds when there are host samples.

    A pass is scaled by the median of the host samples taken right before and
    right after it, so a slow stretch of the host slows both alike.
    """
    walls = []
    for i, p in enumerate(passes):
        if p["traced"]:
            continue
        near = [s for j, s in host if j in (i - 1, i)]
        walls.append(p["wall_s"] * calibrate.REFERENCE_S / statistics.median(near) if near else p["wall_s"])
    return walls


def summarize(passes: list[dict], setup: list[float], host: list[tuple[int, float]],
              trace: bool) -> tuple[dict, list[str]]:
    """The run's result object, plus the failure messages over every pass."""
    failures = [f"{c['label']}: {c['failure']}" for p in passes for c in p["commands"] if c["failure"]]
    attempted = sum(len(p["commands"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    # Tracing must not change a single output byte.
    reference = {c["label"]: c["digest"] for c in plain[0]["commands"]}
    for p in passes[1:]:
        for c in p["commands"]:
            if not c["failure"] and c["digest"] != reference.get(c["label"]):
                failures.append(f"{c['label']}: output differs from the first pass")

    if not trace:
        metrics = {
            "wall_s": statistics.median(scaled_walls(passes, host)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "pass_ratio": (attempted - len(failures)) / attempted,
            **_value_metrics(plain[0]["values"]),
        }
        units = END_TO_END
    else:
        keys = traced[0]["trace"].keys()
        metrics = {k: statistics.median(p["trace"][k] for p in traced) for k in keys}
        metrics["trace_overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain)
        )
        for p in traced:
            if abs(p["trace_residual_s"]) > 1e-6 * p["wall_s"]:
                failures.append(f"trace: layer self times miss the traced wall time by {p['trace_residual_s']!r} s")
        units = {k: per_layer_unit(k) for k in metrics}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, failures


def report_commands(passes: list[dict]) -> None:
    """Median seconds per command (and in ``dual_ascent``, when traced), for reading by eye."""
    for label in dict.fromkeys(c["label"] for c in passes[0]["commands"]):
        runs = [(p["traced"], c) for p in passes for c in p["commands"] if c["label"] == label]
        secs = statistics.median(c["seconds"] for traced, c in runs if not traced)
        duals = [c["dual_s"] for traced, c in runs if traced and c["dual_s"]]
        extra = f"  (dual_ascent {statistics.median(duals):.3f} s)" if duals else ""
        print(f"# {label:<28} {secs:9.3f} s{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "transient_impact" / "cli.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    # A terminated run exits through subprocess.run, which kills and waits for
    # the running pass, and through the clean-up below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Passes, imports and host samples all run on one CPU, so the host samples
    # see the same core as the passes; child processes inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        instances = generate.generate(args.workload, args.seed, work / "inputs")
        passes, setup, host = measure(args.workload, instances, work, args.seconds, bool(args.trace))
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result, failures = summarize(passes, setup, host, bool(args.trace))
    for line in failures:
        print(f"# FAILED {line}")
    report_commands(passes)
    for i, p in enumerate(passes):
        near = " ".join(f"{s:.3f}" for j, s in host if j in (i - 1, i))
        print(f"# pass {'traced' if p['traced'] else 'plain':<6} {p['wall_s']:.3f} s" + (f"  host {near}" if near else ""))
    print(f"# set-up samples: {len(setup)}")
    if host:
        print(f"# host samples: {len(host)}, median {statistics.median(s for _, s in host):.4f} s "
              f"(reference {calibrate.REFERENCE_S} s)")
    for name, m in result["metrics"].items():
        print(f"# {name:<32} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

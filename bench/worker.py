"""One pass of a workload in a fresh process, so its peak memory is its own.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``.  The spec names the
workload, its generated instances, an output directory and whether to trace.
The CLI runs in-process (``transient_impact.cli.main``); the import is paid
before the clock starts, because ``setup_s`` measures it separately.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing
import workloads


def _dual_seconds_per_command(tracer: tracing.Tracer) -> list[float]:
    """Seconds spent in ``dual_ascent`` under each CLI call, in call order.

    Spans are stored in opening order, so everything a call caused follows
    its ``cli.main`` span and precedes the next one.
    """
    out: list[float] = []
    for key, start, end in zip(tracer.keys, tracer.starts, tracer.ends):
        if key == "cli.main":
            out.append(0.0)
        elif key == "solver.dual":
            out[-1] += end - start
    return out


def _peak_rss_mb() -> float:
    """High-water resident memory of this process.

    ``VmHWM`` counts this program image only.  ``ru_maxrss`` would also keep
    the size of the parent that forked it, which is larger than a small pass.
    """
    (line,) = (ln for ln in Path("/proc/self/status").read_text(encoding="ascii").splitlines() if ln.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def run(spec: dict) -> dict:
    from transient_impact import cli

    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracing.install(tracer)
    main = cli.main  # the traced wrapper when tracing

    out = Path(spec["out"])
    start = time.perf_counter()
    root = tracer.open(tracing.ROOT) if tracer else None
    cmds = workloads.run_pass(spec["workload"], spec["instances"], out, main)
    if tracer:
        tracer.close(root)
    wall = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()

    result: dict = {"trace": None}
    if tracer:
        tracer.dump(out / "spans.json")
        metrics = tracing.per_layer_metrics(tracer)
        layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        result["trace"] = metrics
        result["trace_residual_s"] = layer_sum - metrics["traced_wall_s"]
        wall = metrics["traced_wall_s"]
        dual_s = _dual_seconds_per_command(tracer)
    if not tracer or len(dual_s) != len(cmds):  # a skipped command made no CLI call
        dual_s = [None] * len(cmds)

    rerun = [workloads.rerun_first(cmds, main)] if spec["rerun"] else []
    result["values"] = workloads.check(spec["workload"], cmds, rerun)
    result["wall_s"] = wall
    result["peak_rss_mb"] = peak_rss_mb
    result["commands"] = [
        {"label": c.label, "seconds": c.seconds, "dual_s": d, "failure": c.failure, "digest": c.digest()}
        for c, d in zip(cmds + rerun, dual_s + [None])
    ]
    return result


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    result = run(json.loads(Path(spec_path).read_text(encoding="utf-8")))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")

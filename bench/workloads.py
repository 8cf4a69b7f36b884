"""Command sequences of the benchmark workloads and the checks on their outputs.

A pass is one closed loop over a workload's commands: the client issues the
next command only after the previous one returned, and where a command needs
an earlier result (a priced strategy, a searched certificate) the client
writes it to a file first, as a user of the CLI would.  The checks run after
the pass, on the files the commands wrote; none of them compares a value with
a number recorded at some earlier commit, so a tighter bound never fails.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

# solver.gap_report's own weak-duality tolerance, relative to 1 + |primal| + |dual|.
WEAK_DUALITY_RTOL = 1e-9
# wealth.consistency_check's documented contract, relative to 1 + |v0| + |lambda|.
CONSISTENCY_RTOL = 1e-10


@dataclass
class Command:
    """One CLI invocation of a pass and what became of it."""

    label: str
    argv: list[str]
    out: Path
    rc: int | None = None
    error: str | None = None
    seconds: float = 0.0
    failure: str | None = None

    def report(self) -> dict:
        return json.loads(self.out.read_text(encoding="utf-8"))

    def digest(self) -> str | None:
        return hashlib.sha256(self.out.read_bytes()).hexdigest() if self.out.exists() else None


def invoke(main, cmd: Command) -> Command:
    """Run one command in-process; an escaping exception is recorded as a failure."""
    start = time.perf_counter()
    try:
        cmd.rc = main(cmd.argv)
    except Exception as exc:  # the pass must go on; the traceback becomes a failed command
        cmd.error = f"{type(exc).__name__}: {exc}"
    cmd.seconds = time.perf_counter() - start
    return cmd


def _command(label: str, argv: list[str], out: Path) -> Command:
    return Command(label, argv + ["--out", str(out)], out)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _binomial_pass(instances, out: Path, main) -> list[Command]:
    cmds = []
    for inst in instances:
        argv = ["gap", "--market", inst["market"], "--tree", inst["tree"], "--payoff", inst["payoff"]]
        cmds.append(invoke(main, _command(f"gap {inst['name']}", argv, out / f"gap_{inst['name']}.json")))
    return cmds


def _random_pass(instances, out: Path, main) -> list[Command]:
    cmds = []
    for inst in instances:
        name, common = inst["name"], ["--market", inst["market"], "--tree", inst["tree"]]
        price = invoke(main, _command(f"price {name}", ["price", *common, "--payoff", inst["payoff"]],
                                      out / f"price_{name}.json"))
        search = invoke(main, _command(f"dual-search {name}", ["dual-search", *common, "--payoff", inst["payoff"]],
                                       out / f"search_{name}.json"))
        cmds += [price, search]
        cert = out / f"certificate_{name}.json"
        strategy = out / f"strategy_{name}.json"
        evaluate = _command(f"dual-eval {name}", ["dual-eval", *common, "--certificate", str(cert),
                                                  "--payoff", inst["payoff"]], out / f"eval_{name}.json")
        wealth = _command(f"wealth {name}", ["wealth", *common, "--strategy", str(strategy)],
                          out / f"wealth_{name}.json")
        for source, key, target, cmd in ((search, "certificate", cert, evaluate),
                                         (price, "strategy", strategy, wealth)):
            if source.rc == 0:
                target.write_text(json.dumps(source.report()[key]), encoding="utf-8")
                invoke(main, cmd)
            else:
                cmd.error = f"not run: {source.label} failed"
            cmds.append(cmd)
    return cmds


def _paths_pass(instances, out: Path, main) -> list[Command]:
    (inst,) = instances
    market = ["--market", inst["market"], "--paths", inst["paths"]]
    return [
        invoke(main, _command("wealth paths", ["wealth", *market, "--strategy", inst["strategy"]],
                              out / "wealth_paths.json")),
        invoke(main, _command("call paths", ["call", *market, "--strike", str(inst["strike"])],
                              out / "call_paths.json")),
    ]


PASSES = {
    "binomial-gap": _binomial_pass,
    "random-pipeline": _random_pass,
    "paths-wealth": _paths_pass,
}


def run_pass(workload: str, instances, out: Path, main) -> list[Command]:
    out.mkdir(parents=True, exist_ok=True)
    return PASSES[workload](instances, out, main)


def rerun_first(cmds: list[Command], main) -> Command:
    """Run the pass's first command again into a second file (the determinism check)."""
    first = cmds[0]
    out = first.out.with_name(first.out.stem + ".rerun.json")
    argv = first.argv[:-1] + [str(out)]
    return invoke(main, Command(first.label + " (rerun)", argv, out))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _weak_duality(primal: float, dual: float) -> str | None:
    if dual > primal + WEAK_DUALITY_RTOL * (1.0 + abs(primal) + abs(dual)):
        return f"weak duality broken: dual {dual!r} > primal {primal!r}"
    return None


def _consistency(report: dict) -> str | None:
    if not report.get("liquidates") or "consistency_gap" not in report:
        return "schedule does not liquidate, so no consistency gap was reported"
    lam = report["breakdown"]["lambda_T"]
    lam_max = max(abs(v) for v in lam) if isinstance(lam, list) else abs(lam)
    limit = CONSISTENCY_RTOL * (1.0 + abs(report["breakdown"]["v0"]) + lam_max)
    if report["consistency_gap"] > limit:
        return f"consistency gap {report['consistency_gap']!r} above {limit!r}"
    return None


def check(workload: str, cmds: list[Command], rerun: list[Command]) -> list[tuple[float, float]]:
    """Set ``failure`` on every command that failed; return (primal, dual) per tree instance.

    ``rerun`` holds the re-run of the first command, when this pass made one.
    """
    for cmd in cmds + rerun:
        if cmd.error is not None:
            cmd.failure = cmd.error
        elif cmd.rc != 0:
            cmd.failure = f"exit code {cmd.rc}"
    for again in rerun:
        if again.failure is None and again.digest() != cmds[0].digest():
            again.failure = "re-running the first command gave different bytes"

    ok = {cmd.label: cmd for cmd in cmds if cmd.failure is None}
    values = []
    if workload == "binomial-gap":
        for cmd in ok.values():
            r = cmd.report()
            cmd.failure = _weak_duality(r["primal_value"], r["dual_value"])
            values.append((r["primal_value"], r["dual_value"]))
    elif workload == "random-pipeline":
        for cmd in cmds:
            kind, name = cmd.label.split(" ")
            if cmd.failure is not None:
                continue
            if kind == "dual-search" and f"price {name}" in ok:
                primal = ok[f"price {name}"].report()["primal_value"]
                dual = cmd.report()["dual_value"]
                cmd.failure = _weak_duality(primal, dual)
                values.append((primal, dual))
            elif kind == "dual-eval" and cmd.report()["feasible"] is not True:
                cmd.failure = "searched certificate is not feasible"
            elif kind == "wealth":
                cmd.failure = _consistency(cmd.report())
    elif workload == "paths-wealth":
        for cmd in ok.values():
            if cmd.label == "wealth paths":
                cmd.failure = _consistency(cmd.report())
            elif cmd.report()["identity_holds"] is not True:
                cmd.failure = "call identity does not hold"
    return values

"""Command-line entry point.

One subcommand per operation family; every command reads JSON/CSV inputs,
writes a JSON report (or per-node CSV series with ``--format csv``) and maps
failures to exit codes: 2 when an input is unreadable or breaks its schema
(a malformed tree structure, transitions that do not sum to one, a NaN or
infinite flag value), 1 when any readable input file (market, tree, payoff,
strategy, certificate, price paths) holds NaN/inf or the operation fails in
its domain, 3 when a solver stops before its tolerance.  Identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from . import applications, duality, formats, solver, strategy, tree as tree_mod, wealth
from .errors import TransientImpactError
from .formats import FormatError
from .market import validate_assumptions
from .solver import SolverOptions

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_NONCONVERGED = 3


def _with_units(payload: dict, units: dict) -> dict:
    payload["units"] = units
    return payload


def _emit(args, payload, tree=None, series=None) -> None:
    buf = io.StringIO()
    if args.format == "csv" and series is not None:
        formats.write_node_series_csv(tree, series, buf)
    else:
        formats.dump_json(payload, buf)
    formats.write_text(buf.getvalue(), args.out)


def _finite_float(text: str) -> float:
    """Flag value parser: a float, where NaN and infinity are usage errors (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _options(args) -> SolverOptions:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["tol"] = args.tol
    if getattr(args, "max_iter", None) is not None:
        kwargs["max_iter"] = args.max_iter
    if getattr(args, "smoothing", None):
        kwargs["smoothing_levels"] = tuple(float(v) for v in args.smoothing.split(","))
    return SolverOptions(**kwargs)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    market = formats.load_market(args.market)
    report = validate_assumptions(market.grid, market.liquidity)
    payload = _with_units(
        {k: getattr(report, k) for k in report.__dataclass_fields__},
        {"delta_over_rho_min": "shares/price", "delta_over_rho_max": "shares/price",
         "kappa_relative_margin": "dimensionless"},
    )
    _emit(args, payload)
    return EXIT_OK if report.passed else EXIT_DOMAIN


def cmd_wealth(args) -> int:
    market = formats.load_market(args.market)
    schedule = formats.load_schedule(args.strategy, x0_default=market.impact.x0)
    if args.paths:
        paths = formats.load_price_paths(args.paths)
        liquidates = strategy.check_terminal_zero(schedule)
        breakdown = wealth.lambda_functional(schedule, market, paths)
        payload = {
            "terminal_cash_direct": wealth.terminal_cash_direct(schedule, market, paths),
            "breakdown": breakdown,
            "liquidates": liquidates,
            "terminal_position": float(strategy.position_path(schedule)[-1]),
        }
        if liquidates:
            payload["consistency_gap"] = wealth.consistency_check(schedule, market, paths)
    elif args.tree:
        tr = formats.load_tree(args.tree, market)
        tw = wealth.tree_wealth(tr, schedule, market.impact)
        direct = wealth.tree_terminal_cash_direct(tr, schedule, market.impact)
        flags = strategy.check_terminal_zero(schedule, tr)
        liquidates = bool(np.all(flags))
        payload = {
            "terminal_cash_direct": direct,
            "breakdown": {
                "xi_T": tw.xi_T,
                "lambda_T": tw.lambda_T,
                "v0": tw.v0,
                "p_integral": tw.p_integral,
                "eta_penalty": tw.eta_penalty,
            },
            "liquidates": liquidates,
            "terminal_position": tw.position[tr.leaves],
        }
        if liquidates:
            payload["consistency_gap"] = float(np.max(np.abs(direct - tw.xi_T)))
    else:
        raise FormatError("wealth command needs --paths or --tree")
    _with_units(payload, {
        "terminal_cash_direct": "currency", "breakdown": "currency",
        "terminal_position": "shares", "consistency_gap": "currency",
    })
    _emit(args, payload)
    if args.require_liquidation and not liquidates:
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_price(args) -> int:
    market = formats.load_market(args.market)
    tr = formats.load_tree(args.tree, market)
    H = formats.load_payoff(args.payoff, tr)
    report = solver.primal_solve(tr, market, H, _options(args))
    payload = {
        "primal_value": report.primal_value,
        "iterations": report.iterations,
        "converged": report.primal_converged,
        "strategy": formats.schedule_to_dict(report.strategy),
    }
    _with_units(payload, {"primal_value": "currency", "strategy.buys": "shares", "strategy.sells": "shares"})
    _emit(args, payload)
    return EXIT_OK if report.primal_converged else EXIT_NONCONVERGED


def cmd_gap(args) -> int:
    market = formats.load_market(args.market)
    tr = formats.load_tree(args.tree, market)
    H = formats.load_payoff(args.payoff, tr)
    report = solver.gap_report(tr, market, H, _options(args))
    payload = {
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "gap": report.gap,
        "iterations": report.iterations,
        "converged": report.primal_converged and report.dual_converged,
        "strategy": formats.schedule_to_dict(report.strategy),
        "certificate": formats.certificate_to_dict(report.certificate),
    }
    _with_units(payload, {
        "primal_value": "currency", "dual_value": "currency", "gap": "currency",
        "strategy.buys": "shares", "strategy.sells": "shares",
        "certificate.M": "price", "certificate.alpha": "price",
        "certificate.q_transitions": "probability",
    })
    _emit(args, payload)
    return EXIT_OK if (report.primal_converged and report.dual_converged) else EXIT_NONCONVERGED


def cmd_dual_eval(args) -> int:
    market = formats.load_market(args.market)
    tr = formats.load_tree(args.tree, market)
    cert = formats.load_certificate(args.certificate, tr)
    H = formats.load_payoff(args.payoff, tr)
    feas = duality.check_feasibility(tr, cert, market)
    slack = feas.bound - np.abs(tr.P - cert.M)
    payload = {
        "feasible": feas.feasible,
        "worst_violation": feas.worst_violation,
        "worst_node": feas.worst_node,
        "objective": duality.dual_objective(tr, cert, market, H),
        "bound": feas.bound,
        "band_slack": slack,
    }
    _with_units(payload, {
        "worst_violation": "price", "objective": "currency",
        "bound": "price", "band_slack": "price",
    })
    alpha = cert.alpha_or_default(tr, market.impact.zeta0)
    series = {"P": tr.P, "M": cert.M, "bound": feas.bound, "alpha": alpha, "band_slack": slack}
    _emit(args, payload, tree=tr, series=series)
    return EXIT_OK


def cmd_dual_search(args) -> int:
    market = formats.load_market(args.market)
    tr = formats.load_tree(args.tree, market)
    H = formats.load_payoff(args.payoff, tr)
    if args.certificate:
        init = formats.load_certificate(args.certificate, tr)
    else:
        init = solver.default_certificate(tr, market)
    report = solver.dual_ascent(tr, market, H, init, _options(args))
    payload = {
        "dual_value": report.dual_value,
        "iterations": report.iterations,
        "converged": report.dual_converged,
        "certificate": formats.certificate_to_dict(report.certificate),
    }
    _with_units(payload, {
        "dual_value": "currency", "certificate.M": "price",
        "certificate.alpha": "price", "certificate.q_transitions": "probability",
    })
    _emit(args, payload)
    return EXIT_OK if report.dual_converged else EXIT_NONCONVERGED


def cmd_call(args) -> int:
    market = formats.load_market(args.market)
    if args.paths:
        paths = formats.load_price_paths(args.paths)
    elif args.p0 is not None:
        paths = np.full((1, market.grid.n_points), args.p0)
    else:
        raise FormatError("call command needs --paths or --p0")
    verification = applications.verify_call_superreplication(market, paths, args.strike)
    payload = {
        "closed_form_price": verification.price,
        "strike": args.strike,
        "max_identity_error": verification.max_identity_error,
        "identity_holds": verification.identity_holds,
        "dominates_payoff": verification.dominates_payoff,
        "terminal_cash": verification.terminal_cash,
        "terminal_price": verification.terminal_price,
    }
    _with_units(payload, {
        "closed_form_price": "currency", "strike": "price",
        "max_identity_error": "currency", "terminal_cash": "currency",
        "terminal_price": "price",
    })
    _emit(args, payload)
    return EXIT_OK if verification.identity_holds else EXIT_DOMAIN


def cmd_tilt(args) -> int:
    market = formats.load_market(args.market) if args.market else None
    tr = formats.load_tree(args.tree, market)
    g = np.zeros(tr.n_levels) if args.g is None else np.asarray([float(v) for v in args.g.split(",")])
    result = tree_mod.tilt_to_martingale(tr, g, eps=args.eps)
    payload = _with_units(
        {
            "max_abs_gap": result.max_abs_gap,
            "tail_probability": result.tail_probability,
            "q_transitions": result.measure.transitions,
            "M": result.martingale,
        },
        {"max_abs_gap": "price", "tail_probability": "probability",
         "q_transitions": "probability", "M": "price"},
    )
    series = {"P": tr.P, "M": result.martingale, "q": result.measure.transitions}
    _emit(args, payload, tree=tr, series=series)
    return EXIT_OK


def cmd_shadow_check(args) -> int:
    market = formats.load_market(args.market)
    tr = formats.load_tree(args.tree, market)
    schedule = formats.load_schedule(args.strategy, x0_default=market.impact.x0)
    utility = applications.make_utility(args.utility, args.utility_param)
    M_hat = None
    if args.certificate:
        M_hat = formats.load_certificate(args.certificate, tr).M
    verdict = applications.shadow_price_check(
        tr, market, applications.ShadowCheckInput(schedule=schedule, utility=utility, M_hat=M_hat)
    )
    payload = {
        "verdict": verdict.verdict,
        "reasons": list(verdict.reasons),
        "martingale_defect": verdict.martingale_defect,
        "band_violation": verdict.band_violation,
        "flat_off_violation": verdict.flat_off_violation,
        "expected_utility": verdict.expected_utility,
        "lambda_hat": verdict.lambda_hat,
        "M_hat": verdict.M_hat,
    }
    _with_units(payload, {
        "martingale_defect": "price", "band_violation": "price",
        "flat_off_violation": "price", "expected_utility": "utility",
        "lambda_hat": "price", "M_hat": "price",
    })
    series = {
        "P": tr.P,
        "lambda": verdict.lambda_hat,
        "M": verdict.M_hat if verdict.M_hat is not None else np.full(tr.n_nodes, np.nan),
    }
    _emit(args, payload, tree=tr, series=series)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transient-impact",
        description="Transient price impact model: wealth accounting, super-replication pricing and dual certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, *flags):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        for flag in flags:
            if flag == "market":
                p.add_argument("--market", required=True, help="market spec JSON")
            elif flag == "market-opt":
                p.add_argument("--market", help="market spec JSON")
            elif flag == "tree":
                p.add_argument("--tree", required=True, help="scenario tree JSON")
            elif flag == "strategy":
                p.add_argument("--strategy", required=True, help="trade schedule JSON")
            elif flag == "certificate":
                p.add_argument("--certificate", required=True, help="dual certificate JSON")
            elif flag == "certificate-opt":
                p.add_argument("--certificate", help="dual certificate JSON")
            elif flag == "payoff":
                p.add_argument("--payoff", required=True, help="payoff JSON (call strike or leaf values)")
            elif flag == "paths":
                p.add_argument("--paths", required=True, help="price paths CSV, one column per scenario")
            elif flag == "paths-opt":
                p.add_argument("--paths", help="price paths CSV, one column per scenario")
            elif flag == "solver":
                p.add_argument("--tol", type=_finite_float, help="solver tolerance")
                p.add_argument("--max-iter", type=int, dest="max_iter", help="iteration budget")
                p.add_argument("--smoothing", help="comma-separated smoothing schedule for the max over leaves")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    add("validate", cmd_validate, "check market regularity conditions", "market")
    w = add("wealth", cmd_wealth, "terminal cash, both computations", "market", "strategy", "paths-opt")
    w.add_argument("--tree", help="scenario tree JSON (node-indexed schedule evaluation)")
    w.add_argument("--require-liquidation", action="store_true")
    add("price", cmd_price, "primal super-replication price", "market", "tree", "payoff", "solver")
    add("gap", cmd_gap, "primal and dual values with their gap", "market", "tree", "payoff", "solver")
    add("dual-eval", cmd_dual_eval, "evaluate a certificate: feasibility, bound, objective", "market", "tree", "certificate", "payoff")
    add("dual-search", cmd_dual_search, "improve a certificate by monotone ascent", "market", "tree", "payoff", "certificate-opt", "solver")
    c = add("call", cmd_call, "closed-form call price and buy-and-hold identity", "market", "paths-opt")
    c.add_argument("--strike", type=_finite_float, default=0.0)
    c.add_argument("--p0", type=_finite_float, help="initial price (used when no paths are given)")
    t = add("tilt", cmd_tilt, "drift-removing measure tilt on a tree", "tree", "market-opt")
    t.add_argument("--g", help="comma-separated non-increasing offset per time index (default zero)")
    t.add_argument("--eps", type=_finite_float, default=1e-3, help="tail threshold to report")
    s = add("shadow-check", cmd_shadow_check, "verify utility optimality via a shadow price", "market", "tree", "strategy", "certificate-opt")
    s.add_argument("--utility", required=True, choices=("exp", "exponential", "power", "log"))
    s.add_argument("--utility-param", type=_finite_float, dest="utility_param")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TransientImpactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line entry point.

One subcommand per operation family; :func:`build_parser` alone says which
flags each one takes: the shared flags come from one table, ``wealth`` takes
exactly one of ``--paths`` and ``--tree``, and ``call`` exactly one of
``--p0`` and ``--paths``.  Every command reads JSON/CSV inputs, writes a JSON
report (``dual-eval``, ``tilt`` and ``shadow-check`` write per-node CSV series
instead with ``--format csv``) and maps failures to exit codes: 2 when an input
is unreadable (including bytes that are not UTF-8) or breaks its schema (a
malformed tree structure, tree transitions that do not sum to one, a number
too large for a float, a certificate ``q_transitions``, ``M`` or ``alpha`` of
the wrong shape, a NaN, infinite or unknown flag value, a ``--tol`` that is
not positive, a negative ``--max-iter``, both or neither of two alternative
inputs), 1 when any readable input file (market, tree, payoff, strategy,
certificate, price paths) holds NaN/inf or the operation fails in its domain
(including a liquidity curve that rises along a tree edge in ``gap``,
``dual-search`` and ``dual-eval``, a given certificate whose measure is none
for the tree (a negative transition, mass on a branch of probability zero,
transitions that do not sum to one) or whose ``M`` drifts under its measure
or leaves the band, refused before the primal is solved (``dual-eval``
reports each of these, with ``feasible`` false, and exits 0; ``shadow-check``
uses only ``M`` from ``--certificate``), and a ``--utility-param`` given to
the log utility), 3 when a
solver stops before its tolerance (for ``price``: the primal's Newton search
stopped short of ``tol``; for ``gap``: the same, unless the certificate
it reads off the primal closes the gap to ``tol * (1 + |primal|)``, which
proves the value optimal; for ``dual-search``: the same, since it is ``gap``
with the ``--certificate`` it is given as one more candidate, kept only when
it is strictly better, and at the default ``tol`` 1e-9: it takes no
``--tol``).  Exit 3 writes the report and one stderr line with why the
search stopped (``stalled``, ``budget``, ``breakdown`` or ``no_step``; see
:class:`~transient_impact.solver.PriceReport`), its Newton steps and its
final relative residual.  Neither ``gap`` nor ``dual-search`` runs a dual
search, so their ``--max-iter`` counts the primal's Newton steps only.
Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
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


def _emit(args, payload, tree=None, series=None) -> None:
    if series is not None and args.format == "csv":
        text = formats.write_node_series_csv(tree, series)
    else:
        text = formats.dump_json(payload)
    formats.write_text(text, args.out)


def _exit_code(report) -> int:
    """``EXIT_OK`` for a converged report, else ``EXIT_NONCONVERGED``, saying on stderr why the primal stopped."""
    if report.primal_converged:
        return EXIT_OK
    print(f"not converged: the primal search stopped ({report.stop_reason}) after {report.iterations} Newton steps "
          f"at relative residual {report.residual:.3e}", file=sys.stderr)
    return EXIT_NONCONVERGED


def _finite_float(text: str) -> float:
    """Flag value parser: a float, where NaN and infinity are usage errors (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive_float(text: str) -> float:
    """Flag value parser: a finite float above zero (a tolerance)."""
    if _finite_float(text) <= 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return float(text)


def _count(text: str) -> int:
    """Flag value parser: a non-negative integer (a step budget)."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _finite_list(text: str) -> tuple[float, ...]:
    """Comma-separated flag values, each parsed by :func:`_finite_float`."""
    return tuple(_finite_float(v) for v in text.split(","))


_STRATEGY_UNITS = {"strategy.buys": "shares", "strategy.sells": "shares"}
_CERTIFICATE_UNITS = {"certificate.M": "price", "certificate.alpha": "price", "certificate.q_transitions": "probability"}


def _priced_tree(args):
    """The market, the tree on its grid and the payoff on the tree's leaves."""
    market = formats.load_market(args.market)
    tr = formats.load_tree(args.tree, market)
    return market, tr, formats.load_payoff(args.payoff, tr)


def _options(args) -> SolverOptions:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["tol"] = args.tol
    if args.max_iter is not None:
        kwargs["max_iter"] = args.max_iter
    return SolverOptions(**kwargs)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    market = formats.load_market(args.market)
    report = validate_assumptions(market.grid, market.liquidity)
    payload = {k: getattr(report, k) for k in report.__dataclass_fields__}
    payload["units"] = {"delta_over_rho_min": "shares/price", "delta_over_rho_max": "shares/price",
                        "kappa_relative_margin": "dimensionless"}
    _emit(args, payload)
    return EXIT_OK if report.passed else EXIT_DOMAIN


def cmd_wealth(args) -> int:
    market = formats.load_market(args.market)
    schedule = formats.load_schedule(args.strategy, x0_default=market.impact.x0)
    if args.paths is not None:
        sums = wealth.path_sums(formats.price_path_blocks(args.paths), schedule.net())  # the one read of the file
        direct = wealth.terminal_cash_direct(schedule, market, sums)
        breakdown = wealth.lambda_functional(schedule, market, sums)
        liquidates = strategy.check_terminal_zero(schedule)
        terminal_position = float(strategy.position_path(schedule)[-1])
    else:
        tr = formats.load_tree(args.tree, market)
        direct = wealth.tree_terminal_cash_direct(tr, schedule, market.impact)
        tw = wealth.tree_wealth(tr, schedule, market.impact)
        breakdown = wealth.WealthBreakdown(tw.xi_T, tw.lambda_T, tw.v0, tw.p_integral, tw.eta_penalty)
        liquidates = bool(np.all(strategy.check_terminal_zero(schedule, tr)))
        terminal_position = tw.position[tr.leaves]
    payload = {
        "terminal_cash_direct": direct,
        "breakdown": breakdown,
        "liquidates": liquidates,
        "terminal_position": terminal_position,
        "units": {"terminal_cash_direct": "currency", "breakdown": "currency",
                  "terminal_position": "shares", "consistency_gap": "currency"},
    }
    if liquidates:
        payload["consistency_gap"] = float(np.max(np.abs(direct - breakdown.xi_T)))
    _emit(args, payload)
    if args.require_liquidation and not liquidates:
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_price(args) -> int:
    market, tr, H = _priced_tree(args)
    report = solver.primal_solve(tr, market, H, _options(args))
    payload = {
        "primal_value": report.primal_value,
        "iterations": report.iterations,
        "converged": report.primal_converged,
        "strategy": report.strategy,
        "units": {"primal_value": "currency", **_STRATEGY_UNITS},
    }
    _emit(args, payload)
    return _exit_code(report)


def cmd_gap(args) -> int:
    market, tr, H = _priced_tree(args)
    report = solver.gap_report(tr, market, H, _options(args))
    payload = {
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "gap": report.gap,
        "iterations": report.iterations,
        "converged": report.primal_converged,
        "strategy": report.strategy,
        "certificate": formats.certificate_to_dict(report.certificate),
        "units": {"primal_value": "currency", "dual_value": "currency", "gap": "currency",
                  **_STRATEGY_UNITS, **_CERTIFICATE_UNITS},
    }
    _emit(args, payload)
    return _exit_code(report)


def cmd_dual_eval(args) -> int:
    market = formats.load_market(args.market)
    tr = formats.load_tree(args.tree, market)
    cert = formats.load_certificate(args.certificate, tr)
    H = formats.load_payoff(args.payoff, tr)
    check = duality.check_certificate(tr, cert, market)
    feas = check.band
    slack = feas.bound - np.abs(tr.P - cert.M)
    payload = {
        "feasible": check.valid,
        "measure_error": check.measure,
        "martingale_drift": check.drift,
        "worst_violation": feas.worst_violation,
        "worst_node": feas.worst_node,
        "objective": duality.dual_objective(tr, cert, market, H),
        "bound": feas.bound,
        "band_slack": slack,
        "units": {"martingale_drift": "price", "worst_violation": "price", "objective": "currency", "bound": "price",
                  "band_slack": "price"},
    }
    alpha = cert.alpha_or_default(tr, market.impact.zeta0)
    series = {"P": tr.P, "M": cert.M, "bound": feas.bound, "alpha": alpha, "band_slack": slack}
    _emit(args, payload, tree=tr, series=series)
    return EXIT_OK


def cmd_dual_search(args) -> int:
    market, tr, H = _priced_tree(args)
    init = formats.load_certificate(args.certificate, tr) if args.certificate else None
    report = solver.dual_ascent(tr, market, H, init, _options(args))
    payload = {
        "dual_value": report.dual_value,
        "iterations": report.iterations,
        "converged": report.dual_converged,
        "certificate": formats.certificate_to_dict(report.certificate),
        "units": {"dual_value": "currency", **_CERTIFICATE_UNITS},
    }
    _emit(args, payload)
    return _exit_code(report)


def cmd_call(args) -> int:
    market = formats.load_market(args.market)
    if args.paths is not None:
        paths = formats.price_path_blocks(args.paths)
    else:
        paths = np.full((1, market.grid.n_points), args.p0)
    verification = applications.verify_call_superreplication(market, paths, args.strike)
    payload = {
        "closed_form_price": verification.price,
        "strike": args.strike,
        "max_identity_error": verification.max_identity_error,
        "identity_holds": verification.identity_holds,
        "dominates_payoff": verification.dominates_payoff,
        "terminal_cash": verification.terminal_cash,
        "terminal_price": verification.terminal_price,
        "units": {"closed_form_price": "currency", "strike": "price", "max_identity_error": "currency",
                  "terminal_cash": "currency", "terminal_price": "price"},
    }
    _emit(args, payload)
    return EXIT_OK if verification.identity_holds else EXIT_DOMAIN


def cmd_tilt(args) -> int:
    market = formats.load_market(args.market) if args.market else None
    tr = formats.load_tree(args.tree, market)
    g = np.zeros(tr.n_levels) if args.g is None else np.asarray(args.g)
    result = tree_mod.tilt_to_martingale(tr, g, eps=args.eps)
    payload = {
        "max_abs_gap": result.max_abs_gap,
        "tail_probability": result.tail_probability,
        "q_transitions": result.measure.transitions,
        "M": result.martingale,
        "units": {"max_abs_gap": "price", "tail_probability": "probability", "q_transitions": "probability",
                  "M": "price"},
    }
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
    verdict = applications.shadow_price_check(tr, market, schedule, utility, M_hat)
    payload = {
        "verdict": verdict.verdict,
        "reasons": list(verdict.reasons),
        "martingale_defect": verdict.martingale_defect,
        "band_violation": verdict.band_violation,
        "flat_off_violation": verdict.flat_off_violation,
        "expected_utility": verdict.expected_utility,
        "lambda_hat": verdict.lambda_hat,
        "M_hat": verdict.M_hat,
        "units": {"martingale_defect": "price", "band_violation": "price", "flat_off_violation": "price",
                  "expected_utility": "utility", "lambda_hat": "price", "M_hat": "price"},
    }
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


# The flags that subcommands share, by kind: (flag, add_argument keywords).
_FLAGS = {
    "market": ("--market", {"required": True, "help": "market spec JSON"}),
    "market-opt": ("--market", {"help": "market spec JSON"}),
    "tree": ("--tree", {"required": True, "help": "scenario tree JSON"}),
    "strategy": ("--strategy", {"required": True, "help": "trade schedule JSON"}),
    "certificate": ("--certificate", {"required": True, "help": "dual certificate JSON"}),
    "certificate-opt": ("--certificate", {"help": "dual certificate JSON"}),
    "payoff": ("--payoff", {"required": True, "help": "payoff JSON (call strike or leaf values)"}),
    "primal": ("--tol", {"type": _positive_float, "help": "primal solver tolerance (relative residual)"}),
    "max-iter": ("--max-iter", {"type": _count, "help": "Newton-step budget of the primal"}),
    "format": ("--format", {"choices": ("json", "csv"), "default": "json",
                            "help": "csv: per-node series instead of the report"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transient-impact",
        description="Transient price impact model: wealth accounting, super-replication pricing and dual certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, *kinds, one_of=()):
        """A subcommand taking the flags of ``kinds`` and exactly one of the ``one_of`` inputs."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler.__name__)  # looked up at call time, so rebinding a handler takes effect
        for flag, kwargs in (_FLAGS[kind] for kind in kinds):
            p.add_argument(flag, **kwargs)
        if one_of:
            inputs = p.add_mutually_exclusive_group(required=True)
            for flag, kwargs in one_of:
                inputs.add_argument(flag, **kwargs)
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    paths = ("--paths", {"help": "price paths CSV, one column per scenario"})
    add("validate", cmd_validate, "check market regularity conditions", "market")
    w = add("wealth", cmd_wealth, "terminal cash, both computations", "market", "strategy",
            one_of=(paths, ("--tree", {"help": "scenario tree JSON (node-indexed schedule evaluation)"})))
    w.add_argument("--require-liquidation", action="store_true")
    add("price", cmd_price, "primal super-replication price", "market", "tree", "payoff", "primal", "max-iter")
    add("gap", cmd_gap, "primal and dual values with their gap", "market", "tree", "payoff", "primal", "max-iter")
    add("dual-eval", cmd_dual_eval, "evaluate a certificate: feasibility, bound, objective", "market", "tree", "certificate", "payoff", "format")
    add("dual-search", cmd_dual_search, "the better of a certificate and the one read off the primal", "market", "tree", "payoff", "certificate-opt", "max-iter")
    c = add("call", cmd_call, "closed-form call price and buy-and-hold identity", "market",
            one_of=(("--p0", {"type": _finite_float, "help": "initial price of a single constant path"}), paths))
    c.add_argument("--strike", type=_finite_float, default=0.0)
    t = add("tilt", cmd_tilt, "drift-removing measure tilt on a tree", "tree", "market-opt", "format")
    t.add_argument("--g", type=_finite_list, help="comma-separated non-increasing offset per time index (default zero)")
    t.add_argument("--eps", type=_finite_float, default=1e-3, help="tail threshold to report")
    s = add("shadow-check", cmd_shadow_check, "verify utility optimality via a shadow price", "market", "tree", "strategy", "certificate-opt", "format")
    s.add_argument("--utility", required=True, choices=("exp", "exponential", "power", "log"))
    s.add_argument("--utility-param", type=_finite_float, dest="utility_param")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except (FormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TransientImpactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

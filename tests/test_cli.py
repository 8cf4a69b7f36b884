import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from transient_impact import formats
from transient_impact.cli import build_parser, main
from transient_impact.formats import PATH_BLOCK_ROWS, load_market, load_price_paths, load_schedule
from transient_impact.tree import NodeMeasure
from transient_impact.solver import primal_solve
from transient_impact.wealth import lambda_functional, terminal_cash_direct

from conftest import market_for_tree, random_tree

LN2 = float(np.log(2.0))


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def market_file(tmp_path):
    return write_json(
        tmp_path / "market.json",
        {"grid": [0.0, 1.0], "delta": 10.0, "r": LN2, "iota": 0.0, "zeta0": 0.0, "x0": 0.0, "xi0": 0.0},
    )


@pytest.fixture
def binary_files(tmp_path):
    market = write_json(
        tmp_path / "bmarket.json",
        {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0},
    )
    tree = write_json(
        tmp_path / "btree.json",
        {
            "levels": 2,
            "nodes": [
                {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
                {"id": 1, "parent": 0, "p_transition": 0.5, "P": 110.0},
                {"id": 2, "parent": 0, "p_transition": 0.5, "P": 90.0},
            ],
        },
    )
    payoff = write_json(tmp_path / "payoff.json", {"type": "call", "strike": 100.0})
    return market, tree, payoff


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestValidate:
    def test_passing_market(self, tmp_path, capsys):
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": 10.0, "r": 1.0})
        code, out = run(capsys, "validate", "--market", market)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_failing_market_exits_one_with_clauses(self, tmp_path, capsys):
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0})
        code, out = run(capsys, "validate", "--market", market)
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False and report["failures"]

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _ = run(capsys, "validate", "--market", str(bad))
        assert code == 2

    def test_undecodable_market_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"grid":[0,1],\xff}')
        code = main(["validate", "--market", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "can't decode byte 0xff" in captured.err


class TestWealth:
    def test_round_trip_instance(self, tmp_path, capsys, market_file):
        strategy = write_json(tmp_path / "s.json", {"buys": [1.0, 0.0], "sells": [0.0, 1.0], "x0": 0.0})
        paths = tmp_path / "p.csv"
        paths.write_text("100.0\n100.0\n", encoding="utf-8")
        code, out = run(capsys, "wealth", "--market", market_file, "--strategy", strategy, "--paths", str(paths))
        assert code == 0
        report = json.loads(out)
        assert report["terminal_cash_direct"][0] == pytest.approx(-0.15)
        assert report["liquidates"] is True
        assert report["consistency_gap"] <= 1e-12

    @pytest.mark.parametrize("field", ["grid", "delta", "r", "iota", "zeta0", "x0", "xi0"])
    def test_non_finite_market_exits_one(self, tmp_path, capsys, field):
        spec = {"grid": [0.0, 1.0], "delta": 10.0, "r": LN2, "iota": 0.0, "zeta0": 0.0, "x0": 0.0, "xi0": 0.0}
        spec[field] = [0.0, float("nan")] if field == "grid" else float("nan")
        market = write_json(tmp_path / "market.json", spec)
        strategy = write_json(tmp_path / "s.json", {"buys": [1.0, 0.0], "sells": [0.0, 1.0]})
        paths = tmp_path / "p.csv"
        paths.write_text("100.0\n100.0\n", encoding="utf-8")
        code = main(["wealth", "--market", market, "--strategy", strategy, "--paths", str(paths)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"market {field} must be finite" in captured.err

    @pytest.mark.parametrize("field", ["buys", "sells", "x0"])
    def test_non_finite_strategy_exits_one(self, tmp_path, capsys, market_file, field):
        data = {"buys": [1.0, 0.0], "sells": [0.0, 1.0], "x0": 0.0}
        data[field] = float("inf") if field == "x0" else [1.0, float("nan")]
        strategy = write_json(tmp_path / "s.json", data)
        paths = tmp_path / "p.csv"
        paths.write_text("100.0\n100.0\n", encoding="utf-8")
        code = main(["wealth", "--market", market_file, "--strategy", strategy, "--paths", str(paths)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"strategy {field} must be finite" in captured.err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_paths_exit_one(self, tmp_path, capsys, market_file, cell):
        strategy = write_json(tmp_path / "s.json", {"buys": [1.0, 0.0], "sells": [0.0, 1.0]})
        paths = tmp_path / "p.csv"
        paths.write_text(f"s0,s1\n100.0,100.0\n{cell},100.0\n", encoding="utf-8")
        for argv in (["wealth", "--strategy", strategy], ["call"]):
            code = main([*argv, "--market", market_file, "--paths", str(paths)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert "price paths must be finite" in captured.err

    def test_undecodable_paths_exit_two(self, tmp_path, capsys, market_file):
        strategy = write_json(tmp_path / "s.json", {"buys": [1.0, 0.0], "sells": [0.0, 1.0]})
        paths = tmp_path / "p.csv"
        paths.write_bytes(b"100.0\n\xff\n")
        code = main(["wealth", "--market", market_file, "--strategy", strategy, "--paths", str(paths)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "can't decode byte 0xff" in captured.err

    def test_open_position_flagged(self, tmp_path, capsys, market_file):
        strategy = write_json(tmp_path / "s.json", {"buys": [1.0, 0.0], "sells": [0.0, 0.0]})
        paths = tmp_path / "p.csv"
        paths.write_text("100.0\n100.0\n", encoding="utf-8")
        code, out = run(capsys, "wealth", "--market", market_file, "--strategy", strategy,
                        "--paths", str(paths), "--require-liquidation")
        assert code == 1
        assert json.loads(out)["liquidates"] is False


class TestPriceAndGap:
    def test_binary_price(self, capsys, binary_files):
        market, tree, payoff = binary_files
        code, out = run(capsys, "price", "--market", market, "--tree", tree, "--payoff", payoff)
        assert code == 0
        report = json.loads(out)
        assert report["primal_value"] == pytest.approx(5.05, abs=1e-4)

    def test_binary_gap(self, capsys, binary_files):
        market, tree, payoff = binary_files
        code, out = run(capsys, "gap", "--market", market, "--tree", tree, "--payoff", payoff)
        assert code == 0
        report = json.loads(out)
        assert report["dual_value"] >= 5.0
        assert -1e-9 <= report["gap"] <= 0.05

    def test_deterministic_output(self, capsys, binary_files):
        market, tree, payoff = binary_files
        _, out1 = run(capsys, "price", "--market", market, "--tree", tree, "--payoff", payoff)
        _, out2 = run(capsys, "price", "--market", market, "--tree", tree, "--payoff", payoff)
        assert out1 == out2

    @pytest.mark.parametrize("command", ["price", "gap", "dual-search"])
    def test_spent_budget_exits_three_and_says_why(self, tmp_path, capsys, binary_files, command):
        market, tree, payoff = binary_files
        argv = [command, "--market", market, "--tree", tree, "--payoff", payoff, "--max-iter", "1"]
        code, out = run(capsys, *argv)
        out_file = tmp_path / "report.json"
        assert main([*argv, "--out", str(out_file)]) == 3
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("not converged: the primal search stopped (budget) after 1 Newton steps")
        assert captured.err.count("\n") == 1 and "relative residual" in captured.err
        assert out_file.read_text(encoding="utf-8") == out  # the report is written as on any exit
        report = json.loads(out)
        assert report["converged"] is False
        # every solve names its certificate's gap, which bounds the value's error
        assert "gap/(1+|primal|)" in captured.err
        if command == "gap":
            rel = report["gap"] / (1.0 + abs(report["primal_value"]))
            assert captured.err.endswith(f", gap/(1+|primal|) {rel:.3e}\n")

    def test_price_certifies_a_degenerate_program_whose_search_breaks_down(self, tmp_path, capsys):
        # zero payoff, position and spread on a martingale price: the Newton search breaks down
        # after 20 steps, and the gap of exactly 0 proves the value 0 optimal
        rng = np.random.default_rng(5)
        tree = random_tree(rng, depth=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.0)
        solved = primal_solve(tree, market, np.zeros(tree.leaves.size))
        assert (solved.stop_reason, solved.iterations, solved.gap) == ("breakdown", 20, 0.0)
        impact = market.impact
        market_path = write_json(tmp_path / "m.json", {
            "grid": tree.times.tolist(), "delta": market.liquidity.delta.tolist(), "r": market.liquidity.r.tolist(),
            "iota": impact.iota, "zeta0": impact.zeta0, "x0": impact.x0, "xi0": impact.xi0})
        nodes = [{"id": i, "parent": int(tree.parent[i]), "p_transition": float(tree.p_transition[i]),
                  "P": float(tree.P[i]), "delta": float(tree.delta[i]), "r": float(tree.r[i])}
                 for i in range(tree.n_nodes)]
        tree_path = write_json(tmp_path / "t.json", {"nodes": nodes})
        payoff = write_json(tmp_path / "h.json", {"type": "values", "values": [0.0] * int(tree.leaves.size)})
        code, out = run(capsys, "price", "--market", market_path, "--tree", tree_path, "--payoff", payoff)
        report = json.loads(out)
        assert code == 0 and report["converged"] is True
        assert (report["primal_value"], report["iterations"]) == (0.0, 20)

    def test_converged_commands_write_nothing_to_stderr(self, capsys, binary_files):
        market, tree, payoff = binary_files
        for command in ("price", "gap", "dual-search"):
            assert main([command, "--market", market, "--tree", tree, "--payoff", payoff]) == 0
            assert capsys.readouterr().err == ""

    def test_weak_duality_breach_exits_one(self, capsys, binary_files, monkeypatch):
        from dataclasses import replace

        from transient_impact import solver
        from transient_impact.tree import NodeMeasure

        certificate_from = solver.certificate_from

        def overshooting(tree, *args, **kwargs):
            # all mass on the leaf paying 10: worth about 9.95 against a primal of 5.05
            cert = certificate_from(tree, *args, **kwargs)
            return replace(cert, q=NodeMeasure.for_tree(tree, [1.0, 1.0, 0.0]))

        monkeypatch.setattr(solver, "certificate_from", overshooting)
        market, tree, payoff = binary_files
        code = main(["gap", "--market", market, "--tree", tree, "--payoff", payoff])
        assert code == 1
        assert "weak duality violated" in capsys.readouterr().err

    def test_non_finite_tree_exits_one(self, tmp_path, capsys, binary_files):
        market, _, payoff = binary_files
        tree = write_json(
            tmp_path / "nan_tree.json",
            {
                "levels": 2,
                "nodes": [
                    {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
                    {"id": 1, "parent": 0, "p_transition": 0.5, "P": float("nan")},
                    {"id": 2, "parent": 0, "p_transition": 0.5, "P": 90.0},
                ],
            },
        )
        for command in ("gap", "price"):
            code = main([command, "--market", market, "--tree", tree, "--payoff", payoff])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert "P must be finite" in captured.err

    @pytest.mark.parametrize("payoff_data", [
        {"type": "values", "values": [float("nan"), 0.0]},
        {"type": "call", "strike": float("nan")},
        {"type": "call", "strike": float("inf")},
    ])
    def test_non_finite_payoff_exits_one(self, tmp_path, capsys, binary_files, payoff_data):
        market, tree, _ = binary_files
        payoff = write_json(tmp_path / "nan_payoff.json", payoff_data)
        code = main(["price", "--market", market, "--tree", tree, "--payoff", payoff])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "payoff" in captured.err and "must be finite" in captured.err

    def test_node_record_that_is_not_an_object_exits_two(self, tmp_path, capsys, binary_files):
        market, _, payoff = binary_files
        tree = write_json(tmp_path / "int_nodes.json", {"levels": 2, "nodes": [1, 2, 3]})
        code = main(["price", "--market", market, "--tree", tree, "--payoff", payoff])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "JSON object" in captured.err

    def test_node_that_is_its_own_parent_exits_two(self, tmp_path, capsys, binary_files):
        market, _, payoff = binary_files
        tree = write_json(
            tmp_path / "loop_tree.json",
            {
                "nodes": [
                    {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
                    {"id": 1, "parent": 1, "p_transition": 0.5, "P": 110.0},
                    {"id": 2, "parent": 0, "p_transition": 0.5, "P": 90.0},
                ],
            },
        )
        code = main(["price", "--market", market, "--tree", tree, "--payoff", payoff])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "parents first" in captured.err


class TestDualEval:
    def test_flat_spread_certificate(self, tmp_path, capsys):
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": [10.0, 8.0], "r": 0.0})
        tree = write_json(
            tmp_path / "t.json",
            {
                "nodes": [
                    {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
                    {"id": 1, "parent": 0, "p_transition": 0.5, "P": 100.2},
                    {"id": 2, "parent": 0, "p_transition": 0.5, "P": 99.8},
                ]
            },
        )
        lam = 0.3
        certificate = write_json(
            tmp_path / "c.json",
            {"q_transitions": [1.0, 0.5, 0.5], "M": [100.0, 100.2, 99.8], "alpha": [lam, lam, lam]},
        )
        payoff = write_json(tmp_path / "h.json", {"type": "values", "values": [0.2, 0.0]})
        code, out = run(capsys, "dual-eval", "--market", market, "--tree", tree,
                        "--certificate", certificate, "--payoff", payoff)
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is True
        np.testing.assert_allclose(report["bound"], lam, atol=1e-12)

    def test_csv_series(self, tmp_path, capsys):
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0})
        tree = write_json(
            tmp_path / "t.json",
            {
                "nodes": [
                    {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
                    {"id": 1, "parent": 0, "p_transition": 1.0, "P": 100.0},
                ]
            },
        )
        certificate = write_json(
            tmp_path / "c.json", {"q_transitions": [1.0, 1.0], "M": [100.0, 100.0], "alpha": None}
        )
        payoff = write_json(tmp_path / "h.json", {"type": "values", "values": [0.0]})
        code, out = run(capsys, "dual-eval", "--market", market, "--tree", tree,
                        "--certificate", certificate, "--payoff", payoff, "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        for column in ("node", "t_index", "P", "M", "bound", "alpha"):
            assert column in header


    @pytest.mark.parametrize("field, values", [
        ("M", [100.0, float("nan"), 90.0]),
        ("alpha", [0.0, float("inf"), 0.0]),
        ("q_transitions", [1.0, float("nan"), 0.5]),
    ])
    def test_non_finite_certificate_exits_one(self, tmp_path, capsys, binary_files, field, values):
        market, tree, payoff = binary_files
        cert = {"q_transitions": [1.0, 0.5, 0.5], "M": [100.0, 110.0, 90.0], "alpha": [0.0, 0.0, 0.0]}
        cert[field] = values
        certificate = write_json(tmp_path / "c.json", cert)
        for command in ("dual-eval", "dual-search"):
            code = main([command, "--market", market, "--tree", tree,
                         "--certificate", certificate, "--payoff", payoff])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert "must be finite" in captured.err


    @pytest.mark.parametrize("alpha", [[0.1, 0.2], [[0.1, 0.2, 0.3]]])
    def test_misshapen_alpha_is_a_schema_breach(self, tmp_path, capsys, binary_files, alpha):
        market, tree, payoff = binary_files
        cert = {"q_transitions": [1.0, 0.5, 0.5], "M": [100.0, 110.0, 90.0], "alpha": alpha}
        certificate = write_json(tmp_path / "c.json", cert)
        for command in ("dual-eval", "dual-search"):
            code = main([command, "--market", market, "--tree", tree,
                         "--certificate", certificate, "--payoff", payoff])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "certificate alpha must be a scalar or list 3 node values" in captured.err

    @pytest.mark.parametrize("field, values", [
        ("q_transitions", [1.0, 0.5]), ("q_transitions", 1.0), ("M", [100.0, 110.0]), ("M", 100.0),
    ])
    def test_misshapen_q_or_m_is_a_schema_breach(self, tmp_path, capsys, binary_files, field, values):
        market, tree, payoff = binary_files
        cert = {"q_transitions": [1.0, 0.5, 0.5], "M": [100.0, 110.0, 90.0], "alpha": 0.0, field: values}
        certificate = write_json(tmp_path / "c.json", cert)
        for command in ("dual-eval", "dual-search"):
            code = main([command, "--market", market, "--tree", tree,
                         "--certificate", certificate, "--payoff", payoff])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert f"certificate {field} must list 3 node values" in captured.err

    @pytest.mark.parametrize("alpha", [None, 0.0, [0.0, 0.0, 0.0]])
    def test_alpha_may_be_null_a_scalar_or_one_value_per_node(self, tmp_path, capsys, binary_files, alpha):
        market, tree, payoff = binary_files
        cert = {"q_transitions": [1.0, 0.5, 0.5], "M": [100.0, 110.0, 90.0], "alpha": alpha}
        certificate = write_json(tmp_path / "c.json", cert)
        code, out = run(capsys, "dual-eval", "--market", market, "--tree", tree,
                        "--certificate", certificate, "--payoff", payoff)
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is True
        assert report["measure_error"] is None


    def test_a_drifting_martingale_is_no_certificate(self, tmp_path, capsys):
        """0.5 * 120 + 0.5 * 90 is not 100: however wide the band, this ``M`` is no martingale under ``q``."""
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.5})
        tree = write_json(tmp_path / "t.json", {"nodes": [
            {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
            {"id": 1, "parent": 0, "p_transition": 0.5, "P": 110.0},
            {"id": 2, "parent": 0, "p_transition": 0.5, "P": 90.0}]})
        certificate = write_json(tmp_path / "c.json", {"q_transitions": [1.0, 0.5, 0.5], "M": [100.0, 120.0, 90.0],
                                                       "alpha": 50.0})
        payoff = write_json(tmp_path / "h.json", {"type": "values", "values": [0.0, 50.0]})
        common = ["--market", market, "--tree", tree, "--certificate", certificate, "--payoff", payoff]
        code, out = run(capsys, "dual-eval", *common)
        assert code == 0  # dual-eval evaluates; it does not refuse
        report = json.loads(out)
        assert report["feasible"] is False
        assert report["martingale_drift"] == 5.0
        assert report["worst_violation"] < 0.0  # the band alone holds
        assert report["units"]["martingale_drift"] == "price"
        assert main(["dual-search", *common]) == 1
        assert "drift 5.000e+00" in capsys.readouterr().err

    @pytest.mark.parametrize("p, q, M", [
        pytest.param([1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [90.0, 110.0, 90.0], id="mass on a null branch"),
        pytest.param([1.0, 0.5, 0.5], [1.0, 0.3, 0.3], [60.0, 110.0, 90.0], id="no simplex"),
        pytest.param([1.0, 0.5, 0.5], [1.0, 1.5, -0.5], [120.0, 110.0, 90.0], id="a negative transition"),
    ])
    def test_a_measure_that_is_none_is_no_certificate(self, tmp_path, capsys, binary_files, p, q, M):
        """``M`` is a martingale under ``q`` inside a wide band, but ``q`` is no measure for the tree.

        Refused by one route: ``dual-search`` exits 1 with ``NodeMeasure.for_tree``'s message and
        ``dual-eval`` reports that message, with ``feasible`` false, and exits 0.
        """
        market, _, payoff = binary_files
        tree = write_json(tmp_path / "t.json", {"nodes": [
            {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
            {"id": 1, "parent": 0, "p_transition": p[1], "P": 110.0},
            {"id": 2, "parent": 0, "p_transition": p[2], "P": 90.0}]})
        with pytest.raises(ValueError) as refused:
            NodeMeasure.for_tree(formats.load_tree(tree, load_market(market)), q)
        message = str(refused.value)
        certificate = write_json(tmp_path / "c.json", {"q_transitions": q, "M": M, "alpha": 100.0})
        common = ["--market", market, "--tree", tree, "--certificate", certificate, "--payoff", payoff]
        code = main(["dual-search", *common])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert message in captured.err
        code, out = run(capsys, "dual-eval", *common)
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is False
        assert report["measure_error"] == message
        assert report["martingale_drift"] == 0.0 and report["worst_violation"] < 0.0  # q alone fails


class TestCall:
    def test_reference_instance(self, tmp_path, capsys):
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0})
        code, out = run(capsys, "call", "--market", market, "--p0", "100.0", "--strike", "100.0")
        assert code == 0
        report = json.loads(out)
        assert report["closed_form_price"] == pytest.approx(100.2, abs=1e-12)
        assert report["identity_holds"] is True

    @pytest.mark.parametrize("flag, value", [("--strike", "nan"), ("--p0", "inf"), ("--p0", "abc")])
    def test_non_finite_flag_is_a_usage_error(self, capsys, market_file, flag, value):
        argv = ["call", "--market", market_file, "--p0", "100.0", flag, value]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "is not a finite number" in captured.err

    def test_with_paths(self, tmp_path, capsys, market_file):
        paths = tmp_path / "p.csv"
        paths.write_text("100.0,100.0\n99.0,103.0\n", encoding="utf-8")
        code, out = run(capsys, "call", "--market", market_file, "--paths", str(paths))
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["terminal_cash"], report["terminal_price"], atol=1e-10)


def write_paths_case(directory, table, header=True):
    """A market on ``table``'s grid, a liquidating schedule and the table as a paths CSV (one column per scenario)."""
    n_points, n_scenarios = table.shape
    rng = np.random.default_rng(n_points)
    market = write_json(directory / "market.json", {"grid": np.linspace(0.0, 1.0, n_points).tolist(), "delta": 10.0,
                                                    "r": 0.5, "iota": 0.1, "zeta0": 0.05, "x0": 0.0, "xi0": 0.0})
    buys, sells = rng.uniform(0.0, 1.0, (2, n_points)) * (rng.random((2, n_points)) < 0.5)
    buys[-1], sells[-1] = 0.0, 0.0
    net = buys.sum() - sells.sum()
    buys[-1], sells[-1] = max(-net, 0.0), max(net, 0.0)
    strategy = write_json(directory / "strategy.json", {"buys": buys.tolist(), "sells": sells.tolist(), "x0": 0.0})
    rows = [",".join(f"s{j}" for j in range(n_scenarios))] if header else []
    rows += [",".join(repr(float(v)) for v in row) for row in table]
    paths = directory / "paths.csv"
    paths.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return market, strategy, paths


def price_table(n_points, n_scenarios, seed=0):
    """Positive paths from a common first price: time rows ``(n_points, n_scenarios)``."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 0.01, (n_points - 1, n_scenarios))
    return 100.0 * np.exp(np.vstack([np.zeros((1, n_scenarios)), np.cumsum(steps, axis=0)]))


class TestStreamedPaths:
    """``wealth --paths`` and ``call --paths`` read their CSV once, a block of time rows at a time."""

    N_POINTS = 3 * PATH_BLOCK_ROWS + 5

    @pytest.fixture
    def case(self, tmp_path):
        return write_paths_case(tmp_path, price_table(self.N_POINTS, 7))

    def test_wealth_matches_the_table_kernels(self, tmp_path, capsys, case):
        market_path, strategy_path, paths = case
        code, out = run(capsys, "wealth", "--market", market_path, "--strategy", strategy_path, "--paths", str(paths))
        assert code == 0
        report = json.loads(out)
        market, schedule = load_market(market_path), load_schedule(strategy_path)
        table = load_price_paths(paths)
        direct, breakdown = terminal_cash_direct(schedule, market, table), lambda_functional(schedule, market, table)
        # only the summation order of the price integral differs: rounding relative to the cash's scale
        tol = 1e-12 * (1.0 + np.max(np.abs(breakdown.lambda_T)))
        np.testing.assert_allclose(report["terminal_cash_direct"], direct, rtol=0.0, atol=tol)
        for field in ("xi_T", "lambda_T", "p_integral"):
            np.testing.assert_allclose(report["breakdown"][field], getattr(breakdown, field), rtol=0.0, atol=tol)
        assert report["breakdown"]["eta_penalty"] == breakdown.eta_penalty
        assert report["breakdown"]["v0"] == breakdown.v0

    def test_call_is_byte_identical_to_the_table_route(self, tmp_path, monkeypatch, case):
        market_path, _, paths = case
        argv = ["call", "--market", market_path, "--paths", str(paths), "--strike", "100"]
        assert main(argv + ["--out", str(tmp_path / "streamed.json")]) == 0
        table = load_price_paths(paths)
        monkeypatch.setattr(formats, "price_path_blocks", lambda path: table)  # the whole table, as one argument
        assert main(argv + ["--out", str(tmp_path / "table.json")]) == 0
        assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "table.json").read_bytes()

    @pytest.mark.parametrize("command", ["wealth", "call"])
    def test_the_file_is_opened_and_parsed_once(self, monkeypatch, capsys, case, command):
        market_path, strategy_path, paths = case
        opened, parsed = [], []
        monkeypatch.setattr(formats, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k), raising=False)
        loadtxt = np.loadtxt
        monkeypatch.setattr(formats.np, "loadtxt", lambda *a, **k: parsed.append(k["max_rows"]) or loadtxt(*a, **k))
        extra = ["--strategy", strategy_path] if command == "wealth" else []
        code, _ = run(capsys, command, "--market", market_path, *extra, "--paths", str(paths))
        assert code == 0
        assert opened.count(str(paths)) == 1
        assert parsed == [PATH_BLOCK_ROWS] * 4  # 53 rows: three full blocks and the last one

    def test_memory_stays_below_half_the_table(self, tmp_path, capsys):
        table = price_table(201, 2000)
        market, strategy, paths = write_paths_case(tmp_path, table)
        for argv in (["wealth", "--strategy", strategy], ["call"]):
            argv = [*argv, "--market", market, "--paths", str(paths), "--out", str(tmp_path / "report.json")]
            assert main(argv) == 0  # warm: first-call allocations are not the command's
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * table.nbytes, (argv[0], peak)

    def test_memory_holds_one_block_in_flight(self, tmp_path):
        """Under three blocks' worth: one block, numpy's parse of the next, O(scenarios) sums and the report text."""
        n_scenarios = 4000
        market, strategy, paths = write_paths_case(tmp_path, price_table(self.N_POINTS, n_scenarios))
        block_bytes = PATH_BLOCK_ROWS * n_scenarios * 8
        for argv in (["wealth", "--strategy", strategy], ["call"]):
            argv = [*argv, "--market", market, "--paths", str(paths), "--out", str(tmp_path / "report.json")]
            assert main(argv) == 0  # warm: first-call allocations are not the command's
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * block_bytes, (argv[0], peak / block_bytes)

    @pytest.mark.parametrize("command, last_row, code", [
        ("wealth", "nan,{p}", 1), ("call", "nan,{p}", 1),
        ("wealth", "{p}", 2), ("call", "{p}", 2),
        ("call", "-1.0,{p}", 1),
    ])
    def test_a_fault_in_the_last_block_writes_no_report(self, tmp_path, capsys, command, last_row, code):
        table = price_table(self.N_POINTS, 2)
        market, strategy, paths = write_paths_case(tmp_path, table)
        lines = paths.read_text(encoding="utf-8").splitlines()
        lines[-1] = last_row.format(p=repr(float(table[-1, 1])))
        paths.write_text("\n".join(lines) + "\n", encoding="utf-8")
        extra = ["--strategy", strategy] if command == "wealth" else []
        report = tmp_path / "report.json"
        assert main([command, "--market", market, *extra, "--paths", str(paths), "--out", str(report)]) == code
        assert not report.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["wealth", "call"])
    @pytest.mark.parametrize("rows", [N_POINTS - 1, N_POINTS + 1, PATH_BLOCK_ROWS])
    def test_a_row_count_off_the_grid_exits_one(self, tmp_path, capsys, command, rows):
        market, strategy, _ = write_paths_case(tmp_path, price_table(self.N_POINTS, 3))
        paths = tmp_path / "other.csv"
        paths.write_text("\n".join(",".join(map(repr, row)) for row in price_table(rows, 3).tolist()) + "\n",
                         encoding="utf-8")
        extra = ["--strategy", strategy] if command == "wealth" else []
        code = main([command, "--market", market, *extra, "--paths", str(paths)])
        assert code == 1
        assert "grid points" in capsys.readouterr().err


class TestTilt:
    def test_hand_example(self, tmp_path, capsys):
        tree = write_json(
            tmp_path / "t.json",
            {
                "times": [0.0, 1.0],
                "nodes": [
                    {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0, "delta": 10.0, "r": 0.0},
                    {"id": 1, "parent": 0, "p_transition": 0.334, "P": 90.0, "delta": 10.0, "r": 0.0},
                    {"id": 2, "parent": 0, "p_transition": 0.333, "P": 105.0, "delta": 10.0, "r": 0.0},
                    {"id": 3, "parent": 0, "p_transition": 0.333, "P": 120.0, "delta": 10.0, "r": 0.0},
                ],
            },
        )
        code, out = run(capsys, "tilt", "--tree", tree, "--g", "1.0,0.0", "--eps", "0.5")
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["q_transitions"][1:], [19 / 30, 0.0, 11 / 30], atol=1e-12)
        assert report["max_abs_gap"] <= 1e-10
        assert report["M"][0] == pytest.approx(101.0, abs=1e-10)


class TestShadowCheck:
    def test_zero_schedule_on_martingale_tree(self, tmp_path, capsys):
        market = write_json(
            tmp_path / "m.json",
            {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0, "zeta0": 0.3, "x0": 0.0, "xi0": 5.0},
        )
        tree = write_json(
            tmp_path / "t.json",
            {
                "nodes": [
                    {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
                    {"id": 1, "parent": 0, "p_transition": 0.5, "P": 100.2},
                    {"id": 2, "parent": 0, "p_transition": 0.5, "P": 99.8},
                ]
            },
        )
        strategy = write_json(tmp_path / "s.json", {"buys": [0.0, 0.0, 0.0], "sells": [0.0, 0.0, 0.0]})
        code, out = run(capsys, "shadow-check", "--market", market, "--tree", tree,
                        "--strategy", strategy, "--utility", "exp", "--utility-param", "2.0")
        assert code == 0
        assert json.loads(out)["verdict"] == "optimal"

    def test_only_the_certificates_martingale_is_read(self, tmp_path, capsys, binary_files):
        # a q that is no measure for the tree (it sums to 0.6) is not refused: shadow-check reads only M
        market, tree, _ = binary_files
        strategy = write_json(tmp_path / "s.json", {"buys": [0.0, 0.0, 0.0], "sells": [0.0, 0.0, 0.0]})
        common = ["--market", market, "--tree", tree, "--strategy", strategy, "--utility", "exp"]
        reports = []
        for q in ([1.0, 0.5, 0.5], [1.0, 0.3, 0.3]):
            certificate = write_json(tmp_path / "c.json", {"q_transitions": q, "M": [100.0, 110.0, 90.0]})
            code, out = run(capsys, "shadow-check", *common, "--certificate", certificate)
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["M_hat"] == [100.0, 110.0, 90.0]


class TestDualSearch:
    def test_default_start_improves_expectation(self, capsys, binary_files):
        market, tree, payoff = binary_files
        code, out = run(capsys, "dual-search", "--market", market, "--tree", tree, "--payoff", payoff)
        assert code == 0
        report = json.loads(out)
        assert report["dual_value"] >= 5.0 - 1e-9

    def test_without_a_certificate_reports_the_gap_certificate(self, capsys, binary_files):
        market, tree, payoff = binary_files
        common = ["--market", market, "--tree", tree, "--payoff", payoff]
        search = json.loads(run(capsys, "dual-search", *common)[1])
        gap = json.loads(run(capsys, "gap", *common)[1])
        assert search["dual_value"] == gap["dual_value"]
        assert search["certificate"] == gap["certificate"]

    def test_fed_its_own_certificate_writes_the_same_bytes(self, tmp_path, capsys, binary_files):
        market, tree, payoff = binary_files
        argv = ["dual-search", "--market", market, "--tree", tree, "--payoff", payoff]
        code, first = run(capsys, *argv)
        cert = write_json(tmp_path / "own.json", json.loads(first)["certificate"])
        again, second = run(capsys, *argv, "--certificate", cert)
        assert code == again == 0
        assert second == first


    def test_a_drifting_certificate_exits_one_before_the_primal(self, tmp_path, capsys, binary_files, monkeypatch):
        # 0.5 * 120 + 0.5 * 90 is not 100: however wide its band, M is no martingale under q
        from transient_impact import solver

        monkeypatch.setattr(solver, "primal_solve", lambda *args: pytest.fail("primal solved"))
        market, tree, payoff = binary_files
        drifting = {"q_transitions": [1.0, 0.5, 0.5], "M": [100.0, 120.0, 90.0], "alpha": 50.0}
        cert = write_json(tmp_path / "c.json", drifting)
        code = main(["dual-search", "--market", market, "--tree", tree, "--payoff", payoff, "--certificate", cert])
        assert code == 1
        assert "drift" in capsys.readouterr().err


class TestNullBranchTree:
    """A tree file whose third root branch has probability 0: its leaf constrains nothing."""

    @pytest.fixture
    def files(self, tmp_path):
        def tree_file(name, parent, p, prices):
            nodes = [{"id": i, "parent": a, "p_transition": b, "P": c}
                     for i, (a, b, c) in enumerate(zip(parent, p, prices))]
            return write_json(tmp_path / name, {"nodes": nodes})

        prices = [100.0, 110.0, 90.0, 95.0, 120.0, 100.0, 100.0, 80.0, 120.0]
        p = [1.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5, 1.0]
        kept = [0, 1, 2, 4, 5, 6, 7]  # the nodes the reference measure reaches
        market = {"grid": [0.0, 0.5, 1.0], "delta": 10.0, "r": 0.5, "zeta0": 0.1, "x0": 0.5}
        return {
            "market": write_json(tmp_path / "m.json", market),
            "tree": tree_file("t.json", [-1, 0, 0, 0, 1, 1, 2, 2, 3], p, prices),
            "reached": tree_file("r.json", [-1, 0, 0, 1, 1, 2, 2], [p[k] for k in kept], [prices[k] for k in kept]),
            "payoff": write_json(tmp_path / "h.json", {"type": "values", "values": [20.0, 0.0, 0.0, 0.0, 100.0]}),
            "reached_payoff": write_json(tmp_path / "rh.json", {"type": "values", "values": [20.0, 0.0, 0.0, 0.0]}),
        }

    def test_gap_and_price_give_the_reached_trees_value(self, capsys, files):
        priced = ["--market", files["market"], "--payoff", files["payoff"], "--tree", files["tree"]]
        code, out = run(capsys, "price", "--market", files["market"], "--payoff", files["reached_payoff"],
                        "--tree", files["reached"])
        assert code == 0
        best = json.loads(out)["primal_value"]
        code, out = run(capsys, "price", *priced)
        assert code == 0 and json.loads(out)["primal_value"] == best
        code, out = run(capsys, "gap", *priced)
        report = json.loads(out)
        assert code == 0 and report["converged"] is True
        assert report["primal_value"] == best
        assert report["gap"] <= 1e-9 * (1.0 + abs(best))

    def test_wealth_and_shadow_check_take_the_price_strategy(self, tmp_path, capsys, files):
        _, out = run(capsys, "price", "--market", files["market"], "--payoff", files["payoff"], "--tree", files["tree"])
        strategy = write_json(tmp_path / "s.json", json.loads(out)["strategy"])
        common = ["--market", files["market"], "--tree", files["tree"], "--strategy", strategy]
        code, out = run(capsys, "wealth", *common)
        report = json.loads(out)
        assert code == 0 and report["liquidates"] is True  # the null leaf closes its position too
        assert report["consistency_gap"] <= 1e-12 * (1.0 + np.max(np.abs(report["terminal_cash_direct"])))
        code, out = run(capsys, "shadow-check", *common, "--utility", "exp")
        assert code == 0 and json.loads(out)["verdict"] in ("optimal", "inconclusive")


class TestWealthOnTree:
    def test_node_indexed_schedule(self, tmp_path, capsys):
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0})
        tree = write_json(
            tmp_path / "t.json",
            {
                "nodes": [
                    {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
                    {"id": 1, "parent": 0, "p_transition": 0.5, "P": 110.0},
                    {"id": 2, "parent": 0, "p_transition": 0.5, "P": 90.0},
                ]
            },
        )
        strategy = write_json(
            tmp_path / "s.json", {"buys": [1.0, 0.0, 0.0], "sells": [0.0, 1.0, 1.0], "x0": 0.0}
        )
        code, out = run(capsys, "wealth", "--market", market, "--strategy", strategy, "--tree", tree)
        assert code == 0
        report = json.loads(out)
        assert report["liquidates"] is True
        # buy 1 at 100 (pays 100.05), sell at the leaf price minus spread 0.15
        assert report["terminal_cash_direct"][0] == pytest.approx(110.0 - 100.05 - 0.15)
        assert report["terminal_cash_direct"][1] == pytest.approx(90.0 - 100.05 - 0.15)
        assert report["consistency_gap"] <= 1e-12


def reject_constant(name):
    raise AssertionError(f"report holds {name}, which is not valid JSON")


def binary_tree_files(tmp_path, market, leaf_delta=None):
    """Two-period binary tree on ``grid [0, 1, 2]``; ``leaf_delta`` overrides the leaves' depth."""
    prices = [100.0, 110.0, 90.0, 120.0, 100.0, 100.0, 80.0]
    nodes = [{"id": i, "parent": (i - 1) // 2, "p_transition": 0.5, "P": p} for i, p in enumerate(prices)]
    nodes[0].update(parent=-1, p_transition=1.0)
    if leaf_delta is not None:
        for node in nodes[3:]:
            node["delta"] = leaf_delta
    return (
        write_json(tmp_path / "m.json", market),
        write_json(tmp_path / "t.json", {"levels": 3, "nodes": nodes}),
        write_json(tmp_path / "h.json", {"type": "call", "strike": 100.0}),
    )


class TestParser:
    def test_not_built_at_import(self):
        code = "import transient_impact.cli as cli; print(cli._parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "0"

    def test_built_once_and_handlers_looked_up_per_call(self, monkeypatch, market_file, capsys):
        from transient_impact import cli

        run(capsys, "validate", "--market", market_file)
        parser = cli._parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.market) or 0)
        assert main(["validate", "--market", market_file]) == 0
        assert seen == [market_file]
        assert cli._parser() is parser


class TestOptions:
    def test_every_subcommand_takes_only_the_options_its_handler_reads(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {opt for action in p._actions for opt in action.option_strings if opt not in ("-h", "--help")}
            for name, p in sub.choices.items()
        }
        primal = {"--tol", "--max-iter"}
        assert options == {
            "validate": {"--market", "--out"},
            "wealth": {"--market", "--strategy", "--paths", "--tree", "--require-liquidation", "--out"},
            "price": {"--market", "--tree", "--payoff", *primal, "--out"},
            "gap": {"--market", "--tree", "--payoff", *primal, "--out"},
            "dual-eval": {"--market", "--tree", "--certificate", "--payoff", "--format", "--out"},
            "dual-search": {"--market", "--tree", "--payoff", "--certificate", "--max-iter", "--out"},
            "call": {"--market", "--paths", "--strike", "--p0", "--out"},
            "tilt": {"--tree", "--market", "--g", "--eps", "--format", "--out"},
            "shadow-check": {"--market", "--tree", "--strategy", "--certificate", "--utility", "--utility-param",
                             "--format", "--out"},
        }

    @pytest.mark.parametrize("command, extra", [
        ("price", ["--format", "csv"]),
        ("dual-search", ["--tol", "1e-3"]),
        ("dual-search", ["--max-iter", "x"]),
        ("price", ["--tol", "nan"]),
        ("price", ["--max-iter", "1.5"]),
        ("price", ["--tol", "inf"]),
        ("gap", ["--tol", "abc"]),
        ("gap", ["--max-iter", "1e3"]),
        ("gap", ["--tol", "-1"]),
        ("gap", ["--tol", "0"]),
        ("price", ["--max-iter", "-5"]),
        ("dual-search", ["--max-iter", "-1"]),
    ])
    def test_unknown_or_bad_flag_is_a_usage_error(self, capsys, binary_files, command, extra):
        market, tree, payoff = binary_files
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--market", market, "--tree", tree, "--payoff", payoff, *extra])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("g", ["nan,0", "1,abc", "inf"])
    def test_bad_tilt_offset_is_a_usage_error(self, capsys, binary_files, g):
        market, tree, _ = binary_files
        with pytest.raises(SystemExit) as exit_info:
            main(["tilt", "--tree", tree, "--market", market, "--g", g])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""


class TestInputGrammar:
    """Alternative inputs exclude each other, one is required, and no flag goes unread."""

    @pytest.fixture
    def inputs(self, tmp_path, market_file):
        strategy = write_json(tmp_path / "s.json", {"buys": [1.0, 0.0], "sells": [0.0, 1.0]})
        paths = tmp_path / "p.csv"
        paths.write_text("100.0,100.0\n99.0,103.0\n", encoding="utf-8")
        tree = write_json(tmp_path / "t.json", {"nodes": [
            {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
            {"id": 1, "parent": 0, "p_transition": 1.0, "P": 100.0},
        ]})
        return {"market": market_file, "strategy": strategy, "paths": str(paths), "tree": tree}

    @pytest.mark.parametrize("argv", [
        ["wealth", "--market", "{market}", "--strategy", "{strategy}", "--paths", "{paths}", "--tree", "{tree}"],
        ["call", "--market", "{market}", "--paths", "{paths}", "--p0", "100"],
        ["wealth", "--market", "{market}", "--strategy", "{strategy}"],
        ["call", "--market", "{market}"],
    ], ids=["wealth-both", "call-both", "wealth-neither", "call-neither"])
    def test_exactly_one_input_or_a_usage_error(self, capsys, inputs, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(**inputs) for arg in argv])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "not allowed with" in captured.err or "is required" in captured.err

    def test_parameter_given_to_log_utility_exits_one(self, tmp_path, capsys):
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0, "zeta0": 0.3, "xi0": 5.0})
        tree = write_json(tmp_path / "t.json", {"nodes": [
            {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
            {"id": 1, "parent": 0, "p_transition": 0.5, "P": 100.2},
            {"id": 2, "parent": 0, "p_transition": 0.5, "P": 99.8},
        ]})
        strategy = write_json(tmp_path / "s.json", {"buys": [0.0, 0.0, 0.0], "sells": [0.0, 0.0, 0.0]})
        argv = ["shadow-check", "--market", market, "--tree", tree, "--strategy", strategy, "--utility", "log"]
        assert run(capsys, *argv)[0] == 0
        code, out = run(capsys, *argv, "--utility-param", "3")
        assert code == 1
        assert out == ""


class TestModelRules:
    def test_rising_liquidity_curve_refused_by_the_dual_commands(self, tmp_path, capsys):
        # depth 10 -> 40 at the last step with r = 0: the liquidity curve rises
        files = binary_tree_files(tmp_path, {"grid": [0.0, 1.0, 2.0], "delta": 10.0, "r": 0.0}, leaf_delta=40.0)
        market, tree, payoff = files
        for command in ("dual-search", "gap"):
            code = main([command, "--market", market, "--tree", tree, "--payoff", payoff, "--max-iter", "50"])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert "liquidity curve rises" in captured.err
        code, out = run(capsys, "price", "--market", market, "--tree", tree, "--payoff", payoff)
        assert code == 0
        assert json.loads(out)["primal_value"] == pytest.approx(5.1068, abs=1e-3)

    def test_rising_liquidity_curve_refused_by_dual_eval(self, tmp_path, capsys):
        # spread 50 at the middle nodes makes this certificate feasible, but on a rising
        # curve its objective (150005) is no lower bound on the primal (5.107)
        files = binary_tree_files(tmp_path, {"grid": [0.0, 1.0, 2.0], "delta": 10.0, "r": 0.0}, leaf_delta=40.0)
        market, tree, payoff = files
        prices = [100.0, 110.0, 90.0, 120.0, 100.0, 100.0, 80.0]
        certificate = write_json(tmp_path / "c.json", {"q_transitions": [1.0] + [0.5] * 6, "M": prices,
                                                       "alpha": [0.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0]})
        code = main(["dual-eval", "--market", market, "--tree", tree, "--certificate", certificate,
                     "--payoff", payoff])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "liquidity curve rises" in captured.err

    def test_nearly_liquidating_schedule_refused_everywhere(self, tmp_path, capsys):
        # 1e-10 shares stay open on one leaf
        market = write_json(tmp_path / "m.json",
                            {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0, "zeta0": 0.3, "xi0": 5.0})
        tree = write_json(tmp_path / "t.json", {"nodes": [
            {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
            {"id": 1, "parent": 0, "p_transition": 0.5, "P": 100.2},
            {"id": 2, "parent": 0, "p_transition": 0.5, "P": 99.8},
        ]})
        strategy = write_json(tmp_path / "s.json", {"buys": [0.5, 0.0, 0.0], "sells": [0.0, 0.5, 0.5 - 1e-10]})
        code, _ = run(capsys, "wealth", "--market", market, "--strategy", strategy, "--tree", tree,
                      "--require-liquidation")
        assert code == 1
        code = main(["shadow-check", "--market", market, "--tree", tree, "--strategy", strategy,
                     "--utility", "exp"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "liquidate" in captured.err


class TestShadowCheckReport:
    def test_no_band_martingale_reports_null_violations(self, tmp_path, capsys):
        # strong drift: no martingale fits in the band
        market = write_json(tmp_path / "m.json",
                            {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0, "zeta0": 0.5, "xi0": 5.0})
        tree = write_json(tmp_path / "t.json", {"nodes": [
            {"id": 0, "parent": -1, "p_transition": 1.0, "P": 100.0},
            {"id": 1, "parent": 0, "p_transition": 0.5, "P": 106.0},
            {"id": 2, "parent": 0, "p_transition": 0.5, "P": 107.0},
        ]})
        strategy = write_json(tmp_path / "s.json", {"buys": [0.0, 0.0, 0.0], "sells": [0.0, 0.0, 0.0]})
        code, out = run(capsys, "shadow-check", "--market", market, "--tree", tree, "--strategy", strategy,
                        "--utility", "exp")
        assert code == 0
        report = json.loads(out, parse_constant=reject_constant)
        assert report["verdict"] == "inconclusive"
        for field in ("M_hat", "martingale_defect", "band_violation", "flat_off_violation"):
            assert report[field] is None

import json

import numpy as np
import pytest

from transient_impact.cli import main

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

    def test_weak_duality_breach_exits_one(self, capsys, binary_files, monkeypatch):
        from dataclasses import replace

        from transient_impact import solver

        dual_ascent = solver.dual_ascent

        def overshooting(*args, **kwargs):
            report = dual_ascent(*args, **kwargs)
            return replace(report, dual_value=report.dual_value + 1.0)

        monkeypatch.setattr(solver, "dual_ascent", overshooting)
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


class TestCall:
    def test_reference_instance(self, tmp_path, capsys):
        market = write_json(tmp_path / "m.json", {"grid": [0.0, 1.0], "delta": 10.0, "r": 0.0})
        code, out = run(capsys, "call", "--market", market, "--p0", "100.0", "--strike", "100.0")
        assert code == 0
        report = json.loads(out)
        assert report["closed_form_price"] == pytest.approx(100.2, abs=1e-12)
        assert report["identity_holds"] is True

    def test_with_paths(self, tmp_path, capsys, market_file):
        paths = tmp_path / "p.csv"
        paths.write_text("100.0,100.0\n99.0,103.0\n", encoding="utf-8")
        code, out = run(capsys, "call", "--market", market_file, "--paths", str(paths))
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["terminal_cash"], report["terminal_price"], atol=1e-10)


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


class TestDualSearch:
    def test_default_start_improves_expectation(self, capsys, binary_files):
        market, tree, payoff = binary_files
        code, out = run(capsys, "dual-search", "--market", market, "--tree", tree, "--payoff", payoff)
        assert code == 0
        report = json.loads(out)
        assert report["dual_value"] >= 5.0 - 1e-9


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

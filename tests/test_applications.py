import numpy as np
import pytest

import transient_impact as ti
from transient_impact.errors import NonFiniteInput, NotApplicable, TerminalNotZero

from conftest import market_for_tree, random_market, random_paths, random_tree

LN2 = np.log(2.0)


class TestCallPriceFormula:
    def test_flat_book_instance(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0)
        assert ti.call_price_formula(m, 100.0) == pytest.approx(100.2, abs=1e-12)

    def test_full_initial_position_instance(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0, x0=1.0)
        assert ti.call_price_formula(m, 100.0) == pytest.approx(0.05, abs=1e-12)

    def test_spread_and_resilience_instance(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, LN2, zeta0=0.1)
        assert ti.call_price_formula(m, 100.0) == pytest.approx(100.3, abs=1e-12)

    def test_oversized_position_rejected(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0, x0=1.5)
        with pytest.raises(NotApplicable):
            ti.call_price_formula(m, 100.0)

    def test_decreasing_in_initial_position(self, rng):
        for _ in range(20):
            m0 = random_market(rng, max_steps=10, iota=0.0, x0=0.0)
            values = []
            for x0 in (0.0, 0.25, 0.5, 0.75, 1.0):
                m = ti.MarketSpec.build(m0.grid.times, m0.liquidity.delta, m0.liquidity.r,
                                        iota=0.0, zeta0=m0.impact.zeta0, x0=x0)
                values.append(ti.call_price_formula(m, 100.0))
            assert np.all(np.diff(values) < 0.0)

    def test_increasing_in_initial_spread(self, rng):
        for _ in range(20):
            m0 = random_market(rng, max_steps=10, x0=0.3)
            values = []
            for zeta0 in (0.0, 0.1, 0.2, 0.4):
                m = ti.MarketSpec.build(m0.grid.times, m0.liquidity.delta, m0.liquidity.r,
                                        iota=m0.impact.iota, zeta0=zeta0, x0=0.3)
                values.append(ti.call_price_formula(m, 100.0))
            assert np.all(np.diff(values) > 0.0)


class TestBuyAndHold:
    def test_from_flat_position(self):
        m = ti.MarketSpec.build([0.0, 0.5, 1.0], 10.0, 1.0, x0=0.0)
        s = ti.buy_and_hold(m)
        np.testing.assert_array_equal(s.buys, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(s.sells, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(ti.position_path(s), [1.0, 1.0, 0.0])

    def test_from_full_position(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, 1.0, x0=1.0)
        s = ti.buy_and_hold(m)
        assert np.all(s.buys == 0.0)
        np.testing.assert_array_equal(s.sells, [0.0, 1.0])

    def test_from_half_position(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, 1.0, x0=0.5)
        s = ti.buy_and_hold(m)
        assert s.buys[0] == 0.5 and s.sells[-1] == 1.0


class TestCallVerification:
    def test_reference_instance_terminal_price(self):
        m = ti.MarketSpec.build([0.0, 0.25, 0.5, 0.75, 1.0], 10.0, 0.0)
        P = np.array([100.0, 102.0, 95.0, 99.0, 97.3])
        v = ti.verify_call_superreplication(m, P, strike=95.0)
        assert v.price == pytest.approx(100.2, abs=1e-12)
        assert v.terminal_cash[0] == pytest.approx(97.3, abs=1e-10)
        assert v.identity_holds and v.dominates_payoff

    def test_full_position_instance(self, rng):
        m = ti.MarketSpec.build([0.0, 0.5, 1.0], 10.0, 0.3, x0=1.0)
        P = random_paths(rng, 3, n_scenarios=4, positive=True)
        v = ti.verify_call_superreplication(m, P, strike=90.0)
        np.testing.assert_allclose(v.terminal_cash, v.terminal_price, atol=1e-10)

    def test_random_markets_and_paths(self, rng):
        for _ in range(50):
            m = random_market(rng, max_steps=20, x0=float(rng.uniform(-1.0, 1.0)))
            P = random_paths(rng, m.grid.n_points, n_scenarios=3, positive=True)
            v = ti.verify_call_superreplication(m, P, strike=float(rng.uniform(0.0, 120.0)))
            assert v.identity_holds and v.dominates_payoff

    def test_strike_does_not_move_the_price(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0)
        P = np.array([100.0, 104.0])
        assert ti.verify_call_superreplication(m, P, 80.0).price == ti.verify_call_superreplication(m, P, 120.0).price

    def test_negative_path_rejected(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0)
        with pytest.raises(ValueError):
            ti.verify_call_superreplication(m, np.array([100.0, -1.0]), 0.0)


def one_step(children_P, probs=None, p0=100.0, delta=10.0, r=0.0):
    k = len(children_P)
    probs = [1.0 / k] * k if probs is None else probs
    return ti.ScenarioTree(
        times=[0.0, 1.0],
        parent=[-1] + [0] * k,
        p_transition=[1.0] + list(probs),
        P=[p0] + list(children_P),
        delta=np.full(k + 1, delta),
        r=np.full(k + 1, r),
    )


class TestBandFeasibility:
    def test_narrow_band_above_spot_infeasible(self):
        tree = one_step([104.0, 105.0])
        q = ti.NodeMeasure.reference(tree)
        result = ti.shadow_band_feasibility(tree, q, np.ones(3))
        assert not result.feasible
        assert result.empty_node == 0

    def test_wide_band_returns_projection_like_martingale(self, rng):
        tree = random_tree(rng, depth=2)
        q = ti.NodeMeasure.reference(tree)
        result = ti.shadow_band_feasibility(tree, q, np.full(tree.n_nodes, 1e3))
        assert result.feasible
        ok, _ = ti.is_martingale(tree, q, result.M)
        assert ok
        assert np.all(np.abs(tree.P - result.M) <= 1e3)

    def test_zero_band_requires_martingale_price(self, rng):
        drifting = one_step([104.0, 105.0])
        q = ti.NodeMeasure.reference(drifting)
        assert not ti.shadow_band_feasibility(drifting, q, np.zeros(3)).feasible
        balanced = random_tree(rng, depth=2, martingale=True)
        qb = ti.NodeMeasure.reference(balanced)
        result = ti.shadow_band_feasibility(balanced, qb, np.zeros(balanced.n_nodes))
        assert result.feasible
        np.testing.assert_allclose(result.M, balanced.P, atol=1e-9)

    def test_pinned_values_respected(self, rng):
        tree = random_tree(rng, depth=2, martingale=True)
        q = ti.NodeMeasure.reference(tree)
        lam = np.full(tree.n_nodes, 5.0)
        leaf = int(tree.leaves[0])
        pin = {leaf: float(tree.P[leaf] - 5.0)}
        result = ti.shadow_band_feasibility(tree, q, lam, pin=pin)
        if result.feasible:
            assert result.M[leaf] == pytest.approx(tree.P[leaf] - 5.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [[np.nan, 20.0, 20.0], [20.0, np.inf, 20.0]])
    def test_non_finite_width_rejected(self, lam):
        tree = one_step([104.0, 96.0])
        with pytest.raises(NonFiniteInput, match="band widths"):
            ti.shadow_band_feasibility(tree, ti.NodeMeasure.reference(tree), lam)

    def test_nan_pin_rejected(self):
        tree = one_step([104.0, 96.0])
        with pytest.raises(NonFiniteInput, match="pinned values"):
            ti.shadow_band_feasibility(tree, ti.NodeMeasure.reference(tree), np.full(3, 20.0), pin={1: np.nan})

    @pytest.mark.parametrize("node", [-1, 3, 1.0])
    def test_pin_on_no_node_rejected(self, node):
        # -1 would pin the last node and 3 is past the end of this 3-node tree
        tree = one_step([104.0, 96.0])
        with pytest.raises(ValueError, match="pinned node"):
            ti.shadow_band_feasibility(tree, ti.NodeMeasure.reference(tree), np.full(3, 20.0), pin={node: 80.0})


class TestUtilities:
    def test_families_are_increasing_and_concave(self):
        xs = np.linspace(0.5, 5.0, 600)
        for u in (ti.ExponentialUtility(2.0), ti.PowerUtility(0.5), ti.LogUtility()):
            vals = u.value(xs)
            assert np.all(np.diff(vals) > 0.0)
            assert np.all(np.diff(vals, 2) < 1e-12)
            num = np.gradient(vals, xs)
            np.testing.assert_allclose(num[2:-2], u.derivative(xs)[2:-2], rtol=5e-4)

    def test_factory(self):
        assert isinstance(ti.make_utility("exp", 2.0), ti.ExponentialUtility)
        assert isinstance(ti.make_utility("power", 0.7), ti.PowerUtility)
        assert isinstance(ti.make_utility("log"), ti.LogUtility)
        with pytest.raises(ValueError):
            ti.make_utility("cubic")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ti.ExponentialUtility(0.0)
        with pytest.raises(ValueError):
            ti.PowerUtility(1.5)
        with pytest.raises(ValueError):
            ti.make_utility("log", 2.0)


class TestShadowPriceCheck:
    def test_no_trading_on_martingale_price_is_optimal(self, rng):
        tree = random_tree(rng, depth=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.2, xi0=5.0)
        inp = ti.ShadowCheckInput(
            schedule=ti.TradeSchedule.zero(tree.n_nodes),
            utility=ti.ExponentialUtility(1.0),
            M_hat=tree.P.copy(),
        )
        verdict = ti.shadow_price_check(tree, market, inp)
        assert verdict.verdict == "optimal"
        assert verdict.martingale_defect <= 1e-10
        assert verdict.band_violation <= 0.0 + 1e-12

    def test_search_finds_martingale_when_none_given(self, rng):
        tree = random_tree(rng, depth=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.15, xi0=5.0)
        inp = ti.ShadowCheckInput(schedule=ti.TradeSchedule.zero(tree.n_nodes), utility=ti.LogUtility())
        verdict = ti.shadow_price_check(tree, market, inp)
        assert verdict.verdict == "optimal"
        assert verdict.M_hat is not None

    def test_strong_drift_is_inconclusive(self):
        tree = one_step([106.0, 107.0])
        market = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0, zeta0=0.5, x0=0.0, xi0=5.0)
        inp = ti.ShadowCheckInput(schedule=ti.TradeSchedule.zero(3), utility=ti.ExponentialUtility(1.0))
        verdict = ti.shadow_price_check(tree, market, inp)
        assert verdict.verdict == "inconclusive"
        assert verdict.reasons

    @pytest.mark.parametrize("M_hat", [[np.nan, np.nan, np.nan], [100.0, np.nan, 90.0]])
    def test_non_finite_martingale_rejected(self, M_hat):
        tree = one_step([106.0, 107.0])
        market = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0, zeta0=0.5, x0=0.0, xi0=5.0)
        inp = ti.ShadowCheckInput(schedule=ti.TradeSchedule.zero(3), utility=ti.ExponentialUtility(1.0),
                                  M_hat=np.array(M_hat))
        with pytest.raises(NonFiniteInput, match="M_hat"):
            ti.shadow_price_check(tree, market, inp)

    def test_requires_liquidation(self, rng):
        tree = random_tree(rng, depth=2)
        market = market_for_tree(rng, tree, x0=0.0)
        buys = np.zeros(tree.n_nodes)
        buys[0] = 1.0
        inp = ti.ShadowCheckInput(
            schedule=ti.TradeSchedule(buys, np.zeros(tree.n_nodes)), utility=ti.LogUtility()
        )
        with pytest.raises(TerminalNotZero):
            ti.shadow_price_check(tree, market, inp)

    def test_domain_violation_rejected(self, rng):
        tree = random_tree(rng, depth=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.0, xi0=-1.0)  # negative wealth
        inp = ti.ShadowCheckInput(schedule=ti.TradeSchedule.zero(tree.n_nodes), utility=ti.LogUtility())
        with pytest.raises(ValueError):
            ti.shadow_price_check(tree, market, inp)

    def test_optimal_verdict_confirmed_by_exhaustive_search(self, rng):
        from conftest import exhaustive_utility_search

        tree = random_tree(rng, depth=2, max_branch=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.1, xi0=10.0)
        utility = ti.ExponentialUtility(0.5)
        inp = ti.ShadowCheckInput(schedule=ti.TradeSchedule.zero(tree.n_nodes), utility=utility)
        verdict = ti.shadow_price_check(tree, market, inp)
        assert verdict.verdict == "optimal"
        best_other = exhaustive_utility_search(tree, market, utility, np.linspace(-1.0, 1.0, 9))
        assert best_other <= verdict.expected_utility + 1e-9 * (1.0 + abs(verdict.expected_utility))

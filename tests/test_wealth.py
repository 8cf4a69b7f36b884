import numpy as np
import pytest

import transient_impact as ti
from transient_impact.errors import TerminalNotZero
from transient_impact.wealth import tree_terminal_cash_direct

from conftest import random_market, random_paths, random_schedule, random_tree, random_tree_schedule, ref_leaf_paths

LN2 = np.log(2.0)


def round_trip(n=2, x0=0.0):
    buys = np.zeros(n)
    sells = np.zeros(n)
    buys[0] = 1.0
    sells[-1] = 1.0
    return ti.TradeSchedule(buys, sells, x0)


@pytest.fixture
def flat_market():
    # constant depth, zero resilience: the liquidity curve is flat (regularity
    # check fails, but the cash algebra is still exact)
    return ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0)


@pytest.fixture
def decaying_market():
    return ti.MarketSpec.build([0.0, 1.0], 10.0, LN2)


class TestEtaPath:
    def test_no_trades_spread_decays(self, decaying_market):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, LN2, zeta0=0.4)
        state = ti.eta_path(ti.TradeSchedule.zero(2), m)
        np.testing.assert_allclose(state.eta, [0.4, 0.4])
        np.testing.assert_allclose(state.zeta, [0.4, 0.2])

    def test_round_trip_zero_resilience(self, flat_market):
        state = ti.eta_path(round_trip(), flat_market)
        np.testing.assert_allclose(state.eta, [0.1, 0.2])

    def test_round_trip_with_resilience(self, decaying_market):
        state = ti.eta_path(round_trip(), decaying_market)
        np.testing.assert_allclose(state.eta, [0.1, 0.3])
        np.testing.assert_allclose(state.zeta_pre, [0.0, 0.05])


class TestTerminalCashDirect:
    def test_flat_round_trip_costs_spread(self, flat_market):
        cash = ti.terminal_cash_direct(round_trip(), flat_market, np.array([100.0, 100.0]))
        assert cash == pytest.approx(-0.2, abs=1e-15)

    def test_resilience_halves_second_leg(self, decaying_market):
        cash = ti.terminal_cash_direct(round_trip(), decaying_market, np.array([100.0, 100.0]))
        assert cash == pytest.approx(-0.15, abs=1e-15)

    def test_permanent_impact_cancels_on_round_trip(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0, iota=2.0)
        cash = ti.terminal_cash_direct(round_trip(), m, np.array([100.0, 100.0]))
        assert cash == pytest.approx(-0.2, abs=1e-15)

    def test_many_scenarios_at_once(self, decaying_market, rng):
        P = random_paths(rng, 2, n_scenarios=5)
        cash = ti.terminal_cash_direct(round_trip(), decaying_market, P)
        assert cash.shape == (5,)
        for i in range(5):
            assert cash[i] == pytest.approx(ti.terminal_cash_direct(round_trip(), decaying_market, P[i]))


class TestLambdaFunctional:
    def test_no_trades(self):
        m = ti.MarketSpec.build([0.0, 1.0], 10.0, LN2, zeta0=0.3, xi0=2.0, iota=1.5, x0=0.0)
        bd = ti.lambda_functional(ti.TradeSchedule.zero(2), m, np.array([100.0, 100.0]))
        assert bd.lambda_T == pytest.approx(0.5 * 0.3**2 * 10.0, abs=1e-15)
        assert bd.xi_T == pytest.approx(2.0, abs=1e-12)

    def test_round_trip_flat_curve(self, flat_market):
        bd = ti.lambda_functional(round_trip(), flat_market, np.array([100.0, 100.0]))
        assert bd.lambda_T == pytest.approx(0.2, abs=1e-15)

    def test_round_trip_decaying_curve(self, decaying_market):
        bd = ti.lambda_functional(round_trip(), decaying_market, np.array([100.0, 100.0]))
        assert bd.lambda_T == pytest.approx(0.15, abs=1e-15)
        assert bd.lambda_T == pytest.approx(bd.p_integral + bd.eta_penalty)

    def test_iota_only_moves_base_value(self, rng):
        m0 = random_market(rng, max_steps=15, iota=0.0, x0=1.3)
        m1 = ti.MarketSpec.build(
            m0.grid.times, m0.liquidity.delta, m0.liquidity.r,
            iota=2.5, zeta0=m0.impact.zeta0, x0=1.3, xi0=m0.impact.xi0,
        )
        s = random_schedule(rng, m0.grid.n_points, x0=1.3)
        P = random_paths(rng, m0.grid.n_points)
        b0 = ti.lambda_functional(s, m0, P)
        b1 = ti.lambda_functional(s, m1, P)
        assert b0.lambda_T == b1.lambda_T  # exact: iota enters only v0

    def test_unit_spread_penalty_is_half_initial_depth(self, rng):
        m = random_market(rng, max_steps=10, zeta0=1.0)
        bd = ti.lambda_functional(ti.TradeSchedule.zero(m.grid.n_points), m, random_paths(rng, m.grid.n_points))
        assert bd.eta_penalty == pytest.approx(0.5 * m.liquidity.delta[0], rel=1e-14)


class TestConsistency:
    def test_round_trip_instances(self, flat_market, decaying_market):
        P = np.array([100.0, 100.0])
        assert ti.consistency_check(round_trip(), flat_market, P) <= 1e-12
        assert ti.consistency_check(round_trip(), decaying_market, P) <= 1e-12

    def test_random_liquidating_schedules(self, rng):
        for _ in range(100):
            m = random_market(rng, max_steps=40)
            s = random_schedule(rng, m.grid.n_points, x0=m.impact.x0)
            P = random_paths(rng, m.grid.n_points, n_scenarios=3)
            gap = ti.consistency_check(s, m, P)
            bd = ti.lambda_functional(s, m, P)
            lam_mag = float(np.max(np.abs(np.atleast_1d(bd.lambda_T))))
            assert gap <= 1e-10 * (1.0 + abs(bd.v0) + lam_mag)

    def test_open_position_rejected(self, flat_market):
        s = ti.TradeSchedule(np.array([1.0, 0.0]), np.zeros(2))
        with pytest.raises(TerminalNotZero):
            ti.consistency_check(s, flat_market, np.array([100.0, 100.0]))


def time_blocks(P, rows):
    """Scenario rows ``(S, N+1)`` as an iterator of time-row blocks ``(rows, S)``, as the CSV reader yields."""
    return (np.ascontiguousarray(P.T[i : i + rows]) for i in range(0, P.shape[1], rows))


class TestPathSums:
    @pytest.mark.parametrize("rows", [1, 3, 16, 100])
    def test_block_stream_matches_the_table(self, rng, rows):
        for _ in range(20):
            m = random_market(rng, max_steps=40)
            s = random_schedule(rng, m.grid.n_points, x0=m.impact.x0)
            P = random_paths(rng, m.grid.n_points, n_scenarios=4)
            direct = ti.terminal_cash_direct(s, m, time_blocks(P, rows))
            bd = ti.lambda_functional(s, m, time_blocks(P, rows))
            want_direct, want = ti.terminal_cash_direct(s, m, P), ti.lambda_functional(s, m, P)
            tol = 1e-12 * (1.0 + np.max(np.abs(want.lambda_T)))
            np.testing.assert_allclose(direct, want_direct, rtol=0.0, atol=tol)
            np.testing.assert_allclose(bd.p_integral, want.p_integral, rtol=0.0, atol=tol)
            assert bd.eta_penalty == want.eta_penalty

    def test_one_pass_serves_both_kernels(self, rng):
        m = random_market(rng, max_steps=20)
        s = random_schedule(rng, m.grid.n_points, x0=m.impact.x0)
        P = random_paths(rng, m.grid.n_points, n_scenarios=3)
        sums = ti.path_sums(time_blocks(P, 4), s.net())
        assert sums.n_points == m.grid.n_points and not sums.was_1d
        np.testing.assert_array_equal(sums.first, P[:, 0])
        np.testing.assert_array_equal(sums.last, P[:, -1])
        assert sums.low == P.min()
        streamed = ti.terminal_cash_direct(s, m, time_blocks(P, 4))
        np.testing.assert_array_equal(ti.terminal_cash_direct(s, m, sums), streamed)
        np.testing.assert_array_equal(ti.lambda_functional(s, m, sums).p_integral, sums.p_integral)

    def test_table_is_one_block(self, rng):
        m = random_market(rng, max_steps=20)
        s = random_schedule(rng, m.grid.n_points, x0=m.impact.x0)
        P = random_paths(rng, m.grid.n_points, n_scenarios=3)
        np.testing.assert_array_equal(ti.path_sums(P, s.net()).p_integral, P @ s.net())
        one = ti.path_sums(P[1], s.net())
        assert one.was_1d and ti.lambda_functional(s, m, P[1]).p_integral == float(P[1] @ s.net())

    def test_no_scenarios_give_empty_results(self, rng):
        m = random_market(rng, max_steps=5)
        s = random_schedule(rng, m.grid.n_points, x0=m.impact.x0)
        assert ti.terminal_cash_direct(s, m, np.zeros((0, m.grid.n_points))).shape == (0,)
        assert ti.lambda_functional(s, m, np.zeros((0, m.grid.n_points))).xi_T.shape == (0,)

    def test_sums_of_other_trades_rejected(self, rng):
        m = random_market(rng, max_steps=20, min_steps=2)
        s = random_schedule(rng, m.grid.n_points, x0=m.impact.x0)
        sums = ti.path_sums(random_paths(rng, m.grid.n_points, n_scenarios=2), np.zeros(m.grid.n_points))
        with pytest.raises(ValueError, match="other trades"):
            ti.terminal_cash_direct(s, m, sums)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_row_count_off_the_grid_rejected(self, rng, extra):
        m = random_market(rng, max_steps=20, min_steps=2)
        s = random_schedule(rng, m.grid.n_points, x0=m.impact.x0)
        P = random_paths(rng, m.grid.n_points + extra, n_scenarios=2)
        for paths in (P, time_blocks(P, 3)):
            with pytest.raises(ValueError, match="grid points"):
                ti.lambda_functional(s, m, paths)


class TestTvBound:
    def test_reference_instance_is_finite(self, decaying_market):
        C, bound = ti.tv_bound(decaying_market, np.full(2, 100.0), level=1.0)
        # kappa_T = 2.5, min(rho/delta) = 0.1
        assert C == pytest.approx(2.0 / (2.5 * 0.01))
        assert np.isfinite(bound) and bound > 0.0

    def test_no_counterexample_on_trade_lattice(self, decaying_market):
        level = 1.0
        C, bound = ti.tv_bound(decaying_market, np.full(2, 100.0), level)
        P = np.full(2, 100.0)
        grid = np.arange(0.0, 3.01, 0.25)
        for b0 in grid:
            for s0 in grid:
                for b1 in grid:
                    for s1 in grid:
                        s = ti.TradeSchedule(np.array([b0, b1]), np.array([s0, s1]))
                        lam = ti.lambda_functional(s, decaying_market, P).lambda_T
                        if lam <= level**2:
                            assert ti.total_variation(s) <= bound

    def test_zero_level_allows_no_trades(self, decaying_market):
        _, bound = ti.tv_bound(decaying_market, np.full(2, 100.0), 0.0)
        assert bound >= 0.0

    def test_constant_scales_with_depth(self):
        m1 = ti.MarketSpec.build([0.0, 1.0], 10.0, LN2)
        m2 = ti.MarketSpec.build([0.0, 1.0], 20.0, LN2)
        C1, b1 = ti.tv_bound(m1, np.full(2, 100.0), 1.0)
        C2, b2 = ti.tv_bound(m2, np.full(2, 100.0), 1.0)
        assert C2 == pytest.approx(2.0 * C1)  # atom doubles, min ratio halves squared
        assert b2 > b1  # deeper book tolerates more volume


class TestConvexityGap:
    def test_identical_schedules(self, decaying_market):
        assert ti.convexity_gap(round_trip(), round_trip(), decaying_market, np.full(2, 100.0)) == 0.0

    def test_identical_wash_trades_still_zero(self, decaying_market):
        s = ti.TradeSchedule(np.array([2.0, 1.0]), np.array([0.5, 1.5]))
        assert ti.convexity_gap(s, s, decaying_market, np.full(2, 100.0)) == 0.0

    def test_opposite_round_trips_strictly_convex(self, decaying_market):
        s0 = ti.TradeSchedule(np.array([2.0, 0.0]), np.array([0.0, 2.0]))
        s1 = ti.TradeSchedule(np.array([0.0, 2.0]), np.array([2.0, 0.0]))
        gap = ti.convexity_gap(s0, s1, decaying_market, np.full(2, 100.0))
        assert gap > 0.0

    def test_midpoint_spread_below_average_spread(self, rng):
        for _ in range(25):
            m = random_market(rng, max_steps=10)
            n = m.grid.n_points
            s0 = random_schedule(rng, n, liquidating=False)
            s1 = random_schedule(rng, n, liquidating=False)
            mid = ti.normalize(ti.convex_combine(s0, s1, 0.5))
            eta_mid = ti.eta_path(mid, m).eta
            eta_avg = 0.5 * (ti.eta_path(s0, m).eta + ti.eta_path(s1, m).eta)
            assert np.all(eta_mid <= eta_avg + 1e-12)

    def test_random_pairs_nonnegative(self, rng):
        for _ in range(200):
            m = random_market(rng, max_steps=25)
            n = m.grid.n_points
            s0 = random_schedule(rng, n, x0=m.impact.x0, liquidating=False)
            s1 = random_schedule(rng, n, x0=m.impact.x0, liquidating=False)
            P = random_paths(rng, n, n_scenarios=2)
            gap = np.atleast_1d(ti.convexity_gap(s0, s1, m, P))
            assert np.all(gap >= -1e-10)


class TestQuadraticScaling:
    def test_zero_schedule_has_no_curvature(self, decaying_market):
        a, b, q = ti.quadratic_scaling(ti.TradeSchedule.zero(2), decaying_market, np.full(2, 100.0))
        assert q == 0.0

    def test_round_trip_curvature(self, decaying_market):
        a, b, q = ti.quadratic_scaling(round_trip(), decaying_market, np.full(2, 100.0))
        assert q == pytest.approx(0.15, abs=1e-15)
        assert b == pytest.approx(0.0, abs=1e-12)  # constant price, zero spread offset
        assert a == 0.0

    def test_random_schedules_fit_and_grow(self, rng):
        for _ in range(100):
            m = random_market(rng, max_steps=20)
            s = random_schedule(rng, m.grid.n_points, x0=m.impact.x0, liquidating=False)
            P = random_paths(rng, m.grid.n_points)
            a, b, q = ti.quadratic_scaling(s, m, P)
            assert q >= 0.0
            if ti.total_variation(s) > 0.0:
                assert q > 0.0
            for c in (0.0, 1.0, 2.0, 3.0):
                scaled = ti.TradeSchedule(c * s.buys, c * s.sells, s.x0)
                lam = ti.lambda_functional(scaled, m, P).lambda_T
                fit = a + b * c + q * c**2
                assert abs(lam - fit) <= 1e-9 * (1.0 + abs(lam))


class TestTreeWealth:
    def test_single_path_tree_matches_grid(self, rng):
        for _ in range(20):
            m = random_market(rng, max_steps=10)
            n = m.grid.n_points
            P = random_paths(rng, n)[0]
            tree = ti.ScenarioTree.single_path(m, P)
            s = random_schedule(rng, n, x0=m.impact.x0)
            tw = ti.tree_wealth(tree, s, m.impact)
            bd = ti.lambda_functional(s, m, P)
            assert tw.lambda_T[0] == pytest.approx(bd.lambda_T, rel=1e-12, abs=1e-12)
            assert tw.xi_T[0] == pytest.approx(bd.xi_T, rel=1e-12, abs=1e-12)

    def test_leafwise_equals_pathwise(self, rng):
        tree = random_tree(rng, depth=3, stochastic_liquidity=True)
        x0 = 0.7
        s = random_tree_schedule(rng, tree, x0=x0)
        impact = ti.ImpactParams(iota=0.4, zeta0=0.2, x0=x0, xi0=1.0)
        tw = ti.tree_wealth(tree, s, impact)
        for k, path in enumerate(ref_leaf_paths(tree)):
            m = ti.MarketSpec.build(tree.times, tree.delta[path], tree.r[path],
                                    iota=0.4, zeta0=0.2, x0=x0, xi0=1.0)
            s_path = ti.TradeSchedule(s.buys[path], s.sells[path], x0)
            bd = ti.lambda_functional(s_path, m, tree.P[path])
            assert tw.lambda_T[k] == pytest.approx(bd.lambda_T, rel=1e-12, abs=1e-12)

    def test_direct_cash_matches_decomposition_on_trees(self, rng):
        for _ in range(30):
            tree = random_tree(rng, depth=3, stochastic_liquidity=True)
            impact = ti.ImpactParams(iota=0.3, zeta0=0.1, x0=-0.5, xi0=2.0)
            s = random_tree_schedule(rng, tree, x0=-0.5)
            tw = ti.tree_wealth(tree, s, impact)
            direct = tree_terminal_cash_direct(tree, s, impact)
            scale = 1.0 + abs(tw.v0) + float(np.max(np.abs(tw.lambda_T)))
            assert np.max(np.abs(direct - tw.xi_T)) <= 1e-10 * scale

import numpy as np
import pytest

import transient_impact as ti
from transient_impact.errors import GridMismatch, NonFiniteInput

from conftest import random_schedule, random_tree, random_tree_schedule, ref_leaf_paths


def sched(buys, sells, x0=0.0):
    return ti.TradeSchedule(np.asarray(buys, float), np.asarray(sells, float), x0)


class TestTradeSchedule:
    def test_rejects_negative_quantities(self):
        with pytest.raises(ValueError):
            sched([-1.0], [0.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            sched([1.0, 0.0], [0.0])

    @pytest.mark.parametrize("buys, sells, x0", [
        ([np.nan, 0.0], [0.0, 0.0], 0.0),
        ([0.0, 0.0], [np.inf, 0.0], 0.0),
        ([0.0, 0.0], [0.0, 0.0], np.nan),
    ])
    def test_rejects_non_finite_values(self, buys, sells, x0):
        with pytest.raises(NonFiniteInput):
            ti.TradeSchedule(buys, sells, x0)


class TestPositionPath:
    def test_no_trades(self):
        assert np.all(ti.position_path(ti.TradeSchedule.zero(4, x0=3.0)) == 3.0)

    def test_round_trip(self):
        s = sched([1, 0, 0], [0, 0, 1])
        np.testing.assert_array_equal(ti.position_path(s), [1.0, 1.0, 0.0])

    def test_netting(self):
        s = sched([1, 2], [0, 3])
        np.testing.assert_array_equal(ti.position_path(s), [1.0, 0.0])

    def test_on_tree_matches_paths(self, rng):
        tree = random_tree(rng, depth=3)
        s = random_tree_schedule(rng, tree, x0=0.5)
        pos = ti.position_path(s, tree)
        for path in ref_leaf_paths(tree):
            expected = 0.5 + np.cumsum(s.net()[path])
            np.testing.assert_allclose(pos[path], expected, rtol=1e-14, atol=1e-14)


class TestNormalize:
    def test_partial_overlap(self):
        s = ti.normalize(sched([2.0], [0.5]))
        assert s.buys[0] == 1.5 and s.sells[0] == 0.0

    def test_idempotent(self):
        s = ti.normalize(sched([2.0, 0.0], [0.5, 1.0]))
        again = ti.normalize(s)
        np.testing.assert_array_equal(s.buys, again.buys)
        np.testing.assert_array_equal(s.sells, again.sells)

    def test_full_cancellation(self):
        s = ti.normalize(sched([1.0], [1.0]))
        assert s.buys[0] == 0.0 and s.sells[0] == 0.0

    def test_preserves_position_and_shrinks_volume(self, rng):
        for _ in range(50):
            s = random_schedule(rng, 12, x0=float(rng.normal()), liquidating=False)
            n = ti.normalize(s)
            np.testing.assert_array_equal(ti.position_path(n), ti.position_path(s))
            assert ti.total_variation(n) <= ti.total_variation(s) + 1e-15


class TestTotalVariation:
    def test_round_trip(self):
        assert ti.total_variation(sched([1, 0], [0, 1])) == 2.0

    def test_no_trades(self):
        assert ti.total_variation(ti.TradeSchedule.zero(3)) == 0.0

    def test_gross_sum(self):
        assert ti.total_variation(sched([1, 2], [0, 3])) == 6.0


class TestConvexCombine:
    def test_weight_one_returns_first(self):
        s0, s1 = sched([2, 0], [0, 2]), sched([0, 1], [1, 0])
        c = ti.convex_combine(s0, s1, 1.0)
        np.testing.assert_array_equal(c.buys, s0.buys)
        np.testing.assert_array_equal(c.sells, s0.sells)

    def test_self_combination_is_identity(self):
        s = sched([2, 0], [0, 2])
        c = ti.convex_combine(s, s, 0.5)
        np.testing.assert_array_equal(c.buys, s.buys)

    def test_gross_midpoint_keeps_both_legs(self):
        c = ti.convex_combine(sched([2.0], [0.0]), sched([0.0], [2.0]), 0.5)
        assert c.buys[0] == 1.0 and c.sells[0] == 1.0

    def test_mismatched_grids_rejected(self):
        with pytest.raises(GridMismatch):
            ti.convex_combine(sched([1.0], [0.0]), sched([1.0, 0.0], [0.0, 0.0]), 0.5)

    def test_position_is_convex_combination(self, rng):
        for _ in range(25):
            s0 = random_schedule(rng, 8, liquidating=False)
            s1 = random_schedule(rng, 8, liquidating=False)
            w = float(rng.random())
            c = ti.convex_combine(s0, s1, w)
            np.testing.assert_allclose(
                ti.position_path(c),
                w * ti.position_path(s0) + (1 - w) * ti.position_path(s1),
                rtol=1e-12,
                atol=1e-12,
            )


def sells_only(n, at, qty):
    sells = np.zeros(n)
    sells[at] = qty
    return ti.TradeSchedule(np.zeros(n), sells, x0=qty)


class TestCheckTerminalZero:
    def test_round_trip_liquidates(self):
        assert ti.check_terminal_zero(sched([1, 0], [0, 1]))

    def test_buy_and_never_sell(self):
        assert not ti.check_terminal_zero(sched([1, 0], [0, 0]))

    def test_initial_position_sold_at_end(self):
        assert ti.check_terminal_zero(sells_only(3, 2, 1.0))

    def test_per_scenario_on_tree(self, rng):
        tree = random_tree(rng, depth=2)
        s = random_tree_schedule(rng, tree, x0=1.0)
        assert np.all(ti.check_terminal_zero(s, tree))
        buys = s.buys.copy()
        buys[tree.leaves[0]] += 1.0
        broken = ti.TradeSchedule(buys, s.sells, s.x0)
        flags = ti.check_terminal_zero(broken, tree)
        assert not flags[0] and np.all(flags[1:])

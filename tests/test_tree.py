import numpy as np
import pytest

import transient_impact as ti
from transient_impact.errors import NoSignChange, NonFiniteInput
from transient_impact.market import EPS_MONO

from conftest import random_market, random_tree, ref_children, ref_leaf_paths


def one_step_tree(children_P, probs=None, p0=100.0, delta=10.0, r=0.0):
    k = len(children_P)
    probs = [1.0 / k] * k if probs is None else probs
    return ti.ScenarioTree(
        times=[0.0, 1.0],
        parent=[-1] + [0] * k,
        p_transition=[1.0] + list(probs),
        P=[p0] + list(children_P),
        delta=np.full(k + 1, delta),
        r=np.zeros(k + 1),
    )


class TestConstruction:
    def test_transition_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            one_step_tree([90.0, 110.0], probs=[0.4, 0.4])

    def test_ragged_leaves_rejected(self):
        with pytest.raises(ValueError, match="leaf"):
            ti.ScenarioTree(
                times=[0.0, 0.5, 1.0],
                parent=[-1, 0, 0, 1, 1],
                p_transition=[1, 0.5, 0.5, 0.5, 0.5],
                P=[100, 99, 101, 98, 100],
                delta=np.full(5, 10.0),
                r=np.zeros(5),
            )

    def test_children_before_parents_rejected(self):
        with pytest.raises(ValueError, match="level"):
            ti.ScenarioTree(
                times=[0.0, 1.0],
                parent=[-1, 2, 0],
                p_transition=[1, 1, 1],
                P=[100, 99, 101],
                delta=np.full(3, 10.0),
                r=np.zeros(3),
            )

    @pytest.mark.parametrize("field", ["p_transition", "P", "delta", "r"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_node_data_rejected(self, field, bad):
        data = dict(p_transition=[1.0, 0.5, 0.5], P=[100.0, 105.0, 95.0], delta=[10.0] * 3, r=[0.0] * 3)
        data[field][1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ti.ScenarioTree(times=[0.0, 1.0], parent=[-1, 0, 0], **data)

    def test_accumulate_walks_ancestors(self):
        tree = one_step_tree([90.0, 110.0])
        out = tree.accumulate(np.array([1.0, 2.0, 3.0]), initial=10.0)
        np.testing.assert_array_equal(out, [11.0, 13.0, 14.0])

    def test_resilience_discount_per_path(self, rng):
        tree = random_tree(rng, depth=3, stochastic_liquidity=True)
        dt = np.diff(tree.times)
        for path in ref_leaf_paths(tree):
            accum = np.concatenate([[0.0], np.cumsum(tree.r[path[:-1]] * dt)])
            np.testing.assert_allclose(tree.rho[path], np.exp(accum), rtol=1e-13)

    def test_edge_decay_check(self, rng):
        tree = random_tree(rng, depth=2)
        assert tree.decay_margin > EPS_MONO


    def test_pathwise_margin_matches_market_margin(self, rng):
        markets = [random_market(rng, max_steps=10) for _ in range(20)]
        markets.append(ti.MarketSpec.build([0, 1, 2, 3], [1.0, 2.0, 4.0, 8.0], 0.0))  # rising
        markets.append(ti.MarketSpec.build([0, 1, 2], 10.0, 0.0))  # flat
        for market in markets:
            tree = ti.ScenarioTree.single_path(market, 100.0)
            expected = ti.validate_assumptions(market.grid, market.liquidity).kappa_relative_margin
            assert tree.decay_margin == pytest.approx(expected, rel=1e-12)


class TestNodeMeasure:
    def test_requires_simplex(self):
        tree = one_step_tree([90.0, 110.0])
        with pytest.raises(ValueError, match="sum"):
            ti.NodeMeasure.for_tree(tree, [1.0, 0.3, 0.3])

    def test_rejects_mass_on_null_branch(self):
        tree = one_step_tree([90.0, 105.0, 120.0], probs=[0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="zero reference"):
            ti.NodeMeasure.for_tree(tree, [1.0, 0.5, 0.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_transitions_rejected(self, bad):
        tree = one_step_tree([90.0, 110.0])
        with pytest.raises(ValueError, match="finite"):
            ti.NodeMeasure.for_tree(tree, [1.0, bad, 0.5])

    def test_zero_mass_on_positive_branch_accepted(self):
        tree = one_step_tree([90.0, 105.0, 120.0])
        q = ti.NodeMeasure.for_tree(tree, [1.0, 0.5, 0.0, 0.5])
        np.testing.assert_array_equal(q.transitions[1:], [0.5, 0.0, 0.5])


class TestConditionalExpectation:
    def test_constant_leaves(self, rng):
        tree = random_tree(rng, depth=3)
        values = ti.conditional_expectation(tree, ti.NodeMeasure.reference(tree), np.full(tree.leaves.size, 7.0))
        np.testing.assert_allclose(values, 7.0)

    def test_one_period_mean(self):
        tree = one_step_tree([90.0, 120.0])
        q = ti.NodeMeasure.for_tree(tree, [1.0, 2.0 / 3.0, 1.0 / 3.0])
        values = ti.conditional_expectation(tree, q, tree.P[tree.leaves])
        assert values[0] == pytest.approx(100.0, abs=1e-13)

    def test_indicator_gives_conditional_probabilities(self, rng):
        tree = random_tree(rng, depth=2)
        target = tree.leaves[-1]
        indicator = np.zeros(tree.leaves.size)
        indicator[-1] = 1.0
        values = ti.conditional_expectation(tree, ti.NodeMeasure.reference(tree), indicator)
        reach = tree.reach_probabilities()
        path = set(ref_leaf_paths(tree)[-1])
        for node in range(tree.n_nodes):
            expected = reach[target] / reach[node] if node in path else 0.0
            assert values[node] == pytest.approx(expected, abs=1e-12)

    def test_tower_property(self, rng):
        tree = random_tree(rng, depth=4)
        q = ti.NodeMeasure.reference(tree)
        leaf_values = rng.normal(0.0, 5.0, tree.leaves.size)
        direct = ti.conditional_expectation(tree, q, leaf_values)
        # project to an intermediate level, then restart the recursion from there
        staged = ti.conditional_expectation(tree, q, direct)
        np.testing.assert_allclose(staged, direct, rtol=1e-13, atol=1e-13)
        children = ref_children(tree)
        for node in np.flatnonzero(~tree.is_leaf):
            kids = children[node]
            assert direct[node] == pytest.approx(float(np.dot(q.transitions[kids], direct[kids])), abs=1e-12)


class TestMartingaleProjection:
    def test_projection_is_martingale(self, rng):
        tree = random_tree(rng, depth=3)
        q = ti.NodeMeasure.reference(tree)
        M = ti.conditional_expectation(tree, q, rng.normal(100.0, 10.0, tree.leaves.size))
        ok, defect = ti.is_martingale(tree, q, M)
        assert ok and defect <= 1e-12 * 101.0

    def test_risk_neutral_price_projects_to_itself(self, rng):
        tree = random_tree(rng, depth=3, martingale=True)
        q = ti.NodeMeasure.reference(tree)
        M = ti.conditional_expectation(tree, q, tree.P[tree.leaves])
        np.testing.assert_allclose(M, tree.P, rtol=1e-12)

    def test_constant_terminal_value(self, rng):
        tree = random_tree(rng, depth=2)
        M = ti.conditional_expectation(tree, ti.NodeMeasure.reference(tree), np.full(tree.leaves.size, 5.0))
        np.testing.assert_allclose(M, 5.0)

    def test_drift_detected(self):
        tree = one_step_tree([90.0, 120.0])  # equal weights: mean 105 != 100
        ok, defect = ti.is_martingale(tree, ti.NodeMeasure.reference(tree), tree.P)
        assert not ok
        assert defect == pytest.approx(5.0)


class TestTilt:
    def test_three_child_example(self):
        tree = one_step_tree([90.0, 105.0, 120.0], probs=[1 / 3, 1 / 3, 1 / 3])
        res = ti.tilt_to_martingale(tree, np.zeros(2), eps=1e-3)
        np.testing.assert_allclose(res.measure.transitions[1:], [2 / 3, 0.0, 1 / 3], atol=1e-15)
        assert res.martingale[0] == pytest.approx(100.0, abs=1e-12)
        assert res.max_abs_gap <= 1e-12

    def test_three_child_example_with_offset(self):
        tree = one_step_tree([90.0, 105.0, 120.0], probs=[1 / 3, 1 / 3, 1 / 3])
        res = ti.tilt_to_martingale(tree, np.array([1.0, 0.0]), eps=1e-3)
        np.testing.assert_allclose(res.measure.transitions[1:], [19 / 30, 0.0, 11 / 30], atol=1e-15)
        assert res.martingale[0] == pytest.approx(101.0, abs=1e-12)
        assert res.max_abs_gap <= 1e-12

    def test_no_sign_change_detected(self):
        tree = one_step_tree([105.0, 120.0])
        with pytest.raises(NoSignChange):
            ti.tilt_to_martingale(tree, np.array([1.0, 0.0]), eps=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_offset_rejected(self, bad):
        tree = one_step_tree([90.0, 120.0])
        with pytest.raises(NonFiniteInput, match="g must be finite"):
            ti.tilt_to_martingale(tree, np.array([bad, bad]), eps=1e-3)

    def test_increasing_offset_rejected(self):
        tree = one_step_tree([90.0, 120.0])
        with pytest.raises(ValueError, match="non-increasing"):
            ti.tilt_to_martingale(tree, np.array([0.0, 1.0]), eps=1e-3)

    def test_tie_break_prefers_lowest_node_id(self):
        tree = one_step_tree([90.0, 90.0, 120.0, 120.0])
        res = ti.tilt_to_martingale(tree, np.zeros(2), eps=1e-3)
        q = res.measure.transitions[1:]
        assert q[0] == pytest.approx(2 / 3) and q[1] == 0.0
        assert q[2] == pytest.approx(1 / 3) and q[3] == 0.0

    def test_null_branches_get_no_mass(self):
        tree = one_step_tree([80.0, 90.0, 120.0, 130.0], probs=[0.0, 0.5, 0.5, 0.0])
        res = ti.tilt_to_martingale(tree, np.zeros(2), eps=1e-3)
        q = res.measure.transitions[1:]
        assert q[0] == 0.0 and q[3] == 0.0
        assert res.max_abs_gap <= 1e-12

    def test_random_trees_exact(self, rng):
        from conftest import sign_change_tree, random_nonincreasing_offset

        for _ in range(50):
            depth = int(rng.integers(1, 5))
            g = random_nonincreasing_offset(rng, depth + 1)
            tree = sign_change_tree(rng, depth, g)
            res = ti.tilt_to_martingale(tree, g, eps=1.0)
            assert res.max_abs_gap <= 1e-10
            ok, _ = ti.is_martingale(tree, res.measure, res.martingale)
            assert ok
            assert 0.0 <= res.tail_probability <= 1.0
            # absolutely continuous: no mass where the reference has none
            assert np.all(res.measure.transitions[tree.p_transition == 0.0] == 0.0)


class TestTailProbability:
    def test_above_all_leaves(self):
        tree = one_step_tree([90.0, 120.0])
        assert ti.q_tail_probability(tree, ti.NodeMeasure.reference(tree), 130.0) == 0.0

    def test_below_all_leaves(self):
        tree = one_step_tree([90.0, 120.0])
        assert ti.q_tail_probability(tree, ti.NodeMeasure.reference(tree), 80.0) == 1.0

    def test_mixed(self):
        tree = one_step_tree([90.0, 120.0])
        q = ti.NodeMeasure.for_tree(tree, [1.0, 2 / 3, 1 / 3])
        assert ti.q_tail_probability(tree, q, 100.0) == pytest.approx(1 / 3)

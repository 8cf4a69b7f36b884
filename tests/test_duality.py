import numpy as np
import pytest

import transient_impact as ti
from transient_impact.errors import InfeasibleCertificate, SuperReplicationViolated, TerminalNotZero

from conftest import (
    market_for_tree,
    random_certificate,
    random_tree,
    random_tree_schedule,
    super_replication_cash,
)

LN2 = np.log(2.0)


def chain_market(delta=10.0, r=0.0, **impact):
    return ti.MarketSpec.build([0.0, 1.0], delta, r, **impact)


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


def flat_alpha_cert(tree, level, M=None):
    q = tree.p_transition
    M = tree.P.copy() if M is None else M
    return ti.DualCertificate(q=q, M=M, alpha=np.full(tree.n_nodes, level))


def decreasing_depth_tree(rng, depth=3, max_branch=3):
    """Zero resilience, deterministic non-increasing depth per level."""
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.6, depth))])
    deltas = rng.uniform(3.0, 20.0) * np.concatenate([[1.0], np.cumprod(rng.uniform(0.6, 1.0, depth))])
    nodes = [dict(parent=-1, p_transition=1.0, P=100.0)]
    level = [0]
    for _ in range(depth):
        new = []
        for par in level:
            k = int(rng.integers(2, max_branch + 1))
            probs = rng.dirichlet(np.ones(k))
            for j in range(k):
                nodes.append(dict(parent=par, p_transition=float(probs[j]), P=float(nodes[par]["P"] + rng.normal(0, 3))))
                new.append(len(nodes) - 1)
        level = new
    return ti.ScenarioTree.from_node_dicts(times, nodes, default_delta=deltas, default_r=0.0)


@pytest.mark.parametrize("q, M, alpha", [
    pytest.param([1.0, 0.5, 0.5], [100.0, 110.0, 90.0], 0.1, id="scalar alpha"),
    pytest.param([1.0, 0.5, 0.5], [100.0, 110.0], [0.1, 0.1, 0.1], id="short M"),
    pytest.param(1.0, 100.0, 0.1, id="all scalars"),
])
def test_a_certificate_is_three_node_arrays(q, M, alpha):
    with pytest.raises(ValueError, match="one value per node each"):
        ti.DualCertificate(q, M, alpha)


class TestConstraintBound:
    def test_flat_spread_telescopes_without_resilience(self, rng):
        for _ in range(30):
            tree = decreasing_depth_tree(rng)
            market = market_for_tree(rng, tree)
            lam = float(rng.uniform(0.05, 2.0))
            B = ti.constraint_bound(tree, tree.p_transition, np.full(tree.n_nodes, lam))
            assert np.max(np.abs(B - lam)) <= 1e-12 * (1.0 + lam)

    def test_zero_spread_gives_zero_bound(self, rng):
        tree = random_tree(rng, depth=2)
        B = ti.constraint_bound(tree, tree.p_transition, np.zeros(tree.n_nodes))
        np.testing.assert_array_equal(B, np.zeros(tree.n_nodes))

    def test_one_step_hand_values(self):
        tree = one_step([110.0, 90.0], delta=10.0, r=LN2)
        cert = flat_alpha_cert(tree, 0.1)
        B = ti.constraint_bound(tree, cert.q, cert.alpha)
        # interval mass 7.5 and atom 2.5, all against spread 0.1
        assert B[0] == pytest.approx(0.1, abs=1e-15)
        np.testing.assert_allclose(B[1:], 0.05, rtol=1e-14)  # = alpha / rho_T

    def test_monotone_in_spread_process(self, rng):
        for _ in range(20):
            tree = random_tree(rng, depth=2, stochastic_liquidity=True)
            market = market_for_tree(rng, tree)
            alpha = rng.uniform(0.0, 1.0, tree.n_nodes)
            bigger = alpha + rng.uniform(0.0, 0.5, tree.n_nodes)
            q = tree.p_transition
            B0 = ti.constraint_bound(tree, q, alpha)
            B1 = ti.constraint_bound(tree, q, bigger)
            assert np.all(B1 >= B0 - 1e-14)


class TestFeasibility:
    def test_price_itself_with_zero_band(self, rng):
        tree = random_tree(rng, depth=2, martingale=True)
        report = ti.check_feasibility(tree, flat_alpha_cert(tree, 0.0))
        assert report.feasible

    def test_fixed_spread_band_built_by_construction(self, rng):
        tree = decreasing_depth_tree(rng)
        lam = 5.0  # wide enough for the +-3 price moves used by the generator
        M = ti.conditional_expectation(tree, tree.p_transition, tree.P[tree.leaves])
        report = ti.check_feasibility(tree, flat_alpha_cert(tree, lam, M=M))
        assert report.feasible

    def test_violation_reported_at_worst_node(self):
        tree = one_step([110.0, 90.0])
        cert = ti.DualCertificate(tree.p_transition, np.zeros(3), np.zeros(3))
        report = ti.check_feasibility(tree, cert)
        assert not report.feasible
        assert report.worst_violation == pytest.approx(110.0)
        assert report.worst_node == 1

    def test_worst_node_ignores_rounding_ties(self):
        # M = P - B touches the band at every node, so each violation is a rounding-level zero and
        # the argmax among them moves with a few ulps of M; the lowest node within tolerance does not
        from test_solver import binomial_ladder

        tree, _, _ = binomial_ladder(2)
        cert = flat_alpha_cert(tree, 1.0)
        touching = tree.P - ti.constraint_bound(tree, cert.q, cert.alpha)
        rng = np.random.default_rng(5)
        named = set()
        for _ in range(20):
            M = touching + rng.integers(-4, 5, tree.n_nodes) * np.spacing(touching)
            report = ti.check_feasibility(tree, flat_alpha_cert(tree, 1.0, M=M))
            assert report.feasible
            assert report.worst_violation == np.max(np.abs(tree.P - M) - report.bound)
            named.add(report.worst_node)
        assert named == {0}

    def test_restore_feasibility_always_succeeds(self, rng):
        for _ in range(30):
            tree = random_tree(rng, depth=3, stochastic_liquidity=True)
            market = market_for_tree(rng, tree)
            cert = ti.DualCertificate(
                tree.p_transition,
                ti.conditional_expectation(tree, tree.p_transition, rng.normal(90, 15, tree.leaves.size)),
                rng.uniform(0.0, 0.2, tree.n_nodes),
            )
            repaired = ti.restore_feasibility(tree, cert, market)
            assert ti.check_feasibility(tree, repaired).feasible


class TestDualObjective:
    def test_plain_expectation(self):
        tree = one_step([110.0, 90.0])
        market = chain_market(zeta0=0.0, x0=0.0, iota=0.0)
        cert = flat_alpha_cert(tree, 0.0)
        assert ti.dual_objective(tree, cert, market, np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_position_value_subtracted(self):
        tree = one_step([110.0, 90.0])
        market = chain_market(x0=2.0, iota=1.0)
        M = np.array([100.0, 110.0, 90.0])
        cert = flat_alpha_cert(tree, 0.0, M=M)
        value = ti.dual_objective(tree, cert, market, np.zeros(2))
        assert value == pytest.approx(-202.0)

    def test_constant_spread_penalty_uses_initial_depth(self):
        tree = one_step([110.0, 90.0], r=LN2)
        market = chain_market(r=LN2, zeta0=0.3)
        cert = flat_alpha_cert(tree, 0.4)
        value = ti.dual_objective(tree, cert, market, np.zeros(2))
        assert value == pytest.approx(-0.5 * 0.01 * 10.0)

    def test_negative_payoff_rejected(self):
        tree = one_step([110.0, 90.0])
        with pytest.raises(ValueError):
            ti.dual_objective(tree, flat_alpha_cert(tree, 0.0), chain_market(), np.array([-1.0, 0.0]))


class TestWeakDuality:
    def test_do_nothing_schedule_with_trivial_certificate(self, rng):
        tree = random_tree(rng, depth=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.1)
        schedule = ti.TradeSchedule.zero(tree.n_nodes, x0=0.0)
        cert = flat_alpha_cert(tree, 0.1)
        report = ti.weak_duality_check(tree, market, schedule, 0.0, cert, np.zeros(tree.leaves.size))
        assert report.margin >= 0.0

    def test_random_pairs_margin_and_decomposition(self, rng):
        for _ in range(200):
            tree = random_tree(rng, depth=int(rng.integers(1, 4)), stochastic_liquidity=bool(rng.random() < 0.5))
            market = market_for_tree(rng, tree)
            schedule = random_tree_schedule(rng, tree, x0=market.impact.x0)
            H = rng.uniform(0.0, 5.0, tree.leaves.size)
            xi0 = super_replication_cash(tree, market, schedule, H)
            cert = random_certificate(rng, tree, market)
            report = ti.weak_duality_check(tree, market, schedule, xi0, cert, H)
            scale = 1.0 + abs(xi0) + abs(report.dual_value)
            assert report.margin >= -1e-9 * scale
            assert abs(report.decomposition_residual) <= 1e-9 * scale
            for slack in (
                report.slack_super_replication,
                report.slack_trade_sign,
                report.slack_band,
                report.slack_quadratic,
            ):
                assert slack >= -1e-9 * scale

    def test_underfunded_schedule_rejected(self, rng):
        tree = random_tree(rng, depth=2)
        market = market_for_tree(rng, tree)
        schedule = random_tree_schedule(rng, tree, x0=market.impact.x0)
        H = rng.uniform(1.0, 4.0, tree.leaves.size)
        xi0 = super_replication_cash(tree, market, schedule, H) - 1.0
        cert = random_certificate(rng, tree, market)
        with pytest.raises(SuperReplicationViolated):
            ti.weak_duality_check(tree, market, schedule, xi0, cert, H)

    def test_infeasible_certificate_rejected(self, rng):
        tree = random_tree(rng, depth=2)
        market = market_for_tree(rng, tree, zeta0=0.0)
        schedule = random_tree_schedule(rng, tree, x0=market.impact.x0)
        H = np.zeros(tree.leaves.size)
        xi0 = super_replication_cash(tree, market, schedule, H)
        bad = ti.DualCertificate(tree.p_transition, np.zeros(tree.n_nodes), np.zeros(tree.n_nodes))
        with pytest.raises(InfeasibleCertificate):
            ti.weak_duality_check(tree, market, schedule, xi0, bad, H)

    def test_open_position_rejected_by_the_liquidation_rule(self):
        # 1e-10 shares stay open on one leaf, which check_terminal_zero refuses
        tree = one_step([110.0, 90.0])
        market = chain_market()
        schedule = ti.TradeSchedule([0.5, 0.0, 0.0], [0.0, 0.5, 0.5 - 1e-10])
        assert not np.all(ti.check_terminal_zero(schedule, tree))
        cert = ti.default_certificate(tree, market)
        with pytest.raises(TerminalNotZero):
            ti.weak_duality_check(tree, market, schedule, 100.0, cert, np.zeros(2))

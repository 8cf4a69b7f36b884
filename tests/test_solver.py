from dataclasses import replace

import numpy as np
import pytest

import transient_impact as ti
from transient_impact import duality
from transient_impact.errors import (
    InfeasibleCertificate,
    MonotonicityViolation,
    NonFiniteInput,
    SuperReplicationViolated,
)

from conftest import OracleTooLarge, brute_force_oracle, market_for_tree, random_tree, random_tree_schedule


def binary_instance():
    market = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0)
    tree = ti.ScenarioTree(
        times=[0.0, 1.0],
        parent=[-1, 0, 0],
        p_transition=[1.0, 0.5, 0.5],
        P=[100.0, 110.0, 90.0],
        delta=np.full(3, 10.0),
        r=np.zeros(3),
    )
    return tree, market, np.array([10.0, 0.0])


def rising_instance():
    """Two-period binary tree whose depth jumps from 10 to 40 at the last step (r = 0): kappa rises."""
    market = ti.MarketSpec.build([0.0, 1.0, 2.0], 10.0, 0.0)
    tree = ti.ScenarioTree(
        times=[0.0, 1.0, 2.0],
        parent=[-1, 0, 0, 1, 1, 2, 2],
        p_transition=[1.0] + [0.5] * 6,
        P=[100.0, 110.0, 90.0, 120.0, 100.0, 100.0, 80.0],
        delta=[10.0, 10.0, 10.0, 40.0, 40.0, 40.0, 40.0],
        r=np.zeros(7),
    )
    return tree, market, np.maximum(tree.P[tree.leaves] - 100.0, 0.0)


def null_branch_instance():
    """The binary instance's tree and market with the down branch at probability 0."""
    tree = ti.ScenarioTree([0.0, 1.0], [-1, 0, 0], [1.0, 1.0, 0.0], [100.0, 110.0, 90.0], np.full(3, 10.0), np.zeros(3))
    return tree, ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0)


def slack_leaf_instance(last_price):
    """Two-period tree whose third root branch (node 3, then leaf 8 at ``last_price``) has probability 0.

    Depth 10, r 0.5, ``zeta0`` 0.1 and ``x0`` 0.5.
    """
    times = [0.0, 0.5, 1.0]
    tree = ti.ScenarioTree(times, [-1, 0, 0, 0, 1, 1, 2, 2, 3], [1.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5, 1.0],
                           [100.0, 110.0, 90.0, 95.0, 120.0, 100.0, 100.0, 80.0, last_price],
                           np.full(9, 10.0), np.full(9, 0.5))
    return tree, ti.MarketSpec.build(times, 10.0, 0.5, zeta0=0.1, x0=0.5)


def single_scenario(P_values, delta=10.0, r=0.5):
    times = np.linspace(0.0, 1.0, len(P_values))
    market = ti.MarketSpec.build(times, delta, r)
    tree = ti.ScenarioTree.single_path(market, np.asarray(P_values, dtype=float))
    return tree, market


class TestPrimalSolve:
    def test_zero_payoff_needs_no_cash(self):
        tree, market = single_scenario([100.0, 100.0, 100.0])
        report = ti.primal_solve(tree, market, np.zeros(1))
        assert report.primal_value == pytest.approx(0.0, abs=1e-9)
        assert np.all(report.strategy.gross() <= 1e-6)

    def test_constant_payoff_costs_itself(self):
        tree, market = single_scenario([100.0, 100.0])
        report = ti.primal_solve(tree, market, np.ones(1))
        assert report.primal_value == pytest.approx(1.0, abs=1e-8)
        oracle = brute_force_oracle(tree, market, np.ones(1), np.linspace(-1, 1, 41))
        assert report.primal_value <= oracle + 1e-9

    def test_binary_reference_instance(self):
        tree, market, H = binary_instance()
        report = ti.primal_solve(tree, market, H)
        assert report.primal_value == pytest.approx(5.05, abs=1e-4)
        assert report.primal_converged
        # optimizer buys half a unit up front and closes at the leaves
        assert report.strategy.buys[0] == pytest.approx(0.5, abs=1e-3)
        np.testing.assert_allclose(report.strategy.sells[1:], 0.5, atol=1e-3)

    def test_monotone_in_payoff(self, rng):
        tree = random_tree(rng, depth=2)
        market = market_for_tree(rng, tree, x0=0.0)
        H = rng.uniform(0.0, 3.0, tree.leaves.size)
        bigger = H + rng.uniform(0.0, 2.0, tree.leaves.size)
        v0 = ti.primal_solve(tree, market, H).primal_value
        v1 = ti.primal_solve(tree, market, bigger).primal_value
        assert v1 >= v0 - 1e-6

    def test_constant_shift_moves_value_by_itself(self, rng):
        tree = random_tree(rng, depth=2)
        market = market_for_tree(rng, tree)
        H = rng.uniform(0.0, 3.0, tree.leaves.size)
        c = 2.5
        v0 = ti.primal_solve(tree, market, H).primal_value
        v1 = ti.primal_solve(tree, market, H + c).primal_value
        assert v1 - v0 == pytest.approx(c, abs=1e-6)

    def test_value_is_sufficient_cash(self, rng):
        # the reported value funds the reported schedule on every leaf
        for _ in range(10):
            tree = random_tree(rng, depth=2)
            market = market_for_tree(rng, tree)
            H = rng.uniform(0.0, 4.0, tree.leaves.size)
            report = ti.primal_solve(tree, market, H)
            from dataclasses import replace

            tw = ti.tree_wealth(tree, report.strategy, replace(market.impact, xi0=report.primal_value))
            assert np.min(tw.xi_T - H) >= -1e-8 * (1.0 + abs(report.primal_value))

    @pytest.mark.parametrize("budget", [-1, 0, 1])
    def test_spent_newton_budget_still_gives_exact_cash(self, budget):
        from dataclasses import replace

        tree, market, H = binary_instance()
        report = ti.primal_solve(tree, market, H, ti.SolverOptions(max_iter=budget))
        assert not report.primal_converged
        assert report.iterations == max(budget, 0)
        assert report.stop_reason == "budget"
        tw = ti.tree_wealth(tree, report.strategy, replace(market.impact, xi0=report.primal_value))
        assert np.min(tw.xi_T - H) >= -1e-9 * (1.0 + abs(report.primal_value))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # 0, -1 and nan could never be met (15 steps, unconverged at a closed gap); inf took 0 steps
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ti.SolverOptions(tol=tol)

    def test_deterministic(self):
        tree, market, H = binary_instance()
        r1 = ti.primal_solve(tree, market, H)
        r2 = ti.primal_solve(tree, market, H)
        assert r1.primal_value == r2.primal_value
        np.testing.assert_array_equal(r1.strategy.buys, r2.strategy.buys)


class TestBruteForceOracle:
    def test_binary_reference_instance(self):
        tree, market, H = binary_instance()
        value = brute_force_oracle(tree, market, H, np.arange(0.0, 1.0001, 0.01))
        assert value == pytest.approx(5.05, abs=0.005)

    def test_zero_payoff(self):
        tree, market = single_scenario([100.0, 100.0])
        assert brute_force_oracle(tree, market, np.zeros(1), np.linspace(-1, 1, 21)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_payoff(self):
        tree, market = single_scenario([100.0, 100.0])
        value = brute_force_oracle(tree, market, np.ones(1), np.linspace(-1, 1, 21))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_size_guards(self, rng):
        tree = random_tree(rng, depth=4, max_branch=2)
        market = market_for_tree(rng, tree)
        with pytest.raises(OracleTooLarge):
            brute_force_oracle(tree, market, np.zeros(tree.leaves.size), np.linspace(-1, 1, 5))
        small = random_tree(rng, depth=2, max_branch=2)
        with pytest.raises(OracleTooLarge):
            brute_force_oracle(small, market_for_tree(rng, small), np.zeros(small.leaves.size), np.linspace(-1, 1, 1001))

    def test_null_branch_constrains_nothing(self):
        # the null leaf pays 50 and is not dominated: as in the primal, only the sure move to 110 is priced
        tree, market = null_branch_instance()
        value = brute_force_oracle(tree, market, [0.0, 50.0], np.arange(0.0, 40.0, 0.05))
        primal = ti.primal_solve(tree, market, [0.0, 50.0]).primal_value
        assert primal <= value + 1e-9 and value - primal <= 1e-2 * (1.0 + abs(primal))

    def test_primal_close_to_oracle_on_random_instances(self, rng):
        # martingale prices keep the optimal trades hedge-sized, so a modest
        # lattice brackets the optimum
        for _ in range(4):
            tree = random_tree(rng, depth=2, max_branch=2, vol=2.0, martingale=True)
            market = market_for_tree(rng, tree, x0=0.0, zeta0=0.05)
            H = np.maximum(tree.P[tree.leaves] - 100.0, 0.0)
            step = 0.02
            grid = np.arange(-2.0, 2.0001, step)
            oracle = brute_force_oracle(tree, market, H, grid)
            primal = ti.primal_solve(tree, market, H).primal_value
            scale = 1.0 + abs(oracle)
            assert primal <= oracle + 5e-3 * scale  # solver not worse than the lattice
            assert abs(primal - oracle) <= 2e-2 * scale  # lattice resolution slack


class TestDualAscent:
    def test_binary_instance_improves_from_plain_expectation(self):
        tree, market, H = binary_instance()
        init = ti.DualCertificate(
            tree.measure([1.0, 0.5, 0.5]), tree.P.copy(), np.zeros(3)
        )
        report = ti.dual_ascent(tree, market, H, init)
        assert report.dual_value >= 5.0
        assert ti.check_feasibility(tree, report.certificate).feasible

    def test_zero_payoff_zero_position_caps_at_zero(self, rng):
        tree = random_tree(rng, depth=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.2)
        init = ti.default_certificate(tree, market)
        report = ti.dual_ascent(tree, market, np.zeros(tree.leaves.size), init)
        assert report.dual_value == pytest.approx(0.0, abs=1e-10)

    def test_fixed_spread_instance_monotone_from_init(self, rng):
        # zero resilience, non-increasing depth, price already a martingale
        times = [0.0, 0.5, 1.0]
        nodes = [dict(parent=-1, p_transition=1.0, P=100.0)]
        for par, probs in ((0, (0.5, 0.5)),):
            nodes.append(dict(parent=par, p_transition=0.5, P=104.0))
            nodes.append(dict(parent=par, p_transition=0.5, P=96.0))
        nodes.append(dict(parent=1, p_transition=0.5, P=108.0))
        nodes.append(dict(parent=1, p_transition=0.5, P=100.0))
        nodes.append(dict(parent=2, p_transition=0.5, P=100.0))
        nodes.append(dict(parent=2, p_transition=0.5, P=92.0))
        tree = ti.ScenarioTree.from_node_dicts(times, nodes, default_delta=[10.0, 8.0, 6.0], default_r=0.0)
        lam = 0.25
        market = ti.MarketSpec.build(times, [10.0, 8.0, 6.0], 0.0, zeta0=lam, x0=0.0)
        H = np.abs(tree.P[tree.leaves] - 100.0)
        init = ti.DualCertificate(tree.p_transition, tree.P.copy(), np.full(tree.n_nodes, lam))
        init_value = ti.dual_objective(tree, init, market, H)
        assert init_value == pytest.approx(float(np.dot([0.25, 0.25, 0.25, 0.25], H)))
        report = ti.dual_ascent(tree, market, H, init)
        assert report.dual_value >= init_value - 1e-12

    def test_infeasible_init_rejected(self):
        tree, market, H = binary_instance()
        bad = ti.DualCertificate(tree.measure([1.0, 0.5, 0.5]), np.zeros(3), np.zeros(3))
        with pytest.raises(InfeasibleCertificate):
            ti.dual_ascent(tree, market, H, bad)

    def test_rising_liquidity_curve_refused(self):
        tree, market, H = rising_instance()
        assert tree.decay_margin < 0.0
        init = ti.default_certificate(tree, market)
        with pytest.raises(MonotonicityViolation, match="rises"):
            ti.dual_ascent(tree, market, H, init, ti.SolverOptions(max_iter=5))

    def test_deterministic(self):
        tree, market, H = binary_instance()
        init = ti.default_certificate(tree, market)
        r1 = ti.dual_ascent(tree, market, H, init)
        r2 = ti.dual_ascent(tree, market, H, init)
        assert r1.dual_value == r2.dual_value


class TestGivenCertificate:
    @staticmethod
    def refuse_the_primal(monkeypatch):
        from transient_impact import solver

        def refuse(*args, **kwargs):
            raise AssertionError("primal solved")

        monkeypatch.setattr(solver, "_interior_point", refuse)

    def test_infeasible_one_is_refused_before_the_primal(self, monkeypatch):
        self.refuse_the_primal(monkeypatch)
        tree, market, H = binary_instance()
        bad = ti.DualCertificate(tree.measure([1.0, 0.5, 0.5]), np.zeros(3), np.zeros(3))
        with pytest.raises(InfeasibleCertificate):
            ti.gap_report(tree, market, H, certificate=bad)

    def test_a_drifting_martingale_is_refused_before_the_primal(self, monkeypatch):
        # inside its band, but M is no martingale under q, so its value bounds nothing
        tree, market, H = binomial_ladder(2)
        solved = ti.gap_report(tree, market, H).certificate
        alpha, M = solved.alpha.copy(), solved.M.copy()
        alpha[tree.leaves] += 0.01
        M[tree.leaves[0]] += 0.005
        drifting = ti.DualCertificate(solved.q, M, alpha)
        assert ti.check_feasibility(tree, drifting).feasible
        assert ti.is_martingale(tree, drifting.q, drifting.M)[1] == pytest.approx(2.668e-3, rel=1e-3)
        self.refuse_the_primal(monkeypatch)
        with pytest.raises(InfeasibleCertificate, match="drift 2.668e-03"):
            ti.gap_report(tree, market, H, ti.SolverOptions(max_iter=0), certificate=drifting)

    def test_a_measure_on_a_null_branch_is_refused_before_the_primal(self, monkeypatch):
        tree, market = null_branch_instance()
        cert = ti.DualCertificate(np.array([1.0, 0.0, 1.0]), np.full(3, 100.0), np.full(3, 10.0))
        self.refuse_the_primal(monkeypatch)
        with pytest.raises(ValueError, match="zero reference probability"):
            ti.gap_report(tree, market, [0.0, 50.0], certificate=cert)

    def test_check_certificate_reports_a_measure_on_a_null_branch(self):
        # M is a martingale under q and inside its band: the measure alone makes it no certificate
        tree, _ = null_branch_instance()
        cert = ti.DualCertificate(np.array([1.0, 0.0, 1.0]), np.full(3, 100.0), np.full(3, 10.0))
        check = duality.check_certificate(tree, cert)
        assert check.measure == "measure puts mass on a branch with zero reference probability"
        assert check.martingale and check.band.feasible
        assert not check.valid

    def test_a_tie_keeps_the_certificate_read_off_the_primal(self):
        tree, market, H = binomial_ladder(2)
        read_off = ti.gap_report(tree, market, H)
        given = ti.DualCertificate(read_off.certificate.q, read_off.certificate.M + 0.0, read_off.certificate.alpha)
        report = ti.gap_report(tree, market, H, certificate=given)
        assert report.certificate is not given
        assert report.dual_value == read_off.dual_value

    def test_a_strictly_better_one_is_kept_and_certifies_the_primal(self, monkeypatch):
        # with the read-off replaced by the default certificate no certificate of the solve's own
        # closes the gap, so the search steps on to no_step at step 12, unconverged; the given
        # certificate is a candidate at every iterate that meets the Newton test, so it certifies
        # the first one, at step 8, in primal_solve and gap_report alike
        from transient_impact import solver

        tree, market, H = binomial_ladder(2)
        best = ti.gap_report(tree, market, H).certificate
        monkeypatch.setattr(solver, "certificates_from", lambda tree, market, *rest: (ti.default_certificate(tree, market),) * 2)
        weak = ti.gap_report(tree, market, H)
        assert not weak.primal_converged and weak.gap > 1e-3
        assert (weak.iterations, weak.stop_reason) == (12, "no_step")
        for solve in (ti.gap_report, ti.primal_solve):
            report = solve(tree, market, H, certificate=best)
            assert report.certificate is best
            assert report.primal_converged and report.dual_converged
            assert 0.0 <= report.gap <= 1e-9 * (1.0 + abs(report.primal_value))
            assert (report.iterations, report.stop_reason) == (8, "tolerance")

    def test_one_on_a_rising_curve_is_refused_before_the_primal(self, monkeypatch):
        # no certificate bounds the price there, so primal_solve takes none, as gap_report takes no such tree
        tree, market, H = rising_instance()
        cert = ti.default_certificate(tree, market)
        self.refuse_the_primal(monkeypatch)
        with pytest.raises(MonotonicityViolation, match="rises"):
            ti.primal_solve(tree, market, H, certificate=cert)

    def test_dual_converged_is_primal_converged(self):
        report = ti.gap_report(*binomial_ladder(2), ti.SolverOptions(max_iter=1))
        assert not report.primal_converged
        assert report.dual_converged is False
        assert report.gap > 1.0


class TestGapReport:
    def test_binary_reference_instance(self):
        tree, market, H = binary_instance()
        report = ti.gap_report(tree, market, H)
        assert report.primal_value == pytest.approx(5.05, abs=1e-4)
        assert report.dual_value >= 5.0
        assert -1e-9 <= report.gap <= 0.05

    def test_trivial_instance_has_no_gap(self, rng):
        tree = random_tree(rng, depth=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.0)
        report = ti.gap_report(tree, market, np.zeros(tree.leaves.size))
        assert abs(report.primal_value) <= 1e-4
        assert abs(report.dual_value) <= 1e-10
        assert -1e-10 <= report.gap <= 1e-4

    def test_refined_binomial_call_gap_under_five_percent(self):
        times = np.linspace(0.0, 1.0, 5)
        nodes = [dict(parent=-1, p_transition=1.0, P=100.0)]
        level = [0]
        for _ in range(4):
            new = []
            for par in level:
                for move in (5.0, -5.0):
                    nodes.append(dict(parent=par, p_transition=0.5, P=nodes[par]["P"] + move))
                    new.append(len(nodes) - 1)
            level = new
        tree = ti.ScenarioTree.from_node_dicts(times, nodes, default_delta=10.0, default_r=0.0)
        market = ti.MarketSpec.build(times, 10.0, 0.0)
        H = np.maximum(tree.P[tree.leaves] - 100.0, 0.0)
        report = ti.gap_report(tree, market, H)
        assert report.gap >= -1e-9
        assert report.gap <= 0.05 * report.primal_value

    def test_every_instance_is_bounded_below(self, rng):
        # strong drift and zero payoff: the price admits no martingale measure,
        # yet the certificate lower bound keeps the value finite
        tree = random_tree(rng, depth=2, vol=0.1)
        drifted = ti.ScenarioTree(
            tree.times, tree.parent, tree.p_transition,
            tree.P + 10.0 * tree.t_index, tree.delta, tree.r,
        )
        market = market_for_tree(rng, drifted, x0=0.0)
        report = ti.gap_report(drifted, market, np.zeros(drifted.leaves.size))
        assert np.isfinite(report.primal_value) and np.isfinite(report.dual_value)
        assert report.primal_value >= report.dual_value - 1e-9

    def test_solver_outputs_satisfy_weak_duality(self, rng):
        for _ in range(5):
            tree = random_tree(rng, depth=2)
            market = market_for_tree(rng, tree)
            H = rng.uniform(0.0, 3.0, tree.leaves.size)
            report = ti.gap_report(tree, market, H)
            check = ti.weak_duality_check(tree, market, report.strategy, report.primal_value, report.certificate, H)
            scale = 1.0 + abs(report.primal_value) + abs(report.dual_value)
            assert check.margin >= -1e-9 * scale


# The ladder's trajectory: Newton steps, primal and dual value per depth.  A change to the
# Newton arithmetic moves them; one that only changes how it is computed must not.  The pins
# assume the rounding of the BLAS that numpy 2.4 ships (the batched matmuls of the node-state
# factor's 5x5 lifts, leaf blocks and Schur products go through it) and have not been run on
# the numpy 1.24 floor.  A failure there with no change to the code is rounding drift, to be
# recorded as a fault of the pins, not a reason to loosen them.
LADDER_TRAJECTORY = {
    2: (8, 2.6050565116169517, 2.605056510995112),
    4: (10, 3.8889573937013897, 3.8889573926149503),
    6: (10, 4.855871026846573, 4.855871026490052),
    8: (13, 5.664055948905049, 5.6640559487357045),
    10: (15, 6.373008779318671, 6.3730087790693375),
    12: (17, 7.012486907800983, 7.012486907745779),
}


class TestCertificateFromPrimal:
    @pytest.mark.parametrize("depth", [2, 4, 6, 8, 10, 12])
    def test_ladder_gap_closes(self, depth):
        report = ti.gap_report(*binomial_ladder(depth))
        assert report.primal_converged
        assert 0.0 <= report.gap <= 1e-6 * report.primal_value
        steps, primal, dual = LADDER_TRAJECTORY[depth]
        assert report.iterations == steps
        assert report.primal_value == pytest.approx(primal, rel=1e-12, abs=0.0)
        assert report.dual_value == pytest.approx(dual, rel=1e-12, abs=0.0)

    def test_gap_makes_no_search(self, monkeypatch):
        from transient_impact import solver

        def refuse(*args, **kwargs):
            raise AssertionError("gap_report searched")

        monkeypatch.setattr(solver, "dual_ascent", refuse)
        report = ti.gap_report(*binary_instance())
        assert report.gap == pytest.approx(0.0, abs=1e-9)

    def test_subtree_repair_leaves_nothing_to_bump(self):
        # certificates_from hands its un-raised spread to restore_feasibility, whose path raise
        # must give the same bits as the raise the read-off once made itself
        for _, tree, market, H in seeded_convex_trees():
            report = ti.primal_solve(tree, market, H)
            eta = ti.tree_wealth(tree, report.strategy, market.impact).eta
            for got in ti.certificates_from(tree, market, report.strategy, report.leaf_weights,
                                            report.closing_multipliers):
                lam = ti.constraint_bound(tree, got.q, eta)
                violation = np.maximum(np.abs(tree.P - got.M) - lam, 0.0) * tree.rho
                raise_by = tree.down_sweep(violation[0], lambda acc, nodes: np.maximum(acc, violation[nodes]))
                np.testing.assert_array_equal(got.alpha, eta + raise_by)
                assert ti.check_feasibility(tree, got).feasible

    def test_degenerate_programs_are_certified_optimal(self):
        # zero payoff, position and spread on a martingale price: the Newton search stalls
        # on these exact programs, while the default certificate proves the value 0 optimal
        for seed in range(12):
            rng = np.random.default_rng(seed)
            tree = random_tree(rng, depth=2, martingale=True)
            market = market_for_tree(rng, tree, x0=0.0, zeta0=0.0)
            report = ti.gap_report(tree, market, np.zeros(tree.leaves.size))
            assert report.primal_converged and report.dual_converged, seed
            assert report.dual_value == 0.0, seed
            assert 0.0 <= report.gap <= 1e-11, seed

    @pytest.mark.parametrize("H, searched", [([0.0, 50.0], -500.0), ([10.0, 0.0], -490.0)])
    def test_null_branch_mass_is_dropped(self, H, searched):
        # the primal weights only the reached leaf; weight on the leaf behind the zero-probability
        # branch is refused, since no measure may charge it
        tree, market = null_branch_instance()
        report = ti.gap_report(tree, market, H)
        assert report.leaf_weights[1] == 0.0
        assert ti.check_feasibility(tree, report.certificate).feasible
        check = ti.weak_duality_check(tree, market, report.strategy, report.primal_value, report.certificate, H)
        assert check.margin >= 0.0
        assert report.dual_value >= searched
        with pytest.raises(ValueError, match="zero reference probability"):
            ti.certificates_from(tree, market, report.strategy, [0.0, 1.0], np.zeros((2, 2)))  # all on the null leaf

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.inf, 1.0]])
    def test_non_finite_leaf_weights_are_refused(self, weights):
        tree, market, H = binary_instance()
        schedule = ti.primal_solve(tree, market, H).strategy
        with pytest.raises(NonFiniteInput, match="leaf weights must be finite"):
            ti.certificates_from(tree, market, schedule, weights, np.zeros((2, 2)))

    def test_zero_leaf_weights_give_the_reference_measure_and_negative_ones_are_refused(self):
        tree, market, H = binary_instance()
        schedule = ti.primal_solve(tree, market, H).strategy
        recovered, _ = ti.certificates_from(tree, market, schedule, [0.0, 0.0], np.zeros((2, 2)))
        np.testing.assert_array_equal(recovered.q, tree.p_transition)
        for weights in ([-1.0, 2.0], [1.0, -1.0]):
            with pytest.raises(ValueError, match="leaf weights must be >= 0"):
                ti.certificates_from(tree, market, schedule, weights, np.zeros((2, 2)))


class TestReadOffCertificate:
    """The certificate whose martingale is read off the closing trades' multipliers."""

    @staticmethod
    def assert_gap_closes(tree, market, H):
        report = ti.gap_report(tree, market, H)
        scale = 1.0 + abs(report.primal_value)
        assert -1e-9 * scale <= report.gap <= 1e-6 * scale
        band, read_off = ti.certificates_from(tree, market, report.strategy, report.leaf_weights,
                                              report.closing_multipliers)
        # never worse than the band martingale beyond weak-duality rounding
        assert ti.dual_objective(tree, read_off, market, H) >= ti.dual_objective(tree, band, market, H) - 1e-9 * scale
        # each leaf's value stays in its band before any repair, weight or none
        eta = ti.tree_wealth(tree, report.strategy, market.impact).eta
        bound = ti.constraint_bound(tree, read_off.q, eta)
        leaves = tree.leaves
        assert np.all(np.abs(tree.P - read_off.M)[leaves] <= bound[leaves] + 1e-12 * scale)

    @pytest.mark.parametrize("seed", range(6))
    def test_gap_closes_on_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, depth=3, max_branch=5, stochastic_liquidity=True)
        self.assert_gap_closes(tree, market_for_tree(rng, tree), np.maximum(tree.P[tree.leaves] - 100.0, 0.0))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_gap_closes_on_uneven_trinomial_trees(self, depth):
        self.assert_gap_closes(*binomial_ladder(depth, moves=(6.0, 1.0, -4.0)))

    def test_null_branch_dual_is_the_reached_primal(self):
        # no measure charges the leaf behind the zero-probability branch (node 3, then 9), and
        # that leaf constrains no primal, so both sides are the program of the tree without it
        tree, market = slack_leaf_instance(95.0)
        kept = [0, 1, 2, 4, 5, 6, 7]
        reached = ti.ScenarioTree(tree.times, [-1, 0, 0, 1, 1, 2, 2], tree.p_transition[kept], tree.P[kept],
                                  tree.delta[kept], tree.r[kept])
        H = np.array([20.0, 0.0, 0.0, 0.0, 50.0])
        report = ti.gap_report(tree, market, H)
        best = ti.primal_solve(reached, market, H[:-1]).primal_value
        assert report.dual_value == pytest.approx(best, rel=1e-8)
        assert report.primal_value == best  # the same program: the null leaf constrains nothing
        assert report.primal_converged and report.gap <= 1e-9 * (1.0 + abs(best))


class TestAlmostSure:
    """A leaf behind a zero-probability branch constrains nothing: it only liquidates."""

    @pytest.mark.parametrize("last_price", [95.0, 120.0, 150.0, 200.0])
    def test_slack_leaf_family_certifies_in_one_solve(self, monkeypatch, last_price):
        # dominating the payoff on every leaf, these took 114 (stalled), 6472, 883 (stalled) and 669 Newton steps
        from transient_impact import solver

        solves = []
        interior_point = solver._interior_point

        def counted(*args):
            solves.append(args)
            return interior_point(*args)

        monkeypatch.setattr(solver, "_interior_point", counted)
        tree, market = slack_leaf_instance(last_price)
        H = np.array([20.0, 0.0, 0.0, 0.0, 100.0])
        report = ti.gap_report(tree, market, H)
        assert len(solves) == 1
        assert report.primal_converged and report.iterations <= 30
        assert -1e-9 <= report.gap <= 1e-9 * (1.0 + abs(report.primal_value))
        assert report.leaf_weights[-1] == 0.0 and np.all(report.closing_multipliers[-1] == 0.0)
        assert np.all(ti.check_terminal_zero(report.strategy, tree))
        check = ti.weak_duality_check(tree, market, report.strategy, report.primal_value, report.certificate, H)
        assert check.margin == pytest.approx(report.gap, abs=1e-12)
        with pytest.raises(SuperReplicationViolated):  # a shortfall on the reached leaves still counts
            ti.weak_duality_check(tree, market, report.strategy, report.primal_value - 1e-3, report.certificate, H)

    def test_decaying_sweep_trees_with_a_null_branch_certify(self):
        # dominating the payoff on every leaf, these kept gaps of 3.81 and 0.124 times 1 + |primal|
        from test_sweeps import TREES

        cases = [tree for tree in TREES if tree.decay_margin >= 0.0 and np.any(tree.p_transition == 0.0)]
        assert len(cases) == 2
        for tree in cases:
            market = market_for_tree(np.random.default_rng(tree.n_nodes + 5), tree)
            report = ti.gap_report(tree, market, np.maximum(tree.P[tree.leaves] - 100.0, 0.0))
            scale = 1.0 + abs(report.primal_value)
            assert report.primal_converged
            assert -1e-9 * scale <= report.gap <= 1e-9 * scale

    def test_non_finite_payoff_on_a_null_leaf_is_refused(self):
        tree, market = slack_leaf_instance(120.0)
        H = np.array([20.0, 0.0, 0.0, 0.0, np.nan])
        for call in (ti.primal_solve, ti.gap_report):
            with pytest.raises(NonFiniteInput, match="payoff must be finite"):
                call(tree, market, H)

    def test_weak_duality_refuses_a_measure_on_a_null_leaf(self):
        # the schedule need not dominate the payoff there, so such a measure's value bounds nothing
        tree, market = null_branch_instance()
        H = [0.0, 50.0]
        report = ti.gap_report(tree, market, H)
        cert = ti.DualCertificate(np.array([1.0, 0.0, 1.0]), np.full(3, 100.0), np.full(3, 10.0))
        with pytest.raises(ValueError, match="zero reference probability"):
            ti.weak_duality_check(tree, market, report.strategy, report.primal_value, cert, H)


class TestNonFinitePayoff:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_every_entry_point_refuses_it(self, bad):
        tree, market, _ = binary_instance()
        H = np.array([bad, 0.0])
        cert = ti.default_certificate(tree, market)
        calls = (
            lambda: ti.primal_solve(tree, market, H),
            lambda: ti.gap_report(tree, market, H),
            lambda: ti.dual_ascent(tree, market, H, cert, ti.SolverOptions(max_iter=5)),
            lambda: ti.dual_objective(tree, cert, market, H),
        )
        for call in calls:
            with pytest.raises(NonFiniteInput, match="payoff must be finite"):
                call()


class TestRisingLiquidityCurve:
    def test_certificate_evaluation_refuses_it(self):
        tree, market, H = rising_instance()
        cert = ti.DualCertificate(tree.p_transition, tree.P.copy(), np.full(tree.n_nodes, 50.0))
        schedule = ti.primal_solve(tree, market, H)
        assert ti.check_feasibility(tree, cert).feasible  # the band itself is defined
        calls = (
            lambda: ti.dual_objective(tree, cert, market, H),
            lambda: ti.weak_duality_check(tree, market, schedule.strategy, schedule.primal_value, cert, H),
        )
        for call in calls:
            with pytest.raises(MonotonicityViolation, match="rises"):
                call()

    def test_price_is_exact_cash_without_exception(self):
        from dataclasses import replace

        tree, market, H = rising_instance()
        report = ti.primal_solve(tree, market, H)
        assert report.primal_converged
        assert report.primal_value == pytest.approx(5.1068, abs=1e-3)
        tw = ti.tree_wealth(tree, report.strategy, replace(market.impact, xi0=report.primal_value))
        assert np.min(tw.xi_T - H) >= -1e-9 * (1.0 + abs(report.primal_value))

    def test_seeded_rising_trees_give_exact_cash(self):
        # per-node depth makes the curve rise on most seeded trees; some of these programs stall
        from dataclasses import replace
        from test_sweeps import TREES

        stalled = 0
        for tree in TREES:
            if tree.decay_margin >= 0.0:
                continue
            market = market_for_tree(np.random.default_rng(tree.n_nodes + 5), tree)
            H = np.maximum(tree.P[tree.leaves] - 100.0, 0.0)
            report = ti.primal_solve(tree, market, H)
            stalled += not report.primal_converged
            tw = ti.tree_wealth(tree, report.strategy, replace(market.impact, xi0=report.primal_value))
            reached = tree.reached_part()[1][tree.leaves]  # almost surely: null-branch leaves only liquidate
            assert np.min((tw.xi_T - H)[reached]) >= -1e-9 * (1.0 + abs(report.primal_value))
        assert stalled >= 1


def binomial_ladder(depth, moves=(5.0, -5.0)):
    """Binomial call ladder: +-5 additive steps from 100, times on [0, 1], delta 10, r 0.5, strike 100.

    Other ``moves`` give a tree with one equally likely child per move.
    """
    times = np.linspace(0.0, 1.0, depth + 1)
    nodes = [dict(parent=-1, p_transition=1.0, P=100.0)]
    level = [0]
    for _ in range(depth):
        new = []
        for par in level:
            for move in moves:
                nodes.append(dict(parent=par, p_transition=1.0 / len(moves), P=nodes[par]["P"] + move))
                new.append(len(nodes) - 1)
        level = new
    tree = ti.ScenarioTree.from_node_dicts(times, nodes, default_delta=10.0, default_r=0.5)
    market = ti.MarketSpec.build(times, 10.0, 0.5)
    return tree, market, np.maximum(tree.P[tree.leaves] - 100.0, 0.0)


def seeded_convex_trees():
    from test_sweeps import TREES

    for k, tree in enumerate(TREES):
        tree = ti.ScenarioTree(tree.times, tree.parent, tree.p_transition, tree.P,
                               np.full(tree.n_nodes, tree.delta[0]), tree.r)
        rng = np.random.default_rng(tree.n_nodes + 5)
        yield f"tree{k}", tree, market_for_tree(rng, tree), np.maximum(tree.P[tree.leaves] - 100.0, 0.0)


class TestInteriorPoint:
    # Best known feasible values of the ladder (scipy SLSQP on the epigraph form, then this
    # package's exact cash requirement of its schedule); optimal at depths 2, 4 and 6.
    @pytest.mark.parametrize("depth, best", [(2, 2.605056511), (4, 3.888957393), (6, 4.855871027),
                                             (8, 5.664055949)])
    def test_ladder_reaches_the_best_known_value(self, depth, best):
        report = ti.primal_solve(*binomial_ladder(depth))
        assert report.primal_converged
        assert report.primal_value <= best * (1.0 + 1e-9)

    def test_converges_on_random_and_seeded_convex_trees(self):
        rng = np.random.default_rng(77)
        cases = list(seeded_convex_trees())
        for k in range(30):
            tree = random_tree(rng, depth=1 + k % 3, stochastic_liquidity=k % 2 == 0, martingale=k % 3 == 0)
            cases.append((f"random{k}", tree, market_for_tree(rng, tree), rng.uniform(0.0, 4.0, tree.leaves.size)))
        for name, tree, market, H in cases:
            report = ti.primal_solve(tree, market, H)
            assert report.primal_converged, name
            assert report.iterations <= 60, name

    def test_doing_nothing_is_priced(self):
        # zero payoff, position and spread on a martingale price: doing nothing costs exactly 0,
        # which one Newton step's schedule (0.105 here) and a full search (3e-12) only approach
        rng = np.random.default_rng(0)
        tree = random_tree(rng, depth=2, martingale=True)
        market = market_for_tree(rng, tree, x0=0.0, zeta0=0.0)
        report = ti.primal_solve(tree, market, np.zeros(tree.leaves.size), ti.SolverOptions(max_iter=1))
        assert report.primal_value == 0.0
        assert not np.any(report.strategy.buys) and not np.any(report.strategy.sells)

    def test_leaf_multipliers_sum_to_one(self):
        from transient_impact.solver import _interior_point, _PrimalProblem

        for _, tree, market, H in list(seeded_convex_trees())[:8]:
            it, _, stop, residual = next(_interior_point(_PrimalProblem(tree, market, H), ti.SolverOptions()))
            assert stop == "tolerance" and residual <= 1e-9
            assert np.all(it.dual > 0.0)
            assert it.dual[:, 0].sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("depth, cap_mib", [(8, 3), (12, 16), (14, 32)])
    def test_memory_peak(self, depth, cap_mib):
        # values, residuals and Newton steps hold O(nodes) node states and no (leaves x depth)
        # array: 6.1 MiB at depth 12 and 24 MiB at depth 14; an array per leaf and level would
        # double them
        import tracemalloc

        instance = binomial_ladder(depth)
        tracemalloc.start()
        try:
            ti.primal_solve(*instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap_mib * 2**20

    def test_setup_memory_peak(self):
        # the price range is one fold of the leaves' (P, -P) under np.maximum: 6.3 MiB at depth 14,
        # where a (leaves x depth) path table took 16.3
        import tracemalloc

        from transient_impact.solver import _PrimalProblem

        instance = binomial_ladder(14)
        tracemalloc.start()
        try:
            _PrimalProblem(*instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    def test_direct_cash_memory_peak(self):
        # midpoint cash is per-node terms summed by one down-sweep: 3.6 MiB at depth 14, where
        # (leaves x depth) gathers of the path table took 20.4
        import tracemalloc

        from transient_impact.wealth import tree_terminal_cash_direct

        tree, market, _ = binomial_ladder(14)
        schedule = random_tree_schedule(np.random.default_rng(14), tree)
        tracemalloc.start()
        try:
            tree_terminal_cash_direct(tree, schedule, market.impact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def random_call_trees():
    """The seeded set of random decaying trees: depth 2-4, ``random_tree`` and ``market_for_tree``
    from ``default_rng(0)``, and a call at 100 scaled by a factor drawn from [0.5, 2)."""
    rng = np.random.default_rng(0)
    while True:
        tree = random_tree(rng, int(rng.integers(2, 5)))
        market = market_for_tree(rng, tree)
        yield tree, market, np.maximum(tree.P[tree.leaves] - 100.0, 0.0) * rng.uniform(0.5, 2)


class TestVerdict:
    """``converged`` is one rule wherever the search stops: the reported gap certifies the value."""

    def test_converged_is_a_certified_gap_on_the_random_set(self):
        from itertools import islice

        for k, (tree, market, H) in enumerate(islice(random_call_trees(), 200)):
            for report in (ti.primal_solve(tree, market, H), ti.gap_report(tree, market, H)):
                assert report.primal_converged == (report.gap <= 1e-9 * (1.0 + abs(report.primal_value))), k

    @pytest.mark.parametrize("index, steps", [(43, 11), (85, 12), (95, 13), (148, 10), (162, 14)])
    def test_a_newton_stop_that_leaves_a_gap_steps_on(self, index, steps):
        # the Newton test alone stops these one step earlier, at gap / (1 + |primal|) 1.1e-9 to 4.1e-9
        from itertools import islice

        from transient_impact.solver import _interior_point, _PrimalProblem

        tree, market, H = next(islice(random_call_trees(), index, None))
        first = next(_interior_point(_PrimalProblem(tree, market, H), ti.SolverOptions()))
        assert first[1:3] == (steps - 1, "tolerance")
        report = ti.primal_solve(tree, market, H)
        assert (report.stop_reason, report.iterations) == ("tolerance", steps)
        assert report.primal_converged and report.gap <= 1e-9 * (1.0 + abs(report.primal_value))


class TestStopReason:
    """Each report says why the primal's Newton search stopped, and at which relative residual."""

    def test_tolerance(self):
        report = ti.primal_solve(*binary_instance())
        assert report.primal_converged and report.stop_reason == "tolerance"
        assert 0.0 <= report.residual <= 1e-9

    @pytest.mark.parametrize("index, n_nodes, reason, steps", [(73, 20, "stalled", 221), (191, 31, "breakdown", 17)])
    def test_random_trees_that_stop_short(self, index, n_nodes, reason, steps):
        # the two trees of the first 200 whose search ends above tol, at gap / (1 + |primal|) 1.8e-5 and 3.0e-9;
        # no certificate closes their gap, so they stay unconverged
        from itertools import islice

        tree, market, H = next(islice(random_call_trees(), index, None))
        assert tree.n_nodes == n_nodes
        report = ti.gap_report(tree, market, H)
        assert (report.stop_reason, report.iterations) == (reason, steps)
        assert not report.primal_converged
        assert report.residual > 1e-9

    def test_budget_on_the_ladder(self):
        report = ti.primal_solve(*binomial_ladder(4), ti.SolverOptions(max_iter=1))
        assert (report.stop_reason, report.iterations, report.primal_converged) == ("budget", 1, False)
        assert report.residual > 1e-9

    def test_breakdown_when_the_newton_matrix_is_not_definite(self, monkeypatch):
        from transient_impact import solver

        def indefinite(prob, it):
            raise np.linalg.LinAlgError("a pivot is not positive definite")

        monkeypatch.setattr(solver, "_newton_matrix", indefinite)
        report = ti.primal_solve(*binary_instance())
        assert (report.stop_reason, report.iterations, report.primal_converged) == ("breakdown", 0, False)

    def test_no_step_when_every_trial_is_too_short(self, monkeypatch):
        from transient_impact import solver

        monkeypatch.setattr(solver, "MIN_STEP", 1.0)  # no step is longer than 1
        report = ti.primal_solve(*binary_instance())
        assert (report.stop_reason, report.iterations, report.primal_converged) == ("no_step", 0, False)

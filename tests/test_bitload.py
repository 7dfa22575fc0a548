import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import owclb

import _oracles


def flat_grid(k: int, gnr: float = 1.0) -> owclb.SubcarrierGrid:
    # f_chip = K so delta_b = 1 and marginals are exact binary floats
    return owclb.SubcarrierGrid(K=k, f_chip=float(k), gnr_k=np.full(k, gnr))


def random_monotone_grid(rng, k: int) -> owclb.SubcarrierGrid:
    gnr = 10.0 ** rng.uniform(2, 6) * 10.0 ** (-np.cumsum(rng.uniform(0.0, 0.06, k)))
    return owclb.SubcarrierGrid(K=k, f_chip=2e8, gnr_k=gnr)


PLAN_FIELDS = ("total_power", "rate", "flops", "iterations", "algorithm", "gamma",
               "sigma2_budget", "group_table")


def assert_same_plan(plan, ref):
    """Every BitLoadPlan field equal, floats bit for bit."""
    assert plan.grid is ref.grid
    assert plan.bits.dtype == ref.bits.dtype
    np.testing.assert_array_equal(plan.bits, ref.bits)
    assert plan.power_k.tobytes() == ref.power_k.tobytes()
    for name in PLAN_FIELDS:
        assert getattr(plan, name) == getattr(ref, name), name


class TestGrid:
    def test_delta_b(self):
        grid = owclb.SubcarrierGrid(K=64, f_chip=200e6, gnr_k=np.ones(64))
        assert grid.delta_b == 200e6 / 64
        assert grid.f_k[0] == grid.delta_b
        assert grid.f_k[-1] == pytest.approx(200e6)

    def test_from_model(self, ref_model):
        grid = owclb.SubcarrierGrid.from_model(ref_model, 32, 200e6)
        f_5 = 5 * 200e6 / 32
        assert grid.gnr_k[4] == pytest.approx(float(ref_model(f_5)), rel=1e-15)

    def test_from_model_refuses_scalar_function(self):
        # the GNR function takes the array of subcarrier frequencies
        with pytest.raises(ValueError, match="gnr_k must have length K=8"):
            owclb.SubcarrierGrid.from_model(lambda f: 1e6, 8, 200e6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            owclb.SubcarrierGrid(K=4, f_chip=4.0, gnr_k=np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            owclb.SubcarrierGrid(K=3, f_chip=4.0, gnr_k=np.ones(4))

    @pytest.mark.parametrize("k", [True, 0, -1, 64.0, 1.5, "4"], ids=repr)
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match=rf"^K must be a positive integer, got {re.escape(repr(k))}$"):
            owclb.SubcarrierGrid(K=k, f_chip=4.0, gnr_k=np.ones(4))
        with pytest.raises(ValueError, match=rf"^K must be a positive integer, got {re.escape(repr(k))}$"):
            owclb.SubcarrierGrid.from_model(lambda f: pytest.fail("sampled a bad grid"), k, 4.0)

    @pytest.mark.parametrize("f_chip", ["x", -1.0, 0.0, math.nan, math.inf, None], ids=repr)
    def test_from_model_checks_f_chip_before_sampling(self, f_chip):
        message = rf"^f_chip must be a positive finite number, got {re.escape(repr(f_chip))}$"
        with pytest.raises(ValueError, match=message):
            owclb.SubcarrierGrid.from_model(lambda f: pytest.fail("sampled a bad grid"), 4, f_chip)
        with pytest.raises(ValueError, match=message):
            owclb.SubcarrierGrid(K=4, f_chip=f_chip, gnr_k=np.ones(4))

    def test_delta_b_is_derived_not_passed(self):
        # delta_b is f_chip / K; a passed value could only disagree with f_k
        with pytest.raises(TypeError):
            owclb.SubcarrierGrid(K=4, f_chip=4.0, gnr_k=np.ones(4), delta_b=1.0000000001)
        assert owclb.SubcarrierGrid(K=4, f_chip=4.0, gnr_k=np.ones(4)).delta_b == 1.0


class TestBitPrice:
    def test_prices_a_bit_as_the_greedy_does(self):
        # delta_b * gamma = 1e308: multiplying by 2 first would overflow,
        # but the greedy divides by the GNR first and grants the bit
        grid = owclb.SubcarrierGrid(K=2, f_chip=2e10, gnr_k=np.array([1e300, 1e299]))
        plan = owclb.hh_naive(grid, 1e298, 3e8)
        assert plan.bits.tolist() == [2, 0]
        assert plan.total_power == 1e8 + 2e8  # the second bit costs 1e10 * 1e298 / 1e300 * 2


class TestNaive:
    def test_flat_symmetric_round(self):
        plan = owclb.hh_naive(flat_grid(4), 1.0, 4.0)
        assert plan.bits.tolist() == [1, 1, 1, 1]
        assert plan.total_power == 4.0

    def test_flat_partial_round_ties_to_low_index(self):
        plan = owclb.hh_naive(flat_grid(4), 1.0, 3.5)
        assert plan.bits.tolist() == [1, 1, 1, 0]

    def test_two_carrier_greedy_trace(self):
        # GNR = [4G, G]: bits cost 0.25, then 0.5 on k=1; the third bit ties
        # at 1.0 between both carriers and the low-index rule grants it to
        # k=1, spending the exact budget either way
        grid = owclb.SubcarrierGrid(K=2, f_chip=2.0, gnr_k=np.array([4.0, 1.0]))
        plan = owclb.hh_naive(grid, 1.0, 1.75)
        assert plan.bits.tolist() == [3, 0]
        assert plan.total_power == 1.75
        assert plan.rate == _oracles.best_rate_exhaustive(grid, 1.0, 1.75, bit_cap=4)

    def test_zero_budget(self):
        plan = owclb.hh_naive(flat_grid(8), 1.0, 0.0)
        assert plan.bits.tolist() == [0] * 8
        assert plan.total_power == 0.0
        assert plan.rate == 0.0

    def test_budget_below_first_bit(self):
        plan = owclb.hh_naive(flat_grid(8), 1.0, 0.5)
        assert plan.bits.tolist() == [0] * 8

    def test_bit_cap_respected(self):
        plan = owclb.hh_naive(flat_grid(2), 1.0, 1e9, bit_cap=5)
        assert plan.bits.tolist() == [5, 5]

    def test_closed_form_power_bookkeeping(self, ref_model, gap):
        grid = owclb.SubcarrierGrid.from_model(ref_model, 64, 200e6)
        plan = owclb.hh_naive(grid, gap, 1e7)
        expect = grid.delta_b * gap * (2.0 ** plan.bits.astype(float) - 1.0) / grid.gnr_k
        np.testing.assert_array_equal(plan.power_k, expect)
        assert plan.total_power == sum(plan.power_k.tolist())

    def test_greedy_matches_exhaustive_small(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            k = int(rng.integers(2, 5))
            gnr = np.sort(10.0 ** rng.uniform(0, 2, k))[::-1]
            grid = owclb.SubcarrierGrid(K=k, f_chip=float(k), gnr_k=gnr)
            max_power = float(np.sum(grid.delta_b * (2.0**3 - 1.0) / gnr))
            for _ in range(10):
                budget = float(rng.uniform(0.0, 1.1 * max_power))
                plan = owclb.hh_naive(grid, 1.0, budget, bit_cap=3)
                best = _oracles.best_rate_exhaustive(grid, 1.0, budget, bit_cap=3)
                assert plan.rate == best


class TestAccelerated:
    def test_rejects_non_monotone_grid(self):
        grid = owclb.SubcarrierGrid(K=3, f_chip=3.0, gnr_k=np.array([1.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="hh_naive"):
            owclb.hh_accelerated(grid, 1.0, 1.0)

    def test_equivalent_to_naive_randomized(self):
        rng = np.random.default_rng(7)
        for k in (8, 64, 512):
            for _ in range(6):
                grid = random_monotone_grid(rng, k)
                budget = float(rng.uniform(0.1, 1.0)) * float(
                    np.sum(grid.delta_b * (2.0**3 - 1.0) / grid.gnr_k)
                )
                a = owclb.hh_naive(grid, 1.0, budget)
                b = owclb.hh_accelerated(grid, 1.0, budget)
                np.testing.assert_array_equal(a.bits, b.bits)
                np.testing.assert_array_equal(a.power_k, b.power_k)
                assert a.total_power == b.total_power
                assert a.iterations == b.iterations

    @settings(deadline=None, max_examples=60)
    @given(
        steps=st.lists(st.floats(min_value=0.0, max_value=0.8), min_size=2, max_size=24),
        budget_frac=st.floats(min_value=0.0, max_value=1.5),
    )
    def test_equivalence_property(self, steps, budget_frac):
        gnr = 100.0 * 10.0 ** (-np.cumsum(np.asarray(steps)))
        grid = owclb.SubcarrierGrid(K=len(steps), f_chip=1e8, gnr_k=gnr)
        budget = budget_frac * float(np.sum(grid.delta_b * (2.0**2 - 1.0) / gnr))
        a = owclb.hh_naive(grid, 1.0, budget)
        b = owclb.hh_accelerated(grid, 1.0, budget)
        np.testing.assert_array_equal(a.bits, b.bits)
        assert a.total_power == b.total_power
        assert a.total_power <= budget

    def test_new_level_created_and_old_level_shifted(self):
        # two equal fast carriers and one slow one: the run ends right after
        # carrier 1 takes its 4th bit while carrier 2 holds 3
        grid = owclb.SubcarrierGrid(K=3, f_chip=3.0, gnr_k=np.array([1.0, 1.0, 1.0 / 16.0]))
        plan = owclb.hh_accelerated(grid, 1.0, 22.0)
        assert plan.bits.tolist() == [4, 3, 0]
        table = plan.group_table
        assert table[4] == 1  # new level points at the loaded carrier
        assert table[3] == 2  # old level shifted to its successor
        assert table[0] == 3

    def test_emptied_level_nulled(self):
        # last load lifts carrier 3 from 2 to 3 bits; no carrier holds 2
        # bits afterwards, so that level is nulled
        grid = owclb.SubcarrierGrid(K=4, f_chip=4.0, gnr_k=np.array([1.0, 1.0, 1.0, 1.0 / 32.0]))
        plan = owclb.hh_accelerated(grid, 1.0, 21.0)
        assert plan.bits.tolist() == [3, 3, 3, 0]
        table = plan.group_table
        assert table[3] == 1  # pre-existing level untouched
        assert table[2] == 0  # emptied level removed
        assert table[0] == 4

    def test_group_table_indices_decrease_with_level(self, ref_model, gap):
        grid = owclb.SubcarrierGrid.from_model(ref_model, 64, 200e6)
        plan = owclb.hh_accelerated(grid, gap, 5e7)
        populated = [(b, k) for b, k in enumerate(plan.group_table) if k != 0]
        for (b1, k1), (b2, k2) in zip(populated, populated[1:]):
            assert b1 < b2 and k1 > k2

    def test_grouping_invariant_after_every_load(self, ref_model, gap):
        # the library loader has no per-grant hook; the per-bit loop it
        # must equal shows the grouping property after every grant
        grid = owclb.SubcarrierGrid.from_model(ref_model, 64, 200e6)

        def check(_k, bits):
            diffs = np.diff(bits)
            assert np.all(diffs <= 0), "bits must be non-increasing in k"
            # equal-bit groups are contiguous automatically when non-increasing

        loop = _oracles.hh_accelerated_loop(grid, gap, 3e7, on_load=check)
        assert_same_plan(owclb.hh_accelerated(grid, gap, 3e7), loop)

    def test_budget_safety_and_exhaustion(self, ref_model, gap):
        grid = owclb.SubcarrierGrid.from_model(ref_model, 64, 200e6)
        rng = np.random.default_rng(3)
        for _ in range(20):
            budget = 10.0 ** rng.uniform(2, 9)
            plan = owclb.hh_accelerated(grid, gap, budget)
            assert plan.total_power <= budget
            # the cheapest next bit would overshoot
            gamma = gap
            nxt = np.min(
                [
                    grid.delta_b * gamma / gnr_k * 2.0**b
                    for gnr_k, b in zip(grid.gnr_k, plan.bits)
                    if b < owclb.DEFAULT_BIT_CAP
                ]
            )
            assert plan.total_power + nxt > budget


@st.composite
def decreasing_grids(draw):
    """Strictly decreasing grids; power-of-two GNRs with delta_b = 1 make
    many increments cost exactly the same, so the tie rule decides."""
    k = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        exps = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k, unique=True))
        gnr = 2.0 ** np.sort(np.asarray(exps, dtype=float))[::-1]
        return owclb.SubcarrierGrid(K=k, f_chip=float(k), gnr_k=gnr)
    steps = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=k, max_size=k))
    gnr = 10.0 ** (draw(st.floats(min_value=-3.0, max_value=6.0)) - np.cumsum(steps))
    return owclb.SubcarrierGrid(K=k, f_chip=draw(st.sampled_from([float(k), 2e8])), gnr_k=gnr)


def budgets_for(grid, gamma, bit_cap):
    """Zero, infinite, anywhere up to past the full load, or exactly the
    cost of the n cheapest increments, which puts the cut between two of them."""
    costs = grid.delta_b * gamma / grid.gnr_k[:, None] * 2.0 ** np.arange(bit_cap)
    spent = np.cumsum(np.sort(costs, axis=None))
    return st.one_of(
        st.sampled_from([0.0, math.inf]),
        st.floats(min_value=0.0, max_value=1.2).map(lambda frac: frac * float(spent[-1])),
        st.integers(min_value=0, max_value=spent.size - 1).map(lambda n: float(spent[n])),
    )


class TestAgainstLoops:
    """The sorted loaders against the per-bit loops in ``_oracles``."""

    @settings(deadline=None, max_examples=150)
    @given(
        grid=decreasing_grids(),
        gamma=st.sampled_from([1.0, 4.03645392967605, 1e3]),
        bit_cap=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_plans_equal_the_loops(self, grid, gamma, bit_cap, data):
        budget = data.draw(budgets_for(grid, gamma, bit_cap))
        for loader, loop in (
            (owclb.hh_naive, _oracles.hh_naive_loop),
            (owclb.hh_accelerated, _oracles.hh_accelerated_loop),
        ):
            plan = loader(grid, gamma, budget, bit_cap=bit_cap)
            assert_same_plan(plan, loop(grid, gamma, budget, bit_cap=bit_cap))

    def test_reference_channel_plans_equal_the_loops(self, ref_model, gap):
        for k, budget in ((64, 3.5e7), (512, 1e7), (256, 1e12)):
            grid = owclb.SubcarrierGrid.from_model(ref_model, k, 200e6)
            assert_same_plan(owclb.hh_naive(grid, gap, budget),
                             _oracles.hh_naive_loop(grid, gap, budget))
            assert_same_plan(owclb.hh_accelerated(grid, gap, budget),
                             _oracles.hh_accelerated_loop(grid, gap, budget))

    @settings(deadline=None, max_examples=150)
    @given(
        exps=st.lists(st.integers(-6, 6), min_size=1, max_size=30),
        rises=st.lists(st.sampled_from([0.0, 3e-13, 6e-13, 1e-12]), min_size=30, max_size=30),
        bit_cap=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_accelerated_equals_naive_on_every_accepted_grid(self, exps, rises, bit_cap, data):
        # power-of-two steps down, each carrier then nudged up by at most
        # 1e-12: the grid may rise a little and still pass the monotone check,
        # and the nudges split the ties the steps create
        k = len(exps)
        base = 2.0 ** np.sort(np.asarray(exps, dtype=float))[::-1]
        grid = owclb.SubcarrierGrid(K=k, f_chip=float(k), gnr_k=base * (1.0 + np.asarray(rises[:k])))
        assume(grid.is_monotone_nonincreasing())
        budget = data.draw(budgets_for(grid, 1.0, bit_cap))
        naive = owclb.hh_naive(grid, 1.0, budget, bit_cap=bit_cap)
        accel = owclb.hh_accelerated(grid, 1.0, budget, bit_cap=bit_cap)
        np.testing.assert_array_equal(accel.bits, naive.bits)
        assert accel.power_k.tobytes() == naive.power_k.tobytes()
        assert accel.total_power == naive.total_power
        assert accel.iterations == naive.iterations


class TestGrantOrder:
    """The grant order built from one sort of values, and the one-pass table
    count, against the full stable argsort and the per-level loop in
    ``_oracles``."""

    @staticmethod
    def grids(rng):
        """Seeded grids: decreasing, non-monotone, power-of-two GNRs (ties
        across bit levels), equal-GNR plateaus, K = 1, and f_chip at
        1e-300 (costs of 0) and 1e300 (costs at inf)."""
        for k in (1, 2, 7, 33):
            yield owclb.SubcarrierGrid(K=k, f_chip=2e8, gnr_k=np.sort(10.0 ** rng.uniform(-2, 4, k))[::-1])
            yield owclb.SubcarrierGrid(K=k, f_chip=2e8, gnr_k=10.0 ** rng.uniform(-2, 4, k))
            two = 2.0 ** rng.integers(-4, 5, k).astype(float)
            yield owclb.SubcarrierGrid(K=k, f_chip=float(k), gnr_k=two)
            yield owclb.SubcarrierGrid(K=k, f_chip=float(k), gnr_k=np.sort(two)[::-1])
            plateaus = 2.0 ** -(np.arange(k) * 3 // k).astype(float)  # three equal-GNR runs
            yield owclb.SubcarrierGrid(K=k, f_chip=float(k), gnr_k=plateaus)
            for f_chip in (1e-300, 1e300):
                yield owclb.SubcarrierGrid(K=k, f_chip=f_chip, gnr_k=10.0 ** rng.uniform(-300, 300, k))

    @staticmethod
    def budgets(rng, grid, gamma, bit_cap):
        with np.errstate(over="ignore"):
            costs = np.sort((grid.delta_b * gamma / grid.gnr_k[:, None] * 2.0 ** np.arange(bit_cap)).ravel())
            spent = np.cumsum(costs[np.isfinite(costs)])
        picks = [0.0, math.inf, 1e308]
        if spent.size:
            picks += [float(spent[rng.integers(spent.size)]), float(spent[-1]),
                      float(rng.uniform(0.0, 1.0)) * float(spent[-1])]
        return picks

    def test_grants_and_table_count_equal_the_oracles(self):
        rng = np.random.default_rng(41)
        checked = 0
        for grid in self.grids(rng):
            for gamma in (1.0, 3.98):
                for bit_cap in (1, 3, 12, 13):
                    for budget in self.budgets(rng, grid, gamma, bit_cap):
                        grants, finite = owclb.bitload._greedy(grid, gamma, budget, bit_cap)
                        ref, ref_finite = _oracles.greedy_argsort(grid, gamma, budget, bit_cap)
                        np.testing.assert_array_equal(grants, ref)
                        assert finite == ref_finite
                        old = grants % bit_cap
                        assert owclb.bitload._table_search_flops(old, grid.K, bit_cap) == (
                            _oracles.table_search_flops_loop(old, grid.K, bit_cap))
                        checked += 1
        assert checked > 1000

    def test_table_count_on_any_grant_sequence(self):
        # grants in any order, each to a carrier below the cap, up to a full load
        rng = np.random.default_rng(42)
        for _ in range(600):
            k, bit_cap = int(rng.integers(1, 40)), int(rng.integers(1, 14))
            bits = np.zeros(k, dtype=np.int64)
            old = []
            for _ in range(int(rng.integers(0, k * bit_cap + 1))):
                carrier = int(rng.choice(np.flatnonzero(bits < bit_cap)))
                old.append(bits[carrier])
                bits[carrier] += 1
            old = np.array(old, dtype=np.int64)
            count = owclb.bitload._table_search_flops(old, k, bit_cap)
            assert type(count) is int
            assert count == _oracles.table_search_flops_loop(old, k, bit_cap)

    def test_full_load_and_single_carrier(self):
        for k, bit_cap in ((1, 1), (1, 12), (5, 1), (4, 12)):
            old = np.tile(np.arange(bit_cap), k).reshape(k, bit_cap).T.ravel()  # round robin
            assert owclb.bitload._table_search_flops(old, k, bit_cap) == (
                _oracles.table_search_flops_loop(old, k, bit_cap))
            assert owclb.bitload._table_search_flops(old[:0], k, bit_cap) == 0


class TestSortedPrefix:
    """hh_sorted_prefix against the per-budget loaders it replaces."""

    @staticmethod
    def check(grid, gamma, budgets, bit_cap=owclb.DEFAULT_BIT_CAP):
        counts = owclb.hh_sorted_prefix(grid, gamma, budgets, bit_cap=bit_cap)
        rates = grid.delta_b * counts.astype(float)  # as the power sweep writes them
        monotone = grid.is_monotone_nonincreasing()
        for i, budget in enumerate(budgets):
            ref = owclb.hh_naive(grid, gamma, budget, bit_cap=bit_cap)
            assert counts[i] == int(ref.bits.sum())
            assert rates[i].tobytes() == np.float64(ref.rate).tobytes()
            if monotone:
                acc = owclb.hh_accelerated(grid, gamma, budget, bit_cap=bit_cap)
                assert rates[i].tobytes() == np.float64(acc.rate).tobytes()
        return counts

    @staticmethod
    def full_load(grid, gamma, bit_cap=owclb.DEFAULT_BIT_CAP):
        return float(np.sum(grid.delta_b * gamma * (2.0**bit_cap - 1.0) / grid.gnr_k))

    def test_random_monotone_grids(self):
        rng = np.random.default_rng(11)
        for k in (8, 64, 256):
            for _ in range(3):
                grid = random_monotone_grid(rng, k)
                top = self.full_load(grid, 2.0, bit_cap=4)
                budgets = np.sort(rng.uniform(0.0, 1.2, 6)) * top
                self.check(grid, 2.0, budgets, bit_cap=4)

    def test_non_monotone_grids(self):
        rng = np.random.default_rng(12)
        for k in (5, 40, 200):
            grid = owclb.SubcarrierGrid(K=k, f_chip=2e8, gnr_k=10.0 ** rng.uniform(1, 5, k))
            assert not grid.is_monotone_nonincreasing()
            budgets = np.sort(rng.uniform(0.0, 1.1, 6)) * self.full_load(grid, 1.0, bit_cap=5)
            self.check(grid, 1.0, budgets, bit_cap=5)

    def test_power_of_two_gnrs_force_ties(self):
        # delta_b = 1 and power-of-two GNRs make many increments cost exactly
        # the same, so the (cost, subcarrier) order decides every tie
        rng = np.random.default_rng(13)
        for sort in (True, False):
            gnr = 2.0 ** rng.integers(-3, 6, 48).astype(float)
            if sort:
                gnr = np.sort(gnr)[::-1]
            grid = owclb.SubcarrierGrid(K=48, f_chip=48.0, gnr_k=gnr)
            top = self.full_load(grid, 1.0)
            budgets = np.concatenate([np.arange(0.0, 64.0, 0.25), top * np.array([0.3, 0.7, 1.0])])
            self.check(grid, 1.0, budgets)

    def test_reference_channel_sweep(self, ref_model, gap):
        grid = owclb.SubcarrierGrid.from_model(ref_model, 128, 200e6)
        self.check(grid, gap, np.geomspace(1e4, 1e9, 12))

    def test_edge_budgets(self):
        grid = flat_grid(8)
        counts = self.check(grid, 1.0, np.array([0.0, 0.5, 1e30]), bit_cap=5)
        # nothing at zero, nothing below the first bit, every carrier at its cap
        assert counts.tolist() == [0, 0, 8 * 5]

    @pytest.mark.parametrize("f_chip", [1e-300, 1e300])
    def test_extreme_f_chip_and_overflowing_costs(self, f_chip):
        # at f_chip 1e300 the costs of the weak carriers' bits overflow to inf
        # and are never granted; at 1e-300 the strong carriers' bits cost 0,
        # which a zero budget still does not buy
        rng = np.random.default_rng(14)
        free = 0  # grids with a zero-cost bit
        for k in (1, 7, 64):
            exps = rng.uniform(-300, 300, k)
            for gnr in (10.0 ** np.sort(exps)[::-1], 10.0**exps):
                grid = owclb.SubcarrierGrid(K=k, f_chip=f_chip, gnr_k=gnr)
                with np.errstate(over="ignore"):
                    free += bool(np.any(grid.delta_b / gnr == 0.0))
                for gamma in (1.0, 3.98):
                    budgets = [0.0, f_chip * 1e-3, f_chip, f_chip * 1e3, 1e308, math.inf]
                    assert self.check(grid, gamma, budgets)[0] == 0
        assert (free > 0) == (f_chip < 1.0)

    @pytest.mark.parametrize("loader", ["hh_naive", "hh_accelerated", "hh_sorted_prefix"])
    def test_bad_budget_refused_as_plain_float_before_rising_grid(self, loader):
        rising = owclb.SubcarrierGrid(K=3, f_chip=3.0, gnr_k=np.array([1.0, 2.0, 1.0]))
        load = getattr(owclb, loader)
        budget = np.array([1.0, -2.0]) if loader == "hh_sorted_prefix" else np.float64(-2.0)
        with pytest.raises(ValueError, match=r"^sigma2_budget must be >= 0, got -2\.0$"):
            load(rising, 1.0, budget)
        with pytest.raises(ValueError, match="sigma2_budget must be >= 0, got nan"):
            load(rising, 1.0, float("nan"))

    @pytest.mark.parametrize("loader", ["hh_naive", "hh_accelerated", "hh_sorted_prefix"])
    def test_nan_budget_rejected_inf_loads_to_cap(self, loader):
        load = getattr(owclb, loader)
        with pytest.raises(ValueError, match="sigma2_budget must be >= 0, got"):
            load(flat_grid(4), 1.0, float("nan"))
        plan = load(flat_grid(4), 1.0, float("inf"))
        if loader == "hh_sorted_prefix":
            assert plan.tolist() == [owclb.DEFAULT_BIT_CAP * 4]
        else:
            assert plan.bits.tolist() == [owclb.DEFAULT_BIT_CAP] * 4

    def test_scalar_budget_and_negative_budget(self):
        assert owclb.hh_sorted_prefix(flat_grid(4), 1.0, 4.0).tolist() == [4]
        with pytest.raises(ValueError, match="sigma2_budget"):
            owclb.hh_sorted_prefix(flat_grid(4), 1.0, [1.0, -1.0])

    @settings(deadline=None, max_examples=60)
    @given(
        exponents=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=20),
        fracs=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=5),
        bit_cap=st.integers(min_value=1, max_value=6),
    )
    def test_equals_naive_property(self, exponents, fracs, bit_cap):
        gnr = 10.0 ** np.asarray(exponents)
        grid = owclb.SubcarrierGrid(K=gnr.size, f_chip=1e6, gnr_k=gnr)
        top = self.full_load(grid, 1.5, bit_cap)
        self.check(grid, 1.5, [f * top for f in fracs], bit_cap=bit_cap)


def populated_levels(plan) -> int:
    return sum(1 for head in plan.group_table if head != 0)


class TestFlopReport:
    def test_accelerated_beats_naive(self, ref_model, gap):
        grid = owclb.SubcarrierGrid.from_model(ref_model, 64, 200e6)
        naive = owclb.hh_naive(grid, gap, 1e7)
        accel = owclb.hh_accelerated(grid, gap, 1e7)
        np.testing.assert_array_equal(naive.bits, accel.bits)
        assert accel.flops < naive.flops
        assert accel.iterations == naive.iterations

    def test_single_bit_savings(self):
        # budget affords exactly one bit: two search rounds happen (grant,
        # then reject); the naive scan pays K-1 comparisons per round while
        # the table search pays 0 then 1
        k = 64
        grid = flat_grid(k)
        naive = owclb.hh_naive(grid, 1.0, 1.0)
        accel = owclb.hh_accelerated(grid, 1.0, 1.0)
        assert naive.bits.tolist()[:2] == [1, 0]
        assert naive.iterations == accel.iterations == 2
        assert populated_levels(accel) == 2  # level 0 and level 1
        assert naive.flops - accel.flops == 2 * (k - 1) - 1
        assert naive.flops - accel.flops >= k - populated_levels(accel)

    def test_zero_budget_equal_setup(self):
        grid = flat_grid(16)
        naive = owclb.hh_naive(grid, 1.0, 0.0)
        accel = owclb.hh_accelerated(grid, 1.0, 0.0)
        assert naive.flops == accel.flops

    def test_savings_grow_with_k(self, ref_model, gap):
        gaps = []
        for k in (64, 128, 256):
            grid = owclb.SubcarrierGrid.from_model(ref_model, k, 200e6)
            naive = owclb.hh_naive(grid, gap, 1e6)
            accel = owclb.hh_accelerated(grid, gap, 1e6)
            gaps.append(naive.flops - accel.flops)
        assert gaps[0] < gaps[1] < gaps[2]


class TestDiscretizationSandwich:
    def test_hh_rate_below_continuous_with_bounded_deficit(self, ref_model, gap):
        from scipy.optimize import brentq

        # bit_cap=50 keeps the modulation-order ceiling out of the way so
        # the deficit measured is purely flooring plus grid granularity
        grid = owclb.SubcarrierGrid.from_model(ref_model, 256, 200e6)
        full = owclb.sigma2_of_fmax(ref_model, gap, 200e6)
        for frac in np.geomspace(1e-5, 0.5, 8):
            budget = full * float(frac)
            plan = owclb.hh_accelerated(grid, gap, budget, bit_cap=50)
            f_star = brentq(
                lambda f: owclb.sigma2_of_fmax(ref_model, gap, f) - budget, 1e3, 200e6
            )
            r_cont = owclb.rate_closed_form(ref_model, f_star)
            active = int(np.sum(plan.bits > 0))
            assert plan.rate <= r_cont * (1.0 + 1e-12)
            assert r_cont - plan.rate <= active * grid.delta_b


class TestPlanCsv:
    def test_round_trip(self, ref_model, gap, tmp_path):
        grid = owclb.SubcarrierGrid.from_model(ref_model, 16, 200e6)
        plan = owclb.hh_accelerated(grid, gap, 1e7)
        path = tmp_path / "plan.csv"
        owclb.write_plan_csv(plan, path)
        loaded = owclb.read_plan_csv(path)
        assert loaded["total_power_v2"] == plan.total_power
        assert loaded["rate_bit_s"] == plan.rate
        assert loaded["flops"] == plan.flops
        assert loaded["algorithm"] == "hh_accelerated"
        np.testing.assert_array_equal(loaded["bits"], plan.bits)
        np.testing.assert_array_equal(loaded["power_v2"], plan.power_k)
        np.testing.assert_array_equal(loaded["k"], np.arange(1, 17))

"""Tests for the closed-form chain analytics."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdld.chain import (
    ModelParams,
    ProbabilityVector,
    _dwell_times,
    embedded_stationary,
    embedded_transition_row,
    harmonic_partial,
    jump_rates,
    prefix_mass,
    stationary_distribution,
)


class TestModelParams:
    def test_validation(self):
        ModelParams(1, 0.5)
        with pytest.raises(ValueError):
            ModelParams(0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(3, 0.0)
        with pytest.raises(ValueError):
            ModelParams(3, -1.0)
        with pytest.raises(ValueError):
            ModelParams(2.5, 1.0)


class TestJumpRates:
    def test_interior(self):
        assert jump_rates(ModelParams(10, 1.0), 5) == (5.0, 5.0)

    def test_lower_end_is_one_sided(self):
        assert jump_rates(ModelParams(10, 1.0), 1) == (1.0, 0.0)

    def test_upper_end_scales_with_lambda(self):
        assert jump_rates(ModelParams(10, 2.0), 10) == (0.0, 20.0)

    def test_single_state_has_no_moves(self):
        assert jump_rates(ModelParams(1, 1.0), 1) == (0.0, 0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            jump_rates(ModelParams(10, 1.0), 0)
        with pytest.raises(ValueError):
            jump_rates(ModelParams(10, 1.0), 11)


class TestStationaryDistribution:
    def test_single_state(self):
        assert stationary_distribution(ModelParams(1, 1.0)).mass.tolist() == [1.0]

    def test_two_states(self):
        pi = stationary_distribution(ModelParams(2, 3.0))
        np.testing.assert_allclose(pi.mass, [2 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_four_states(self):
        # normalize (1, 1/2, 1/3, 1/4); H_4 = 25/12
        expected = [Fraction(12, 25), Fraction(6, 25), Fraction(4, 25), Fraction(3, 25)]
        pi = stationary_distribution(ModelParams(4, 1.0))
        for m, frac in enumerate(expected, start=1):
            assert abs(pi.prob(m) - float(frac)) <= 1e-12

    @given(n=st.integers(2, 200), lam=st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_detailed_balance(self, n, lam):
        params = ModelParams(n, lam)
        pi = stationary_distribution(params)
        for m in range(1, n):
            up, _ = jump_rates(params, m)
            _, down = jump_rates(params, m + 1)
            flux = pi.prob(m) * up
            assert abs(flux - pi.prob(m + 1) * down) <= 1e-12 * max(1.0, flux)


class TestPrefixMass:
    def test_full_support(self):
        assert prefix_mass(ModelParams(17, 1.0), 17) == 1.0

    def test_four_states(self):
        # (1 + 1/2) / (25/12) = 18/25
        assert abs(prefix_mass(ModelParams(4, 1.0), 2) - 0.72) <= 1e-15

    def test_large_n(self):
        assert abs(prefix_mass(ModelParams(10 ** 6, 1.0), 10 ** 5) - 0.8400) <= 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_mass(ModelParams(4, 1.0), 0)
        with pytest.raises(ValueError):
            prefix_mass(ModelParams(4, 1.0), 5)

    def test_concentration_regime_is_increasing(self):
        # M_k = ceil(N_k / ln N_k) along N_k = 10^k
        values = []
        for k in (2, 3, 4):
            n = 10 ** k
            m = math.ceil(n / math.log(n))
            values.append(prefix_mass(ModelParams(n, 1.0), m))
        assert values[0] < values[1] < values[2]


class TestHarmonicPartial:
    def test_first_terms(self):
        assert harmonic_partial(1).total == 1.0
        assert abs(harmonic_partial(4).total - 25 / 12) <= 1e-15

    def test_residual_limit(self):
        # k * eps_k -> 1/2
        k = 10 ** 6
        assert abs(k * harmonic_partial(k).euler_residual - 0.5) < 1e-3

    def test_recurrence(self):
        # H_k - H_{k-1} = 1/k up to the rounding of the two totals
        for k in (2, 17, 1024, 99_991, 10 ** 6):
            gap = harmonic_partial(k).total - harmonic_partial(k - 1).total - 1.0 / k
            assert abs(gap) <= 1e-14

    def test_residual_definition(self):
        # eps_k = H_k - ln k - gamma from a stored table below k = 20 and the
        # series from k = 20 on, where the difference of the totals loses up
        # to seven digits to cancellation (1.7e-14 relative at k = 16)
        with mp.workdps(40):
            for k in (*range(1, 20), 20, 50, 100, 10 ** 3, 10 ** 4, 10 ** 6, 2 ** 20, 2 ** 20 + 1,
                      10 ** 7, 10 ** 8, 10 ** 8 + 1, 10 ** 12):
                residual = mp.harmonic(k) - mp.log(k) - mp.euler
                assert abs(harmonic_partial(k).euler_residual - residual) <= 2.5e-16 * residual, k

    def test_asymptotic_branch_is_continuous(self):
        # the direct sum at the crossover and the expansion one past it
        # differ by 1/(k+1), up to a rounding of each total
        k = 2 ** 20
        gap = harmonic_partial(k + 1).total - harmonic_partial(k).total - 1 / (k + 1)
        assert abs(gap) <= 2 * math.ulp(harmonic_partial(k).total)

    @pytest.mark.parametrize("k", [10 ** 8 + 1, 10 ** 12, 10 ** 15])
    def test_asymptotic_branch_against_mpmath(self, k):
        # the residual comes from the expansion's own terms: total - ln k -
        # gamma cancels to -2.8e-15 at k = 1e15, where eps_k is 5.0e-16
        hp = harmonic_partial(k)
        with mp.workdps(40):
            total = mp.harmonic(k)
            residual = total - mp.log(k) - mp.euler
            assert abs(hp.total - total) <= 2e-16 * total
            assert abs(hp.euler_residual - residual) <= 1e-15 * residual

    def test_invalid(self):
        with pytest.raises(ValueError):
            harmonic_partial(0)
        with pytest.raises(ValueError):
            harmonic_partial(1.5)


class TestEmbeddedChain:
    def test_interior_row(self):
        assert embedded_transition_row(ModelParams(10, 1.0), 5) == {4: 0.5, 6: 0.5}

    def test_reflections(self):
        assert embedded_transition_row(ModelParams(10, 1.0), 1) == {2: 1.0}
        assert embedded_transition_row(ModelParams(10, 1.0), 10) == {9: 1.0}

    def test_single_state_rejected(self):
        with pytest.raises(ValueError):
            embedded_transition_row(ModelParams(1, 1.0), 1)
        with pytest.raises(ValueError):
            embedded_stationary(ModelParams(1, 1.0))

    def test_five_states(self):
        pi_hat = embedded_stationary(ModelParams(5, 1.0))
        np.testing.assert_allclose(pi_hat.mass, [1 / 8, 1 / 4, 1 / 4, 1 / 4, 1 / 8],
                                   rtol=0, atol=1e-15)

    def test_two_states(self):
        np.testing.assert_allclose(embedded_stationary(ModelParams(2, 1.0)).mass,
                                   [0.5, 0.5], rtol=0, atol=0)

    @given(n=st.integers(2, 150))
    @settings(max_examples=30, deadline=None)
    def test_left_fixed_point(self, n):
        params = ModelParams(n, 1.0)
        pi_hat = embedded_stationary(params)
        flow = np.zeros(n)
        for m in range(1, n + 1):
            for target, prob in embedded_transition_row(params, m).items():
                flow[target - 1] += pi_hat.prob(m) * prob
        assert np.abs(flow - pi_hat.mass).max() <= 1e-12
        assert abs(pi_hat.mass.sum() - 1.0) <= 1e-12


class TestProbabilityVector:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            ProbabilityVector(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            ProbabilityVector(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("mass", [[0.5, math.nan], [math.nan], [1.0, math.inf], [1.0, -math.inf]])
    def test_rejects_non_finite_mass(self, mass):
        # NaN passes both the sign and the sum check
        with pytest.raises(ValueError, match="finite"):
            ProbabilityVector(np.array(mass))

    def test_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ProbabilityVector(np.full((2, 2), 0.25))

    @pytest.mark.parametrize("state", [0, 3])
    def test_prob_outside_the_states(self, state):
        with pytest.raises(ValueError, match="outside 1..2"):
            ProbabilityVector(np.array([0.5, 0.5])).prob(state)

    def test_tv_distance_of_unequal_sizes(self):
        with pytest.raises(ValueError, match="dimension"):
            ProbabilityVector(np.array([0.5, 0.5])).tv_distance(ProbabilityVector(np.ones(3) / 3))

    @pytest.mark.parametrize("pv", [
        stationary_distribution(ModelParams(6, 2.0)),
        embedded_stationary(ModelParams(5, 1.0)),
        ProbabilityVector(np.array([0.0, 0.1, 0.2, 0.30000000000000004, 0.39999999999999997])),
    ])
    def test_csv_table(self, tmp_path, pv):
        # the same bytes as the (state, numpy mass) rows the CLI wrote before
        from bdld.serialize import write_csv
        header, rows = pv.csv_table()
        assert header == ["state", "mass"]
        assert [state for state, _ in rows] == list(range(1, pv.n_states + 1))
        write_csv(tmp_path / "table.csv", header, rows)
        write_csv(tmp_path / "enumerated.csv", ["state", "mass"], list(enumerate(pv.mass, start=1)))
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "enumerated.csv").read_bytes()

    def test_inverse_cdf_sampling(self):
        pi = stationary_distribution(ModelParams(3, 1.0))
        cum = np.cumsum(pi.mass)
        assert pi.sample_state(0.0) == 1
        assert pi.sample_state(cum[0] + 1e-9) == 2
        assert pi.sample_state(0.999999999) == 3


def test_dwell_times_refuse_a_negative_time():
    with pytest.raises(ValueError, match=">= 0"):
        _dwell_times(0.5, [1.0, -0.5])

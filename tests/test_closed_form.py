import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_psk_error
from qsd.closed_form import (
    binary_constraint_residual,
    binary_individual_errors,
    helstrom_bound,
    srm_error_circulant,
    srm_error_general,
    symmetric_min_error,
    symmetric_p_quadratic,
)
from qsd.ensembles import Ensemble, gram_binary, gram_psk, gram_symmetric
from qsd.errors import NotCirculantError, UnsupportedPriorsError, ValidationError

# decimal-evaluated reference values (40-digit arithmetic, rounded to float)
HELSTROM_Q_25_60 = 0.07279981273412345
R1_25_60 = 0.2308053614488997
R2_25_60 = 0.02013129649586469
SYM_4_HALF = 0.14323725421878944


class TestHelstromBound:
    def test_orthogonal(self):
        assert helstrom_bound(0.5, 0.0) == 0.0

    def test_identical(self):
        assert helstrom_bound(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_equal_priors_reference_point(self):
        assert helstrom_bound(0.5, 0.6) == pytest.approx(0.1, abs=1e-15)

    def test_unequal_priors_reference_point(self):
        assert helstrom_bound(0.25, 0.6) == pytest.approx(HELSTROM_Q_25_60, abs=1e-15)

    def test_complex_overlap_uses_modulus(self):
        for z in (0.6j, -0.6, 0.6 * np.exp(0.3j)):
            assert helstrom_bound(0.25, z) == pytest.approx(HELSTROM_Q_25_60, abs=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            helstrom_bound(1.5, 0.2)
        with pytest.raises(ValidationError):
            helstrom_bound(0.5, 1.2)

    @settings(max_examples=100, deadline=None)
    @given(
        eta1=st.floats(min_value=0.0, max_value=1.0),
        s=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_range(self, eta1, s):
        pe = helstrom_bound(eta1, s)
        assert 0.0 <= pe <= 0.5


class TestBinaryIndividualErrors:
    def test_equal_priors_symmetric_split(self):
        sol = binary_individual_errors(0.5, 0.6)
        assert sol.r1 == pytest.approx(0.1, abs=1e-14)
        assert sol.r2 == pytest.approx(0.1, abs=1e-14)
        assert sol.p_error == pytest.approx(0.1, abs=1e-14)

    def test_unequal_priors_reference_point(self):
        sol = binary_individual_errors(0.25, 0.6)
        assert sol.r1 == pytest.approx(R1_25_60, abs=1e-14)
        assert sol.r2 == pytest.approx(R2_25_60, abs=1e-14)
        assert sol.p_error == pytest.approx(HELSTROM_Q_25_60, abs=1e-14)

    def test_orthogonal(self):
        sol = binary_individual_errors(0.5, 0.0)
        assert sol.r1 == 0.0 and sol.r2 == 0.0

    def test_degenerate_limit(self):
        sol = binary_individual_errors(0.5, 1.0)
        assert sol.r1 == 0.5 and sol.r2 == 0.5

    def test_average_and_constraint_on_grid(self):
        for eta1 in np.arange(0.05, 0.951, 0.05):
            for s in np.arange(0.0, 0.991, 0.01):
                sol = binary_individual_errors(float(eta1), float(s))
                avg = eta1 * sol.r1 + (1 - eta1) * sol.r2
                assert abs(avg - helstrom_bound(float(eta1), float(s))) <= 1e-12
                assert binary_constraint_residual(float(s), sol.r1, sol.r2) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        eta1=st.floats(min_value=0.001, max_value=0.999),
        s=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_invariants_property(self, eta1, s):
        sol = binary_individual_errors(eta1, s)
        assert 0.0 <= sol.r1 <= 1.0
        assert 0.0 <= sol.r2 <= 1.0
        assert abs(sol.p_error - (eta1 * sol.r1 + (1 - eta1) * sol.r2)) <= 1e-12


class TestSymmetricMinError:
    def test_orthogonal(self):
        assert symmetric_min_error(4, 0.0) == 0.0

    def test_identical(self):
        assert symmetric_min_error(4, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_three_states_half_overlap(self):
        assert symmetric_min_error(3, 0.5) == pytest.approx(1 / 9, abs=1e-14)

    def test_four_states_half_overlap(self):
        assert symmetric_min_error(4, 0.5) == pytest.approx(SYM_4_HALF, abs=1e-14)

    def test_reduces_to_binary_bound_at_two(self):
        for s in np.linspace(0.0, 1.0, 41):
            assert abs(symmetric_min_error(2, float(s)) - helstrom_bound(0.5, float(s))) <= 1e-12

    def test_lower_psd_edge(self):
        for n in range(2, 7):
            edge = -1.0 / (n - 1)
            assert symmetric_min_error(n, edge) == pytest.approx(1.0 / n, abs=1e-12)

    def test_monotone_in_overlap(self):
        for n in (2, 3, 5):
            vals = [symmetric_min_error(n, float(s)) for s in np.linspace(0, 1, 101)]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            symmetric_min_error(4, -0.4)


class TestSymmetricQuadratic:
    def test_reference_root(self):
        p_plus, p_minus = symmetric_p_quadratic(3, 0.5)
        assert p_plus == pytest.approx(8 / 9, abs=1e-14)
        assert p_plus >= p_minus >= 0.0

    def test_orthogonal(self):
        assert symmetric_p_quadratic(5, 0.0)[0] == pytest.approx(1.0, abs=1e-14)

    def test_identical(self):
        assert symmetric_p_quadratic(5, 1.0)[0] == pytest.approx(0.2, abs=1e-14)

    def test_consistent_with_min_error(self):
        for n in range(2, 7):
            for s in np.linspace(-1.0 / (n - 1) + 1e-6, 1.0 - 1e-9, 25):
                p_plus, _ = symmetric_p_quadratic(n, float(s))
                assert abs((1.0 - p_plus) - symmetric_min_error(n, float(s))) <= 1e-12

    def test_roots_solve_the_constraint(self):
        # each root satisfies the overlap constraint with a signed
        # off-diagonal amplitude t, t^2 = r; the larger root takes the
        # positive branch for s >= 0
        n, s = 4, 0.35
        p_plus, p_minus = symmetric_p_quadratic(n, s)
        r = (1.0 - p_plus) / (n - 1)
        assert abs(2 * math.sqrt(p_plus * r) + (n - 2) * r - s) <= 1e-10
        for p in (p_plus, p_minus):
            r = (1.0 - p) / (n - 1)
            t = (s - (n - 2) * r) / (2 * math.sqrt(p))
            assert abs(t * t - r) <= 1e-10


class TestSrmGeneral:
    def test_identity_gram(self):
        assert srm_error_general(gram_symmetric(3, 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_binary_equal_priors(self):
        assert srm_error_general(gram_binary(0.6, 0.5)) == pytest.approx(0.1, abs=1e-12)

    def test_matches_symmetric_closed_form(self):
        for n in range(2, 7):
            for s in np.linspace(-1.0 / (n - 1) + 1e-6, 1.0 - 1e-6, 20):
                ens = gram_symmetric(n, float(s))
                assert abs(srm_error_general(ens) - symmetric_min_error(n, float(s))) <= 1e-10

    def test_unequal_priors_rejected(self):
        with pytest.raises(UnsupportedPriorsError):
            srm_error_general(gram_binary(0.6, 0.25))

    def test_rank_deficient_support(self):
        ens = gram_symmetric(3, -0.5)
        err = srm_error_general(ens)
        assert abs(err - symmetric_min_error(3, -0.5)) <= 1e-10


class TestSrmCirculant:
    def test_identical_states(self):
        assert srm_error_circulant(gram_psk(3, 0.0)) == pytest.approx(2 / 3, abs=1e-12)

    def test_orthogonal_limit(self):
        assert srm_error_circulant(gram_psk(4, 50.0)) < 1e-15

    def test_binary(self):
        assert srm_error_circulant(gram_binary(0.6, 0.5)) == pytest.approx(0.1, abs=1e-12)

    def test_non_circulant_rejected(self):
        g = np.eye(3, dtype=complex)
        g[0, 1] = g[1, 0] = 0.5
        ens = Ensemble(3, g, np.full(3, 1 / 3))
        with pytest.raises(NotCirculantError):
            srm_error_circulant(ens)

    def test_agrees_with_general_oracle(self):
        cases = [gram_psk(n, a) for n in (3, 4, 5) for a in (0.1, 0.6, 1.5)]
        cases += [gram_symmetric(n, s) for n, s in [(3, 0.4), (4, -0.2), (5, 0.7)]]
        for ens in cases:
            assert abs(srm_error_circulant(ens) - srm_error_general(ens)) <= 1e-12


@pytest.mark.parametrize("oracle", [srm_error_general, srm_error_circulant])
def test_srm_oracles_keep_relative_accuracy(oracle):
    # 1 - p_succ cancels to 0 or 2.2e-16 here; the true error is 1.43e-20
    exact = mp_psk_error(3, 15.0)
    assert abs(mpmath.mpf(oracle(gram_psk(3, 15.0))) / exact - 1) <= 1e-5


@pytest.mark.parametrize("n, alpha_sq", [(3, 15.0), (4, 20.0)])
def test_srm_general_full_relative_accuracy(n, alpha_sq):
    # near-orthogonal states: the off-diagonal of G^{1/2} is ~1e-10, far
    # below the absolute error of an eigendecomposition of G itself
    exact = mp_psk_error(n, alpha_sq)
    assert abs(mpmath.mpf(srm_error_general(gram_psk(n, alpha_sq))) / exact - 1) <= 1e-12

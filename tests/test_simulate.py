import dataclasses
import math
import time
import warnings
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_gram, random_isometry
from qsd.closed_form import binary_individual_errors, helstrom_bound
from qsd.coupling import (
    CouplingMatrix,
    _dilation_block,
    binary_optimal_coupling,
    circulant_optimal_coupling,
    coupling_from_unitary,
    feasibility_residual,
    symmetric_optimal_coupling,
)
from qsd.ensembles import Ensemble, gram_binary, gram_psk, gram_symmetric
from qsd.errors import InfeasibleCouplingError, ValidationError
from qsd.optimizer import psk3_solve
from qsd.simulate import (
    SimulationReport,
    TwoStageParams,
    check_against_dilation,
    run_monte_carlo,
    two_stage_binary,
)

HELSTROM_30_40 = 0.03481186601547971  # decimal-evaluated, (eta1, s) = (0.3, 0.4)


def reference_report(coupling, shots, seed):
    """Counts, analytic error, empirical error and standard error of a run,
    recomputed from ``coupling.c`` alone with the sampler's arithmetic, in
    its order: the stored prior times |c|**2 over the row sums, normalized,
    then one multinomial from ``default_rng(seed)``."""
    c, priors, n = coupling.c, coupling.ensemble.priors, coupling.n
    rows = np.abs(c) ** 2
    rowsum = rows.sum(axis=1)
    joint = priors[:, None] * rows / rowsum[:, None]
    joint /= joint.sum()
    counts = np.random.default_rng(seed).multinomial(shots, joint.ravel()).reshape(n, n)
    off = np.abs(c) ** 2
    np.fill_diagonal(off, 0.0)
    analytic = float(np.dot(priors, off.sum(axis=1)))
    return (
        counts,
        analytic,
        (shots - int(np.trace(counts))) / shots,
        float(np.sqrt(analytic * (1.0 - analytic) / shots)),
    )


def _random_coupling(n, rank, seed):
    rng = np.random.default_rng(seed)
    ens = Ensemble(n, random_gram(rng, n, rank), rng.dirichlet(np.ones(n)))
    return coupling_from_unitary(ens, random_isometry(rng, rank, n))


def _unitary_coupling(priors, seed):
    n = len(priors)
    u = random_isometry(np.random.default_rng(seed), n, n)
    return CouplingMatrix(u, Ensemble(n, np.eye(n, dtype=complex), np.array(priors)))


# every kind of coupling the sampler sees; each is feasible, so that the
# 10^6-shot runs pass the dilation check
SAMPLED_COUPLINGS = {
    "binary complex overlap": lambda: binary_optimal_coupling(0.3, 0.6 * np.exp(0.7j)),
    "symmetric n=4": lambda: symmetric_optimal_coupling(4, 0.3),
    "symmetric n=3 rank 2": lambda: symmetric_optimal_coupling(3, -0.5),
    "unitary n=8 full rank": lambda: _random_coupling(8, 8, 80),
    "unitary n=8 half rank": lambda: _random_coupling(8, 4, 84),
    "unitary n=16 full rank": lambda: _random_coupling(16, 16, 160),
    "unitary n=16 half rank": lambda: _random_coupling(16, 8, 168),
    "5-PSK circulant": lambda: circulant_optimal_coupling(gram_psk(5, 0.8)),
    "prior -1e-13": lambda: _unitary_coupling([1.0 + 1e-13, -1e-13], 2),
    "zero-prior row": lambda: _unitary_coupling([0.5, 0.0, 0.5], 3),
}


class TestRunMonteCarlo:
    @pytest.mark.parametrize("shots", [2.5, 7.0, "7", True, None])
    def test_shots_checked_never_cast(self, shots):
        with pytest.raises(ValidationError, match="shots must be an integer"):
            run_monte_carlo(binary_optimal_coupling(0.5, 0.6), shots, 1)

    @pytest.mark.parametrize("seed", [1.9, 1.0, "1", False])
    def test_seed_checked_never_cast(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_monte_carlo(binary_optimal_coupling(0.5, 0.6), 100, seed)

    def test_numpy_integer_counts_accepted(self):
        cpl = binary_optimal_coupling(0.5, 0.6)
        rpt = run_monte_carlo(cpl, np.int64(1000), np.uint64(2**64 - 1))
        assert (rpt.shots, rpt.seed) == (1000, 2**64 - 1)
        assert type(rpt.shots) is int and type(rpt.seed) is int
        assert np.array_equal(rpt.counts, run_monte_carlo(cpl, 1000, 2**64 - 1).counts)

    def test_identity_coupling_never_errs(self):
        ens = gram_symmetric(3, 0.0)
        rpt = run_monte_carlo(CouplingMatrix(np.eye(3, dtype=complex), ens), 100_000, 3)
        assert rpt.empirical_error == 0.0
        assert int(rpt.counts.sum()) == 100_000

    def test_binary_within_noise(self):
        rpt = run_monte_carlo(binary_optimal_coupling(0.5, 0.6), 1_000_000, 7)
        assert rpt.analytic_error == pytest.approx(0.1, abs=1e-12)
        assert abs(rpt.empirical_error - rpt.analytic_error) <= 4 * rpt.std_error

    def test_symmetric_within_noise(self):
        rpt = run_monte_carlo(symmetric_optimal_coupling(3, 0.5), 1_000_000, 13)
        assert rpt.analytic_error == pytest.approx(1 / 9, abs=1e-12)
        assert abs(rpt.empirical_error - rpt.analytic_error) <= 4 * rpt.std_error

    def test_report_identities(self):
        rpt = run_monte_carlo(binary_optimal_coupling(0.5, 0.6), 50_000, 21)
        assert int(rpt.counts.sum()) == rpt.shots == 50_000
        wrong = rpt.shots - int(np.trace(rpt.counts))
        assert rpt.empirical_error == float(Fraction(wrong, rpt.shots))
        p = rpt.analytic_error
        assert rpt.std_error == pytest.approx(math.sqrt(p * (1 - p) / rpt.shots), abs=0)

    def test_small_analytic_error_keeps_relative_accuracy(self):
        # 1 - p_succ cancels to 0 or 2.2e-16 here; the true error is 1.43e-20
        params, p_err = psk3_solve(15.0)
        rpt = run_monte_carlo(circulant_optimal_coupling(gram_psk(3, 15.0)), 1000, 2)
        assert abs(rpt.analytic_error / p_err - 1.0) <= 1e-6

    def test_reproducible_same_seed(self):
        coupling = binary_optimal_coupling(0.25, 0.6)
        a = run_monte_carlo(coupling, 200_000, 5)
        b = run_monte_carlo(coupling, 200_000, 5)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        coupling = binary_optimal_coupling(0.5, 0.6)
        a = run_monte_carlo(coupling, 100_000, 1)
        b = run_monte_carlo(coupling, 100_000, 2)
        assert not np.array_equal(a.counts, b.counts)

    def test_row_marginals_match_distribution(self):
        coupling = binary_optimal_coupling(0.5, 0.6)
        rpt = run_monte_carlo(coupling, 1_000_000, 17)
        probs = np.abs(coupling.c) ** 2
        priors = coupling.ensemble.priors
        for j in range(2):
            row_total = rpt.counts[j].sum()
            for k in range(2):
                p = probs[j, k]
                sd = math.sqrt(p * (1 - p) * row_total)
                assert abs(rpt.counts[j, k] - p * row_total) <= 4 * sd + 1

    def test_statistical_sanity_many_seeds(self):
        coupling = binary_optimal_coupling(0.5, 0.6)
        p = 0.1
        bad = 0
        for seed in range(100):
            rpt = run_monte_carlo(coupling, 100_000, seed)
            z = abs(rpt.empirical_error - p) / rpt.std_error
            if z > 4:
                bad += 1
        assert bad <= 2

    def test_invalid_shots(self):
        with pytest.raises(ValidationError):
            run_monte_carlo(binary_optimal_coupling(0.5, 0.6), 0, 1)

    def test_shots_beyond_int64_refused(self):
        coupling = binary_optimal_coupling(0.5, 0.6)
        for shots in (2**63, 10**20):
            with pytest.raises(ValidationError, match="2\\*\\*63"):
                run_monte_carlo(coupling, shots, 1)
        rpt = run_monte_carlo(coupling, 2**63 - 1, 1)
        assert int(rpt.counts.sum()) == 2**63 - 1

    def test_empirical_error_exact(self):
        # (shots - trace) / shots keeps relative accuracy where
        # 1 - trace / shots would cancel
        coupling = symmetric_optimal_coupling(2, 1e-4)
        for shots in (10**12 + 1, 10**15 + 7):
            rpt = run_monte_carlo(coupling, shots, 8)
            wrong = shots - int(np.trace(rpt.counts))
            assert wrong > 0
            assert rpt.empirical_error == float(Fraction(wrong, shots))

    def test_tiny_negative_prior(self):
        ens = Ensemble(2, np.eye(2, dtype=complex), np.array([1.0 + 1e-13, -1e-13]))
        rpt = run_monte_carlo(CouplingMatrix(np.eye(2, dtype=complex), ens), 100_000, 4)
        assert rpt.counts.tolist() == [[100_000, 0], [0, 0]]

    def test_tiny_negative_prior_on_an_erring_row(self):
        ens = Ensemble(2, np.eye(2, dtype=complex), np.array([1.0 + 1e-13, -1e-13]))
        coupling = CouplingMatrix(np.array([[1, 0], [1, 0]], dtype=complex), ens)
        rpt = run_monte_carlo(coupling, 1000, 4)
        assert rpt.analytic_error == 0.0
        assert rpt.std_error == 0.0

    def test_zero_prior_row_never_drawn(self):
        ens = Ensemble(3, np.eye(3, dtype=complex), np.array([0.5, 0.0, 0.5]))
        coupling = CouplingMatrix(np.eye(3, dtype=complex)[[0, 2, 1]], ens)
        rpt = run_monte_carlo(coupling, 999_999, 6)
        assert rpt.counts[1].tolist() == [0, 0, 0]
        assert int(rpt.counts.sum()) == 999_999

    def test_law_n16_dirichlet(self):
        # every cell and every row total within 5 sigma of its binomial mean
        rng = np.random.default_rng(1616)
        n, shots = 16, 10**7
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        ens = Ensemble(n, np.eye(n, dtype=complex), rng.dirichlet(np.ones(n)))
        rpt = run_monte_carlo(CouplingMatrix(q, ens), shots, 1617)
        cells = ens.priors[:, None] * np.abs(q) ** 2
        for observed, p in ((rpt.counts, cells), (rpt.counts.sum(axis=1), ens.priors)):
            sd = np.sqrt(shots * p * (1 - p))
            assert np.all(np.abs(observed - shots * p) <= 5 * sd)

    def test_cost_independent_of_shots(self):
        coupling = symmetric_optimal_coupling(64, 0.5)
        start = time.perf_counter()
        rpt = run_monte_carlo(coupling, 10**12, 12)
        elapsed = time.perf_counter() - start
        assert int(rpt.counts.sum()) == 10**12
        assert elapsed < 1.0

    def test_counts_frozen(self):
        rpt = run_monte_carlo(binary_optimal_coupling(0.5, 0.6), 1000, 1)
        with pytest.raises(ValueError):
            rpt.counts[0, 0] = 0

    def test_counts_kept_as_a_view(self):
        # an int64 array is frozen through a view of its own, not copied, so
        # the caller's array stays writable
        rpt = run_monte_carlo(binary_optimal_coupling(0.5, 0.6), 1000, 1)
        arr = np.array(rpt.counts)
        again = dataclasses.replace(rpt, counts=arr)
        assert np.shares_memory(again.counts, arr)
        assert arr.flags.writeable
        assert not again.counts.flags.writeable
        assert not rpt.counts.flags.writeable

    @pytest.mark.parametrize("counts", [[[3, 1], [0, 6]], np.array([[3, 1], [0, 6]], dtype=np.int32)])
    def test_counts_converted_to_int64(self, counts):
        rpt = run_monte_carlo(binary_optimal_coupling(0.5, 0.6), 10, 1)
        again = dataclasses.replace(rpt, counts=counts)
        assert again.counts.dtype == np.int64
        assert again.counts.tolist() == [[3, 1], [0, 6]]
        assert not again.counts.flags.writeable

    @pytest.mark.parametrize("name", sorted(SAMPLED_COUPLINGS))
    def test_counts_match_the_reference_law(self, name):
        # bit for bit, at shot counts on both sides of the dilation check
        coupling = SAMPLED_COUPLINGS[name]()
        for shots in (1, 10_000, 999_999, 1_000_000):
            for seed in (0, 20231, 2**64 - 1):
                rpt = run_monte_carlo(coupling, shots, seed)
                counts, analytic, empirical, std = reference_report(coupling, shots, seed)
                assert np.array_equal(rpt.counts, counts)
                assert rpt.counts.dtype == np.int64
                assert rpt.analytic_error == analytic
                assert rpt.empirical_error == empirical
                assert rpt.std_error == std

    @pytest.mark.parametrize(
        "gram, priors, expected",
        [
            ([[1, 0.5], [0.5, 1]], [1.0, -1e-12], [[93390, 6610], [0, 0]]),
            (
                [[1, 0.3, 0.2], [0.3, 1, 0.1], [0.2, 0.1, 1]],
                [0.5, 0.5, -5e-13],
                [[48216, 1131, 496], [1099, 48958, 100], [0, 0, 0]],
            ),
        ],
    )
    def test_prior_roundoff_counts_pinned(self, gram, priors, expected):
        # a prior down to -PRIOR_TOL is sampled as 0; counts pinned at seed 3901
        ens = Ensemble(len(priors), np.array(gram, dtype=complex), np.array(priors))
        rpt = run_monte_carlo(coupling_from_unitary(ens, np.eye(len(priors))), 100_000, 3901)
        assert rpt.counts.tolist() == expected
        assert rpt.analytic_error >= 0.0

    def test_error_above_one_gives_zero_std_error(self):
        # rows 4e-11 over unit norm that never name their input: the error
        # is just above 1, and its binomial variance is 0, not NaN
        ens = Ensemble(2, np.eye(2, dtype=complex), np.array([0.5, 0.5]))
        coupling = CouplingMatrix(np.array([[0, 1 + 4e-11], [1 + 4e-11, 0]]), ens)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rpt = run_monte_carlo(coupling, 1000, 1)
        assert rpt.analytic_error > 1.0
        assert rpt.std_error == 0.0
        assert rpt.empirical_error == 1.0


class TestCheckAgainstDilation:
    def test_consistent_coupling_passes(self):
        residual = check_against_dilation(binary_optimal_coupling(0.5, 0.6))
        assert residual <= 1e-10

    def test_long_runs_gate_on_it(self):
        # 10^6-shot runs re-derive row distributions from the dilation;
        # a feasible coupling passes through without error
        rpt = run_monte_carlo(symmetric_optimal_coupling(3, 0.5), 1_000_000, 9)
        assert int(rpt.counts.sum()) == 1_000_000

    def test_long_run_at_n64(self):
        # the dilation check maps the inputs through the 64 x 64 block only
        start = time.perf_counter()
        rpt = run_monte_carlo(symmetric_optimal_coupling(64, 0.5), 1_000_000, 64)
        elapsed = time.perf_counter() - start
        assert int(rpt.counts.sum()) == 1_000_000
        assert abs(rpt.empirical_error - rpt.analytic_error) <= 4 * rpt.std_error
        assert elapsed < 30.0

    def test_size_limit_refused(self):
        # the dense unitary would need 1.1 GiB at n = 91; the check needs
        # only n x n arrays
        coupling = symmetric_optimal_coupling(91, 0.5)
        tracemalloc.start()
        try:
            rpt = run_monte_carlo(coupling, 1_000_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(rpt.counts.sum()) == 1_000_000
        assert abs(rpt.empirical_error - rpt.analytic_error) <= 4 * rpt.std_error
        assert peak < 32 << 20
        rpt = run_monte_carlo(symmetric_optimal_coupling(91, 0.5), 999_999, 0)
        assert int(rpt.counts.sum()) == 999_999

    def test_slightly_infeasible_coupling_fails_the_check(self):
        # 2.5e-9 off the Gram matrix: inside FEASIBILITY_TOL (1e-8), but
        # the outcome probabilities then miss the dilation's by 7e-10
        base = symmetric_optimal_coupling(3, 0.5)
        noise = np.random.default_rng(4).standard_normal((3, 3, 2)) @ [1, 1j]
        c = base.c + 2e-9 * noise
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        coupling = CouplingMatrix(c, base.ensemble)
        assert 1e-9 < feasibility_residual(coupling) < 1e-8
        with pytest.raises(ValidationError, match="disagree"):
            run_monte_carlo(coupling, 1_000_000, 3)
        rpt = run_monte_carlo(coupling, 999_999, 3)
        assert int(rpt.counts.sum()) == 999_999

    def test_infeasible_coupling_refused(self):
        coupling = CouplingMatrix(np.eye(2, dtype=complex), gram_binary(0.6, 0.5))
        with pytest.raises(InfeasibleCouplingError):
            run_monte_carlo(coupling, 1_000_000, 3)

    def test_non_unitary_block_refused(self, monkeypatch):
        # on a rank-2 Gram the state coordinates annihilate the dropped
        # eigenvector, so stretching the block along it by 1 + 1e-6 leaves
        # every outcome probability exact and only the unitarity check fails
        coupling = symmetric_optimal_coupling(3, -0.5)
        null = np.full(3, 1 / math.sqrt(3))

        def skewed(cpl):
            coords, block = _dilation_block(cpl)
            return coords, block + 1e-6 * np.outer(null, null @ block)

        monkeypatch.setattr("qsd.coupling._dilation_block", skewed)
        with pytest.raises(ValidationError, match="not unitary"):
            check_against_dilation(coupling)


def law_residual(s, params):
    """The stage-one feasibility law at n = 2, written out as a scalar:
    ``sqrt((1-r1) r2) t1 + sqrt(r1 (1-r2)) t2 - s``."""
    r1, r2, t1, t2 = params.r1, params.r2, params.t1, params.t2
    return math.sqrt((1 - r1) * r2) * t1 + math.sqrt(r1 * (1 - r2)) * t2 - s


class TestTwoStageBinary:
    def test_optimal_first_stage_endpoint(self):
        sol = binary_individual_errors(0.5, 0.6)
        params = TwoStageParams(r1=sol.r1, r2=sol.r2, t1=1.0, t2=1.0)
        assert abs(law_residual(0.6, params)) <= 1e-10
        out = two_stage_binary(0.5, 0.6, params)
        assert out.first_stage_error == pytest.approx(0.1, abs=1e-12)
        assert out.combined_error == pytest.approx(0.1, abs=1e-10)
        # post states coincide: the conditionals carry no information
        for cond in out.conditional_ensembles:
            assert abs(cond.gram[0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_vacuous_first_stage_endpoint(self):
        params = TwoStageParams(r1=0.0, r2=1.0, t1=0.6, t2=0.0)
        out = two_stage_binary(0.5, 0.6, params)
        assert out.first_stage_error == pytest.approx(0.5, abs=1e-12)
        assert out.combined_error == pytest.approx(
            helstrom_bound(0.5, 0.6), abs=1e-10
        )
        assert out.conditional_ensembles[1] is None

    def test_infeasible_rejected(self):
        # the coupling module's one refusal, word for word
        params = TwoStageParams(r1=0.0, r2=0.0, t1=1.0, t2=1.0)
        with pytest.raises(InfeasibleCouplingError) as info:
            two_stage_binary(0.5, 0.6, params)
        assert str(info.value) == (
            "coupling is infeasible for this ensemble (residual 6.000e-01): "
            "inner products are not preserved, so no unitary extension exists"
        )

    @pytest.mark.parametrize("eta1, s", [(0.5, 0.6), (0.3, 0.4)])
    def test_law_accepted_at_feasibility_tol(self, eta1, s):
        # t2 solves the scalar law, then moves so that the law misses s by
        # 5e-9 (inside FEASIBILITY_TOL = 1e-8) or 5e-8 (outside), either way
        r1, r2, t1 = 0.4, 0.3, 0.5
        a2 = math.sqrt(r1 * (1 - r2))
        t2 = (s - math.sqrt((1 - r1) * r2) * t1) / a2
        for miss, feasible in ((5e-9, True), (-5e-9, True), (5e-8, False), (-5e-8, False)):
            params = TwoStageParams(r1=r1, r2=r2, t1=t1, t2=t2 + miss / a2)
            assert law_residual(s, params) == pytest.approx(miss, rel=1e-6)
            if feasible:
                out = two_stage_binary(eta1, s, params)
                assert out.combined_error >= helstrom_bound(eta1, s) - 1e-8
            else:
                with pytest.raises(InfeasibleCouplingError, match="inner products"):
                    two_stage_binary(eta1, s, params)

    def test_branch_above_the_floor_gets_an_ensemble(self):
        # outcome 2 has probability eta1 * r1 = 1e-20, above
        # CONDITIONAL_PROB_FLOOR (1e-24); at r1 = 0 it has probability 0
        params = TwoStageParams(r1=2e-20, r2=1.0, t1=0.6, t2=0.0)
        out = two_stage_binary(0.5, 0.6, params)
        tiny = out.conditional_ensembles[1]
        assert tiny is not None
        assert tiny.priors.tolist() == [1.0, 0.0]
        assert out.combined_error == pytest.approx(helstrom_bound(0.5, 0.6), abs=1e-10)
        params = TwoStageParams(r1=0.0, r2=1.0, t1=0.6, t2=0.0)
        assert two_stage_binary(0.5, 0.6, params).conditional_ensembles[1] is None

    def test_floor_random_scan(self):
        rng = np.random.default_rng(111)
        for eta1, s in ((0.5, 0.6), (0.3, 0.4)):
            floor = helstrom_bound(eta1, s)
            accepted = 0
            while accepted < 500:
                r1 = float(rng.uniform(0, 1))
                r2 = float(rng.uniform(0, 1))
                a1 = math.sqrt((1 - r1) * r2)
                a2 = math.sqrt(r1 * (1 - r2))
                t1 = float(rng.uniform(-1, 1))
                if a2 > 1e-9:
                    t2 = (s - a1 * t1) / a2
                    if abs(t2) > 1:
                        continue
                elif abs(a1 * t1 - s) > 1e-12:
                    continue
                else:
                    t2 = 0.0
                out = two_stage_binary(
                    eta1, s, TwoStageParams(r1=r1, r2=r2, t1=t1, t2=t2)
                )
                assert out.combined_error >= floor - 1e-10
                accepted += 1

    def test_input_validation(self):
        params = TwoStageParams(r1=0.1, r2=0.1, t1=1.0, t2=1.0)
        with pytest.raises(ValidationError):
            two_stage_binary(1.2, 0.6, params)
        with pytest.raises(ValidationError):
            two_stage_binary(0.5, -0.1, params)
        with pytest.raises(ValidationError):
            TwoStageParams(r1=-0.1, r2=0.5, t1=0.0, t2=0.0)
        with pytest.raises(ValidationError):
            TwoStageParams(r1=0.1, r2=0.5, t1=1.5, t2=0.0)

    def test_unequal_priors_endpoint(self):
        sol = binary_individual_errors(0.3, 0.4)
        params = TwoStageParams(r1=sol.r1, r2=sol.r2, t1=1.0, t2=1.0)
        out = two_stage_binary(0.3, 0.4, params)
        assert out.combined_error == pytest.approx(HELSTROM_30_40, abs=1e-10)

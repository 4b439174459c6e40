import math
import time

import numpy as np
import pytest

from qsd.closed_form import binary_individual_errors, helstrom_bound
from qsd.coupling import (
    CouplingMatrix,
    binary_optimal_coupling,
    symmetric_optimal_coupling,
)
from qsd.ensembles import gram_binary, gram_symmetric
from qsd.errors import InfeasibleSequentialError, ValidationError
from qsd.simulate import (
    SimulationReport,
    TwoStageParams,
    check_against_dilation,
    preservation_residual,
    run_monte_carlo,
    two_stage_binary,
    worker_count,
)

HELSTROM_30_40 = 0.03481186601547971  # decimal-evaluated, (eta1, s) = (0.3, 0.4)


class TestRunMonteCarlo:
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
        diag = float(np.trace(rpt.counts))
        assert rpt.empirical_error == pytest.approx(1.0 - diag / rpt.shots, abs=0)
        p = rpt.analytic_error
        assert rpt.std_error == pytest.approx(math.sqrt(p * (1 - p) / rpt.shots), abs=0)

    def test_reproducible_across_worker_counts(self, monkeypatch):
        coupling = symmetric_optimal_coupling(4, 0.3)
        results = []
        for workers in ("1", "2", "8"):
            monkeypatch.setenv("QSD_THREADS", workers)
            results.append(run_monte_carlo(coupling, 300_000, 42).counts)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

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

    def test_counts_frozen(self):
        rpt = run_monte_carlo(binary_optimal_coupling(0.5, 0.6), 1000, 1)
        with pytest.raises(ValueError):
            rpt.counts[0, 0] = 0


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QSD_THREADS", "3")
        assert worker_count() == 3

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("QSD_THREADS", raising=False)
        assert worker_count() >= 1

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("QSD_THREADS", "many")
        with pytest.raises(ValidationError):
            worker_count()
        monkeypatch.setenv("QSD_THREADS", "0")
        with pytest.raises(ValidationError):
            worker_count()


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
        # the dilation check builds a 4096 x 4096 joint unitary first
        start = time.perf_counter()
        rpt = run_monte_carlo(symmetric_optimal_coupling(64, 0.5), 1_000_000, 64)
        elapsed = time.perf_counter() - start
        assert int(rpt.counts.sum()) == 1_000_000
        assert abs(rpt.empirical_error - rpt.analytic_error) <= 4 * rpt.std_error
        assert elapsed < 30.0

    def test_size_limit_refused(self):
        with pytest.raises(ValidationError, match="GiB"):
            run_monte_carlo(symmetric_optimal_coupling(91, 0.5), 1_000_000, 0)
        rpt = run_monte_carlo(symmetric_optimal_coupling(91, 0.5), 999_999, 0)
        assert int(rpt.counts.sum()) == 999_999


class TestTwoStageBinary:
    def test_optimal_first_stage_endpoint(self):
        sol = binary_individual_errors(0.5, 0.6)
        params = TwoStageParams(r1=sol.r1, r2=sol.r2, t1=1.0, t2=1.0)
        assert preservation_residual(0.6, params) <= 1e-10
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
        params = TwoStageParams(r1=0.0, r2=0.0, t1=1.0, t2=1.0)
        with pytest.raises(InfeasibleSequentialError):
            two_stage_binary(0.5, 0.6, params)

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

import math

import mpmath
import numpy as np
import pytest

from conftest import coupling_gap, coupling_isometry, mp_psk_error
from qsd.closed_form import (
    helstrom_bound,
    srm_error_circulant,
    srm_error_general,
    symmetric_min_error,
)
from qsd.coupling import (
    _polar_orthonormal,
    binary_optimal_coupling,
    circulant_optimal_coupling,
    coupling_from_unitary,
    feasibility_residual,
    success_probability,
    symmetric_optimal_coupling,
)
from qsd.ensembles import Ensemble, gram_binary, gram_psk, gram_symmetric, spectral_factor
from qsd.errors import ValidationError
from qsd.optimizer import (
    CERT_TOL,
    OptimizeResult,
    PskParams,
    SolverConfig,
    _gap_may_certify,
    _riemannian_hessian,
    dual_gap,
    objective_gradient,
    optimize_general,
    psk3_solve,
    psk4_solve,
)


def random_isometry(rng, rank, n):
    m = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    q, _ = np.linalg.qr(m)
    return q.conj().T


def tangent_project(v, d):
    x = d @ v.conj().T
    return d - 0.5 * (x + x.conj().T) @ v


def random_gram(rng, n, rank):
    """Gram matrix of n random unit vectors in C^rank."""
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    g = x @ x.conj().T
    g = 0.5 * (g + g.conj().T)
    np.fill_diagonal(g, 1.0)
    return g


def random_ensemble(rng, n, rank):
    return Ensemble(n, random_gram(rng, n, rank), rng.dirichlet(np.ones(n)))


# the benchmark's rank-deficient corpus: Gram k belongs to stratum k % 16
CORPUS_SEED = 171009343
CORPUS_STRATA = [
    (n, rank, prior)
    for n in (3, 8, 16, 24)
    for rank in sorted({n // 2, 2} - {n}, reverse=True)
    for prior in ("equal", "dirichlet")
]


def corpus_ensemble(k):
    """Gram number k of the benchmark's fixed rank-deficient corpus
    (``qsdbench/workloads.py``, ``Solve``), with its stratum's priors."""
    n, rank, prior = CORPUS_STRATA[k % len(CORPUS_STRATA)]
    rng = np.random.default_rng([CORPUS_SEED, k])
    gram = random_gram(rng, n, rank)
    priors = np.full(n, 1.0 / n) if prior == "equal" else rng.dirichlet(np.ones(n))
    return Ensemble(n, gram, priors)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_iters == 2000
        assert cfg.grad_tol == 1e-10
        assert not hasattr(cfg, "step_init")
        assert cfg.restarts == 8
        assert cfg.rank_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"grad_tol": 0.0},
            {"grad_tol": -1.0},
            {"restarts": 0},
            {"rank_tol": 0.0},
            {"seed": -1},
            {"grad_tol": math.nan},
            {"grad_tol": math.inf},
            {"rank_tol": math.nan},
            {"rank_tol": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            SolverConfig(**kwargs)


class TestOptimizeGeneral:
    def test_binary_unequal_priors(self):
        res = optimize_general(gram_binary(0.6, 0.25), SolverConfig(restarts=2))
        assert res.converged
        assert abs(res.p_error - helstrom_bound(0.25, 0.6)) <= 1e-7

    def test_symmetric_four_states(self):
        res = optimize_general(gram_symmetric(4, 0.5), SolverConfig(restarts=2))
        assert res.converged
        assert abs(res.p_error - symmetric_min_error(4, 0.5)) <= 1e-6

    def test_identity_gram_immediate(self):
        res = optimize_general(gram_symmetric(3, 0.0), SolverConfig(restarts=1))
        assert res.converged
        assert res.p_error <= 1e-12
        assert len(res.objective_trace) == 1

    def test_complex_binary_overlap(self):
        z = 0.55 * np.exp(2.1j)
        res = optimize_general(gram_binary(z, 0.35), SolverConfig(restarts=2))
        assert res.converged
        assert abs(res.p_error - helstrom_bound(0.35, z)) <= 1e-7

    def test_rank_deficient_edge(self):
        res = optimize_general(gram_symmetric(3, -0.5), SolverConfig(restarts=2))
        assert res.converged
        assert abs(res.p_error - symmetric_min_error(3, -0.5)) <= 1e-7

    def test_coupling_feasible_and_error_consistent(self):
        res = optimize_general(gram_psk(3, 0.7), SolverConfig(restarts=2))
        assert feasibility_residual(res.coupling) <= 1e-8
        assert abs(res.p_error - (1.0 - success_probability(res.coupling))) <= 1e-12

    def test_trace_nondecreasing(self):
        res = optimize_general(gram_binary(0.8, 0.15), SolverConfig(restarts=3))
        trace = res.objective_trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        cfg = SolverConfig(restarts=4, seed=99)
        a = optimize_general(gram_psk(4, 0.6), cfg)
        b = optimize_general(gram_psk(4, 0.6), cfg)
        assert a.p_error == b.p_error
        assert np.array_equal(a.coupling.c, b.coupling.c)
        assert a.objective_trace == b.objective_trace

    def test_small_error_keeps_relative_accuracy(self):
        # 1 - p_succ would cancel to ~1e-16 here; the true error is 1.43e-20
        res = optimize_general(gram_psk(3, 15.0))
        _, reference = psk3_solve(15.0)
        assert abs(res.p_error / reference - 1.0) <= 1e-5

    def test_converged_means_gradient_or_certificate(self):
        rng = np.random.default_rng(8)
        for n, rank in ((4, 4), (6, 3), (8, 2)):
            res = optimize_general(random_ensemble(rng, n, rank))
            assert res.certified == (res.dual_gap <= CERT_TOL)
            assert res.dual_gap == pytest.approx(coupling_gap(res.coupling), abs=1e-12)
            if res.certified:
                assert res.converged

    def test_certificate_stops_restarts(self):
        res = optimize_general(gram_binary(0.6, 0.25), SolverConfig(restarts=8))
        assert res.certified and res.converged
        assert res.restarts_used == 1

    def test_uncertified_iteration_budget_not_converged(self):
        res = optimize_general(gram_binary(0.6, 0.25), SolverConfig(restarts=1, max_iters=1))
        assert not res.certified
        assert not res.converged
        assert res.dual_gap > CERT_TOL

    @pytest.mark.parametrize(
        "k, rank, parent_p_error",
        [(22, 2, 0.7559322158830404), (68, 4, 0.5342473450190122), (166, 2, 0.7502698295167505)],
    )
    def test_certifies_where_the_gradient_test_stalled(self, k, rank, parent_p_error):
        # n = 8 benchmark-corpus Grams on which 8 restarts of 2000 iterations
        # each ended with converged=False under the gradient test alone;
        # parent_p_error is that best-effort result
        ens = corpus_ensemble(k)
        assert (ens.n, spectral_factor(ens).rank, ens.equal_priors) == (8, rank, True)
        res = optimize_general(ens)
        assert res.certified and res.converged
        assert res.dual_gap <= CERT_TOL
        assert feasibility_residual(res.coupling) <= 1e-8
        assert res.p_error <= parent_p_error + CERT_TOL


def assert_certified_on_restart_0(k):
    """Corpus Gram k is certified by its first restart, and the result
    meets references that do not run the ascent."""
    ens = corpus_ensemble(k)
    res = optimize_general(ens)
    assert res.certified and res.converged, (k, res.dual_gap)
    assert res.restarts_used == 1, k
    assert feasibility_residual(res.coupling) <= 1e-8, k
    if ens.equal_priors:
        assert res.p_error <= srm_error_general(ens) + 1e-9, k
    else:
        assert res.p_error <= 1.0 - float(ens.priors.max()) + 1e-10, k


# corpus Grams on which the polar step alone fell short: the gradient test
# fired at gaps of 1-2.5e-10 and all 8 restarts ran, or 8 x 2000
# iterations ended with converged=False
GRADIENT_TEST_SHORT_OF_CERTIFICATE = (12, 14, 20, 24)
UNCONVERGED_UNDER_POLAR_STEP = (43, 54, 86, 120, 139, 164, 180, 191, 213, 228, 231, 246)


@pytest.mark.parametrize("k", GRADIENT_TEST_SHORT_OF_CERTIFICATE + UNCONVERGED_UNDER_POLAR_STEP)
def test_slow_tail_certified_on_restart_0(k):
    assert_certified_on_restart_0(k)


def test_whole_corpus_certified_on_restart_0():
    for k in range(320):
        assert_certified_on_restart_0(k)


class TestDualGap:
    """The Holevo / Yuen-Kennedy-Lax certificate, evaluated on hand-built
    couplings; nothing here runs the ascent."""

    def test_never_negative(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            ens = random_ensemble(rng, n, int(rng.integers(1, n + 1)))
            sf = spectral_factor(ens)
            v = random_isometry(rng, sf.rank, n)
            assert dual_gap(sf.factor, ens.priors, v) >= -1e-14

    def test_zero_at_closed_form_optima(self):
        worst = 0.0
        for eta1 in (0.05, 0.25, 0.5, 0.8):
            for overlap in (0.0, 0.3, 0.6 * np.exp(2.1j), 0.95):
                worst = max(worst, coupling_gap(binary_optimal_coupling(eta1, overlap)))
        for n in (3, 4, 6):
            for s in (-0.9 / (n - 1), 0.0, 0.3, 0.9):
                worst = max(worst, coupling_gap(symmetric_optimal_coupling(n, s)))
        assert worst <= CERT_TOL

    def test_large_at_random_isometries(self):
        rng = np.random.default_rng(7)
        for n, rank in ((3, 3), (5, 5), (6, 3), (8, 2)):
            ens = random_ensemble(rng, n, rank)
            sf = spectral_factor(ens)
            cpl = coupling_from_unitary(ens, random_isometry(rng, sf.rank, n))
            assert coupling_gap(cpl) >= 0.25

    def test_bounds_every_other_coupling(self):
        # Tr Z >= P_succ for every measurement: no isometry beats the
        # success probability at v by more than the gap at v
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            ens = random_ensemble(rng, n, int(rng.integers(1, n + 1)))
            sf = spectral_factor(ens)
            v = random_isometry(rng, sf.rank, n)
            ceiling = success_probability(coupling_from_unitary(ens, v)) + dual_gap(
                sf.factor, ens.priors, v
            )
            for _ in range(10):
                other = coupling_from_unitary(ens, random_isometry(rng, sf.rank, n))
                assert success_probability(other) <= ceiling + 1e-12

    def test_gradient_screen_never_skips_a_certifiable_point(self):
        # the ascent skips the eigenvalue problems only when the gradient's
        # Rayleigh quotients already put the gap above CERT_TOL
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            ens = random_ensemble(rng, n, int(rng.integers(1, n)))
            sf = spectral_factor(ens)
            v = random_isometry(rng, sf.rank, n)
            grad = objective_gradient(ens, v)
            quotients = np.einsum("aj,aj->j", v.conj(), grad).real
            norms = np.einsum("aj,aj->j", v.conj(), v).real
            lower = sf.rank * np.max(quotients / (2.0 * norms))
            assert lower <= dual_gap(sf.factor, ens.priors, v) + 1e-14
            assert _gap_may_certify(v, grad) == (lower <= CERT_TOL)

    def test_binary_gap_bounds_distance_to_helstrom(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            eta1 = float(rng.uniform(0.05, 0.95))
            overlap = float(rng.uniform(0.0, 0.95)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            ens = gram_binary(overlap, eta1)
            cpl = coupling_from_unitary(ens, random_isometry(rng, 2, 2))
            shortfall = (1.0 - helstrom_bound(eta1, overlap)) - success_probability(cpl)
            assert -1e-12 <= shortfall <= coupling_gap(cpl) + 1e-12


class TestObjectiveGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(314)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g = m @ m.conj().T
            d = np.sqrt(np.diag(g).real)
            g = g / np.outer(d, d)
            g = 0.5 * (g + g.conj().T)
            np.fill_diagonal(g, 1.0)
            from qsd.ensembles import Ensemble

            pr = rng.random(n)
            pr /= pr.sum()
            ens = Ensemble(n, g, pr)
            sf = spectral_factor(ens)
            v = random_isometry(rng, sf.rank, n)
            grad = objective_gradient(ens, v)
            b = sf.factor

            def f(mat):
                diag = np.einsum("ij,ji->i", b, mat)
                return float(np.dot(pr, np.abs(diag) ** 2))

            for _ in range(3):
                direction = tangent_project(
                    v, rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
                )
                fd = (f(v + h * direction) - f(v - h * direction)) / (2 * h)
                analytic = float(np.sum(grad.conj() * direction).real)
                rel = abs(fd - analytic) / max(abs(fd), 1e-12)
                worst = max(worst, rel)
        assert worst < 1e-5

    def test_zero_at_binary_optimum(self):
        from qsd.coupling import binary_optimal_coupling

        ens = gram_binary(0.6, 0.25)
        sf = spectral_factor(ens)
        target = binary_optimal_coupling(0.25, 0.6)
        v = np.linalg.solve(sf.factor, target.c)
        assert np.max(np.abs(v @ v.conj().T - np.eye(2))) <= 1e-10
        grad = objective_gradient(ens, v)
        assert np.linalg.norm(grad) <= 1e-8

    def test_rejects_non_isometry(self):
        ens = gram_symmetric(3, 0.3)
        bad = np.full((3, 3), 0.5, dtype=complex)
        with pytest.raises(Exception):
            objective_gradient(ens, bad)


class TestRiemannianHessian:
    """Hessian-vector products at certified optima, against finite
    differences of the Riemannian gradient along the retraction."""

    @staticmethod
    def optimum(seed, n, rank):
        ens = random_ensemble(np.random.default_rng(seed), n, rank)
        res = optimize_general(ens)
        assert res.certified
        sf = spectral_factor(ens)
        v = coupling_isometry(res.coupling)
        return ens, v, _riemannian_hessian(sf.factor, ens.priors, v)

    @pytest.mark.parametrize("seed, n, rank", [(1, 4, 4), (2, 6, 6), (3, 6, 3), (4, 8, 2), (5, 5, 1)])
    def test_matches_finite_differences(self, seed, n, rank):
        ens, v, hess = self.optimum(seed, n, rank)
        rng = np.random.default_rng(seed + 100)
        h = 1e-5
        for _ in range(3):
            d = tangent_project(v, rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
            ahead = objective_gradient(ens, _polar_orthonormal(v + h * d))
            behind = objective_gradient(ens, _polar_orthonormal(v - h * d))
            fd = tangent_project(v, (ahead - behind) / (2 * h))
            exact = hess(d)
            assert np.linalg.norm(fd - exact) <= 1e-7 * np.linalg.norm(exact)

    @pytest.mark.parametrize("seed, n, rank", [(6, 5, 5), (7, 8, 4)])
    def test_self_adjoint_and_negative_semidefinite(self, seed, n, rank):
        _, v, hess = self.optimum(seed, n, rank)
        rng = np.random.default_rng(seed)
        d1, d2 = (
            tangent_project(v, rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
            for _ in range(2)
        )
        assert abs(np.vdot(d1, hess(d2)).real - np.vdot(hess(d1), d2).real) <= 1e-12
        for d in (d1, d2):
            assert np.vdot(d, hess(d)).real <= 1e-12 * np.vdot(d, d).real


class TestPsk3:
    def test_zero_intensity(self):
        params, p_err = psk3_solve(0.0)
        assert p_err == pytest.approx(2 / 3, abs=1e-12)
        assert params.p == pytest.approx(1 / 3, abs=1e-12)

    def test_oracle_agreement_midrange(self):
        _, p_err = psk3_solve(0.5)
        assert abs(p_err - srm_error_circulant(gram_psk(3, 0.5))) <= 1e-8

    def test_near_orthogonal(self):
        _, p_err = psk3_solve(5.0)
        assert p_err < 1e-3
        assert abs(p_err - srm_error_circulant(gram_psk(3, 5.0))) <= 1e-8

    def test_params_satisfy_row_structure(self):
        params, _ = psk3_solve(0.8)
        assert abs(params.p + 2 * params.r - 1.0) <= 1e-10
        assert abs(params.u**2 + params.v**2 - params.r) <= 1e-10
        assert params.r_prime is None

    def test_coupling_feasible(self):
        params, p_err = psk3_solve(1.2)
        c = circulant_optimal_coupling(gram_psk(3, 1.2))
        assert feasibility_residual(c) <= 1e-8
        assert abs((1.0 - success_probability(c)) - p_err) <= 1e-10

    def test_deterministic(self):
        a = psk3_solve(0.37)
        b = psk3_solve(0.37)
        assert a[1] == b[1]
        assert a[0] == b[0]


class TestPsk4:
    def test_zero_intensity(self):
        params, p_err = psk4_solve(0.0)
        assert p_err == pytest.approx(3 / 4, abs=1e-12)
        assert params.r_prime == pytest.approx(0.25, abs=1e-12)

    def test_oracle_agreement_unit_intensity(self):
        _, p_err = psk4_solve(1.0)
        assert abs(p_err - srm_error_circulant(gram_psk(4, 1.0))) <= 1e-8

    def test_general_optimizer_agreement(self):
        _, p_err = psk4_solve(0.25)
        res = optimize_general(gram_psk(4, 0.25), SolverConfig(restarts=3))
        assert abs(p_err - res.p_error) <= 1e-6

    def test_params_satisfy_row_structure(self):
        params, _ = psk4_solve(0.9)
        assert abs(params.p + 2 * params.r + params.r_prime - 1.0) <= 1e-10
        assert abs(params.u**2 + params.v**2 - params.r) <= 1e-10

    def test_coupling_feasible(self):
        params, p_err = psk4_solve(0.6)
        c = circulant_optimal_coupling(gram_psk(4, 0.6))
        assert feasibility_residual(c) <= 1e-8
        assert abs((1.0 - success_probability(c)) - p_err) <= 1e-10

    def test_deterministic(self):
        a = psk4_solve(1.4)
        b = psk4_solve(1.4)
        assert a[1] == b[1]


class TestPskParamsValidation:
    def test_row_norm_enforced(self):
        with pytest.raises(ValidationError):
            PskParams(p=0.5, r=0.4, theta1=0.0, u=math.sqrt(0.4), v=0.0)

    def test_u_v_consistency_enforced(self):
        with pytest.raises(ValidationError):
            PskParams(p=0.5, r=0.25, theta1=0.0, u=0.1, v=0.0)

    def test_valid_ternary(self):
        PskParams(p=0.5, r=0.25, theta1=0.0, u=0.5, v=0.0)


PSK_GRID = [float(a) for a in np.geomspace(0.05, 20.0, 60)]


@pytest.mark.parametrize("n, solve", [(3, psk3_solve), (4, psk4_solve)])
def test_psk_solvers_cover_the_whole_intensity_range(n, solve):
    for a in PSK_GRID:
        params, p_err = solve(a)
        assert feasibility_residual(circulant_optimal_coupling(gram_psk(n, a))) <= 1e-10, a
        assert abs(p_err - srm_error_circulant(gram_psk(n, a))) <= 1e-8, a


@pytest.mark.parametrize(
    "n, alpha_sq",
    [(3, 1.0), (3, 10.0), (3, 15.0), (4, 1.0), (4, 10.0), (4, 15.0), (4, 20.0)],
)
def test_psk_error_keeps_relative_accuracy(n, alpha_sq):
    _, p_err = (psk3_solve if n == 3 else psk4_solve)(alpha_sq)
    exact = mp_psk_error(n, alpha_sq)
    assert exact > 0
    assert abs(mpmath.mpf(p_err) / exact - 1) <= 1e-6


def test_psk4_opposite_amplitude_is_real():
    for a in (0.05, 1.0, 10.0):
        params, p_err = psk4_solve(a)
        assert params.theta2 in (0.0, math.pi)
        assert p_err == 2 * params.r + params.r_prime

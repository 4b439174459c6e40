import inspect
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    REFUSED_SETTINGS,
    coupling_gap,
    coupling_isometry,
    mp_psk_error,
    mp_psk_min_error,
    near_dependent,
    random_gram,
    random_isometry,
    reference_dual_gap,
)
from qsd import optimizer
from qsd.closed_form import (
    helstrom_bound,
    srm_error_circulant,
    srm_error_general,
    symmetric_min_error,
)
from qsd.coupling import (
    binary_optimal_coupling,
    circulant_optimal_coupling,
    coupling_from_unitary,
    feasibility_residual,
    success_probability,
    symmetric_optimal_coupling,
)
from qsd.ensembles import (
    Ensemble,
    gram_binary,
    gram_psk,
    gram_symmetric,
    spectral_factor,
)
from qsd.optimizer import (
    CERT_TOL,
    NEWTON_MIN_DAMPING,
    WEIGHT_MIN_STEP,
    OptimizeResult,
    PskParams,
    _backtrack,
    _lowest_downdated_eigenvalue,
    _weight_hessian,
    _weight_point,
    dual_gap,
    optimize_general,
    psk3_solve,
    psk4_solve,
)


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
    """The weight solve takes no settings: optimize_general's one parameter
    is the ensemble, and its step cap is the constant MAX_STEPS."""

    def test_defaults(self):
        params = inspect.signature(optimize_general).parameters
        assert list(params) == ["ensemble"]
        assert not [p for p in params.values() if p.kind is p.KEYWORD_ONLY]
        assert optimizer.MAX_STEPS == 2000

    def test_settings_are_keyword_only(self):
        with pytest.raises(TypeError):
            optimize_general(gram_binary(0.6, 0.25), 5)

    @pytest.mark.parametrize("kwargs", REFUSED_SETTINGS)
    def test_rejects_bad_values(self, kwargs):
        # no value of the step cap is taken as an argument
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            optimize_general(gram_binary(0.6, 0.25), **kwargs)


class TestOptimizeGeneral:
    def test_binary_unequal_priors(self):
        res = optimize_general(gram_binary(0.6, 0.25))
        assert res.converged
        assert abs(res.p_error - helstrom_bound(0.25, 0.6)) <= 1e-7

    def test_prior_roundoff_gives_no_negative_error(self):
        # a prior of -1e-12 is stored as 0, so neither the error nor the
        # duality gap reads it
        ens = Ensemble(2, np.array([[1, 0.5], [0.5, 1]], dtype=complex), np.array([1.0, -1e-12]))
        res = optimize_general(ens)
        assert res.certified
        assert res.p_error >= 0.0
        assert res.dual_gap == 0.0

    def test_symmetric_four_states(self):
        res = optimize_general(gram_symmetric(4, 0.5))
        assert res.converged
        assert abs(res.p_error - symmetric_min_error(4, 0.5)) <= 1e-6

    def test_identity_gram_immediate(self):
        # the trace entry once read 1.0000000000000004 at n = 6
        for n in (3, 6, 10, 12):
            res = optimize_general(gram_symmetric(n, 0.0))
            assert res.converged
            assert res.p_error <= 1e-12
            assert len(res.objective_trace) == 1
            assert all(p <= 1.0 for p in res.objective_trace)

    def test_complex_binary_overlap(self):
        z = 0.55 * np.exp(2.1j)
        res = optimize_general(gram_binary(z, 0.35))
        assert res.converged
        assert abs(res.p_error - helstrom_bound(0.35, z)) <= 1e-7

    def test_rank_deficient_edge(self):
        res = optimize_general(gram_symmetric(3, -0.5))
        assert res.converged
        assert abs(res.p_error - symmetric_min_error(3, -0.5)) <= 1e-7

    def test_coupling_feasible_and_error_consistent(self):
        res = optimize_general(gram_psk(3, 0.7))
        assert feasibility_residual(res.coupling) <= 1e-8
        assert abs(res.p_error - (1.0 - success_probability(res.coupling))) <= 1e-12

    def test_trace_nondecreasing(self):
        res = optimize_general(gram_binary(0.8, 0.15))
        trace = res.objective_trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        a = optimize_general(gram_psk(4, 0.6))
        b = optimize_general(gram_psk(4, 0.6))
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
        res = optimize_general(gram_binary(0.6, 0.25))
        assert res.certified and res.converged
        assert res.restarts_used == 1

    def test_uncertified_iteration_budget_not_converged(self, monkeypatch):
        # the cap is read at call time; one step leaves a best-effort result
        monkeypatch.setattr(optimizer, "MAX_STEPS", 1)
        res = optimize_general(gram_binary(0.6, 0.25))
        assert 0.0 < res.p_error < 0.5 and len(res.objective_trace) >= 1
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


def full_rank_ensemble(seed, n, prior):
    rng = np.random.default_rng(seed)
    gram = random_gram(rng, n, n)
    priors = np.full(n, 1.0 / n) if prior == "equal" else rng.dirichlet(np.ones(n))
    return Ensemble(n, gram, priors)


class TestReweightedSrmStart:
    """On full-rank Grams with positive priors the weight solve takes log
    steps, Newton on the reweighted square-root measurement's equation
    (Mochon 2006), from the scaled ``w = 1``."""

    def test_tiny_prior_and_small_gram_eigenvalue(self):
        # the residual of the weights' Newton iteration sits on a roundoff
        # floor of ~1e-6 here, far above that of well-spread priors
        ens = full_rank_ensemble(4140, 24, "dirichlet")
        assert 2.5e-5 < ens.priors.min() < 3.5e-5
        assert 1e-4 < np.linalg.eigvalsh(ens.gram)[0] < 1.5e-4
        assert spectral_factor(ens).rank == 24
        res = optimize_general(ens)
        assert res.certified and res.converged
        assert res.restarts_used == 1
        assert feasibility_residual(res.coupling) <= 1e-8

    def test_zero_prior_state_gets_zero_weight(self):
        gram = random_gram(np.random.default_rng(3), 4, 4)
        ens = Ensemble(4, gram, np.array([0.5, 0.3, 0.2, 0.0]))
        assert spectral_factor(ens).rank == 4
        res = optimize_general(ens)
        assert res.certified and res.converged
        assert res.restarts_used == 1
        # weight 0 on state 4: its outcome lies outside the other states'
        # span, so they never reach it, and the optimum is theirs alone
        assert np.max(np.abs(res.coupling.c[:3, 3])) <= 1e-8
        alone = optimize_general(Ensemble(3, gram[:3, :3], np.array([0.5, 0.3, 0.2])))
        assert alone.certified
        assert res.p_error == pytest.approx(alone.p_error, abs=1e-10)

    def test_tiny_prior_certified_by_the_weight_ascent(self):
        # the benchmark's `solve` seed 914, round 18: the 1.3e-9 prior's row
        # of P^{1/2} G P^{1/2} fell below eigh's resolution, and Newton on
        # that matrix's log-weights stalled; the SVD-based log steps reach
        # the certificate without a projected step
        rng = np.random.default_rng([914, 18])
        for n in (3, 8, 16, 24):
            for prior in ("equal", "dirichlet"):
                gram = random_gram(rng, n, n)
                priors = np.full(n, 1.0 / n) if prior == "equal" else rng.dirichlet(np.ones(n))
        ens = Ensemble(24, gram, priors)
        assert 1.2e-9 < ens.priors.min() < 1.4e-9
        assert spectral_factor(ens).rank == 24
        shortest = []
        backtrack = optimizer._backtrack

        def spy(b, eta, w, point, arc, min_step):
            shortest.append(min_step)
            return backtrack(b, eta, w, point, arc, min_step)

        with mock.patch.object(optimizer, "_backtrack", spy):
            res = optimize_general(ens)
        assert res.certified and res.converged
        assert feasibility_residual(res.coupling) <= 1e-8
        assert shortest and set(shortest) == {NEWTON_MIN_DAMPING}

    def test_singular_newton_system(self):
        # a LinAlgError from the first Newton solve hands the log steps to
        # projected steps, which still certify; from every solve, the
        # ascent stops at its start and returns a best-effort result
        ens = full_rank_ensemble(5, 6, "dirichlet")
        solve = np.linalg.solve
        calls = []

        def first_singular(*args):
            calls.append(len(calls))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(*args)

        shortest = []
        backtrack = optimizer._backtrack

        def spy(b, eta, w, point, arc, min_step):
            shortest.append(min_step)
            return backtrack(b, eta, w, point, arc, min_step)

        with mock.patch.object(np.linalg, "solve", first_singular), mock.patch.object(optimizer, "_backtrack", spy):
            res = optimize_general(ens)
        assert len(calls) >= 2
        assert shortest and set(shortest) == {WEIGHT_MIN_STEP}
        assert res.certified and res.converged
        assert feasibility_residual(res.coupling) <= 1e-8

        with mock.patch.object(np.linalg, "solve", side_effect=np.linalg.LinAlgError("singular matrix")):
            res = optimize_general(ens)
        assert not res.converged and not res.certified
        assert CERT_TOL < res.dual_gap < 1e-3
        assert feasibility_residual(res.coupling) <= 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        prior=st.sampled_from(["equal", "dirichlet"]),
    )
    def test_full_rank_certified_on_restart_0(self, seed, n, prior):
        ens = full_rank_ensemble(seed, n, prior)
        assert spectral_factor(ens).rank == n
        res = optimize_general(ens)
        assert res.certified and res.converged
        assert res.restarts_used == 1
        assert feasibility_residual(res.coupling) <= 1e-8
        if prior == "equal":
            assert res.p_error <= srm_error_general(ens) + 1e-9

    @pytest.mark.parametrize("alpha_sq", [8.0, 12.0, 15.0])
    def test_unequal_prior_psk_matches_mpmath(self, alpha_sq):
        # the equal-prior square-root measurement is 0.11 above the
        # optimum at alpha_sq = 15, and its duality gap is already below
        # CERT_TOL there, so only the reweighted start finds the optimum
        priors = (0.5, 0.3, 0.2)
        res = optimize_general(Ensemble(3, gram_psk(3, alpha_sq).gram, np.array(priors)))
        reference = float(mp_psk_min_error(3, alpha_sq, priors))
        assert abs(res.p_error / reference - 1.0) <= 1e-5


def test_near_dependent_grams_certified():
    # a log-weight Newton on an eigh of P^{1/2} G P^{1/2} left 17 of these
    # 200 (and 42 of the first 600) at converged=True but gaps of 1.7e-8
    # to 1.6e-5
    for k in range(200):
        ens = near_dependent(k)
        res = optimize_general(ens)
        assert res.certified and res.converged, (k, res.dual_gap)
        assert feasibility_residual(res.coupling) <= 1e-8, k


def extreme_prior_ensembles(seed, draw_priors):
    """200 random full-rank Grams, n drawn from 2 to 24, with priors from
    draw_priors(rng, n)."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        gram = random_gram(rng, n, n)
        yield Ensemble(n, gram, draw_priors(rng, n))


def log_uniform_priors(rng, n):
    priors = 10 ** rng.uniform(-8, 0, n)
    return priors / priors.sum()


@pytest.mark.parametrize(
    "seed, draw_priors",
    [(2201, lambda rng, n: rng.dirichlet(np.full(n, 0.1))), (2203, log_uniform_priors)],
    ids=["dirichlet0.1", "log-uniform"],
)
def test_extreme_priors_certified(seed, draw_priors):
    # Dirichlet(0.1) puts most of the mass on a few states and leaves
    # priors far below CERT_TOL; log-uniform priors span eight decades
    for k, ens in enumerate(extreme_prior_ensembles(seed, draw_priors)):
        res = optimize_general(ens)
        assert res.certified and res.converged, (k, res.dual_gap)
        assert feasibility_residual(res.coupling) <= 1e-8, k


@pytest.mark.parametrize("one_minus_s", [1e-11, 1e-12])
@pytest.mark.parametrize("eta1", [0.1, 0.3])
@pytest.mark.parametrize("phase", [0.0, 0.7])
def test_near_parallel_pair_warns_nothing(one_minus_s, eta1, phase):
    # at 1 - |s| = 1e-11 a log step tries a weight of 1e-21; at 1e-12 the
    # rank cut leaves one state direction
    z = (1.0 - one_minus_s) * np.exp(1j * phase)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimize_general(gram_binary(z, eta1))
    assert res.certified and res.converged
    assert abs(res.p_error - helstrom_bound(eta1, z)) <= 1e-11


def test_overflowing_log_step_refused_quietly():
    # exp(t d / w) overflows for every t tried: the trial weights are not
    # finite, no step is taken, and no RuntimeWarning escapes
    ens = gram_binary(0.6, 0.25)
    b, eta, w = spectral_factor(ens).factor, ens.priors, np.ones(2)
    point = _weight_point(b, eta, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = _backtrack(b, eta, w, point, lambda t: w * np.exp(t * 1e4 / w), NEWTON_MIN_DAMPING)
    assert found is None


def test_zero_weights_have_no_point():
    # every singular value of X is 0: no measurement to read a point from
    ens = gram_symmetric(4, 0.3)
    assert _weight_point(spectral_factor(ens).factor, ens.priors, np.zeros(4)) is None


def test_full_rank_solve_allocates_no_cubic_temporaries():
    # one n**3 complex temporary at n = 48 is 1.7 MiB; the weights'
    # Hessian and the gap's eigenvalue problems need none
    ens = full_rank_ensemble(4801, 48, "dirichlet")
    optimize_general(ens)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        res = optimize_general(ens)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert res.certified and res.restarts_used == 1
    assert peak < 2**20, peak


@pytest.mark.parametrize("eta3", [0.05, 0.2, 0.3])
def test_unused_state_gets_zero_weight(eta3):
    # psi_1 = e_1, psi_2 = e_2, psi_3 = (e_1 + e_2) / sqrt(2): for
    # eta_3 <= 1/3, Z = eta_1 I dominates every eta_j psi_j psi_j^H and
    # Tr Z = 1 - eta_3 is reached by never answering 3, so the optimum
    # puts weight 0 on state 3
    s = 1.0 / math.sqrt(2.0)
    gram = np.array([[1.0, 0.0, s], [0.0, 1.0, s], [s, s, 1.0]], dtype=complex)
    res = optimize_general(Ensemble(3, gram, np.array([(1 - eta3) / 2, (1 - eta3) / 2, eta3])))
    assert res.certified and res.converged
    assert abs(res.p_error - eta3) <= 1e-12
    assert np.max(np.abs(res.coupling.c[:, 2])) <= 1e-8


def draw_priors(rng, n, kind):
    if kind == "equal":
        return np.full(n, 1.0 / n)
    priors = rng.dirichlet(np.ones(n))
    if kind == "one zero":
        priors[rng.integers(n)] = 0.0
    elif kind == "tiny":
        few = rng.permutation(n)[: rng.integers(1, n)]
        priors[few] = rng.choice([1e-300, 1e-16, 1e-12, 1e-9, 1e-6], size=len(few))
    return priors / priors.sum()


def test_step_keeps_clear_of_a_singular_measurement():
    # a step that zeroes both heavy states covering one direction leaves
    # it to the three 1e-9 priors: Phi still rises there, but M is within
    # 1e-9 of singular, its gradient is 2.5e6, and Newton stalls
    rng = np.random.default_rng(1251)
    n, rank = int(rng.integers(3, 9)), int(rng.integers(2, 7))
    gram = random_gram(rng, n, rank)
    priors = rng.dirichlet(np.ones(n))
    priors[:3] = 1e-9
    res = optimize_general(Ensemble(n, gram, priors / priors.sum()))
    assert (n, rank) == (7, 3)
    assert res.certified and res.converged


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    prior=st.sampled_from(["equal", "dirichlet", "one zero", "tiny"]),
    data=st.data(),
)
def test_every_rank_certified_without_random_numbers(seed, n, prior, data):
    rank = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    ens = Ensemble(n, random_gram(rng, n, rank), draw_priors(rng, n, prior))
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("rng drawn")):
        res = optimize_general(ens)
    assert res.certified and res.converged
    assert feasibility_residual(res.coupling) <= 1e-8
    if prior == "equal":
        assert res.p_error <= srm_error_general(ens) + 1e-9
    if spectral_factor(ens).rank == 1:
        # identical states up to phase: always answer the likeliest
        assert abs(res.p_error - (1.0 - float(ens.priors.max()))) <= 1e-10


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

    def test_binary_gap_bounds_distance_to_helstrom(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            eta1 = float(rng.uniform(0.05, 0.95))
            overlap = float(rng.uniform(0.0, 0.95)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            ens = gram_binary(overlap, eta1)
            cpl = coupling_from_unitary(ens, random_isometry(rng, 2, 2))
            shortfall = (1.0 - helstrom_bound(eta1, overlap)) - success_probability(cpl)
            assert -1e-12 <= shortfall <= coupling_gap(cpl) + 1e-12


def gap_hermitian_part(b, priors, v):
    """H = (Gamma + Gamma^H) / 2 of :func:`dual_gap`."""
    gamma = (b.conj().T * (priors * np.einsum("ij,ji->i", b, v))) @ v.conj().T
    return 0.5 * (gamma + gamma.conj().T)


def gap_block(rng, n, rank, certified, small_prior):
    """(B, priors, V) of a random ensemble at a random or an optimized V;
    with ``small_prior`` set, some priors take that value."""
    priors = rng.dirichlet(np.ones(n))
    if small_prior is not None and n > 1:
        priors[rng.permutation(n)[: int(rng.integers(1, n))]] = small_prior
        priors /= priors.sum()
    ens = Ensemble(n, random_gram(rng, n, rank), priors)
    sf = spectral_factor(ens)
    if certified:
        v = coupling_isometry(optimize_general(ens).coupling)
    else:
        v = random_isometry(rng, sf.rank, n)
    return sf.factor, ens.priors, v


def direct_sum(first, second):
    """Two ensembles side by side at half their priors: H = H_1 + H_2."""
    (b1, p1, v1), (b2, p2, v2) = first, second
    b = np.zeros((b1.shape[0] + b2.shape[0], b1.shape[1] + b2.shape[1]), dtype=complex)
    v = np.zeros((v1.shape[0] + v2.shape[0], v1.shape[1] + v2.shape[1]), dtype=complex)
    b[: b1.shape[0], : b1.shape[1]], b[b1.shape[0] :, b1.shape[1] :] = b1, b2
    v[: v1.shape[0], : v1.shape[1]], v[v1.shape[0] :, v1.shape[1] :] = v1, v2
    return b, 0.5 * np.concatenate([p1, p2]), v


GAP_CASES = ("random", "certified", "indefinite", "zero coupling", "degenerate", "orthogonal")


class TestSecularGap:
    """``dual_gap`` reads each lowest eigenvalue from one eigh of H and a
    secular equation; the batched-eigvalsh reference forms every
    ``H - eta_j psi_j psi_j^H``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from(GAP_CASES),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        small_prior=st.sampled_from([None, 0.0, 1e-310]),
        certified=st.booleans(),
        data=st.data(),
    )
    def test_matches_batched_reference(self, case, seed, n, small_prior, certified, data):
        rng = np.random.default_rng(seed)
        if case in ("random", "certified"):
            rank = data.draw(st.integers(1, n))
            b, priors, v = gap_block(rng, n, rank, case == "certified", small_prior)
        elif case == "indefinite":
            n = max(n, 3)
            b, priors, v = gap_block(rng, n, n, False, small_prior)
            assume(np.linalg.eigvalsh(gap_hermitian_part(b, priors, v))[0] <= 0.0)
        elif case == "zero coupling":
            # c_jj = 0 for every j, so H = 0: every pole sits at x = 0
            n, rank = max(n, 2), data.draw(st.integers(1, max(n, 2)))
            q = random_isometry(rng, rank, rank)
            b = np.eye(n, rank) @ q
            v = q.conj().T @ np.roll(np.eye(rank, n), 1, axis=1)
            _, priors, _ = gap_block(rng, n, 1, False, small_prior)
            assert np.max(np.abs(gap_hermitian_part(b, priors, v))) <= 1e-15
        elif case == "degenerate":
            # two copies of one ensemble: every eigenvalue of H is doubled
            rank = data.draw(st.integers(1, n))
            b, priors, v = direct_sum(*[gap_block(rng, n, rank, certified, small_prior)] * 2)
            lam = np.linalg.eigvalsh(gap_hermitian_part(b, priors, v))
            assert lam[1] - lam[0] <= 1e-12
        else:
            # two different ensembles: the states of one are orthogonal to
            # H's lowest eigenvector, which lies in the other
            n = max(n, 2)
            n1 = data.draw(st.integers(1, n - 1))
            b, priors, v = direct_sum(
                gap_block(rng, n1, data.draw(st.integers(1, n1)), certified, small_prior),
                gap_block(rng, n - n1, data.draw(st.integers(1, n - n1)), certified, small_prior),
            )
            lam, w = np.linalg.eigh(gap_hermitian_part(b, priors, v))
            assume(lam[1] - lam[0] > 1e-9)
            overlaps = np.abs(b @ w[:, 0]) / np.linalg.norm(b, axis=1)
            assert np.min(overlaps) <= 1e-12
        assert abs(dual_gap(b, priors, v) - reference_dual_gap(b, priors, v)) <= 1e-13


    def test_zero_coupling_with_a_negative_zero_eigenvalue(self):
        # H = 0 exactly and eigh returns (-0.0, 0.0): each pole distance
        # must be +0.0, or a weight over it turns -inf and the gap 0
        rng = np.random.default_rng(8106)
        q = random_isometry(rng, 2, 2)
        b, v = q, q.conj().T @ np.roll(np.eye(2), 1, axis=1)
        priors = rng.dirichlet(np.ones(2))
        assert np.signbit(np.linalg.eigh(gap_hermitian_part(b, priors, v))[0]).any()
        assert abs(dual_gap(b, priors, v) - reference_dual_gap(b, priors, v)) <= 1e-13
        assert dual_gap(b, priors, v) > 1.0


    def test_root_within_an_ulp_of_its_pole(self):
        # the lowest weighted pole, 1e-12, carries a weight of 1e-29, so
        # the start lies 1e-29 below it: within an ulp of the pole, where
        # a distance measured from x_c is 0
        lam = np.array([-1e-18, 1e-12, 0.2, 0.6])
        z = np.array([[0.0, 1e-29, 0.199, 0.013]])
        u = np.sqrt(z[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = _lowest_downdated_eigenvalue(lam, z)
        assert abs(low - np.linalg.eigvalsh(np.diag(lam) - np.outer(u, u))[0]) <= 1e-15


class TestWeightHessian:
    """Hessian of Phi in the weights w, against finite differences of its
    gradient ``eta * g`` at random positive weights."""

    @staticmethod
    def at_random_weights(seed, n, rank):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, n, rank)
        b = spectral_factor(ens).factor
        w = rng.uniform(0.5, 2.0, n)

        def grad(weights):
            return _weight_point(b, ens.priors, weights)[1]

        point = _weight_point(b, ens.priors, w)
        return rng, w, grad, _weight_hessian(ens.priors, point[3], point[4])

    @pytest.mark.parametrize("seed, n, rank", [(1, 4, 4), (2, 6, 6), (3, 6, 3), (4, 8, 2), (5, 5, 1)])
    def test_matches_finite_differences(self, seed, n, rank):
        rng, w, grad, hess = self.at_random_weights(seed, n, rank)
        h = 1e-6
        for _ in range(3):
            d = rng.standard_normal(n)
            fd = (grad(w + h * d) - grad(w - h * d)) / (2 * h)
            assert np.linalg.norm(fd - hess @ d) <= 1e-6 * np.linalg.norm(hess @ d)

    @pytest.mark.parametrize("seed, n, rank", [(6, 5, 5), (7, 8, 4)])
    def test_self_adjoint_and_negative_semidefinite(self, seed, n, rank):
        _, _, _, hess = self.at_random_weights(seed, n, rank)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))
        assert np.linalg.eigvalsh(hess)[-1] <= 1e-12 * np.max(np.abs(hess))


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
        res = optimize_general(gram_psk(4, 0.25))
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

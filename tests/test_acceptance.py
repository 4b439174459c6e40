"""Acceptance gate: one test per release criterion.

Each test pins the tolerances and asserts its runtime budget; run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    coupling_gap,
    dilation_input_vector,
    dilation_target_vector,
    outcome_amplitudes,
    random_gram,
    random_isometry,
)
from qsd.closed_form import (
    binary_constraint_residual,
    binary_individual_errors,
    helstrom_bound,
    srm_error_circulant,
    srm_error_general,
    symmetric_min_error,
)
from qsd.coupling import (
    binary_optimal_coupling,
    circulant_optimal_coupling,
    coupling_from_unitary,
    build_dilation,
    feasibility_residual,
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
    _weight_point,
    optimize_general,
    psk3_solve,
    psk4_solve,
)
from qsd.simulate import TwoStageParams, run_monte_carlo, two_stage_binary


def test_criterion_1_binary_closed_form_grid():
    start = time.perf_counter()
    worst_avg = 0.0
    worst_constraint = 0.0
    for eta1 in np.arange(0.05, 0.951, 0.05):
        eta1 = float(eta1)
        for s in np.arange(0.0, 0.991, 0.01):
            s = float(s)
            sol = binary_individual_errors(eta1, s)
            avg = eta1 * sol.r1 + (1.0 - eta1) * sol.r2
            worst_avg = max(worst_avg, abs(avg - helstrom_bound(eta1, s)))
            worst_constraint = max(
                worst_constraint, binary_constraint_residual(s, sol.r1, sol.r2)
            )
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 1: avg residual {worst_avg:.3e}, "
        f"constraint residual {worst_constraint:.3e}, {elapsed:.2f}s"
    )
    assert worst_avg <= 1e-12
    assert worst_constraint <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_symmetric_srm_equivalence():
    start = time.perf_counter()
    worst_general = 0.0
    worst_circulant = 0.0
    worst_binary = 0.0
    for n in range(2, 7):
        lo = -1.0 / (n - 1)
        grid = np.linspace(lo, 1.0, 52)[1:-1]  # 50 interior points
        for s in grid:
            s = float(s)
            closed = symmetric_min_error(n, s)
            ens = gram_symmetric(n, s)
            worst_general = max(worst_general, abs(closed - srm_error_general(ens)))
            worst_circulant = max(
                worst_circulant, abs(closed - srm_error_circulant(ens))
            )
            if n == 2:
                worst_binary = max(worst_binary, abs(closed - helstrom_bound(0.5, s)))
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 2: vs general SRM {worst_general:.3e}, vs circulant "
        f"{worst_circulant:.3e}, vs binary bound {worst_binary:.3e}, {elapsed:.2f}s"
    )
    assert worst_general <= 1e-9
    assert worst_circulant <= 1e-9
    assert worst_binary <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_general_optimizer():
    start = time.perf_counter()
    rng = np.random.default_rng(20240915)
    worst_binary = 0.0
    worst_symmetric = 0.0
    worst_feasibility = 0.0
    worst_dual_gap = 0.0
    for _ in range(50):
        eta1 = float(rng.uniform(0.02, 0.98))
        overlap = float(rng.uniform(0.0, 0.98)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        res = optimize_general(gram_binary(overlap, eta1))
        worst_binary = max(worst_binary, abs(res.p_error - helstrom_bound(eta1, overlap)))
        worst_feasibility = max(worst_feasibility, feasibility_residual(res.coupling))
        worst_dual_gap = max(worst_dual_gap, coupling_gap(res.coupling))
    for _ in range(30):
        n = int(rng.integers(2, 7))
        s = float(rng.uniform(-1.0 / (n - 1) + 0.02, 0.98))
        res = optimize_general(gram_symmetric(n, s))
        worst_symmetric = max(worst_symmetric, abs(res.p_error - symmetric_min_error(n, s)))
        worst_feasibility = max(worst_feasibility, feasibility_residual(res.coupling))
        worst_dual_gap = max(worst_dual_gap, coupling_gap(res.coupling))
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 3: binary gap {worst_binary:.3e}, symmetric gap "
        f"{worst_symmetric:.3e}, feasibility {worst_feasibility:.3e}, "
        f"duality gap {worst_dual_gap:.3e}, {elapsed:.2f}s"
    )
    assert worst_binary <= 1e-7
    assert worst_symmetric <= 1e-6
    assert worst_feasibility <= 1e-8
    assert worst_dual_gap <= CERT_TOL
    assert elapsed < 60.0


def test_criterion_4_psk_oracle_and_limit():
    start = time.perf_counter()
    solvers = {3: psk3_solve, 4: psk4_solve}
    worst_oracle = 0.0
    for n, solve in solvers.items():
        errors = []
        for a in np.linspace(0.05, 2.0, 40):
            a = float(a)
            _, p_err = solve(a)
            errors.append(p_err)
            worst_oracle = max(
                worst_oracle, abs(p_err - srm_error_circulant(gram_psk(n, a)))
            )
        # monotone nonincreasing in the intensity
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:])), f"n={n}"

    # degenerate-limit behavior: the true optimum departs from the
    # identical-states value like O(sqrt(a)) (eigenvalues of the Gram
    # vanish linearly, the square-root measurement success involves
    # their roots), so at a=1e-6 the distance to 1-1/N is ~6.7e-4 for
    # N=3 and no correct solver can pass |value - (1-1/N)| <= 1e-6
    # there.  Asserted instead: the solver tracks the oracle through
    # the badly conditioned corner (1e-6 at a=1e-6), and it reaches the
    # limit within 1e-6 once sqrt(a) is small enough (a=1e-12).
    for n, solve in solvers.items():
        limit = 1.0 - 1.0 / n
        _, at_corner = solve(1e-6)
        oracle_corner = srm_error_circulant(gram_psk(n, 1e-6))
        print(
            f"\ncriterion 4, n={n}: measured deviation from the a->0 limit "
            f"at a=1e-6 is {abs(at_corner - limit):.3e}"
        )
        assert abs(at_corner - oracle_corner) <= 1e-6
        _, at_tiny = solve(1e-12)
        assert abs(at_tiny - limit) <= 1e-6

    # checks that do not use the DFT: every coupling meets the overlap
    # constraints C C^H = G, and the general optimizer, which searches all
    # feasible couplings, reaches the same error at 5 intensities per N
    # the duality gap certifies both the circulant couplings and the general
    # optimizer's from G, the priors and C alone
    worst_feasibility = 0.0
    worst_general = 0.0
    worst_dual_gap = 0.0
    for n, solve in solvers.items():
        for i, a in enumerate(np.linspace(0.05, 2.0, 40)):
            a = float(a)
            params, p_err = solve(a)
            cpl = circulant_optimal_coupling(gram_psk(n, a))
            worst_feasibility = max(worst_feasibility, feasibility_residual(cpl))
            worst_dual_gap = max(worst_dual_gap, coupling_gap(cpl))
            if i % 8 == 0:
                general = optimize_general(gram_psk(n, a))
                worst_general = max(worst_general, abs(p_err - general.p_error))
                worst_dual_gap = max(worst_dual_gap, coupling_gap(general.coupling))
    print(
        f"criterion 4: feasibility {worst_feasibility:.3e}, "
        f"vs general optimizer {worst_general:.3e}, duality gap {worst_dual_gap:.3e}"
    )
    assert worst_feasibility <= 1e-10
    assert worst_general <= 1e-8
    assert worst_dual_gap <= CERT_TOL
    elapsed = time.perf_counter() - start
    print(f"criterion 4: oracle gap {worst_oracle:.3e}, {elapsed:.2f}s")
    assert worst_oracle <= 1e-8
    assert elapsed < 30.0


def test_criterion_5_dilation_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(5150)
    worst_unitary = 0.0
    worst_map = 0.0
    worst_probs = 0.0
    for trial in range(200):
        kind = trial % 4
        if kind == 0:
            mag = float(rng.uniform(0, 0.99))
            ens = gram_binary(
                mag * np.exp(1j * rng.uniform(0, 2 * math.pi)),
                float(rng.uniform(0.05, 0.95)),
            )
        elif kind == 1:
            n = int(rng.integers(2, 6))
            ens = gram_symmetric(n, float(rng.uniform(-1.0 / (n - 1) + 1e-3, 0.995)))
        elif kind == 2:
            ens = gram_psk(int(rng.integers(2, 6)), float(rng.uniform(0.01, 2.5)))
        else:
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g = m @ m.conj().T
            d = np.sqrt(np.diag(g).real)
            g = g / np.outer(d, d)
            g = 0.5 * (g + g.conj().T)
            np.fill_diagonal(g, 1.0)
            priors = rng.random(n)
            ens = Ensemble(n, g, priors / priors.sum())
        sf = spectral_factor(ens)
        cpl = coupling_from_unitary(ens, random_isometry(rng, sf.rank, ens.n))
        dil = build_dilation(cpl)
        n = ens.n
        u = dil.joint_unitary
        worst_unitary = max(
            worst_unitary, float(np.max(np.abs(u.conj().T @ u - np.eye(n * n))))
        )
        for j in range(n):
            mapped = u @ dilation_input_vector(dil, j)
            target = dilation_target_vector(dil, j)
            worst_map = max(worst_map, float(np.max(np.abs(mapped - target))))
            amps = outcome_amplitudes(dil, j)
            worst_probs = max(
                worst_probs,
                float(np.max(np.abs(np.abs(amps) ** 2 - np.abs(cpl.c[j]) ** 2))),
            )
    elapsed = time.perf_counter() - start
    print(
        f"\ncriterion 5: unitary {worst_unitary:.3e}, map {worst_map:.3e}, "
        f"probs {worst_probs:.3e}, {elapsed:.2f}s"
    )
    assert worst_unitary <= 1e-10
    assert worst_map <= 1e-10
    assert worst_probs <= 1e-10
    assert elapsed < 30.0


def test_criterion_6_monte_carlo():
    start = time.perf_counter()
    shots = 1_000_000
    cases = [
        ("binary", binary_optimal_coupling(0.5, 0.6)),
        ("symmetric", symmetric_optimal_coupling(3, 0.5)),
        ("psk", circulant_optimal_coupling(gram_psk(3, 0.5))),
    ]
    for label, cpl in cases:
        rpt = run_monte_carlo(cpl, shots, seed=424242)
        band = 4.0 * math.sqrt(rpt.analytic_error * (1 - rpt.analytic_error) / shots)
        gap = abs(rpt.empirical_error - rpt.analytic_error)
        print(f"\ncriterion 6 [{label}]: |empirical - analytic| = {gap:.3e} (band {band:.3e})")
        assert gap <= band, label
    elapsed = time.perf_counter() - start
    print(f"criterion 6: {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_7_sequential_floor():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    for eta1, s in ((0.5, 0.6), (0.3, 0.4)):
        floor = helstrom_bound(eta1, s)

        # endpoint: optimal first stage, coinciding post states
        sol = binary_individual_errors(eta1, s)
        out = two_stage_binary(eta1, s, TwoStageParams(sol.r1, sol.r2, 1.0, 1.0))
        assert abs(out.combined_error - floor) <= 1e-10

        # endpoint: vacuous first stage, all information deferred
        out = two_stage_binary(eta1, s, TwoStageParams(0.0, 1.0, s, 0.0))
        assert abs(out.combined_error - floor) <= 1e-10

        accepted = 0
        while accepted < 10_000:
            r1 = float(rng.uniform(0, 1))
            r2 = float(rng.uniform(0, 1))
            a1 = math.sqrt((1 - r1) * r2)
            a2 = math.sqrt(r1 * (1 - r2))
            t1 = float(rng.uniform(-1, 1))
            if a2 > 1e-9:
                t2 = (s - a1 * t1) / a2
                if abs(t2) > 1.0:
                    continue
            elif abs(a1 * t1 - s) <= 1e-12:
                t2 = 0.0
            else:
                continue
            result = two_stage_binary(eta1, s, TwoStageParams(r1, r2, t1, t2))
            assert result.combined_error >= floor - 1e-10
            accepted += 1
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 7: floors hold over 2 x 10^4 samples, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_8_gradient_finite_differences():
    # Phi's gradient in the weights w, the one every weight solve steps
    # on, against central differences of Phi along a random direction:
    # even points have full-rank Grams, odd ones rank 1 to n - 1, and
    # every fifth point has a prior of 1e-9
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    h = 1e-6
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 9))
        rank = n if k % 2 == 0 else int(rng.integers(1, n))
        priors = rng.dirichlet(np.ones(n))
        if k % 5 == 0:
            priors[rng.integers(n)] = 1e-9
            priors /= priors.sum()
        ens = Ensemble(n, random_gram(rng, n, rank), priors)
        b = spectral_factor(ens).factor
        w = rng.uniform(0.5, 2.0, n)
        direction = rng.standard_normal(n)

        def phi(weights):
            return _weight_point(b, ens.priors, weights)[0]

        fd = (phi(w + h * direction) - phi(w - h * direction)) / (2 * h)
        analytic = float(_weight_point(b, ens.priors, w)[1] @ direction)
        rel = abs(fd - analytic) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 8: max relative error {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-5
    assert elapsed < 10.0

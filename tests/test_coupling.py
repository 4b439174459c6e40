import collections
import dataclasses
import json
import math
import sys
import time
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    coupling_gap,
    coupling_isometry,
    dilation_input_vector,
    dilation_target_vector,
    golden_section_min,
    lapack_spies,
    mp_psk_error,
    outcome_amplitudes,
    random_gram,
    random_isometry,
    reference_residuals,
)
from qsd import coupling as coupling_mod, ensembles
from qsd import optimal_coupling
from qsd.closed_form import helstrom_bound, srm_error_circulant, symmetric_min_error
from qsd.coupling import (
    POLAR_NS_BOUND,
    CouplingMatrix,
    _polar_orthonormal,
    binary_optimal_coupling,
    build_dilation,
    circulant_optimal_coupling,
    coupling_from_json,
    coupling_from_unitary,
    coupling_to_json,
    dilation_residuals,
    error_probability,
    feasibility_residual,
    post_measurement_state,
    success_probability,
    symmetric_optimal_coupling,
)
from qsd.ensembles import (
    Ensemble,
    _circulant_deviation,
    circulant,
    gram_binary,
    gram_psk,
    gram_symmetric,
    spectral_factor,
)
from qsd.errors import (
    InfeasibleCouplingError,
    InvalidIsometryError,
    NoSolutionError,
    NotCirculantError,
    UndefinedConditionalError,
    UnsupportedPriorsError,
    ValidationError,
)
from qsd.optimizer import CERT_TOL, optimize_general, psk3_solve, psk4_solve
from qsd.simulate import check_against_dilation, run_monte_carlo


def random_ensemble(rng):
    choice = rng.integers(0, 3)
    if choice == 0:
        mag = float(rng.uniform(0, 0.99))
        phase = float(rng.uniform(0, 2 * math.pi))
        return gram_binary(mag * np.exp(1j * phase), float(rng.uniform(0.05, 0.95)))
    if choice == 1:
        n = int(rng.integers(2, 6))
        lo = -1.0 / (n - 1)
        return gram_symmetric(n, float(rng.uniform(lo + 1e-3, 0.995)))
    return gram_psk(int(rng.integers(2, 6)), float(rng.uniform(0.01, 2.5)))


class TestSuccessProbability:
    def test_identity_coupling(self):
        ens = gram_symmetric(3, 0.0)
        c = CouplingMatrix(np.eye(3, dtype=complex), ens)
        assert success_probability(c) == pytest.approx(1.0, abs=1e-15)

    def test_binary_optimal(self):
        c = binary_optimal_coupling(0.5, 0.6)
        assert success_probability(c) == pytest.approx(0.9, abs=1e-12)
        assert error_probability(c) == pytest.approx(0.1, abs=1e-12)

    def test_symmetric_optimal(self):
        c = symmetric_optimal_coupling(3, 0.5)
        assert success_probability(c) == pytest.approx(8 / 9, abs=1e-12)

    def test_row_phase_invariance(self):
        base = binary_optimal_coupling(0.25, 0.6)
        rotated = base.c.copy()
        rotated[1] *= np.exp(0.7j)
        c2 = CouplingMatrix(rotated, base.ensemble)
        assert success_probability(c2) == pytest.approx(success_probability(base), abs=1e-15)


class TestFeasibilityResidual:
    def test_sqrt_coupling(self):
        ens = gram_symmetric(4, 0.3)
        c = CouplingMatrix(spectral_factor(ens).sqrt, ens)
        assert feasibility_residual(c) <= 1e-12

    def test_identity_against_overlapping_gram(self):
        ens = gram_binary(0.6, 0.5)
        c = CouplingMatrix(np.eye(2, dtype=complex), ens)
        assert feasibility_residual(c) == pytest.approx(0.6, abs=1e-14)

    def test_sqrt_times_unitary(self):
        rng = np.random.default_rng(5)
        ens = gram_symmetric(4, 0.45)
        v = random_isometry(rng, 4, 4)
        c = CouplingMatrix(spectral_factor(ens).sqrt @ v, ens)
        assert feasibility_residual(c) <= 1e-10


class TestBinaryOptimalCoupling:
    def test_equal_priors_amplitudes(self):
        c = binary_optimal_coupling(0.5, 0.6)
        expected = np.array(
            [[math.sqrt(0.9), math.sqrt(0.1)], [math.sqrt(0.1), math.sqrt(0.9)]]
        )
        assert np.max(np.abs(c.c - expected)) <= 1e-12

    def test_orthogonal_identity(self):
        c = binary_optimal_coupling(0.5, 0.0)
        assert np.allclose(c.c, np.eye(2), atol=1e-14)

    def test_unequal_priors_feasible(self):
        c = binary_optimal_coupling(0.25, 0.6)
        assert feasibility_residual(c) <= 1e-12
        assert error_probability(c) == pytest.approx(
            helstrom_bound(0.25, 0.6), abs=1e-12
        )

    def test_complex_overlap_phase_absorbed(self):
        z = 0.6 * np.exp(1.1j)
        c = binary_optimal_coupling(0.25, z)
        assert feasibility_residual(c) <= 1e-12
        assert error_probability(c) == pytest.approx(
            helstrom_bound(0.25, z), abs=1e-12
        )


class TestSymmetricOptimalCoupling:
    def test_reference_amplitudes(self):
        c = symmetric_optimal_coupling(3, 0.5)
        assert c.c[0, 0] == pytest.approx(math.sqrt(8 / 9), abs=1e-12)
        assert c.c[0, 1] == pytest.approx(math.sqrt(1 / 18), abs=1e-12)

    def test_orthogonal_identity(self):
        assert np.allclose(symmetric_optimal_coupling(4, 0.0).c, np.eye(4), atol=1e-14)

    def test_matches_binary_at_two(self):
        for s in (0.2, 0.6, 0.9):
            c2 = symmetric_optimal_coupling(2, s)
            cb = binary_optimal_coupling(0.5, s)
            assert np.max(np.abs(c2.c - cb.c)) <= 1e-10

    def test_slack_above_one_computes_as_one(self):
        # p, r and t all read the overlap capped at 1
        c = symmetric_optimal_coupling(3, 1 + 5e-13)
        assert np.array_equal(c.c, symmetric_optimal_coupling(3, 1.0).c)

    def test_negative_overlap_feasible(self):
        c = symmetric_optimal_coupling(3, -0.49)
        assert feasibility_residual(c) <= 1e-10
        assert error_probability(c) == pytest.approx(
            symmetric_min_error(3, -0.49), abs=1e-10
        )

    def test_error_matches_closed_form_over_grid(self):
        for n in (2, 3, 4, 5):
            for s in np.linspace(-1.0 / (n - 1) + 1e-3, 0.999, 15):
                c = symmetric_optimal_coupling(n, float(s))
                assert feasibility_residual(c) <= 1e-10
                assert abs(
                    error_probability(c) - symmetric_min_error(n, float(s))
                ) <= 1e-10


CIRCULANT_GRID = [float(a) for a in np.geomspace(0.05, 20.0, 12)]


def circulant_noise(rng, n: int) -> np.ndarray:
    """A Hermitian n x n matrix with a zero diagonal and entries of modulus
    at most 1, not circulant."""
    x = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    x = 0.5 * (x + x.conj().T)
    np.fill_diagonal(x, 0.0)
    return x / np.sqrt(2.0)


class TestCirculantOptimalCoupling:
    # the DFT row is checked against mpmath, C C^H = G and the duality gap,
    # never against srm_error_circulant alone (both use the same DFT)

    @pytest.mark.parametrize("n", [2, 5, 6, 8, 16])
    def test_psk_meets_independent_oracles(self, n):
        for a in CIRCULANT_GRID:
            c = circulant_optimal_coupling(gram_psk(n, a))
            exact = float(mpmath.re(mp_psk_error(n, a)))
            assert abs(error_probability(c) - exact) <= 1e-8, a
            assert feasibility_residual(c) <= 1e-10, a
            assert coupling_gap(c) <= CERT_TOL, a

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_matches_general_optimizer_at_full_rank(self, n):
        compared = 0
        for a in CIRCULANT_GRID[::3]:
            ens = gram_psk(n, a)
            if spectral_factor(ens).rank < n:
                continue  # the optimizer would see a rank-truncated Gram
            general = optimize_general(ens)
            assert general.certified
            assert abs(error_probability(circulant_optimal_coupling(ens)) - general.p_error) <= 1e-9
            compared += 1
        assert compared >= 2

    def test_equals_symmetric_closed_form(self):
        # inside the PSD range: at its edge G^{1/2} is sqrt(ulp)-sensitive
        for n in (3, 4, 7):
            for s in np.linspace(-1.0 / (n - 1) + 1e-3, 0.99, 9):
                closed = symmetric_optimal_coupling(n, float(s)).c
                circ = circulant_optimal_coupling(gram_symmetric(n, float(s))).c
                assert np.max(np.abs(closed - circ)) <= 1e-14, (n, s)

    @pytest.mark.parametrize("n, solve", [(3, psk3_solve), (4, psk4_solve)])
    def test_psk_params_reproduce_first_row(self, n, solve):
        for a in [1e-6, *CIRCULANT_GRID]:
            params, _ = solve(a)
            w = complex(params.u, -params.v)
            middle = [] if n == 3 else [math.sqrt(params.r_prime) * np.exp(1j * params.theta2)]
            row = np.array([math.sqrt(params.p), w, *middle, w.conjugate()])
            c = circulant_optimal_coupling(gram_psk(n, a))
            assert np.max(np.abs(row - c.c[0])) <= 1e-15, a

    def test_unequal_priors_refused(self):
        ens = Ensemble(3, gram_psk(3, 0.5).gram, [0.5, 0.3, 0.2])
        with pytest.raises(UnsupportedPriorsError):
            circulant_optimal_coupling(ens)

    def test_non_circulant_refused(self):
        g = np.eye(3, dtype=complex)
        g[0, 1], g[1, 0] = 0.3, 0.3
        with pytest.raises(NotCirculantError):
            circulant_optimal_coupling(Ensemble(3, g, np.full(3, 1 / 3)))

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
    def test_row_check_bounds_the_dense_residual(self, n):
        # the O(n^2) check never passes what max|C C^H - G| would refuse:
        # on exact circulants, with perturbed roots and on Grams that are
        # circulant only to within CIRCULANT_TOL
        rng = np.random.default_rng(n)
        for a in CIRCULANT_GRID[::2]:
            ens = gram_psk(n, a)
            roots = coupling_mod._circulant_roots(ens)
            near = ens.gram + 5e-11 * circulant_noise(rng, n)
            for scale in (1.0, 1.0 + 1e-11, 1.0 + 1e-9):
                c = circulant(np.fft.ifft(scale * roots))
                for gram in (ens.gram, near):
                    deviation = _circulant_deviation(gram)
                    bound = coupling_mod._circulant_root_residual(c, gram, deviation)
                    assert bound >= coupling_mod._gram_residual(c, gram), (a, scale)
            assert coupling_mod._circulant_root_residual(c, near, _circulant_deviation(near)) > 0.0

    def test_missed_overlap_constraints_raise(self, monkeypatch):
        roots = coupling_mod._circulant_roots
        monkeypatch.setattr(coupling_mod, "_circulant_roots", lambda e: 1.001 * roots(e))
        with pytest.raises(NoSolutionError, match="overlap constraints"):
            circulant_optimal_coupling(gram_psk(5, 1.0))


@pytest.mark.parametrize(
    "n, call",
    [
        (16, optimal_coupling),
        (8, srm_error_circulant),
        (None, lambda ensemble: psk3_solve(1.0)),
    ],
)
def test_circulant_closed_forms_read_the_gram_once(monkeypatch, n, call):
    # the Ensemble reads its Gram's circulant deviation at construction;
    # the route choice, the spectrum and the C C^H = G check read the kept
    # value, so the whole call reads the Gram once.  The reader is counted
    # in every qsd module that holds it
    reads, reader = [], ensembles._circulant_deviation

    def spy(gram):
        reads.append(1)
        return reader(gram)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qsd" and getattr(module, "_circulant_deviation", None) is reader:
            monkeypatch.setattr(module, "_circulant_deviation", spy)
    ensemble = None if n is None else gram_psk(n, 1.0)
    assert len(reads) == (n is not None)
    call(ensemble)
    assert len(reads) == 1


class TestCouplingFromUnitary:
    def test_identity_gives_sqrt(self):
        ens = gram_symmetric(3, 0.4)
        c = coupling_from_unitary(ens, np.eye(3, dtype=complex))
        assert np.max(np.abs(c.c - spectral_factor(ens).sqrt)) <= 1e-12

    def test_rotation_reproduces_binary_optimum(self):
        # scan + refine the rotation angle that maps the square-root
        # coupling onto the closed-form binary optimum
        ens = gram_binary(0.6, 0.5)
        target = binary_optimal_coupling(0.5, 0.6).c

        def mismatch(theta):
            v = np.array(
                [
                    [math.cos(theta), math.sin(theta)],
                    [-math.sin(theta), math.cos(theta)],
                ],
                dtype=complex,
            )
            return float(np.max(np.abs(coupling_from_unitary(ens, v).c - target)))

        coarse = min(np.linspace(0, 2 * math.pi, 2001), key=mismatch)
        _, fun = golden_section_min(mismatch, coarse - 0.01, coarse + 0.01, xatol=1e-12)
        assert fun <= 1e-8

    def test_rank_deficient_factorization(self):
        ens = gram_symmetric(3, -0.5)
        rng = np.random.default_rng(11)
        v = random_isometry(rng, 2, 3)
        c = coupling_from_unitary(ens, v)
        assert c.c.shape == (3, 3)
        assert feasibility_residual(c) <= 1e-10

    def test_non_orthonormal_rejected(self):
        ens = gram_symmetric(3, 0.2)
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = 0.1
        with pytest.raises(InvalidIsometryError):
            coupling_from_unitary(ens, bad)

    def test_wrong_shape_rejected(self):
        ens = gram_symmetric(3, -0.5)
        with pytest.raises(InvalidIsometryError):
            coupling_from_unitary(ens, np.eye(3, dtype=complex))


class TestCouplingMatrixValidation:
    def test_row_norms_enforced(self):
        ens = gram_binary(0.0, 0.5)
        bad = np.array([[1.0, 0.0], [0.3, 0.4]], dtype=complex)
        with pytest.raises(ValidationError):
            CouplingMatrix(bad, ens)

    def test_shape_enforced(self):
        with pytest.raises(ValidationError):
            CouplingMatrix(np.eye(3, dtype=complex), gram_binary(0.0, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_refused(self, bad):
        with pytest.raises(ValidationError, match="unit vectors"):
            CouplingMatrix(np.array([[bad, 0.0], [0.0, 1.0]]), gram_symmetric(2, 0.0))


KEPT_LAW_COUPLINGS = [
    lambda: binary_optimal_coupling(0.3, 0.6 * np.exp(0.7j)),
    lambda: symmetric_optimal_coupling(5, -0.2),
    lambda: circulant_optimal_coupling(gram_psk(7, 1.3)),
    lambda: coupling_from_unitary(
        random_rank_ensemble(np.random.default_rng(12), 12, 6),
        random_isometry(np.random.default_rng(13), 6, 12),
    ),
]


class TestKeptOutcomeLaw:
    """Validation keeps |c|**2 and its row sums; every reader of the
    outcome law reads them and gets what the formula on c gives."""

    @pytest.mark.parametrize("make", KEPT_LAW_COUPLINGS)
    def test_read_only_and_bitwise(self, make):
        cpl = make()
        assert np.array_equal(cpl._mass, np.abs(cpl.c) ** 2)
        assert np.array_equal(cpl._row_mass, (np.abs(cpl.c) ** 2).sum(axis=1))
        for kept in (cpl._mass, cpl._row_mass, cpl._off_row_mass):
            assert kept.dtype == float
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0.0

    def test_replace_recomputes(self):
        cpl = symmetric_optimal_coupling(3, 0.5)
        other = np.array(cpl.c[[1, 2, 0]])
        again = dataclasses.replace(cpl, c=other)
        assert np.array_equal(again._mass, np.abs(other) ** 2)
        assert np.array_equal(again._row_mass, (np.abs(other) ** 2).sum(axis=1))
        assert not np.array_equal(again._mass, cpl._mass)
        assert error_probability(again) > error_probability(cpl)

    @pytest.mark.parametrize("make", KEPT_LAW_COUPLINGS)
    def test_readers_match_the_formulas_on_c(self, make):
        cpl = make()
        c, priors = cpl.c, cpl.ensemble.priors
        assert success_probability(cpl) == float(np.dot(priors, np.abs(np.diag(c)) ** 2))
        off = np.abs(c) ** 2
        np.fill_diagonal(off, 0.0)
        assert error_probability(cpl) == float(np.dot(priors, off.sum(axis=1)))
        dilation = build_dilation(cpl)
        for j in range(cpl.n):
            for k in range(cpl.n):
                prob = (np.abs(c) ** 2)[j, k]
                if prob > 1e-24:
                    assert post_measurement_state(dilation, j, k)[1] == prob

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_error_probability_is_the_off_diagonal_sum(self, n):
        rng = np.random.default_rng([4410, n])
        couplings = [
            symmetric_optimal_coupling(n, 0.3),
            circulant_optimal_coupling(gram_psk(n, 0.7)),
            coupling_from_unitary(random_rank_ensemble(rng, n, n), random_isometry(rng, n, n)),
        ]
        if n == 2:
            couplings.append(binary_optimal_coupling(0.3, 0.6 * np.exp(0.7j)))
        for cpl in couplings:
            off = cpl._mass.copy()
            np.fill_diagonal(off, 0.0)
            assert error_probability(cpl) == float(np.dot(cpl.ensemble.priors, off.sum(axis=1)))

    def test_error_probability_copies_nothing(self):
        cpl = symmetric_optimal_coupling(1024, 0.3)
        tracemalloc.start()
        try:
            error_probability(cpl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an n x n copy of the outcome law would be 8 MiB
        assert peak < 64 * 1024


class TestBuildDilation:
    def test_identity_coupling_orthogonal_states(self):
        ens = gram_symmetric(3, 0.0)
        d = build_dilation(CouplingMatrix(np.eye(3, dtype=complex), ens))
        u = d.joint_unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) <= 1e-12

    def test_binary_outcome_probabilities(self):
        c = binary_optimal_coupling(0.5, 0.6)
        d = build_dilation(c)
        for j in range(2):
            amps = outcome_amplitudes(d, j)
            assert np.max(np.abs(np.abs(amps) ** 2 - np.abs(c.c[j]) ** 2)) <= 1e-10

    def test_infeasible_rejected(self):
        ens = gram_binary(0.6, 0.5)
        with pytest.raises(InfeasibleCouplingError):
            build_dilation(CouplingMatrix(np.eye(2, dtype=complex), ens))

    def test_mapped_vectors(self):
        c = symmetric_optimal_coupling(3, 0.5)
        d = build_dilation(c)
        for j in range(3):
            lhs = d.joint_unitary @ dilation_input_vector(d, j)
            rhs = dilation_target_vector(d, j)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_state_coords_reproduce_gram(self):
        # inner products conjugate-linear in the second slot, the
        # convention forced by CC^H = G plus unitary preservation
        c = symmetric_optimal_coupling(4, -0.2)
        d = build_dilation(c)
        overlaps = d.state_coords @ d.state_coords.conj().T
        assert np.max(np.abs(overlaps - c.ensemble.gram)) <= 1e-10

    def test_round_trip_random(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            ens = random_ensemble(rng)
            sf = spectral_factor(ens)
            v = random_isometry(rng, sf.rank, ens.n)
            coupling = coupling_from_unitary(ens, v)
            d = build_dilation(coupling)
            n = ens.n
            u = d.joint_unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(n * n))) <= 1e-10
            for j in range(n):
                lhs = u @ dilation_input_vector(d, j)
                rhs = dilation_target_vector(d, j)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10
            overlaps = d.state_coords @ d.state_coords.conj().T
            assert np.max(np.abs(overlaps - ens.gram)) <= 1e-10


def random_rank_ensemble(rng, n, rank):
    """n unit vectors drawn in a rank-dimensional space, random priors."""
    g = random_gram(rng, n, rank)
    priors = rng.random(n) + 0.05
    return Ensemble(n, g, priors / priors.sum())


@st.composite
def sizes_and_ranks(draw):
    n = draw(st.integers(1, 12))
    return n, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


class TestDilationConstruction:
    """The joint unitary is an n x n block on the input slots m*n and the
    output slots k*n + k, plus a 0/1 pairing of all other slots."""

    @settings(max_examples=120, deadline=None)
    @given(sizes_and_ranks())
    def test_residuals_and_permutation(self, case):
        n, rank, seed = case
        rng = np.random.default_rng(seed)
        ens = random_rank_ensemble(rng, n, rank)
        sf = spectral_factor(ens)
        assert sf.rank == rank
        coupling = coupling_from_unitary(ens, random_isometry(rng, sf.rank, n))
        d = build_dilation(coupling)
        ref = reference_residuals(d)
        assert max(ref.values()) <= 1e-10, ref
        assert max(dilation_residuals(coupling).values()) <= 1e-10

        dim = n * n
        input_slots = np.arange(n) * n
        output_slots = np.arange(n) * (n + 1)
        outside = np.array(d.joint_unitary)
        outside[np.ix_(output_slots, input_slots)] = 0.0
        assert np.isin(outside, (0.0, 1.0)).all()
        assert np.array_equal(
            outside.real.sum(axis=1), np.where(np.isin(np.arange(dim), output_slots), 0.0, 1.0)
        )
        assert np.array_equal(
            outside.real.sum(axis=0), np.where(np.isin(np.arange(dim), input_slots), 0.0, 1.0)
        )

    @pytest.mark.parametrize("kind", ["symmetric", "random"])
    def test_n32_under_a_second(self, kind):
        rng = np.random.default_rng(32)
        if kind == "symmetric":
            coupling = symmetric_optimal_coupling(32, 0.5)
        else:
            ens = random_rank_ensemble(rng, 32, 32)
            coupling = coupling_from_unitary(ens, random_isometry(rng, 32, 32))
        start = time.perf_counter()
        d = build_dilation(coupling)
        elapsed = time.perf_counter() - start
        ref = reference_residuals(d)
        assert max(ref.values()) <= 1e-10, ref
        assert elapsed < 1.0

    def test_size_limit_refused_before_allocating(self):
        # 16 * 91^4 bytes is just above the 1 GiB limit, which applies
        # only where the dense matrix is allocated: on its first read
        coupling = CouplingMatrix(np.eye(91, dtype=complex), gram_symmetric(91, 0.0))
        d = build_dilation(coupling)
        assert max(dilation_residuals(coupling).values()) <= 1e-10
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="GiB"):
                d.joint_unitary
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_joint_unitary_frozen_without_copy(self):
        d = build_dilation(symmetric_optimal_coupling(3, 0.5))
        with pytest.raises(ValueError):
            d.joint_unitary[0, 0] = 0.0
        u = np.array(d.joint_unitary)
        again = dataclasses.replace(d, joint_unitary=u)
        assert np.shares_memory(again.joint_unitary, u)
        assert u.flags.writeable


def assembled_unitary(block):
    """The documented dense unitary of a block, one entry at a time:
    ``block.T`` at rows k*n + k and columns m*n, and 1 on the other rows
    and columns paired in sorted order."""
    n = len(block)
    u = np.zeros((n * n, n * n), dtype=complex)
    outputs = [k * n + k for k in range(n)]
    inputs = [m * n for m in range(n)]
    for k in range(n):
        for m in range(n):
            u[outputs[k], inputs[m]] = block[m, k]
    rest_rows = [i for i in range(n * n) if i not in outputs]
    rest_cols = [i for i in range(n * n) if i not in inputs]
    for i, j in zip(rest_rows, rest_cols):
        u[i, j] = 1.0
    return u


class TestLazyJointUnitary:
    """build_dilation keeps the n x n block; the dense matrix is assembled
    on the first read of joint_unitary, once."""

    def test_build_allocates_no_dense_matrix(self):
        rng = np.random.default_rng(32)
        ens = random_rank_ensemble(rng, 32, 32)
        coupling = coupling_from_unitary(ens, random_isometry(rng, 32, 32))
        # 16 * 32^4 bytes = 16 MiB for the dense matrix
        tracemalloc.start()
        try:
            d = build_dilation(coupling)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            d.joint_unitary
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak < 2 << 20
        assert read_peak >= 16 * 32**4

    def test_read_once_and_frozen(self):
        d = build_dilation(symmetric_optimal_coupling(4, 0.3))
        u = d.joint_unitary
        assert d.joint_unitary is u
        assert not u.flags.writeable
        assert not d.block.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: binary_optimal_coupling(0.3, 0.6 * np.exp(0.7j)),
            lambda rng: symmetric_optimal_coupling(3, 0.5),
            lambda rng: coupling_from_unitary(
                random_rank_ensemble(rng, 6, 3), random_isometry(rng, 3, 6)
            ),
            lambda rng: coupling_from_unitary(
                random_rank_ensemble(rng, 24, 24), random_isometry(rng, 24, 24)
            ),
        ],
    )
    def test_matches_documented_assembly(self, make):
        d = build_dilation(make(np.random.default_rng(41)))
        assert np.array_equal(d.joint_unitary, assembled_unitary(d.block))

    def test_repr_leaves_the_dense_matrix_out(self):
        # at n = 91 the dense matrix is above the 1 GiB limit: a repr that
        # read it would raise
        coupling = CouplingMatrix(np.eye(91, dtype=complex), gram_symmetric(91, 0.0))
        d = build_dilation(coupling)
        tracemalloc.start()
        try:
            text = repr(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert text.startswith("DilationModel(system_dim=91, ") and "block=" in text
        assert "joint_unitary" not in text

    def test_replace_keeps_the_unitary(self):
        d = build_dilation(symmetric_optimal_coupling(5, -0.2))
        again = dataclasses.replace(d, coupling=d.coupling)
        assert np.array_equal(again.joint_unitary, d.joint_unitary)

    def test_frozen_inputs_shared_writable_copied(self):
        coupling = symmetric_optimal_coupling(4, 0.3)
        d = build_dilation(coupling)
        assert d.state_coords is spectral_factor(coupling.ensemble).sqrt
        block = np.array(d.block)
        again = dataclasses.replace(d, block=block)
        assert not np.shares_memory(again.block, block)
        assert block.flags.writeable and not again.block.flags.writeable


class TestBlockCheck:
    """The residuals and the Monte Carlo check read the dilation's n x n
    block; the dense joint unitary is the independent reference."""

    @settings(max_examples=120, deadline=None)
    @given(sizes_and_ranks())
    def test_matches_dense_dilation(self, case):
        n, rank, seed = case
        rng = np.random.default_rng(seed)
        ens = random_rank_ensemble(rng, n, rank)
        coupling = coupling_from_unitary(ens, random_isometry(rng, rank, n))
        dense = reference_residuals(build_dilation(coupling))
        block = dilation_residuals(coupling)
        assert list(block) == list(dense)
        for key, value in dense.items():
            assert abs(block[key] - value) <= 1e-13, (key, block[key], value)
        assert check_against_dilation(coupling) == block["outcome_prob_residual"]

    def test_corrupted_block_matches_reference(self, monkeypatch):
        # build_dilation and dilation_residuals both read the skewed block,
        # so the dense reference sees the same faulty unitary
        coupling = symmetric_optimal_coupling(4, 0.3)
        noise = np.random.default_rng(3).standard_normal((4, 4, 2)) @ [1, 1j]
        original = coupling_mod._dilation_block

        def skewed(cpl):
            coords, block = original(cpl)
            return coords, block + 1e-6 * noise

        monkeypatch.setattr(coupling_mod, "_dilation_block", skewed)
        dense = reference_residuals(build_dilation(coupling))
        block = dilation_residuals(coupling)
        for key in ("unitary_residual", "map_residual", "outcome_prob_residual"):
            assert block[key] > 1e-10
            assert block[key] == pytest.approx(dense[key], rel=1e-6), key
        assert block["gram_residual"] == pytest.approx(dense["gram_residual"], abs=1e-13)


def ill_conditioned_ensemble(rng, n, lam_min):
    """Full-rank equal-prior ensemble whose Gram has one eigenvalue near
    lam_min and the others in [0.5, 1.5] (before the unit diagonal is
    restored, which moves them by a factor of order 1)."""
    w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g = (w * np.concatenate([[lam_min], rng.uniform(0.5, 1.5, n - 1)])) @ w.conj().T
    d = np.sqrt(np.diag(g).real)
    g = g / np.outer(d, d)
    g = 0.5 * (g + g.conj().T)
    np.fill_diagonal(g, 1.0)
    return Ensemble(n, g, np.full(n, 1.0 / n))


def perturbed_coupling(ens, rng, light_row_scale=1.0, noise=0.0):
    """``C = W Lam^{1/2} X`` for a random unitary X whose lightest row is
    scaled by light_row_scale, plus complex noise of that size, with the
    rows normalized again: a coupling that misses the Gram matrix by about
    ``lam_min (light_row_scale**2 - 1) + noise``."""
    sf = spectral_factor(ens)
    x = random_isometry(rng, ens.n, ens.n)
    x[0] *= light_row_scale
    c = (sf.eigenvectors * np.sqrt(sf.eigenvalues)) @ x
    c = c + noise * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape))
    return CouplingMatrix(c / np.linalg.norm(c, axis=1, keepdims=True), ens)


def procrustes_map_residual(coupling) -> float:
    """max|thin V - C| for the exact Procrustes V = polar(thin^H C), by SVD."""
    sf = spectral_factor(coupling.ensemble)
    cut = coupling.n - sf.rank
    thin = sf.eigenvectors[:, cut:] * np.sqrt(sf.eigenvalues[cut:])
    u, _, vh = np.linalg.svd(thin.conj().T @ coupling.c, full_matrices=False)
    return float(np.max(np.abs(thin @ (u @ vh) - coupling.c)))


@st.composite
def wide_isometries(draw):
    """A random r x n isometry (r <= n <= 10) and a unit-Frobenius complex
    perturbation direction of the same shape."""
    n = draw(st.integers(1, 10))
    r = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return random_isometry(rng, r, n), e / np.linalg.norm(e)


class TestPolarOrthonormal:
    """Newton-Schulz within POLAR_NS_BOUND of orthonormal rows, the SVD
    beyond it; the SVD polar factor is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(wide_isometries(), st.floats(-16.0, math.log10(POLAR_NS_BOUND / 3)))
    def test_newton_schulz_matches_svd(self, case, log_size):
        v, e = case
        # ||X X^H - I||_F <= 2 t + t**2 < POLAR_NS_BOUND for a perturbation
        # t <= POLAR_NS_BOUND / 3
        x = v + 10.0**log_size * e
        u, _, vh = np.linalg.svd(x, full_matrices=False)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            polar = _polar_orthonormal(x, np.ones(len(x)))
        assert svd.call_count == 0
        assert np.max(np.abs(polar - u @ vh)) <= 1e-13
        assert np.max(np.abs(polar @ polar.conj().T - np.eye(len(x)))) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(wide_isometries(), st.floats(math.log10(POLAR_NS_BOUND), 2.0))
    def test_svd_beyond_bound(self, case, log_size):
        v, e = case
        x = v + 10.0**log_size * e
        assume(np.linalg.norm(x @ x.conj().T - np.eye(len(x))) > POLAR_NS_BOUND)
        u, _, vh = np.linalg.svd(x, full_matrices=False)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            polar = _polar_orthonormal(x, np.ones(len(x)))
        assert svd.call_count == 1
        assert np.max(np.abs(polar - u @ vh)) <= 1e-14


class TestDilationFactorizations:
    """The one eigendecomposition of a Gram is the one its Ensemble takes
    at validation (none for an exact circulant); the block reuses it, with
    no SVD for a feasible coupling and a QR only to complete a
    rank-deficient V."""

    @pytest.mark.parametrize(
        "make, qr_calls",
        [
            (lambda rng: symmetric_optimal_coupling(16, 0.4), 0),
            (lambda rng: circulant_optimal_coupling(gram_psk(8, 1.0)), 0),
            (lambda rng: perturbed_coupling(random_rank_ensemble(rng, 12, 12), rng), 0),
            (lambda rng: symmetric_optimal_coupling(5, -0.25), 1),
            (
                lambda rng: coupling_from_unitary(
                    random_rank_ensemble(rng, 9, 5), random_isometry(rng, 5, 9)
                ),
                1,
            ),
        ],
    )
    def test_lapack_calls(self, monkeypatch, make, qr_calls):
        calls = lapack_spies(monkeypatch)
        coupling = make(np.random.default_rng(19))
        # the symmetric and PSK Grams are circulant: their Ensembles take
        # the DFT of the first row, the random ones one eigh
        built = 0 if coupling.ensemble._circulant_deviation == 0.0 else 1
        assert (calls["eigh"], calls["eigvalsh"]) == (built, 0)
        calls.clear()
        dilation_residuals(coupling)
        assert calls == collections.Counter(qr=qr_calls)
        calls.clear()
        build_dilation(coupling)
        assert calls == collections.Counter(qr=qr_calls)

    def test_one_eigh_per_gram_through_the_pipeline(self, monkeypatch):
        # rank 5 of 9: the Gram's eigh is the one 9 x 9 call; the duality
        # gaps of the weight solve take 5 x 5 ones of their own
        calls = lapack_spies(monkeypatch)
        sizes, spy = [], np.linalg.eigh

        def sized(a, *args, **kwargs):
            sizes.append(len(a))
            return spy(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", sized)
        ens = random_rank_ensemble(np.random.default_rng(31), 9, 5)
        result = optimize_general(ens)
        assert result.certified
        coupling = coupling_from_unitary(ens, coupling_isometry(result.coupling))
        build_dilation(coupling)
        assert run_monte_carlo(coupling, 10**6, 7).shots == 10**6
        assert (sizes.count(9), set(sizes), calls["eigvalsh"]) == (1, {5, 9}, 0)


class TestIllConditionedDilation:
    """Near-singular, rank-deficient and near-infeasible couplings against
    the dense Kronecker reference, as in TestBlockCheck."""

    @pytest.mark.parametrize(
        "make, svd_calls",
        [
            (lambda rng: symmetric_optimal_coupling(3, 1.0 - 1e-9), 0),
            (lambda rng: symmetric_optimal_coupling(3, -0.5), 0),
            (lambda rng: symmetric_optimal_coupling(4, -1.0 / 3.0), 0),
            (lambda rng: symmetric_optimal_coupling(7, -1.0 / 6.0), 0),
            # C C^H misses G by ~1e-9 along a ~1e-9 eigenvalue: the light
            # row of X0 is sqrt(2) long, beyond POLAR_NS_BOUND
            (lambda rng: perturbed_coupling(ill_conditioned_ensemble(rng, 4, 1e-9), rng, 2**0.5), 1),
        ],
    )
    def test_matches_dense_dilation(self, monkeypatch, make, svd_calls):
        coupling = make(np.random.default_rng(23))
        calls = lapack_spies(monkeypatch)
        block = dilation_residuals(coupling)
        assert calls["svd"] == svd_calls
        dense = reference_residuals(build_dilation(coupling))
        assert list(block) == list(dense)
        for key, value in dense.items():
            assert abs(block[key] - value) <= 1e-13, (key, block[key], value)
        if svd_calls == 0:
            assert max(block.values()) <= 1e-10, block

    @pytest.mark.parametrize("lam_min, noise", [(1e-11, 1e-16), (1e-11, 1e-13), (1e-9, 1e-9)])
    def test_map_residual_as_small_as_procrustes(self, lam_min, noise):
        # an error along a light eigenvalue must stay on the light row of V;
        # spread over all rows it would grow by sqrt(lam_max / lam_min)
        rng = np.random.default_rng(29)
        for n in (4, 8, 12):
            coupling = perturbed_coupling(ill_conditioned_ensemble(rng, n, lam_min), rng, noise=noise)
            best = procrustes_map_residual(coupling)
            assert dilation_residuals(coupling)["map_residual"] <= 2 * best + 1e-15, (n, best)


class TestPostMeasurementState:
    def test_shared_states_across_inputs(self):
        d = build_dilation(binary_optimal_coupling(0.5, 0.6))
        state0, _ = post_measurement_state(d, 0, 0)
        state1, _ = post_measurement_state(d, 1, 0)
        fidelity = abs(np.vdot(state0, state1))
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_conditional_probabilities(self):
        d = build_dilation(binary_optimal_coupling(0.5, 0.6))
        _, p00 = post_measurement_state(d, 0, 0)
        _, p01 = post_measurement_state(d, 0, 1)
        assert p00 == pytest.approx(0.9, abs=1e-10)
        assert p01 == pytest.approx(0.1, abs=1e-10)

    def test_zero_probability_outcome(self):
        ens = gram_symmetric(2, 0.0)
        d = build_dilation(CouplingMatrix(np.eye(2, dtype=complex), ens))
        with pytest.raises(UndefinedConditionalError):
            post_measurement_state(d, 0, 1)

    def test_index_bounds(self):
        d = build_dilation(binary_optimal_coupling(0.5, 0.6))
        with pytest.raises(ValidationError):
            post_measurement_state(d, 2, 0)
        with pytest.raises(ValidationError):
            post_measurement_state(d, 0, -1)


class TestCouplingJson:
    def test_round_trip(self):
        c = binary_optimal_coupling(0.25, 0.6 * np.exp(0.4j))
        again = coupling_from_json(coupling_to_json(c), c.ensemble)
        assert np.max(np.abs(again.c - c.c)) <= 1e-15

    def test_text_equals_object(self):
        c = circulant_optimal_coupling(gram_psk(5, 0.7))
        obj = coupling_to_json(c)
        text = json.dumps(obj)
        assert np.array_equal(coupling_from_json(text, c.ensemble).c, coupling_from_json(obj, c.ensemble).c)

    def test_infeasible_refused(self):
        identity = {"c": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(InfeasibleCouplingError, match="infeasible"):
            coupling_from_json(identity, gram_symmetric(2, 0.3))

    def test_feasibility_computed_once(self, monkeypatch):
        # coupling_from_json checks C C^H = G and keeps the residual on
        # the coupling; the dilation's check reads it and does not multiply
        # C out again
        c = circulant_optimal_coupling(gram_psk(5, 0.7))
        calls, residual = [], coupling_mod._gram_residual

        def spy(rows, gram):
            calls.append(np.array_equal(rows, c.c))
            return residual(rows, gram)

        monkeypatch.setattr(coupling_mod, "_gram_residual", spy)
        loaded = coupling_from_json(coupling_to_json(c), c.ensemble)
        assert max(dilation_residuals(loaded).values()) <= 1e-10
        assert feasibility_residual(loaded) <= 1e-12
        assert calls.count(True) == 1

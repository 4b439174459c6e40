import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsd.ensembles import (
    Ensemble,
    circulant_eigenvalues,
    ensemble_from_json,
    ensemble_to_json,
    gram_binary,
    gram_psk,
    gram_symmetric,
    is_circulant,
    psk_first_row,
    spectral_factor,
)
from qsd.errors import NotCirculantError, ValidationError


class TestGramBinary:
    def test_orthogonal(self):
        ens = gram_binary(0.0, 0.5)
        assert np.array_equal(ens.gram, np.eye(2))
        assert np.array_equal(ens.priors, [0.5, 0.5])

    def test_direct_construction(self):
        ens = gram_binary(0.6, 0.25)
        assert ens.gram[0, 1] == 0.6
        assert ens.gram[1, 0] == 0.6
        assert np.array_equal(ens.priors, [0.25, 0.75])

    def test_identical_states_rank_one(self):
        ens = gram_binary(1.0, 0.5)
        assert np.array_equal(ens.gram, np.ones((2, 2)))
        assert spectral_factor(ens).rank == 1

    def test_complex_overlap_hermitian(self):
        ens = gram_binary(0.3 + 0.4j, 0.7)
        assert ens.gram[1, 0] == np.conj(ens.gram[0, 1])

    @pytest.mark.parametrize("overlap", [1.1, -1.0001, 0.8 + 0.7j, math.nan])
    def test_overlap_too_large(self, overlap):
        with pytest.raises(ValidationError):
            gram_binary(overlap, 0.5)

    @pytest.mark.parametrize("eta1", [-0.01, 1.01])
    def test_prior_out_of_range(self, eta1):
        with pytest.raises(ValidationError):
            gram_binary(0.5, eta1)


class TestGramSymmetric:
    def test_identity_at_zero(self):
        assert np.array_equal(gram_symmetric(3, 0.0).gram, np.eye(3))

    def test_lower_edge_is_rank_deficient(self):
        ens = gram_symmetric(3, -0.5)
        assert spectral_factor(ens).rank == 2

    def test_psd_violation_rejected(self):
        with pytest.raises(ValidationError):
            gram_symmetric(4, -0.5)

    def test_above_one_rejected(self):
        with pytest.raises(ValidationError):
            gram_symmetric(3, 1.001)

    def test_priors_uniform(self):
        ens = gram_symmetric(5, 0.3)
        assert np.allclose(ens.priors, 0.2, atol=0, rtol=0)
        off = ens.gram[~np.eye(5, dtype=bool)]
        assert np.all(off == 0.3)


class TestGramPsk:
    def test_ternary_nearest_neighbor_overlap(self):
        a = 0.7
        ens = gram_psk(3, a)
        expected = math.exp(-1.5 * a) * np.exp(1j * math.sqrt(3) / 2 * a)
        assert abs(ens.gram[0, 1] - expected) < 1e-15

    def test_quaternary_overlaps(self):
        a = 0.9
        ens = gram_psk(4, a)
        assert abs(ens.gram[0, 2] - math.exp(-2.0 * a)) < 1e-15
        # nearest neighbor: exp(-a*(1 - i)) for the root-of-unity generator
        assert abs(ens.gram[0, 1] - np.exp(-a * (1 - 1j))) < 1e-15

    def test_zero_intensity_all_ones(self):
        ens = gram_psk(5, 0.0)
        assert np.allclose(ens.gram, 1.0, atol=1e-15)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValidationError):
            gram_psk(3, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_intensity_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            gram_psk(3, bad)

    def test_large_intensity_orthogonal_limit(self):
        ens = gram_psk(4, 50.0)
        off = ens.gram[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 1e-20

    def test_first_row_matches_gram(self):
        row = psk_first_row(4, 0.5)
        assert np.allclose(row, gram_psk(4, 0.5).gram[0], atol=1e-15)


class TestEnsembleValidation:
    def test_non_hermitian_rejected(self):
        g = np.eye(2, dtype=complex)
        g[0, 1] = 0.5
        g[1, 0] = 0.4
        with pytest.raises(ValidationError):
            Ensemble(2, g, np.array([0.5, 0.5]))

    def test_bad_diagonal_rejected(self):
        g = np.eye(3, dtype=complex) * 1.001
        with pytest.raises(ValidationError):
            Ensemble(3, g, np.full(3, 1 / 3))

    def test_indefinite_rejected(self):
        g = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValidationError):
            Ensemble(3, g.astype(complex), np.full(3, 1 / 3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gram_rejected(self, bad):
        g = np.eye(3, dtype=complex)
        g[0, 1] = g[1, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            Ensemble(3, g, np.full(3, 1 / 3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_priors_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            Ensemble(3, np.eye(3, dtype=complex), np.array([bad, 0.5, 0.5]))

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            Ensemble(2, np.eye(2, dtype=complex), np.array([0.6, 0.6]))

    def test_arrays_frozen(self):
        ens = gram_binary(0.5, 0.5)
        with pytest.raises(ValueError):
            ens.gram[0, 1] = 0.0
        with pytest.raises(ValueError):
            ens.priors[0] = 0.9

    def test_equal_priors_flag(self):
        assert gram_symmetric(3, 0.2).equal_priors
        assert not gram_binary(0.5, 0.25).equal_priors


class TestSpectralFactor:
    def test_identity(self):
        sf = spectral_factor(gram_symmetric(3, 0.0))
        assert sf.rank == 3
        assert np.allclose(sf.factor, np.eye(3), atol=1e-14)
        assert np.allclose(sf.sqrt, np.eye(3), atol=1e-14)

    def test_rank_two_edge(self):
        sf = spectral_factor(gram_symmetric(3, -0.5))
        assert sf.rank == 2
        assert sf.factor.shape == (3, 2)

    def test_binary_sqrt_diagonal(self):
        # 2x2 Hermitian square root by hand: eigenvalues 1 +/- s
        sf = spectral_factor(gram_binary(0.6, 0.5))
        expected = 0.5 * (math.sqrt(1.6) + math.sqrt(0.4))
        assert abs(sf.sqrt[0, 0] - expected) < 1e-12
        assert abs(sf.sqrt[1, 1] - expected) < 1e-12

    def test_reconstruction_residuals_random_ensembles(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            kind = trial % 3
            if kind == 0:
                n = int(rng.integers(2, 7))
                lo = -1.0 / (n - 1)
                ens = gram_symmetric(n, float(rng.uniform(lo + 1e-6, 1.0)))
            elif kind == 1:
                ens = gram_psk(int(rng.integers(2, 7)), float(rng.uniform(0, 3)))
            else:
                n = int(rng.integers(2, 6))
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                g = m @ m.conj().T
                d = np.sqrt(np.diag(g).real)
                g = g / np.outer(d, d)
                g = 0.5 * (g + g.conj().T)
                np.fill_diagonal(g, 1.0)
                ens = Ensemble(n, g, np.full(n, 1.0 / n))
            sf = spectral_factor(ens)
            b, s = sf.factor, sf.sqrt
            assert np.max(np.abs(b @ b.conj().T - ens.gram)) <= 1e-10
            assert np.max(np.abs(s @ s - ens.gram)) <= 1e-10


class TestCirculantEigenvalues:
    def test_binary_row(self):
        lam = circulant_eigenvalues(np.array([1.0, 0.5]))
        assert sorted(lam) == pytest.approx([0.5, 1.5], abs=1e-14)

    def test_identity_row(self):
        lam = circulant_eigenvalues(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(lam, 1.0, atol=1e-14)

    def test_all_ones_row(self):
        lam = circulant_eigenvalues(psk_first_row(3, 0.0))
        assert sorted(lam) == pytest.approx([0.0, 0.0, 3.0], abs=1e-14)

    def test_agrees_with_dense_eigendecomposition(self):
        for n, a in [(3, 0.4), (4, 1.1), (5, 0.05), (6, 2.0)]:
            ens = gram_psk(n, a)
            lam = np.sort(circulant_eigenvalues(psk_first_row(n, a)))
            dense = np.sort(np.linalg.eigvalsh(ens.gram))
            assert np.max(np.abs(lam - dense)) <= 1e-10

    def test_non_circulant_hermitian_rejected(self):
        with pytest.raises(NotCirculantError):
            circulant_eigenvalues(np.array([1.0, 0.5 + 0.5j, 0.7]))

    def test_is_circulant(self):
        assert is_circulant(gram_psk(4, 0.3).gram)
        g = gram_binary(0.6, 0.25).gram.copy()
        assert is_circulant(g)
        g3 = np.eye(3, dtype=complex)
        g3[0, 1] = g3[1, 0] = 0.5
        assert not is_circulant(g3)


class TestJsonInterface:
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "binary", "overlap": {"re": 0.6, "im": 0.0}, "eta1": 0.25},
            {"kind": "symmetric", "n": 4, "s": 0.5},
            {"kind": "psk", "n": 3, "alpha_sq": 0.5},
        ],
    )
    def test_kinds_parse(self, payload):
        ens = ensemble_from_json(payload)
        assert ens.validate() is None

    def test_binary_overlap_as_number(self):
        ens = ensemble_from_json({"kind": "binary", "overlap": 0.6, "eta1": 0.5})
        assert ens.gram[0, 1] == 0.6

    def test_gram_kind_round_trip(self):
        ens = gram_psk(3, 0.8)
        again = ensemble_from_json(ensemble_to_json(ens))
        assert np.allclose(again.gram, ens.gram, atol=1e-15)
        assert np.allclose(again.priors, ens.priors, atol=1e-15)

    def test_string_input(self):
        ens = ensemble_from_json('{"kind":"symmetric","n":3,"s":0.5}')
        assert ens.n == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "not json at all",
            '{"kind":"unknown","n":3}',
            '{"kind":"symmetric","n":3}',
            '{"kind":"binary","overlap":{"re":2.0,"im":0.0},"eta1":0.5}',
            '{"kind":"gram","matrix":[[1]],"priors":[0.5,0.5]}',
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValidationError):
            ensemble_from_json(bad)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=-0.49, max_value=1.0),
    n=st.integers(min_value=3, max_value=8),
)
def test_symmetric_generator_always_validates(s, n):
    if s < -1.0 / (n - 1):
        s = -1.0 / (n - 1) + 1e-9
    ens = gram_symmetric(n, s)
    assert ens.validate() is None


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=20.0),
    n=st.integers(min_value=2, max_value=8),
)
def test_psk_generator_always_validates(a, n):
    ens = gram_psk(n, a)
    assert ens.validate() is None
    assert is_circulant(ens.gram)


@settings(max_examples=60, deadline=None)
@given(
    mag=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=2 * math.pi),
    eta1=st.floats(min_value=0.0, max_value=1.0),
)
def test_binary_generator_always_validates(mag, phase, eta1):
    ens = gram_binary(mag * np.exp(1j * phase), eta1)
    assert ens.validate() is None

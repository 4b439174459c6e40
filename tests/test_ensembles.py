import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lapack_spies
from qsd.closed_form import srm_error_circulant, srm_error_general
from qsd.ensembles import (
    CIRCULANT_TOL,
    MAX_STATES,
    Ensemble,
    _circulant_spectrum,
    check_symmetric,
    circulant,
    ensemble_from_json,
    ensemble_to_json,
    gram_binary,
    gram_psk,
    gram_symmetric,
    spectral_factor,
)
from qsd.errors import ValidationError
from qsd.optimizer import optimal_coupling, optimize_general


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

    def test_slack_above_one_capped(self):
        assert check_symmetric(3, 1 + 5e-13)[1] == 1.0

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
        # the Gram is exactly the circulant of the PSK overlaps exp(-a (1 - w^k))
        ens = gram_psk(4, 0.5)
        row = np.exp(-0.5 * (1.0 - np.exp(2j * np.pi * np.arange(4) / 4)))
        assert np.allclose(ens.gram[0], row, atol=1e-15)
        assert ens._circulant_deviation == 0.0


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

    @pytest.mark.parametrize("priors", [[1.5, -0.5], [1.0 + 2e-12, -2e-12]])
    def test_negative_priors_rejected(self, priors):
        with pytest.raises(ValidationError, match="priors must be nonnegative"):
            Ensemble(2, np.eye(2, dtype=complex), np.array(priors))

    def test_prior_roundoff_stored_as_zero(self):
        # a prior down to -PRIOR_TOL is admitted, and stored as a probability
        ens = Ensemble(2, np.array([[1, 0.5], [0.5, 1]], dtype=complex), np.array([1.0, -1e-12]))
        assert ens.priors.min() == 0.0
        assert ensemble_to_json(ens)["priors"] == [1.0, 0.0]
        assert ens.validate() is None and ens.priors.min() == 0.0

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


def _circulant_cases():
    for n in (2, 3, 4, 8, 16, 64):
        for a in (0.05, 1.0, 20.0):
            yield pytest.param(lambda n=n, a=a: gram_psk(n, a), id=f"psk-{n}-{a}")
    for n in (2, 3, 5, 16, 64):
        for s in (-1.0 / (n - 1), 0.0, 0.5, 1.0):
            yield pytest.param(lambda n=n, s=s: gram_symmetric(n, s), id=f"symmetric-{n}-{s:.4g}")
    yield pytest.param(lambda: Ensemble(1, np.ones((1, 1)), np.ones(1)), id="single")


class TestStoredSpectrum:
    """Validation keeps one eigendecomposition per Gram: the DFT of the
    first row for an exact circulant, eigh otherwise; spectral_factor
    reads it and computes none."""

    @pytest.mark.parametrize("build", list(_circulant_cases()))
    def test_circulant_spectrum_without_eigh(self, monkeypatch, build):
        calls = lapack_spies(monkeypatch)
        ens = build()
        sf = spectral_factor(ens)
        assert (calls["eigh"], calls["eigvalsh"]) == (0, 0)
        n, w, lam = ens.n, sf.eigenvectors, sf.eigenvalues
        monkeypatch.undo()
        assert np.max(np.abs(w.conj().T @ w - np.eye(n))) <= 1e-13
        assert np.max(np.abs((w * lam) @ w.conj().T - ens.gram)) <= 1e-13 * lam[-1]
        assert np.max(np.abs(lam - np.linalg.eigvalsh(ens.gram))) <= 1e-13 * n * lam[-1]
        assert np.all(np.diff(lam) >= 0.0) and lam[0] >= 0.0

    def test_nearly_circulant_takes_eigh(self, monkeypatch):
        g = gram_psk(6, 0.7).gram.copy()
        g[1, 3] += 1e-12
        g[3, 1] = np.conj(g[1, 3])
        calls = lapack_spies(monkeypatch)
        ens = Ensemble(6, g, np.full(6, 1.0 / 6))
        sf = spectral_factor(ens)
        assert (calls["eigh"], calls["eigvalsh"]) == (1, 0)
        assert 0.0 < ens._circulant_deviation <= CIRCULANT_TOL
        assert ens.validate() is None
        assert np.max(np.abs(sf.factor @ sf.factor.conj().T - g)) <= 1e-13

    def test_large_psk_builds_without_eigendecomposition(self, monkeypatch):
        calls = lapack_spies(monkeypatch)
        gram_psk(512, 1.0)
        assert (calls["eigh"], calls["eigvalsh"]) == (0, 0)

    def test_general_gram_takes_one_eigh(self, monkeypatch):
        calls = lapack_spies(monkeypatch)
        ens = gram_binary(0.6j, 0.3)
        spectral_factor(ens)
        spectral_factor(ens)
        assert (calls["eigh"], calls["eigvalsh"]) == (1, 0)

    def test_default_factor_built_once_and_shared(self):
        ens = gram_psk(8, 0.5)
        sf = spectral_factor(ens)
        assert spectral_factor(ens) is sf
        assert sf.eigenvalues is ens._eigenvalues
        for a in (sf.factor, sf.sqrt, sf.eigenvalues, sf.eigenvectors):
            assert not a.flags.writeable
        # nothing is copied: a general Gram's factor shares its eigenvectors,
        # and a full-rank factor is its square root
        general = gram_binary(0.6j, 0.3)
        sf = spectral_factor(general)
        assert sf.eigenvectors is general._eigenvectors
        assert sf.factor is sf.sqrt

    def test_factor_of_caller_arrays_is_a_copy(self):
        sf = spectral_factor(gram_symmetric(3, 0.2))
        factor = np.array(sf.factor)
        again = type(sf)(sf.rank, factor, sf.sqrt, sf.eigenvalues, sf.eigenvectors)
        factor[0, 0] = 7.0
        assert again.factor[0, 0] == sf.factor[0, 0]
        assert again.sqrt is sf.sqrt

    def test_oracles_do_not_read_the_stored_spectrum(self):
        # the SRM oracles check the factor-based solvers, so they must
        # decompose the Gram themselves
        ens = gram_psk(8, 0.7)
        expected = (srm_error_general(ens), srm_error_circulant(ens))
        object.__setattr__(ens, "_eigenvalues", np.full(8, np.nan))
        assert (srm_error_general(ens), srm_error_circulant(ens)) == expected

    @pytest.mark.parametrize("rank_tol", [1.0, 1.5, np.inf, 0.0, -1e-12, np.nan, True, "0.5"])
    def test_rank_tol_outside_unit_interval_refused(self, rank_tol):
        # the cut is the constant RANK_TOL: no value, inside the unit
        # interval or out, is taken as an argument
        ens = gram_symmetric(3, 0.5)
        sf = spectral_factor(ens)
        with pytest.raises(TypeError):
            spectral_factor(ens, rank_tol)
        with pytest.raises(TypeError, match="rank_tol"):
            optimize_general(ens, rank_tol=rank_tol)
        assert spectral_factor(ens) is sf


class TestCirculantEigenvalues:
    """The one circulant spectrum, which validation and the circulant
    closed forms share."""

    def test_binary_row(self):
        lam = _circulant_spectrum(np.array([1.0, 0.5]))
        assert sorted(lam) == pytest.approx([0.5, 1.5], abs=1e-14)

    def test_identity_row(self):
        lam = _circulant_spectrum(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(lam, 1.0, atol=1e-14)

    def test_all_ones_row(self):
        lam = _circulant_spectrum(gram_psk(3, 0.0).gram[0])
        assert sorted(lam) == pytest.approx([0.0, 0.0, 3.0], abs=1e-14)

    def test_agrees_with_dense_eigendecomposition(self):
        for n, a in [(3, 0.4), (4, 1.1), (5, 0.05), (6, 2.0)]:
            ens = gram_psk(n, a)
            lam = np.sort(_circulant_spectrum(ens.gram[0]))
            dense = np.sort(np.linalg.eigvalsh(ens.gram))
            assert np.max(np.abs(lam - dense)) <= 1e-10

    @pytest.mark.parametrize(
        "make, n, x",
        [(gram_psk, n, a) for n in (2, 3, 4, 8, 16, 64) for a in (0.3, 2.0)]
        + [(gram_symmetric, 3, 0.4), (gram_symmetric, 5, -0.2)],
    )
    def test_validation_reads_the_shared_spectrum(self, make, n, x):
        ens = make(n, x)
        assert ens._circulant_deviation == 0.0
        lam = np.sort(np.clip(_circulant_spectrum(ens.gram[0]), 0.0, None))
        assert np.array_equal(ens._eigenvalues, lam)

    def test_is_circulant(self):
        assert gram_psk(4, 0.3)._circulant_deviation == 0.0
        assert gram_binary(0.6, 0.25)._circulant_deviation == 0.0
        g3 = np.eye(3, dtype=complex)
        g3[0, 1] = g3[1, 0] = 0.5
        assert Ensemble(3, g3, np.full(3, 1.0 / 3))._circulant_deviation > CIRCULANT_TOL


class TestCirculant:
    """circulant is the one constructor of the package's circulants: a
    read-only view of the doubled first row, which the owners copy."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_view_of_the_doubled_row(self, n, dtype):
        rng = np.random.default_rng(n)
        row = rng.standard_normal(n)
        if dtype is complex:
            row = row + 1j * rng.standard_normal(n)
        c = circulant(row)
        assert c.dtype == row.dtype
        assert np.array_equal(c, row[(np.arange(n) - np.arange(n)[:, None]) % n])
        assert not c.flags.writeable
        assert c.base.size == 2 * n and c.base.flags.owndata

    @staticmethod
    def _peak_mib(build) -> float:
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_gram_psk_copies_once(self):
        # a dense complex 1024 x 1024 matrix is 16 MiB: the Gram's one copy
        # and validation's temporaries peak at 48.2 MiB, one more dense
        # circulant would pass the bound
        assert self._peak_mib(lambda: gram_psk(1024, 1.0)) < 56

    def test_circulant_coupling_copies_once(self):
        # likewise for the coupling's one copy: 32.1 MiB
        ens = gram_psk(1024, 1.0)
        assert self._peak_mib(lambda: optimal_coupling(ens)) < 40


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

    @pytest.mark.parametrize("bad", ["5", "[1, 2]", '"psk"', "null", 5, [1, 2]])
    def test_non_object_refused(self, bad):
        with pytest.raises(ValidationError, match="^ensemble JSON must be an object$"):
            ensemble_from_json(bad)

    @pytest.mark.parametrize(
        "key, message",
        [("kind", "unknown ensemble kind "), ("n", "n must be an integer, got ")],
    )
    def test_refused_entry_echo_is_bounded(self, key, message):
        deep = []
        for _ in range(500):
            deep = [deep]
        source = {"kind": "psk", "alpha_sq": 0.5, key: deep}
        with pytest.raises(ValidationError) as info:
            ensemble_from_json(source)
        assert str(info.value).endswith(message + "[[[[[[[...]]]]]]]")

    @pytest.mark.parametrize("text", ["[" * 5000 + "]" * 5000, '{"n": ' + "1" * 5000 + "}"])
    def test_unparsable_json_is_malformed(self, text):
        # json.loads raises RecursionError or an integer-digit ValueError,
        # not a JSONDecodeError
        with pytest.raises(ValidationError, match="^malformed ensemble JSON: "):
            ensemble_from_json(text)

    @pytest.mark.parametrize("n", ["Infinity", "-Infinity", "NaN", "1e400"])
    def test_non_finite_state_count_rejected(self, n):
        with pytest.raises(ValidationError, match="malformed"):
            ensemble_from_json(f'{{"kind":"psk","n":{n},"alpha_sq":0.5}}')


class TestCountsCheckedNeverCast:
    @pytest.mark.parametrize("n", [3.7, 3.0, "3", True, None])
    @pytest.mark.parametrize(
        "build", [lambda n: gram_symmetric(n, 0.25), lambda n: gram_psk(n, 0.5)], ids=["symmetric", "psk"]
    )
    def test_state_count(self, build, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            build(n)

    def test_numpy_integer_state_count_accepted(self):
        assert gram_symmetric(np.int64(3), 0.25).n == 3
        assert gram_psk(np.int32(4), 0.5).gram.shape == (4, 4)

    @pytest.mark.parametrize("n", [True, 1.0, "1"])
    def test_ensemble_size(self, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            Ensemble(n, np.eye(1), np.ones(1))

    @pytest.mark.parametrize("n", ["3.7", "3.0", "true", '"3"', "null", "[3]"])
    @pytest.mark.parametrize("kind", ["symmetric", "psk"])
    def test_json_state_count(self, kind, n):
        with pytest.raises(ValidationError, match="malformed ensemble JSON: n must be an integer"):
            ensemble_from_json(f'{{"kind":"{kind}","n":{n},"s":0.4,"alpha_sq":0.5}}')

    def test_json_state_count_below_two(self):
        with pytest.raises(ValidationError, match="n must be at least 2, got 1"):
            ensemble_from_json('{"kind":"symmetric","n":1,"s":0.4}')


class TestSizeLimit:
    @pytest.mark.parametrize(
        "build", [lambda n: gram_psk(n, 1.0), lambda n: gram_symmetric(n, 0.5)], ids=["psk", "symmetric"]
    )
    @pytest.mark.parametrize("n", [MAX_STATES + 1, 100_000, 2**63])
    def test_refused_before_allocating(self, build, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=str(MAX_STATES)):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
    assert ens._circulant_deviation == 0.0


@settings(max_examples=60, deadline=None)
@given(
    mag=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=2 * math.pi),
    eta1=st.floats(min_value=0.0, max_value=1.0),
)
def test_binary_generator_always_validates(mag, phase, eta1):
    ens = gram_binary(mag * np.exp(1j * phase), eta1)
    assert ens.validate() is None

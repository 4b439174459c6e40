"""Pure-state ensembles represented by Gram matrices with priors.

Every discrimination quantity computed in this package depends on the
states only through their pairwise inner products, so states are never
materialized as vectors.  An :class:`Ensemble` stores the N x N Gram
matrix ``G`` with ``G[j, l] = <psi_j|psi_l>`` together with the prior
probabilities, and this module provides the generators for the three
families used throughout (binary pairs, real symmetric sets, and
phase-shift-keyed coherent sets) plus the small dense Hermitian linear
algebra everything else builds on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NotCirculantError, ValidationError

HERMITIAN_TOL = 1e-12
DIAGONAL_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PRIOR_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Ensemble:
    """N pure states given by their Gram matrix and prior probabilities.

    Attributes
    ----------
    n : int
        Number of states.
    gram : (n, n) complex ndarray
        Pairwise overlaps, ``gram[j, l] = <psi_j|psi_l>``.  Hermitian,
        unit diagonal, positive semidefinite.
    priors : (n,) float ndarray
        Nonnegative, sums to one.
    """

    n: int
    gram: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        gram = np.array(self.gram, dtype=complex)
        priors = np.array(self.priors, dtype=float)
        object.__setattr__(self, "gram", _frozen(gram))
        object.__setattr__(self, "priors", _frozen(priors))
        self.validate()

    def validate(self) -> None:
        """Check all structural invariants, raising ValidationError."""
        n, gram, priors = self.n, self.gram, self.priors
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValidationError(f"n must be a positive integer, got {n!r}")
        if gram.shape != (n, n):
            raise ValidationError(f"gram must be {n}x{n}, got {gram.shape}")
        if priors.shape != (n,):
            raise ValidationError(f"priors must have length {n}")
        # NaN fails every comparison below, so it must be caught here
        if not np.all(np.isfinite(gram)):
            raise ValidationError("gram entries must be finite")
        if not np.all(np.isfinite(priors)):
            raise ValidationError("priors must be finite")
        herm = np.max(np.abs(gram - gram.conj().T))
        if herm > HERMITIAN_TOL:
            raise ValidationError(f"gram is not Hermitian (residual {herm:.3e})")
        diag = np.max(np.abs(np.diag(gram) - 1.0))
        if diag > DIAGONAL_TOL:
            raise ValidationError(f"gram diagonal must be 1 (residual {diag:.3e})")
        lam_min = float(np.linalg.eigvalsh(gram)[0])
        if lam_min < EIGENVALUE_FLOOR:
            raise ValidationError(
                f"gram is not positive semidefinite (min eigenvalue {lam_min:.3e})"
            )
        if priors.min() < -PRIOR_TOL:
            raise ValidationError("priors must be nonnegative")
        if abs(priors.sum() - 1.0) > PRIOR_TOL:
            raise ValidationError(f"priors must sum to 1, got {priors.sum()!r}")

    @property
    def equal_priors(self) -> bool:
        return bool(np.max(np.abs(self.priors - 1.0 / self.n)) <= PRIOR_TOL)


@dataclass(frozen=True)
class SpectralFactor:
    """Spectral data of a Gram matrix restricted to its numerical rank.

    Attributes
    ----------
    rank : int
        Number of eigenvalues above the rank tolerance.
    factor : (n, rank) complex ndarray
        Matrix ``B`` with ``B B^H = gram``.  For a full-rank Gram this is
        the principal square root itself, so that the identity isometry
        reproduces the square-root-measurement coupling; otherwise it is
        the thin eigenvector factor ``W_r diag(sqrt(lam_r))``.
    sqrt : (n, n) complex ndarray
        Principal PSD square root on the rank support (eigenvalues below
        the tolerance contribute zero).
    eigenvalues : (n,) float ndarray
        All eigenvalues of the Gram matrix in ascending order, negative
        roundoff clamped to zero; the kept ones are the last ``rank``.
    eigenvectors : (n, n) complex ndarray
        Matching orthonormal eigenvectors, one per column.
    """

    rank: int
    factor: np.ndarray
    sqrt: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "factor", _frozen(np.array(self.factor, dtype=complex)))
        object.__setattr__(self, "sqrt", _frozen(np.array(self.sqrt, dtype=complex)))
        object.__setattr__(
            self, "eigenvalues", _frozen(np.array(self.eigenvalues, dtype=float))
        )
        object.__setattr__(
            self, "eigenvectors", _frozen(np.array(self.eigenvectors, dtype=complex))
        )


def gram_binary(overlap: complex, eta1: float) -> Ensemble:
    """Two-state ensemble with the given overlap and prior of the first state.

    Parameters
    ----------
    overlap : complex
        Inner product ``<psi_1|psi_2>``; magnitude at most 1.
    eta1 : float
        Prior probability of the first state; the second gets ``1 - eta1``.
    """
    overlap = complex(overlap)
    if not abs(overlap) <= 1.0 + 1e-12:  # also rejects NaN
        raise ValidationError(f"|overlap| must be <= 1, got {abs(overlap)!r}")
    eta1 = float(eta1)
    if not 0.0 <= eta1 <= 1.0:
        raise ValidationError(f"eta1 must lie in [0, 1], got {eta1!r}")
    gram = np.array([[1.0, overlap], [np.conj(overlap), 1.0]])
    return Ensemble(2, gram, np.array([eta1, 1.0 - eta1]))


def gram_symmetric(n: int, s: float) -> Ensemble:
    """Equal-prior ensemble of n states with all pairwise overlaps equal to s.

    The Gram matrix is positive semidefinite exactly for
    ``-1/(n-1) <= s <= 1``; the lower edge is the rank-deficient limiting
    case where the states become linearly dependent.
    """
    n = int(n)
    if n < 2:
        raise ValidationError("n must be at least 2")
    s = float(s)
    if not -1.0 / (n - 1) - 1e-12 <= s <= 1.0 + 1e-12:
        raise ValidationError(
            f"s={s!r} outside the positive-semidefinite range [{-1.0/(n-1)}, 1]"
        )
    gram = np.full((n, n), s, dtype=complex)
    np.fill_diagonal(gram, 1.0)
    return Ensemble(n, gram, np.full(n, 1.0 / n))


def gram_psk(n: int, alpha_sq: float) -> Ensemble:
    """Equal-prior phase-shift-keyed coherent ensemble.

    The states are coherent states of common intensity ``alpha_sq``
    whose phases sit at the n-th roots of unity, giving the circulant
    Gram matrix ``G[j, l] = exp(-alpha_sq * (1 - w**(l - j)))`` with
    ``w = exp(2 pi i / n)``.
    """
    n = int(n)
    if n < 2:
        raise ValidationError("n must be at least 2")
    alpha_sq = float(alpha_sq)
    if not 0.0 <= alpha_sq < np.inf:
        raise ValidationError(f"alpha_sq must be finite and nonnegative, got {alpha_sq!r}")
    omega = np.exp(2j * np.pi / n)
    j, l = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    gram = np.exp(-alpha_sq * (1.0 - omega ** ((l - j) % n)))
    # exact Hermiticity and unit diagonal, independent of roundoff in omega powers
    gram = 0.5 * (gram + gram.conj().T)
    np.fill_diagonal(gram, 1.0)
    return Ensemble(n, gram, np.full(n, 1.0 / n))


def psk_first_row(n: int, alpha_sq: float) -> np.ndarray:
    """First row of the PSK Gram matrix (the circulant generator)."""
    return gram_psk(n, alpha_sq).gram[0].copy()


def spectral_factor(ensemble: Ensemble, rank_tol: float = DEFAULT_RANK_TOL) -> SpectralFactor:
    """Factor the Gram matrix as ``B B^H = G`` via Hermitian eigendecomposition.

    Eigenvalues below ``rank_tol`` times the largest are dropped from the
    factor and zeroed in the support square root; tiny negative
    eigenvalues (roundoff) are clamped to zero first.

    Returns
    -------
    SpectralFactor
    """
    if not rank_tol > 0:
        raise ValidationError("rank_tol must be positive")
    try:
        lam, w = np.linalg.eigh(ensemble.gram)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ValidationError(f"eigendecomposition failed: {exc}") from exc
    lam = np.clip(lam, 0.0, None)
    keep = lam > rank_tol * lam.max()
    rank = int(np.count_nonzero(keep))
    lam_kept = np.where(keep, lam, 0.0)
    sqrt = (w * np.sqrt(lam_kept)) @ w.conj().T
    if rank == ensemble.n:
        factor = sqrt
    else:
        factor = w[:, keep] * np.sqrt(lam[keep])
    return SpectralFactor(rank=rank, factor=factor, sqrt=sqrt, eigenvalues=lam, eigenvectors=w)


def circulant_eigenvalues(first_row: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian PSD circulant matrix from its first row.

    The k-th eigenvalue is the k-th DFT coefficient
    ``sum_m first_row[m] * exp(-2 pi i k m / N)``.  Imaginary parts up to
    1e-10 are discarded; negative values above -1e-10 are clamped to 0.
    """
    first_row = np.asarray(first_row, dtype=complex)
    lam = np.fft.fft(first_row)
    imag_max = float(np.max(np.abs(lam.imag))) if lam.size else 0.0
    if imag_max > 1e-8:
        raise NotCirculantError(
            f"first row is not that of a Hermitian circulant (imag part {imag_max:.3e})"
        )
    lam = lam.real
    if lam.min() < -1e-10:
        raise ValidationError(
            f"circulant matrix not positive semidefinite (eigenvalue {lam.min():.3e})"
        )
    return np.clip(lam, 0.0, None)


def is_circulant(gram: np.ndarray, tol: float = 1e-10) -> bool:
    """True if ``gram[j, l]`` depends only on ``(l - j) mod n`` within tol."""
    gram = np.asarray(gram)
    n = gram.shape[0]
    row = gram[0]
    j, l = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return bool(np.max(np.abs(gram - row[(l - j) % n])) <= tol)


def ensemble_from_json(source: str | dict) -> Ensemble:
    """Build an Ensemble from the JSON schema used by the command line.

    Accepted forms::

        {"kind": "binary", "overlap": {"re": 0.6, "im": 0.0}, "eta1": 0.25}
        {"kind": "symmetric", "n": 4, "s": 0.5}
        {"kind": "psk", "n": 3, "alpha_sq": 0.5}
        {"kind": "gram", "matrix": [[{"re": ..., "im": ...}, ...], ...],
         "priors": [...]}
    """
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed ensemble JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise ValidationError("ensemble JSON must be an object")
    kind = source.get("kind")
    try:
        if kind == "binary":
            from ._serialize import parse_complex

            return gram_binary(parse_complex(source["overlap"]), float(source["eta1"]))
        if kind == "symmetric":
            return gram_symmetric(int(source["n"]), float(source["s"]))
        if kind == "psk":
            return gram_psk(int(source["n"]), float(source["alpha_sq"]))
        if kind == "gram":
            from ._serialize import parse_matrix

            matrix = parse_matrix(source["matrix"])
            priors = np.array([float(p) for p in source["priors"]])
            return Ensemble(matrix.shape[0], matrix, priors)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed ensemble JSON: {exc}") from exc
    raise ValidationError(f"unknown ensemble kind {kind!r}")


def ensemble_to_json(ensemble: Ensemble) -> dict:
    """Serialize any ensemble in the generic ``gram`` form."""
    from ._serialize import matrix_obj

    return {
        "kind": "gram",
        "matrix": matrix_obj(ensemble.gram),
        "priors": list(ensemble.priors),
    }

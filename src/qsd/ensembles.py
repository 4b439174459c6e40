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

from .errors import ValidationError

HERMITIAN_TOL = 1e-12
DIAGONAL_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PRIOR_TOL = 1e-12
# eigenvalues below this fraction of the largest leave the spectral factor
RANK_TOL = 1e-12
# circulant deviation up to which the circulant closed forms take a Gram
CIRCULANT_TOL = 1e-10
# largest n for which gram_psk and gram_symmetric build the dense n x n
# Gram matrix (256 MiB of complex entries), checked before allocating; an
# Ensemble whose Gram is not circulant also holds its n x n eigenvectors
MAX_STATES = 4096
# entries of the largest temporary that the circulant deviation and the
# DFT blocks below allocate (1 MiB of complex entries)
BLOCK_ENTRIES = 2**16


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _readonly(a, dtype) -> np.ndarray:
    """a itself when it is already a read-only array of dtype, else a
    read-only copy: arrays that another frozen object holds are shared."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable:
        return a
    return _frozen(np.array(a, dtype=dtype))


@dataclass(frozen=True, eq=False)
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

    Validation reads the Gram's deviation from the circulant of its first
    row once and keeps it as ``_circulant_deviation`` (exact up to
    ``CIRCULANT_TOL``, a lower bound above it): 0 selects the DFT spectrum
    below, and at most ``CIRCULANT_TOL`` admits the circulant closed
    forms, which read the kept value instead of the Gram.  It also
    computes the one eigendecomposition of the Gram matrix that the
    package uses and keeps it, read-only, for :func:`spectral_factor`:
    ``eigh`` for a general Gram, and for one that is exactly the circulant
    of its first row the DFT of that row, whose eigenvectors (Fourier
    columns) are built only when a factor is asked for.
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
        check_integer(n, "n", 1)
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
        deviation = _circulant_deviation(gram)
        if deviation == 0.0:
            lam, vectors = _fourier_eigenvalues(gram[0]), None
            modes = np.argsort(lam, kind="stable")
            lam = lam[modes]
        else:
            try:
                lam, vectors = np.linalg.eigh(gram)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise ValidationError(f"eigendecomposition failed: {exc}") from exc
            modes = None
        if lam[0] < EIGENVALUE_FLOOR:
            raise ValidationError(
                f"gram is not positive semidefinite (min eigenvalue {lam[0]:.3e})"
            )
        if priors.min() < -PRIOR_TOL:
            raise ValidationError("priors must be nonnegative")
        if abs(priors.sum() - 1.0) > PRIOR_TOL:
            raise ValidationError(f"priors must sum to 1, got {priors.sum()!r}")
        # the circulant deviation; ascending eigenvalues, negative roundoff
        # clamped to zero; the eigenvectors, or for a circulant the DFT mode of
        # each eigenvalue; and the SpectralFactor, on first request
        object.__setattr__(self, "_circulant_deviation", deviation)
        object.__setattr__(self, "_eigenvalues", _frozen(np.clip(lam, 0.0, None)))
        object.__setattr__(self, "_eigenvectors", None if vectors is None else _frozen(vectors))
        object.__setattr__(self, "_modes", modes)
        object.__setattr__(self, "_factor", None)

    @property
    def equal_priors(self) -> bool:
        return bool(np.max(np.abs(self.priors - 1.0 / self.n)) <= PRIOR_TOL)


@dataclass(frozen=True, eq=False)
class SpectralFactor:
    """Spectral data of a Gram matrix restricted to its numerical rank.

    Attributes
    ----------
    rank : int
        Number of eigenvalues above ``RANK_TOL`` times the largest.
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
        for name in ("factor", "sqrt", "eigenvalues", "eigenvectors"):
            dtype = float if name == "eigenvalues" else complex
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype))


def check_prior(eta1: float) -> float:
    """eta1 as a float in [0, 1]."""
    eta1 = float(eta1)
    if not 0.0 <= eta1 <= 1.0:  # also rejects NaN
        raise ValidationError(f"eta1 must lie in [0, 1], got {eta1!r}")
    return eta1


def check_binary(eta1: float, overlap: complex) -> tuple[float, complex]:
    """Validated ``(eta1, overlap)``: a prior in [0, 1], ``|overlap| <= 1``."""
    eta1, overlap = check_prior(eta1), complex(overlap)
    if not abs(overlap) <= 1.0 + 1e-12:  # also rejects NaN
        raise ValidationError(f"|overlap| must be <= 1, got {abs(overlap)!r}")
    return eta1, overlap


def check_symmetric(n: int, s: float) -> tuple[int, float]:
    """Validated ``(n, s)``: ``n >= 2`` and s in ``[-1/(n-1), 1]``."""
    n, s = check_state_count(n), float(s)
    if not -1.0 / (n - 1) - 1e-12 <= s <= 1.0 + 1e-12:
        raise ValidationError(
            f"s={s!r} outside the positive-semidefinite range [{-1.0/(n-1)}, 1]"
        )
    return n, s


def check_integer(value, name: str, low: int) -> int:
    """value as an int of at least low; a bool, float or str is refused, never cast."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value!r}")
    return int(value)


def check_state_count(n: int) -> int:
    """n as an int, at least 2."""
    return check_integer(n, "n", 2)


def _check_dense(n: int) -> None:
    """Refuse, before anything is allocated, a dense Gram matrix above MAX_STATES."""
    if n > MAX_STATES:
        raise ValidationError(f"n={n} is above the limit of {MAX_STATES} states for a dense Gram")


def check_seed(seed: int) -> int:
    """seed as an int that fits in 64 unsigned bits."""
    seed = check_integer(seed, "seed", 0)
    if seed >= 2**64:
        raise ValidationError("seed must fit in 64 unsigned bits")
    return seed


def gram_binary(overlap: complex, eta1: float) -> Ensemble:
    """Two-state ensemble with the given overlap and prior of the first state.

    Parameters
    ----------
    overlap : complex
        Inner product ``<psi_1|psi_2>``; magnitude at most 1.
    eta1 : float
        Prior probability of the first state; the second gets ``1 - eta1``.
    """
    eta1, overlap = check_binary(eta1, overlap)
    gram = np.array([[1.0, overlap], [np.conj(overlap), 1.0]])
    return Ensemble(2, gram, np.array([eta1, 1.0 - eta1]))


def gram_symmetric(n: int, s: float) -> Ensemble:
    """Equal-prior ensemble of n states with all pairwise overlaps equal to s.

    The Gram matrix is positive semidefinite exactly for
    ``-1/(n-1) <= s <= 1``; the lower edge is the rank-deficient limiting
    case where the states become linearly dependent.  n is capped at
    ``MAX_STATES``.
    """
    n, s = check_symmetric(n, s)
    _check_dense(n)
    gram = np.full((n, n), s, dtype=complex)
    np.fill_diagonal(gram, 1.0)
    return Ensemble(n, gram, np.full(n, 1.0 / n))


def gram_psk(n: int, alpha_sq: float) -> Ensemble:
    """Equal-prior phase-shift-keyed coherent ensemble.

    The states are coherent states of common intensity ``alpha_sq``
    whose phases sit at the n-th roots of unity, giving the circulant
    Gram matrix ``G[j, l] = exp(-alpha_sq * (1 - w**(l - j)))`` with
    ``w = exp(2 pi i / n)``.  n is capped at ``MAX_STATES``.
    """
    n = check_state_count(n)
    _check_dense(n)
    alpha_sq = float(alpha_sq)
    if not 0.0 <= alpha_sq < np.inf:
        raise ValidationError(f"alpha_sq must be finite and nonnegative, got {alpha_sq!r}")
    k = np.arange(n)
    row = np.exp(-alpha_sq * (1.0 - np.exp(2j * np.pi / n) ** k))
    # exact Hermiticity (row[-k] = conj(row[k])) and unit diagonal,
    # independent of roundoff in the powers of the root of unity
    row = 0.5 * (row + row[-k].conj())
    row[0] = 1.0
    return Ensemble(n, circulant(row), np.full(n, 1.0 / n))


def spectral_factor(ensemble: Ensemble) -> SpectralFactor:
    """Factor the Gram matrix as ``B B^H = G`` from the eigendecomposition
    that the ensemble keeps since validation; none is computed here.

    Eigenvalues below ``RANK_TOL`` times the largest are dropped from the
    factor and zeroed in the support square root (the oracle
    :func:`~qsd.closed_form.srm_error_general` cuts at its own
    ``ORACLE_RANK_TOL``, independent of this one); tiny negative
    eigenvalues (roundoff) were clamped to zero at validation.  The factor
    is built once per ensemble and returned again on every later call; it
    shares the ensemble's read-only eigenvalues and eigenvectors.

    Returns
    -------
    SpectralFactor
    """
    if ensemble._factor is not None:
        return ensemble._factor
    lam, w = ensemble._eigenvalues, ensemble._eigenvectors
    if w is None:
        w = _frozen(_fourier_columns(ensemble.n, ensemble._modes))
    keep = lam > RANK_TOL * lam[-1]
    rank = int(np.count_nonzero(keep))
    sqrt = _frozen((w * np.sqrt(np.where(keep, lam, 0.0))) @ w.conj().T)
    if rank == ensemble.n:
        factor = sqrt
    else:
        factor = _frozen(w[:, keep] * np.sqrt(lam[keep]))
    sf = SpectralFactor(rank=rank, factor=factor, sqrt=sqrt, eigenvalues=lam, eigenvectors=w)
    object.__setattr__(ensemble, "_factor", sf)
    return sf


def _circulant_deviation(gram: np.ndarray) -> float:
    """Max entrywise deviation of gram from the circulant circ of its
    first row, read in row blocks of at most ``BLOCK_ENTRIES`` entries;
    the first block that takes it above ``CIRCULANT_TOL`` ends the read,
    so a value above the tolerance is only a lower bound.

    Row j of circ is the doubled first row from n - j on, so circ is a
    strided view of 2n entries and is never built.  Row 1 comes alone
    first: a Gram that is not circulant mostly differs there.
    """
    n = gram.shape[0]
    doubled = np.concatenate((gram[0], gram[0]))
    step = doubled.itemsize
    circ = np.ndarray((n, n), doubled.dtype, buffer=doubled, offset=n * step, strides=(-step, step))
    bounds = [1, *range(2, n, max(1, BLOCK_ENTRIES // n)), n]
    deviation = 0.0
    for a, b in zip(bounds, bounds[1:]):
        deviation = max(deviation, float(np.max(np.abs(gram[a:b] - circ[a:b]), initial=0.0)))
        if deviation > CIRCULANT_TOL:
            break
    return deviation


def _dft_blocks(n: int, cols: np.ndarray):
    """Row blocks ``(start, block)`` of the n x len(cols) matrix
    ``omega**(j * cols[l])``, ``omega = exp(2 pi i / n)``, each of at most
    ``BLOCK_ENTRIES`` entries.  Exponents are reduced mod n first, so
    every entry is one of the n roots of unity to within an ulp."""
    roots = np.exp(2j * np.pi / n * np.arange(n))
    rows = max(1, BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        yield start, roots[np.outer(np.arange(start, min(start + rows, n)), cols) % n]


def _fourier_eigenvalues(first_row: np.ndarray) -> np.ndarray:
    """Real parts of ``lam_k = sum_m first_row[m] omega**(k m)``, the
    eigenvalues of the circulant of a Hermitian first row, k = 0..n-1:
    the Fourier column k is its eigenvector (Ban, Kurokawa, Momose &
    Hirota 1997).  O(n^2) by a direct product, without numpy.fft."""
    n = first_row.shape[0]
    return np.concatenate([block @ first_row for _, block in _dft_blocks(n, np.arange(n))]).real


def _fourier_columns(n: int, modes: np.ndarray) -> np.ndarray:
    """Unitary Fourier columns ``omega**(j k) / sqrt(n)`` for k in modes."""
    w = np.empty((n, len(modes)), dtype=complex)
    for start, block in _dft_blocks(n, modes):
        w[start : start + len(block)] = block
    w /= np.sqrt(n)
    return w


def circulant(first_row: np.ndarray) -> np.ndarray:
    """The circulant matrix ``C[j, l] = first_row[(l - j) mod n]``."""
    first_row = np.asarray(first_row)
    n = first_row.shape[0]
    return first_row[(np.arange(n) - np.arange(n)[:, None]) % n]


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
        if kind in ("symmetric", "psk"):
            try:
                n = check_state_count(source["n"])
            except ValidationError as exc:  # n of 3.7, true, "3" or Infinity
                raise ValidationError(f"malformed ensemble JSON: {exc}") from exc
            if kind == "symmetric":
                return gram_symmetric(n, float(source["s"]))
            return gram_psk(n, float(source["alpha_sq"]))
        if kind == "gram":
            from ._serialize import parse_matrix

            matrix = parse_matrix(source["matrix"])
            priors = np.array([float(p) for p in source["priors"]])
            return Ensemble(matrix.shape[0], matrix, priors)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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

"""Closed-form minimum-error probabilities and square-root-measurement oracles.

The binary and real-symmetric families admit exact expressions for the
minimum average error; the square-root measurement (SRM) supplies two
independent oracles (a generic Gram-coordinate one and a circulant/DFT
one) against which every numerical result in the package is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import (
    CIRCULANT_TOL,
    Ensemble,
    _circulant_spectrum,
    check_binary,
    check_symmetric,
)
from .errors import NotCirculantError, UnsupportedPriorsError

# eigenvalues of G below this fraction of the largest get a zero square
# root in srm_error_general; the oracle's own cut, independent of the
# solver's ensembles.RANK_TOL, so that a change to one leaves the other
ORACLE_RANK_TOL = 1e-12


@dataclass(frozen=True)
class BinarySolution:
    """Optimal binary discrimination data: minimum average error and the
    two individual error rates achieving it.

    Satisfies ``p_error == eta1*r1 + eta2*r2`` and the overlap constraint
    ``s == sqrt((1-r1)*r2) + sqrt((1-r2)*r1)``.
    """

    p_error: float
    r1: float
    r2: float


def helstrom_bound(eta1: float, overlap: complex) -> float:
    """Minimum average error probability for two pure states.

    Equals ``(1 - sqrt(1 - 4*eta1*eta2*s**2)) / 2`` with ``s = |overlap|``
    and ``eta2 = 1 - eta1``, in [0, 1/2]; computed as the ``p_error`` of
    :func:`binary_individual_errors`, which keeps its relative accuracy.
    """
    return binary_individual_errors(eta1, overlap).p_error


def binary_individual_errors(eta1: float, overlap: complex) -> BinarySolution:
    """Per-state error rates of the optimal binary measurement.

    With ``disc = 1 - 4*eta1*eta2*s**2``, ``p_error = (1 - sqrt(disc)) / 2``
    and ``r1 = (1 - (1 - 2*eta2*s**2)/sqrt(disc)) / 2``, symmetrically for
    r2.  Each is computed without a subtraction that cancels, so that it
    keeps its relative accuracy when small: ``p_error`` as
    ``2*eta1*eta2*s**2 / (1 + sqrt(disc))``, r1 as
    ``eta2*s**2 * (sqrt(disc) - (eta1 - eta2)) / ((1 + sqrt(disc)) * sqrt(disc))``,
    and disc as ``(eta1 - eta2)**2 + 4*eta1*eta2*(1 - s)*(1 + s)``.  The
    degenerate point eta1 = eta2 = 1/2, s = 1 returns the continuous limit
    r1 = r2 = 1/2.
    """
    eta1, overlap = check_binary(eta1, overlap)
    s = min(abs(overlap), 1.0)
    eta2 = 1.0 - eta1
    mixed = 4.0 * eta1 * eta2 * (1.0 - s) * (1.0 + s)
    root = math.sqrt((eta1 - eta2) ** 2 + mixed)
    if root == 0.0:
        # only reachable at eta1 = eta2 = 1/2, s = 1
        return BinarySolution(p_error=0.5, r1=0.5, r2=0.5)
    scale = (1.0 + root) * root
    r1 = min(eta2 * s * s * _root_minus(root, eta1 - eta2, mixed) / scale, 1.0)
    r2 = min(eta1 * s * s * _root_minus(root, eta2 - eta1, mixed) / scale, 1.0)
    return BinarySolution(p_error=2.0 * eta1 * eta2 * s * s / (1.0 + root), r1=r1, r2=r2)


def _root_minus(root: float, x: float, mixed: float) -> float:
    """``root - x >= 0`` where ``root**2 = x**2 + mixed``, written
    ``mixed / (root + x)`` where the difference would cancel."""
    return root - x if x <= 0.0 else mixed / (root + x)


def binary_constraint_residual(s: float, r1: float, r2: float) -> float:
    """Residual of the overlap-preservation constraint
    ``s = sqrt((1-r1)*r2) + sqrt((1-r2)*r1)``."""
    return abs(s - math.sqrt((1.0 - r1) * r2) - math.sqrt((1.0 - r2) * r1))


def symmetric_p_quadratic(n: int, s: float) -> tuple[float, float]:
    """Both roots of the success probability p for n equal-overlap states.

    p solves ``s = 2*sqrt(p*r) + (n-2)*r`` with ``r = (1-p)/(n-1)``; the
    two roots are ``((sqrt(1+s*(n-1)) +/- (n-1)*sqrt(1-s)) / n)**2``.
    Returns (p_plus, p_minus) with p_plus >= p_minus >= 0; the larger
    root is the optimum.
    """
    n, s = check_symmetric(n, s)
    a = math.sqrt(max(1.0 + s * (n - 1), 0.0))
    b = (n - 1) * math.sqrt(1.0 - s)
    return ((a + b) / n) ** 2, ((a - b) / n) ** 2


def symmetric_min_error(n: int, s: float) -> float:
    """Minimum error probability for n states with common real overlap s.

    Equals ``1 - ((a + b) / n)**2`` with ``a = sqrt(1+s*(n-1))`` and
    ``b = (n-1)*sqrt(1-s)``, which lies in [0, 1 - 1/n].  It is computed
    as ``(n - a - b) * (n + a + b) / n**2`` with
    ``n - a - b = s**2 n (n-1) / ((1 + c) (1 + a) (a + c))``,
    ``c = sqrt(1-s)``, so that it keeps its relative accuracy for nearly
    orthogonal states.  At n = 2 this reduces to the equal-prior binary
    bound.
    """
    n, s = check_symmetric(n, s)
    a = math.sqrt(max(1.0 + s * (n - 1), 0.0))
    c = math.sqrt(1.0 - s)
    short = s * s * n * (n - 1) / ((1.0 + c) * (1.0 + a) * (a + c))
    return short * (n + a + (n - 1) * c) / (n * n)


def _require_equal_priors(ensemble: Ensemble) -> None:
    if not ensemble.equal_priors:
        raise UnsupportedPriorsError(
            "SRM oracles are only claimed optimal for equal priors; "
            "use the general optimizer for arbitrary priors"
        )


def srm_error_general(ensemble: Ensemble) -> float:
    """SRM error probability from the Gram square root (equal priors).

    The SRM coupling is ``G^{1/2}``, whose rows are unit vectors, so the
    error is its off-diagonal mass ``(1/n) sum_j sum_{k != j}
    |(G^{1/2})_jk|**2``; unlike ``1 - (1/n) sum_j (G^{1/2})_jj**2`` it
    keeps its relative accuracy when small.

    The off-diagonal of ``G^{1/2}`` is that of ``W diag(f) W^H``, where
    ``G - I = W diag(mu) W^H`` and
    ``f = sqrt(1+mu) - 1 = mu / (sqrt(1+mu) + 1)``.  ``G - I`` has an
    exactly zero diagonal, so for near-orthogonal states its
    eigendecomposition is accurate relative to the small overlaps, where
    that of G would carry an absolute error of ~1e-16 (a relative error
    of ~4e-6 at 3-PSK, ``alpha_sq = 15``).  Modes whose eigenvalue
    ``1 + mu`` falls below ``ORACLE_RANK_TOL`` times the largest get
    ``f = -1`` (square root 0), so rank-deficient ensembles are handled
    without pseudo-inverse blowup.  That cut is the oracle's own: it is
    independent of the spectral factor's ``RANK_TOL``, which the solver
    reads, so the check does not move with the solver.
    """
    _require_equal_priors(ensemble)
    n = ensemble.n
    mu, w = np.linalg.eigh(ensemble.gram - np.eye(n))
    lam = 1.0 + mu
    keep = lam > ORACLE_RANK_TOL * lam.max()
    f = np.where(keep, mu / (np.sqrt(np.where(keep, lam, 0.0)) + 1.0), -1.0)
    mass = np.abs((w * f) @ w.conj().T) ** 2
    np.fill_diagonal(mass, 0.0)
    return float(mass.sum()) / n


def _circulant_row(ensemble: Ensemble) -> np.ndarray:
    """First row of an equal-prior ensemble's circulant Gram matrix;
    NotCirculantError when its kept circulant deviation is above
    ``CIRCULANT_TOL``."""
    _require_equal_priors(ensemble)
    if not ensemble._circulant_deviation <= CIRCULANT_TOL:
        raise NotCirculantError("ensemble Gram matrix is not circulant")
    return ensemble.gram[0]


def _circulant_roots(ensemble: Ensemble) -> np.ndarray:
    """Square roots of the :func:`~qsd.ensembles._circulant_spectrum` of
    :func:`_circulant_row`, negatives clamped to zero (``Ensemble`` checks that G is PSD)."""
    return np.sqrt(np.clip(_circulant_spectrum(_circulant_row(ensemble)), 0.0, None))


def srm_error_circulant(ensemble: Ensemble) -> float:
    """SRM error probability via the DFT eigenvalues of a circulant Gram.

    Independent of :func:`srm_error_general`: the success probability is
    ``((1/n) * sum_k sqrt(lambda_k))**2`` with lambda_k the circulant
    eigenvalues of the Gram matrix.  They sum to the trace n, so the error
    is the variance of their square roots, which keeps its relative
    accuracy where ``1 - p`` would cancel.  Those roots less 1 are taken
    as ``d / (sqrt(1 + d) + 1)`` (-1 where ``1 + d <= 0``) from
    ``d = fft(row - e_0)``, the spectrum of ``G - I``, which keeps the
    small overlaps that ``fft(row)``, the closed form's, rounds against 1.
    """
    row = _circulant_row(ensemble).copy()
    row[0] -= 1.0
    d = np.fft.fft(row).real
    lam = 1.0 + d
    f = np.where(lam > 0.0, d / (np.sqrt(np.maximum(lam, 0.0)) + 1.0), -1.0)
    return float(np.mean((f - f.mean()) ** 2))

"""Maximization of the correct-identification probability.

Two routes to the same objective ``sum_j eta_j |c_jj|**2``:

* :func:`optimize_general` searches all feasible couplings ``C = B V``
  by Riemannian ascent over row-orthonormal V (polar fixed-point steps,
  and Newton steps where those stall), with a square-root-measurement
  warm start plus seeded random restarts.
* :func:`psk3_solve` / :func:`psk4_solve` need no search.  Equal-prior
  phase-shift-keyed sets are geometrically uniform, so the square-root
  measurement is optimal for them (Ban, Kurokawa, Momose & Hirota 1997;
  Eldar & Forney 2001) and the optimal coupling is the circulant
  ``G^{1/2}``, whose first row is the inverse DFT of the square roots
  of the Gram eigenvalues.  That row is checked against the overlap
  constraints ``C C^H = G`` before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrix, _checked_isometry, _polar_orthonormal, error_probability
from .ensembles import Ensemble, circulant_eigenvalues, gram_psk, spectral_factor
from .errors import NoSolutionError, ValidationError

# objective band (absolute, objective lies in [0, 1]) inside which a step
# counts as an objective tie and may be accepted on gradient-norm decrease
PLATEAU_BAND = 1e-14
ROOT_RESIDUAL_TOL = 1e-10
# duality gap below which a coupling counts as certified optimal, and the
# number of ascent iterations between two gap evaluations
CERT_TOL = 1e-10
CERT_EVERY = 5
# steps the ascent may take past the gradient test towards the certificate
GRAD_EXTRA_STEPS = 3


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the Riemannian ascent.  All fields have safe defaults."""

    max_iters: int = 2000
    grad_tol: float = 1e-10
    restarts: int = 8
    seed: int = 0
    rank_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be positive")
        if not all(0 < x < math.inf for x in (self.grad_tol, self.rank_tol)):
            raise ValidationError("grad_tol and rank_tol must be positive and finite")
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class PskParams:
    """Parameters of a circulant PSK coupling's first row.

    The row is ``(sqrt(p), u - i v, u + i v)`` for three states and
    ``(sqrt(p), u - i v, sqrt(r_prime) e^{i theta2}, u + i v)`` for four,
    with ``u = sqrt(r) cos(theta1)``, ``v = sqrt(r) sin(theta1)``.  p is
    the success probability of every input, r the probability of each
    neighbouring outcome and r_prime that of the opposite one, so the
    row norm reads ``p + 2 r (+ r_prime) = 1``.  ``r_prime`` and
    ``theta2`` are None for the ternary case; the optimal quaternary row
    has theta2 in {0, pi}.
    """

    p: float
    r: float
    theta1: float
    u: float
    v: float
    r_prime: float | None = None
    theta2: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.r <= 1.0):
            raise ValidationError("p and r must be probabilities")
        if abs(self.u * self.u + self.v * self.v - self.r) > 1e-10:
            raise ValidationError("u**2 + v**2 must equal r")
        budget = self.p + 2.0 * self.r
        if self.r_prime is not None:
            if not 0.0 <= self.r_prime <= 1.0:
                raise ValidationError("r_prime must be a probability")
            budget += self.r_prime
        if abs(budget - 1.0) > 1e-10:
            raise ValidationError("row amplitudes must satisfy unit norm")


@dataclass(frozen=True)
class OptimizeResult:
    """Best coupling found, its error, and the winning restart's trace.

    ``dual_gap`` bounds how far the success probability of the returned
    coupling lies below the optimum (see :func:`dual_gap`); ``certified``
    is ``dual_gap <= CERT_TOL``.  ``converged`` holds when the gradient
    test or the certificate does.
    """

    coupling: CouplingMatrix
    p_error: float
    objective_trace: tuple
    restarts_used: int
    converged: bool
    dual_gap: float
    certified: bool


def _objective(b: np.ndarray, priors: np.ndarray, v: np.ndarray) -> float:
    diag = np.einsum("ij,ji->i", b, v)
    return float(np.dot(priors, np.abs(diag) ** 2))


def _riemannian_grad(b: np.ndarray, priors: np.ndarray, v: np.ndarray) -> np.ndarray:
    diag = np.einsum("ij,ji->i", b, v)
    egrad = 2.0 * b.conj().T * (priors * diag)[None, :]
    x = egrad @ v.conj().T
    return egrad - 0.5 * (x + x.conj().T) @ v


def dual_gap(b: np.ndarray, priors: np.ndarray, v: np.ndarray) -> float:
    """Certified bound on the success probability missing at ``C = B V``.

    In Gram coordinates the states are the columns psi_j of ``B^H`` and
    the measurement vectors mu_k the columns of V.  With
    ``Gamma = sum_j eta_j psi_j <psi_j|mu_j> mu_j^H`` (trace: the success
    probability), ``H = (Gamma + Gamma^H)/2`` and
    ``t = max(0, -min_j lambda_min(H - eta_j psi_j psi_j^H))``, the matrix
    ``Z = H + t I`` dominates every ``eta_j psi_j psi_j^H``.  Any
    measurement then succeeds with probability at most ``Tr Z`` (Holevo
    1973; Yuen, Kennedy & Lax 1975), so ``Tr Z - P_succ = rank * t``
    bounds the distance to the optimum.  It is 0 exactly at the optimum,
    where Gamma is Hermitian and each ``Gamma - eta_j psi_j psi_j^H`` is
    positive semidefinite.  Cost: one batched eigvalsh of n rank x rank
    matrices.
    """
    diag = np.einsum("ij,ji->i", b, v)
    gamma = (b.conj().T * (priors * diag)) @ v.conj().T
    h = 0.5 * (gamma + gamma.conj().T)
    # H - eta_j psi_j psi_j^H for every j, stacked along the first axis
    stacked = h - priors[:, None, None] * np.einsum("ja,jb->jab", b.conj(), b)
    lam_min = float(np.linalg.eigvalsh(stacked)[:, 0].min())
    return b.shape[1] * max(0.0, -lam_min)


def _random_isometry(rng: np.random.Generator, rank: int, n: int) -> np.ndarray:
    m = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    q, r_mat = np.linalg.qr(m)
    d = np.diag(r_mat)
    d = np.where(np.abs(d) < 1e-300, 1.0, d)
    q = q * (d / np.abs(d)).conj()
    return q.conj().T


def objective_gradient(ensemble: Ensemble, v: np.ndarray) -> np.ndarray:
    """Riemannian gradient of the success probability at isometry v.

    The tangent space at v consists of matrices d with
    ``d v^H + v d^H = 0``; the returned matrix is the projection of the
    (Wirtinger) Euclidean gradient onto it.  Zero at stationary points.
    """
    sf = spectral_factor(ensemble)
    return _riemannian_grad(sf.factor, ensemble.priors, _checked_isometry(v, sf.rank, ensemble.n))


def _gap_may_certify(v: np.ndarray, grad: np.ndarray) -> bool:
    """False when the Riemannian gradient alone proves ``dual_gap > CERT_TOL``.

    Column j of the gradient is ``2 (eta_j c_jj psi_j - H mu_j)``, so
    ``Re(mu_j^H grad_j) / 2`` is minus the Rayleigh quotient of mu_j for
    ``H - eta_j psi_j psi_j^H``.  Each ratio to ``|mu_j|^2`` is a lower
    bound on t, and rank times the largest is one on the gap, at O(rank n)
    cost against the gap's n eigenvalue problems.  For square V every
    quotient vanishes and the test always passes.
    """
    rank = v.shape[0]
    quotients = np.einsum("aj,aj->j", v.conj(), grad).real
    norms = np.einsum("aj,aj->j", v.conj(), v).real
    return not np.any(rank * quotients > 2.0 * CERT_TOL * norms)


def _riemannian_hessian(b: np.ndarray, priors: np.ndarray, v: np.ndarray):
    """Riemannian Hessian at isometry v (embedded metric; Absil, Mahony &
    Sepulchre 2008) as a map on tangent d: ``P_V(ehess[d] - S d)`` with
    ``ehess[d]_j = 2 eta_j conj(b_j) (b_j^T d_j)``, ``S = sym(egrad V^H)``,
    ``P_V(Z) = Z - sym(Z V^H) V``.  The objective is block-diagonal in the
    columns of V, so a product costs about one gradient."""
    bh, vh = 2.0 * b.conj().T * priors, v.conj().T
    x = (bh * np.einsum("ij,ji->i", b, v)) @ vh
    s = 0.5 * (x + x.conj().T)

    def hess(d):
        z = bh * np.einsum("ij,ji->i", b, d) - s @ d
        y = z @ vh
        return z - 0.5 * (y + y.conj().T) @ v

    return hess


def _newton_step(b, priors, v, grad, gnorm):
    """Truncated-CG Newton candidate ``polar(v + d)`` with ``-Hess[d] = grad``.

    CG stops at a residual of ``min(0.1, sqrt(|grad|)) |grad|``, at
    non-positive curvature or after ``2 rank n`` iterations.  Returns v
    itself, which is never accepted, when the first CG direction already
    has non-positive curvature.
    """
    hess = _riemannian_hessian(b, priors, v)
    d, r, p = np.zeros_like(v), grad, grad
    rr, tol = gnorm * gnorm, min(0.1, math.sqrt(gnorm)) * gnorm
    for _ in range(2 * v.size):
        hp = -hess(p)
        curv = float(np.vdot(p, hp).real)
        if curv <= 0.0:
            break
        alpha = rr / curv
        d, r = d + alpha * p, r - alpha * hp
        rr_new = float(np.vdot(r, r).real)
        if math.sqrt(rr_new) <= tol:
            break
        p, rr = r + (rr_new / rr) * p, rr_new
    return _polar_orthonormal(v + d) if np.any(d) else v


def _polar_step(b, priors, v, grad, gnorm):
    """Polar fixed-point candidate: the polar factor of the Euclidean
    gradient, which maximizes the linearized objective over the whole
    manifold (Jezek, Rehacek & Fiurasek 2002)."""
    diag = np.einsum("ij,ji->i", b, v)
    return _polar_orthonormal(b.conj().T * (priors * diag)[None, :])


def _ascend(b, priors, v, config):
    """Riemannian ascent from one starting isometry.

    Each iteration takes the polar fixed-point step.  It never decreases
    the objective (which is convex in v) and its fixed points are exactly
    the stationary points, but its rate is linear, which is slow on
    rank-deficient Grams.  Once it stalls (the last step shrank the
    gradient norm by less than half), the truncated-CG Newton step is
    tried first, with the polar step as its fallback.

    A candidate is accepted when it strictly increases the objective, or
    when it stays within ``PLATEAU_BAND`` and strictly shrinks the
    gradient norm: near the optimum the objective flattens out in float
    arithmetic long before the gradient does.  The trace records only
    strict increases.  The ascent ends when no candidate is accepted.

    The duality gap is evaluated every ``CERT_EVERY`` iterations and
    wherever the gradient test holds; the ascent returns once it is at
    most ``CERT_TOL``.  After the gradient test first holds, at most
    ``GRAD_EXTRA_STEPS`` more steps are taken towards the certificate.
    Returns the objective, the isometry, the trace, whether the gradient
    test holds at the returned point, and the gap there.
    """
    f, grad, prev = _objective(b, priors, v), _riemannian_grad(b, priors, v), math.inf
    gnorm, trace, extra = float(np.linalg.norm(grad)), [f], GRAD_EXTRA_STEPS
    for it in range(config.max_iters):
        grad_ok = gnorm <= config.grad_tol
        if grad_ok or (it and it % CERT_EVERY == 0 and _gap_may_certify(v, grad)):
            gap = dual_gap(b, priors, v)
            if gap <= CERT_TOL:
                return f, v, trace, grad_ok, gap
        if grad_ok or extra < GRAD_EXTRA_STEPS:
            if extra == 0:
                break
            extra -= 1
        stalled = gnorm > 0.5 * prev
        for step in (_newton_step, _polar_step) if stalled else (_polar_step,):
            v_new = step(b, priors, v, grad, gnorm)
            f_new = _objective(b, priors, v_new)
            if f_new < f - PLATEAU_BAND:
                continue
            g_new = _riemannian_grad(b, priors, v_new)
            gn_new = float(np.linalg.norm(g_new))
            if f_new > f or gn_new < gnorm:
                break
        else:
            # no uphill step and no gradient contraction left
            break
        v, f, grad, gnorm, prev = v_new, f_new, g_new, gn_new, gnorm
        if f > trace[-1]:
            trace.append(f)
    return f, v, trace, gnorm <= config.grad_tol, dual_gap(b, priors, v)


def optimize_general(ensemble: Ensemble, config: SolverConfig | None = None) -> OptimizeResult:
    """Gradient ascent over all feasible couplings of an ensemble.

    Restart 0 starts from the square-root-measurement coupling (already
    optimal on symmetric and PSK sets); the remaining restarts use
    seeded random isometries.  The best restart wins, ties broken by
    lowest index.  ``config.restarts`` is an upper bound: restarting
    stops as soon as the best restart is certified optimal by its
    duality gap.  A best-effort result with ``converged=False`` is
    returned when no restart meets the gradient tolerance or the
    certificate.
    """
    config = config or SolverConfig()
    sf = spectral_factor(ensemble, config.rank_tol)
    b = sf.factor
    priors = ensemble.priors
    n, rank = ensemble.n, sf.rank

    best = None
    restarts_used = 0
    for i in range(config.restarts):
        if i == 0:
            v0 = _polar_orthonormal(b.conj().T @ sf.sqrt)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
            v0 = _random_isometry(rng, rank, n)
        run = _ascend(b, priors, v0, config)
        restarts_used += 1
        if best is None or run[0] > best[0] + 1e-12:
            best = run
        if best[4] <= CERT_TOL:
            break

    _, v, trace, grad_ok, gap = best
    coupling = CouplingMatrix(b @ v, ensemble)
    certified = gap <= CERT_TOL
    return OptimizeResult(
        coupling=coupling,
        p_error=error_probability(coupling),
        objective_trace=tuple(trace),
        restarts_used=restarts_used,
        converged=grad_ok or certified,
        dual_gap=gap,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# structured PSK solvers


def _circulant(first_row: np.ndarray) -> np.ndarray:
    n = first_row.shape[0]
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return first_row[(k - j) % n]


def _psk_row(n: int, alpha_sq: float) -> np.ndarray:
    """First row of the optimal circulant PSK coupling ``G^{1/2}``.

    Equal-prior PSK states are geometrically uniform, so the square-root
    measurement is optimal and its coupling is the principal square root
    of the circulant Gram matrix: the circulant whose first row is the
    inverse DFT of ``sqrt(lambda_k)``.  The row is then checked against
    the overlap constraints ``C C^H = G`` (row norm and overlaps), which
    do not depend on the DFT.
    """
    ensemble = gram_psk(n, alpha_sq)
    row = np.fft.ifft(np.sqrt(circulant_eigenvalues(ensemble.gram[0])))
    c = _circulant(row)
    residual = float(np.max(np.abs(c @ c.conj().T - ensemble.gram)))
    if residual > ROOT_RESIDUAL_TOL:
        raise NoSolutionError(
            f"circulant coupling misses the overlap constraints at alpha_sq={alpha_sq!r} "
            f"(residual {residual:.3e})"
        )
    return row


def psk3_solve(alpha_sq: float) -> tuple[PskParams, float]:
    """Optimal circulant coupling for three phase-shift-keyed states.

    The first row ``(sqrt(p), u - i v, u + i v)`` is that of ``G^{1/2}``
    (see :func:`_psk_row`).  The error probability is the row's
    off-diagonal mass ``2 r``, which keeps its relative accuracy where
    ``1 - p`` would cancel.
    """
    row = _psk_row(3, alpha_sq)
    q, w = float(row[0].real), complex(row[1])
    u, v = w.real, -w.imag
    r = u * u + v * v
    params = PskParams(p=q * q, r=r, theta1=math.atan2(v, u), u=u, v=v)
    return params, 2.0 * r


def psk4_solve(alpha_sq: float) -> tuple[PskParams, float]:
    """Optimal circulant coupling for four phase-shift-keyed states.

    The first row ``(sqrt(p), u - i v, z, u + i v)`` is that of
    ``G^{1/2}`` (see :func:`_psk_row`).  The opposite-state amplitude z
    is real, so ``r_prime = z**2`` and ``theta2`` is 0 for ``z >= 0`` and
    pi otherwise.  The error probability is the off-diagonal mass
    ``2 r + r_prime``.
    """
    row = _psk_row(4, alpha_sq)
    q, w, z = float(row[0].real), complex(row[1]), float(row[2].real)
    u, v = w.real, -w.imag
    r = u * u + v * v
    params = PskParams(
        p=q * q,
        r=r,
        theta1=math.atan2(v, u),
        u=u,
        v=v,
        r_prime=z * z,
        theta2=0.0 if z >= 0.0 else math.pi,
    )
    return params, 2.0 * r + z * z


def psk_coupling(n: int, alpha_sq: float, params: PskParams) -> CouplingMatrix:
    """Circulant coupling matrix realizing a PSK parameter set."""
    ensemble = gram_psk(n, alpha_sq)
    w = params.u - 1j * params.v
    if n == 3:
        first_row = np.array([math.sqrt(params.p), w, np.conj(w)])
    elif n == 4:
        if params.r_prime is None or params.theta2 is None:
            raise ValidationError("quaternary parameters require r_prime and theta2")
        z = math.sqrt(params.r_prime) * np.exp(1j * params.theta2)
        first_row = np.array([math.sqrt(params.p), w, z, np.conj(w)])
    else:
        raise ValidationError("structured PSK couplings exist only for n in {3, 4}")
    return CouplingMatrix(_circulant(first_row), ensemble)

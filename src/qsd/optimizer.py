"""Maximization of the correct-identification probability.

Two routes to the same objective ``sum_j eta_j |c_jj|**2``:

* :func:`optimize_general` searches all feasible couplings ``C = B V``
  by Riemannian ascent over row-orthonormal V (polar fixed-point steps,
  and Newton steps where those stall), plus seeded random restarts.  Its
  first start is a square-root measurement: for a full-rank Gram with
  positive priors that of the reweighted priors found by damped Newton
  on n weights, which is the optimum, otherwise the plain one.
* :func:`psk3_solve` / :func:`psk4_solve` need no search: they read the
  parameters of the circulant ``G^{1/2}`` from
  :func:`~qsd.coupling.circulant_optimal_coupling`, which is optimal for
  every equal-prior circulant ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import (
    ROW_NORM_TOL,
    CouplingMatrix,
    _checked_isometry,
    _polar_orthonormal,
    circulant_optimal_coupling,
    error_probability,
)
from .ensembles import Ensemble, check_seed, gram_psk, spectral_factor
from .errors import ValidationError

# objective band (absolute, objective lies in [0, 1]) inside which a step
# counts as an objective tie and may be accepted on gradient-norm decrease
PLATEAU_BAND = 1e-14
# duality gap below which a coupling counts as certified optimal, and the
# number of ascent iterations between two gap evaluations
CERT_TOL = 1e-10
CERT_EVERY = 5
# Newton on the gap's secular equations stops once every step is below
# this fraction of the root's distance to the lowest pole with weight
# (its steps shrink quadratically, so the last one leaves an error far
# below it); the step cap only bounds a stall on roundoff
SECULAR_STEP_TOL = 1e-12
SECULAR_MAX_STEPS = 50
# steps the ascent may take past the gradient test towards the certificate
GRAD_EXTRA_STEPS = 3
# Newton on the reweighted square-root-measurement weights (full rank):
# the step in log q below which it stops, and the shortest fraction of a
# step its backtracking tries
NEWTON_STEP_TOL = 1e-8
NEWTON_MIN_DAMPING = 0.25
# complex entries in one block of the Jacobian's eigen-index sum
JACOBIAN_BLOCK = 4096


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the Riemannian ascent.  All fields have safe defaults.

    ``rank_tol`` is the relative eigenvalue cut of the spectral factor,
    below 1 so that the largest eigenvalue is kept:
    the ascent and its duality gap see the Gram matrix without the modes
    below it, so a certificate holds for that truncated Gram only.  Such
    a mode can move the optimum by far more than ``CERT_TOL``: 16-PSK at
    ``alpha_sq = 1`` loses a 4.5e-12 eigenvalue, and its certified
    p_error is 1.4e-7 above the optimum.
    """

    max_iters: int = 2000
    grad_tol: float = 1e-10
    restarts: int = 8
    seed: int = 0
    rank_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be positive")
        if not 0 < self.grad_tol < math.inf:
            raise ValidationError("grad_tol must be positive and finite")
        if not 0 < self.rank_tol < 1:
            raise ValidationError("rank_tol must lie in (0, 1)")
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        check_seed(self.seed)


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
    coupling lies below the optimum of the Gram matrix truncated at
    ``SolverConfig.rank_tol`` (see :func:`dual_gap`), which may miss the
    input's optimum; ``certified`` is ``dual_gap <= CERT_TOL``.
    ``converged`` holds when the gradient test or the certificate does.
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
    positive semidefinite.

    Cost: one rank x rank eigh, ``H = W diag(lam) W^H``.  Each
    ``H - eta_j psi_j psi_j^H`` is a rank-one downdate of it, whose lowest
    eigenvalue :func:`_lowest_downdated_eigenvalue` reads from the weights
    ``z_ji = eta_j |(B W)_ji|**2`` (Golub 1973; Bunch, Nielsen & Sorensen
    1978) in O(n rank) per Newton step.
    """
    diag = np.einsum("ij,ji->i", b, v)
    gamma = (b.conj().T * (priors * diag)) @ v.conj().T
    lam, w = np.linalg.eigh(0.5 * (gamma + gamma.conj().T))
    z = priors[:, None] * np.abs(b @ w) ** 2
    # 0.0 - x, not -x: the latter is -0.0 where the gap is 0
    return b.shape[1] * (0.0 - _lowest_downdated_eigenvalue(lam, z))


def _lowest_downdated_eigenvalue(lam: np.ndarray, z: np.ndarray) -> float:
    """``min(0, min_j lambda_min(diag(lam) - u_j u_j^H))`` for ascending lam
    and row weights ``z_ji = |u_ji|**2``.

    By interlacing each lowest eigenvalue is ``min(lam_1, r_j)``, with r_j
    the root below the lowest pole of the secular function
    ``g_j(x) = sum_i z_ji / (lam_i - x) = 1``.  g_j increases there, so
    with ``x_c = min(0, lam_1)`` only rows with ``g_j(x_c) > 1`` have
    ``r_j < x_c`` and can lower the result.  (At an optimum
    ``g_j(0) = 1`` for every state with a nonzero measurement vector, by
    complementary slackness, and roundoff passes about half of those
    rows.)  For the rows that pass, Newton runs on ``1/g_j - 1`` in
    ``y = x_c - x``.  That function is concave and increasing in y, so
    from a start left of the root the iterates rise monotonically to it.

    The thresholds below are absolute: for unit states and priors summing
    to 1, ``|lam_i| <= 1`` and ``sum z <= 1``.  When lam_1 is above
    roundoff the start is ``y = 0``.  Otherwise a pole lies at or within
    roundoff of x_c: weights below ``eps**2`` are deflated (dropped), so
    that no reciprocal distance to a pole overflows, and the start is the
    root of the two-pole minorant ``z_a / (lam_a - x) + (sum_{i != a}
    z_ji) / (lam_n - x)`` of g_j, a the lowest undeflated pole.
    """
    eps = np.finfo(float).eps
    if lam[0] > eps:
        x_c, dist, d_low = 0.0, lam, lam[0]
        z = z[z @ (1.0 / lam) > 1.0]
        y = np.zeros(len(z))
    else:
        x_c = min(0.0, float(lam[0]))
        dist = lam - x_c
        z = np.where(z > eps * eps, z, 0.0)
        with np.errstate(divide="ignore"):
            g = np.divide(z, dist, out=np.zeros_like(z), where=z > 0.0).sum(axis=1)
        z = z[g > 1.0]
        pole = np.argmax(z > 0.0, axis=1)
        z_a, d_low = z[np.arange(len(z)), pole], dist[pole]
        spread = dist[-1] - d_low
        p = z.sum(axis=1) - spread
        disc = np.sqrt(p * p + 4.0 * z_a * spread)
        # positive root e of z_a / e + (sum z - z_a) / (e + spread) = 1, the
        # distance of the minorant's root below pole a, free of cancellation
        e = 0.5 * (p + disc)
        neg = p < 0.0
        e[neg] = 2.0 * z_a[neg] * spread[neg] / (disc[neg] - p[neg])
        y = e - d_low
    if not len(z):
        return x_c
    for _ in range(SECULAR_MAX_STEPS):
        r = 1.0 / (dist + y[:, None])
        zr = z * r
        g = zr.sum(axis=1)
        step = np.maximum((g - 1.0) * g / (zr * r).sum(axis=1), 0.0)
        y += step
        if np.all(step <= SECULAR_STEP_TOL * (d_low + y)):
            break
    return x_c - float(y.max())


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
    cost against the gap's eigendecomposition.  For square V every
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


def _srm_residual(gram, log_eta, u):
    """``F(u) = u - log diag S - log eta`` with ``S = (Q^{1/2} G Q^{1/2})^{1/2}``
    and ``Q = diag(exp(u))``, and the eigendecomposition ``W diag(lam) W^H``
    of ``Q^{1/2} G Q^{1/2}`` (lam clamped at 0) behind it; None where any
    of them is not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        root_q = np.exp(0.5 * u)
        a = root_q[:, None] * gram * root_q[None, :]
        if not np.isfinite(a).all():
            return None
        lam, w = np.linalg.eigh(a)
        lam = np.clip(lam, 0.0, None)
        s_diag = (np.abs(w) ** 2) @ np.sqrt(lam)
        f = u - np.log(s_diag) - log_eta
    return (f, lam, w, s_diag) if np.isfinite(f).all() else None


def _srm_jacobian(lam, w, s_diag):
    """Jacobian of :func:`_srm_residual` in u (Daleckii-Krein):
    ``dS_jj/du_k = 1/2 sum_ab W_ja conj(W_ka) conj(W_jb) W_kb K_ab`` with
    ``K_ab = (lam_a + lam_b) / (sqrt(lam_a) + sqrt(lam_b))``, 0 where both
    eigenvalues are 0.

    With ``Q_j[a, b] = W_ja conj(W_jb)`` the sum is
    ``Re <Q_j o K, Q_k>``, a real product of the n x n**2 matrices of
    rows ``Q_j o K`` and ``Q_j`` (complex entries read as interleaved
    real pairs).  It runs over blocks of the eigen-index a of at most
    ``JACOBIAN_BLOCK`` complex entries, so that no temporary holds n**3
    entries and each product stays below OpenBLAS's threading threshold
    (m n k <= 2**18, for n up to 50).
    """
    root = np.sqrt(lam)
    den = root[:, None] + root[None, :]
    kern = np.divide(lam[:, None] + lam[None, :], den, out=np.zeros_like(den), where=den > 0.0)
    n = len(lam)
    w_bar = w.conj()
    ds = np.zeros((n, n))
    width = max(1, JACOBIAN_BLOCK // (n * n))
    for start in range(0, n, width):
        block = slice(start, start + width)
        q = w[:, block, None] * w_bar[:, None, :]
        ds += (q * kern[block]).view(float).reshape(n, -1) @ q.view(float).reshape(n, -1).T
    return np.eye(n) - 0.5 * ds / s_diag[:, None]


def _reweighted_srm_weights(gram, priors, max_steps):
    """Weights q whose square-root measurement is optimal, by damped Newton.

    For linearly independent states the optimum is the square-root
    measurement of some reweighted priors q (Mochon 2006): with
    ``S = (Q^{1/2} G Q^{1/2})^{1/2}`` the coupling ``Q^{-1/2} S`` has
    ``c_jj = S_jj / sqrt(q_j)``, and it is a fixed point of the polar step
    when ``q_j / S_jj`` is proportional to ``eta_j``, i.e. at a root of
    ``F(u) = u - log diag S - log eta`` in ``u = log q`` (``F(u + c) =
    F(u) + c / 2`` fixes the scale).  Newton starts at ``q = eta**2`` and
    halves its step down to ``NEWTON_MIN_DAMPING`` until ``|F|`` decreases
    (Armijo); non-finite trial points count as no decrease.  It stops
    after a step below ``NEWTON_STEP_TOL`` in every ``u_j``, when
    backtracking finds no decrease or the Jacobian is singular, or after
    ``max_steps`` steps.  ``|F|`` is no stopping test: it has a roundoff
    floor, 1e-13 to 1e-11 with priors of similar size and up to 1e-4 where
    one is ~1e-5, and a longer backtracking search would wander on it.
    Returns q (None when F is not finite at the start) and the number of
    Newton steps taken.
    """
    log_eta = np.log(priors)
    u = 2.0 * log_eta
    point = _srm_residual(gram, log_eta, u)
    if point is None:
        return None, 0
    fnorm = float(np.linalg.norm(point[0]))
    steps = 0
    while steps < max_steps:
        steps += 1
        f, lam, w, s_diag = point
        try:
            du = np.linalg.solve(_srm_jacobian(lam, w, s_diag), -f)
        except np.linalg.LinAlgError:
            break
        if float(np.max(np.abs(du))) < NEWTON_STEP_TOL:
            u = u + du
            break
        t = 1.0
        while t >= NEWTON_MIN_DAMPING:
            trial = _srm_residual(gram, log_eta, u + t * du)
            if trial is not None:
                tnorm = float(np.linalg.norm(trial[0]))
                if tnorm <= (1.0 - 1e-4 * t) * fnorm:
                    break
            t *= 0.5
        else:
            break
        u, point, fnorm = u + t * du, trial, tnorm
    return np.exp(u), steps


def _ascend(b, priors, v, config, spent=0):
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
    The ascent has ``config.max_iters - spent`` iterations.  Returns the
    objective, the isometry, the trace, whether the gradient test holds
    at the returned point, and the gap there.
    """
    f, grad, prev = _objective(b, priors, v), _riemannian_grad(b, priors, v), math.inf
    gnorm, trace, extra = float(np.linalg.norm(grad)), [f], GRAD_EXTRA_STEPS
    for it in range(config.max_iters - spent):
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

    Restart 0 starts from a square-root-measurement coupling.  For a
    full-rank Gram with all priors positive it is that of the reweighted
    priors q from :func:`_reweighted_srm_weights`, ``V = polar(B^H
    diag(sqrt(q)))``, which is optimal once Newton has converged, so the
    duality gap usually certifies it before any ascent step; each Newton
    step counts against ``config.max_iters``.  Otherwise it is the plain
    square-root measurement (optimal on symmetric and PSK sets).  The
    remaining restarts use seeded random isometries.  The best restart
    wins, ties broken by lowest index.  ``config.restarts`` is an upper
    bound: restarting stops as soon as the best restart is certified
    optimal by its duality gap.  A best-effort result with
    ``converged=False`` is returned when no restart meets the gradient
    tolerance or the certificate.  A ``rank_tol`` that cuts modes heavy
    enough to leave the rows of every coupling ``B V`` more than
    ``ROW_NORM_TOL`` short of unit norm raises ValidationError.
    """
    config = config or SolverConfig()
    sf = spectral_factor(ensemble, config.rank_tol)
    b = sf.factor
    priors = ensemble.priors
    n, rank = ensemble.n, sf.rank
    if rank < n:
        # every coupling B V has the row norms of B: 1 less the cut modes
        cut = sf.eigenvalues[: n - rank]
        lost = float(np.max((np.abs(sf.eigenvectors[:, : n - rank]) ** 2) @ cut))
        if lost > ROW_NORM_TOL:
            raise ValidationError(
                f"rank_tol {config.rank_tol:g} cuts Gram eigenvalues up to {cut[-1]:.3e}, "
                f"which leaves coupling rows {lost:.3e} short of unit norm"
            )

    best = None
    restarts_used = 0
    for i in range(config.restarts):
        spent = 0
        if i == 0:
            q = None
            if rank == n and priors.min() > 0.0:
                q, spent = _reweighted_srm_weights(ensemble.gram, priors, config.max_iters)
            v0 = _polar_orthonormal(b.conj().T @ sf.sqrt if q is None else b.conj().T * np.sqrt(q))
        else:
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
            v0 = _random_isometry(rng, rank, n)
        run = _ascend(b, priors, v0, config, spent)
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


def psk_params(row: np.ndarray) -> tuple[PskParams, float]:
    """PskParams of the first row of an optimal 3- or 4-PSK coupling (the
    opposite-state amplitude is real, so theta2 is 0 or pi), and the
    error probability as the row's off-diagonal mass ``2 r (+ r_prime)``,
    which keeps its relative accuracy where ``1 - p`` would cancel."""
    q, w = float(row[0].real), complex(row[1])
    u, v = w.real, -w.imag
    r = u * u + v * v
    common = dict(p=q * q, r=r, theta1=math.atan2(v, u), u=u, v=v)
    if len(row) == 3:
        return PskParams(**common), 2.0 * r
    z = float(row[2].real)
    params = PskParams(**common, r_prime=z * z, theta2=0.0 if z >= 0.0 else math.pi)
    return params, 2.0 * r + z * z


def psk3_solve(alpha_sq: float) -> tuple[PskParams, float]:
    """Optimal coupling parameters for three PSK states (:func:`psk_params`)."""
    return psk_params(circulant_optimal_coupling(gram_psk(3, alpha_sq)).c[0])


def psk4_solve(alpha_sq: float) -> tuple[PskParams, float]:
    """Optimal coupling parameters for four PSK states (:func:`psk_params`)."""
    return psk_params(circulant_optimal_coupling(gram_psk(4, alpha_sq)).c[0])

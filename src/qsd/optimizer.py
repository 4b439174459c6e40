"""Maximization of the correct-identification probability
``sum_j eta_j |c_jj|**2``.

* :func:`optimize_general` solves for the weights of the optimal
  square-root measurement, which exist for every Gram matrix (Mochon
  2006), some of them possibly 0, by damped Newton on the concave weight
  function Phi: log steps while every weight is positive on a full-rank
  Gram, projected steps otherwise.
* :func:`optimal_coupling` takes a closed form where the ensemble's
  structure gives one and that weight solve elsewhere; every caller that
  wants the optimal coupling, :func:`psk3_solve` / :func:`psk4_solve`
  among them, reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import (
    ROW_NORM_TOL,
    CouplingMatrix,
    binary_optimal_coupling,
    circulant_optimal_coupling,
    error_probability,
    symmetric_optimal_coupling,
)
from .ensembles import RANK_TOL, Ensemble, gram_psk, spectral_factor
from .errors import NoSolutionError, QsdError, ValidationError

# duality gap below which a coupling counts as certified optimal
CERT_TOL = 1e-10
# Newton on the gap's secular equations stops once every step is below
# this fraction of the root's distance to the lowest pole with weight
# (its steps shrink quadratically, so the last one leaves an error far
# below it); the step cap only bounds a stall on roundoff
SECULAR_STEP_TOL = 1e-12
SECULAR_MAX_STEPS = 50
# complex entries in one block of a Daleckii-Krein eigen-index sum
HESSIAN_BLOCK = 4096
# Newton on Phi's weights: the norm of its projected gradient below which
# the duality gap is evaluated, and below which the weights count as
# converged; the regularization of its Hessian per unit of that norm;
# the shortest step a log step and a projected step try; the absolute
# roundoff of Phi (sums of terms of at most 1) that its Armijo test
# forgives; and the factor by which one step may shrink the smallest
# singular value of B^H diag(sqrt p): a step that shrinks it more heads
# for a singular M, where Phi's gradient is infinite and Newton's model
# fails (with sqrt(eps) in its place, one of 6,000 rank-deficient Grams
# with three priors of 1e-9 ended uncertified at a gap of 0.09)
GAP_SCREEN = 1e-7
WEIGHT_GRAD_TOL = 1e-12
WEIGHT_DAMPING = 1e-1
NEWTON_MIN_DAMPING = 0.25
WEIGHT_MIN_STEP = 2.0**-30
PHI_ROUNDOFF = 1e-15
SINGULAR_DROP = 1e-2
# cap on the Newton steps of one weight solve: it only bounds a stall,
# since no solve of the tested and benchmarked families takes more than 32
MAX_STEPS = 2000


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
    has theta2 in {0, pi}.  A record read off the coupling's first row by
    :func:`psk_params`; not validated (``CouplingMatrix`` checks the row's norm).
    """

    p: float
    r: float
    theta1: float
    u: float
    v: float
    r_prime: float | None = None
    theta2: float | None = None


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """Coupling found, its error, and the trace of the weight solve.

    ``objective_trace`` holds the success probability at the scaled
    ``w = 1`` that the weight solve starts from and after each of its
    steps, log or projected, that raised it.  ``dual_gap`` bounds how far
    the success probability of the returned coupling lies below the
    optimum of the Gram truncated at ``RANK_TOL`` (see :func:`dual_gap`),
    which may miss the input's optimum; ``certified`` is
    ``dual_gap <= CERT_TOL``.
    ``converged`` holds when the certificate does, or when the projected
    gradient of the weight function is below ``WEIGHT_GRAD_TOL``.
    ``restarts_used`` is always 1: the solve has one start.
    """

    coupling: CouplingMatrix
    p_error: float
    objective_trace: tuple
    restarts_used: int
    converged: bool
    dual_gap: float
    certified: bool


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
    rows.)  For the rows that pass, Newton runs on ``1/g_j - 1`` in the
    root's distance delta below the row's lowest weighted pole a (not in
    ``x_c - x``, which loses a root within an ulp of that pole).  That
    function is concave and increasing in delta, so from a start left of
    the root the iterates rise monotonically to it.

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
        delta = np.full(len(z), d_low)
        offset = lam - d_low
    else:
        x_c = min(0.0, float(lam[0]))
        # abs: lam_i - x_c is -0.0 where lam_i = -0.0 and x_c = 0.0, and a
        # weight over it would be -inf
        dist = np.abs(lam - x_c)
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
        # poles without weight drop out: the root may lie above those below
        # a row's lowest weighted pole
        delta, offset = e, np.where(z > 0.0, dist - d_low[:, None], np.inf)
    if not len(z):
        return x_c
    for _ in range(SECULAR_MAX_STEPS):
        r = 1.0 / (offset + delta[:, None])
        zr = z * r
        g = zr.sum(axis=1)
        step = np.maximum((g - 1.0) * g / (zr * r).sum(axis=1), 0.0)
        delta += step
        if np.all(step <= SECULAR_STEP_TOL * delta):
            break
    return x_c - float((delta - d_low).max())


def _daleckii_krein(w, kern):
    """``Re sum_ab W_ja conj(W_jb) conj(W_ka) W_kb K_ab`` for every j, k:
    the real n x n matrix of a Daleckii-Krein sum over the rows of the
    n x m eigenvector matrix W, with a real symmetric m x m kernel K.

    With ``Q_j[a, b] = W_ja conj(W_jb)`` the sum is
    ``Re <Q_j o K, Q_k>``, a real product of the n x n m matrices of
    rows ``Q_j o K`` and ``Q_j`` (complex entries read as interleaved
    real pairs).  It runs over blocks of the eigen-index a of at most
    ``HESSIAN_BLOCK`` complex entries, so that no temporary holds n**3
    entries and each product stays below OpenBLAS's threading threshold
    (m n k <= 2**18, for n up to 50).
    """
    n, m = w.shape
    w_bar = w.conj()
    out = np.zeros((n, n))
    width = max(1, HESSIAN_BLOCK // max(1, n * m))
    for start in range(0, m, width):
        block = slice(start, start + width)
        q = w[:, block, None] * w_bar[:, None, :]
        out += (q * kern[block]).view(float).reshape(n, -1) @ q.view(float).reshape(n, -1).T
    return out


def _weight_point(b, priors, w):
    """Phi, its gradient and the square-root measurement at weights w.

    With the states psi_j the columns of ``B^H``, weights ``q >= 0`` and
    ``M = sum_j q_j eta_j psi_j psi_j^H``, the function
    ``Phi(q) = 2 Tr M^{1/2} - sum_j q_j`` is concave (Tr sqrt is), its
    maximum is the optimal success probability, and the square-root
    measurement ``V = M^{-1/2} B^H diag(sqrt(p))`` of ``p = eta q`` at a
    maximizer is an optimal coupling (Mochon 2006; Eldar, Megretski &
    Verghese 2003).  Its gradient is the KKT residual
    ``g_j = eta_j psi_j^H M^{-1/2} psi_j - 1``, which Mochon's theorem
    asks to be 0 where ``q_j > 0`` and at most 0 elsewhere.  Here the
    weights are ``w = q / eta`` (``p = eta**2 w``; 0 where eta is), in
    which a state orthogonal to all others has ``w_j = 1`` whatever its
    prior; the gradient in w is ``eta g``.

    Everything comes from the SVD ``X = B^H diag(eta sqrt(w)) = U diag(s)
    Vh``, not from an eigh of ``M = X X^H``, whose eigenvalues lose all
    digits below ``eps ||M||`` where a weight is tiny: ``Tr M^{1/2} =
    sum s``, ``g_j = eta_j sum_a |(B U)_ja|**2 / s_a - 1`` over the
    singular values above ``len(s) eps s_max``, and ``V = U Vh``, whose
    rows the SVD keeps orthonormal even where M is singular.  Returns
    ``(Phi, eta g, success probability, s, Y, U, Vh)``, that probability
    capped at 1 against roundoff, with s and ``Y = B U`` cut to those
    singular values, or None where X is not finite or all of them are 0.
    """
    x = b.conj().T * (priors * np.sqrt(w))
    if not np.isfinite(x).all():
        return None
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    kept = int(np.count_nonzero(s > len(s) * np.finfo(float).eps * s[0]))
    if kept == 0:
        return None
    y = b @ u
    success = min(float(np.dot(priors, np.abs(np.einsum("ja,aj->j", y, vh)) ** 2)), 1.0)
    s, y = s[:kept], y[:, :kept]
    grad = priors * (priors * ((np.abs(y) ** 2) @ (1.0 / s)) - 1.0)
    return 2.0 * float(s.sum()) - float(priors @ w), grad, success, s, y, u, vh


def _weight_hessian(priors, s, y):
    """Hessian of Phi in w, from the s and Y of :func:`_weight_point`: the
    :func:`_daleckii_krein` sum over Y with kernel
    ``K_ab = -1 / (s_a s_b (s_a + s_b))``, the divided difference of
    ``m**(-1/2)`` at ``m = s**2``, scaled by ``eta_j**2 eta_k**2``.  It is
    negative semidefinite, of rank at most ``len(s)**2``."""
    kern = -1.0 / (s[:, None] * s * (s[:, None] + s))
    return np.outer(priors**2, priors**2) * _daleckii_krein(y, kern)


def _trial(b, eta, w, point, trial_w):
    """``(trial_w, its _weight_point)`` if those weights pass Armijo's test
    on Phi within ``PHI_ROUNDOFF`` (near the optimum Phi changes by less
    than its roundoff while the gradient still shrinks) and keep M clear
    of singular: no singular value above roundoff is lost, and the
    smallest shrinks by at most ``SINGULAR_DROP``; else None."""
    phi, grad, _, s = point[:4]
    floor = phi - PHI_ROUNDOFF * (abs(phi) + float(eta @ w))
    trial = _weight_point(b, eta, trial_w)
    if (
        trial is not None
        and len(trial[3]) >= len(s)
        and trial[3][len(s) - 1] >= SINGULAR_DROP * s[-1]
        and trial[0] >= floor + 1e-4 * float(np.dot(grad, trial_w - w))
    ):
        return trial_w, trial
    return None


def _backtrack(b, eta, w, point, arc, min_step):
    """The first of ``t = 1, 1/2, ...`` down to ``min_step`` at which the
    weights ``arc(t)`` pass :func:`_trial`.  Returns those weights and
    their :func:`_weight_point`, or None."""
    t = 1.0
    while t >= min_step:
        # an overflowing log step gives non-finite weights, which the
        # point evaluator refuses
        with np.errstate(over="ignore", invalid="ignore"):
            found = _trial(b, eta, w, point, arc(t))
        if found is not None:
            return found
        t *= 0.5
    return None


def _ascend_weights(b, priors, eta, log_steps):
    """Damped Newton on Phi in w from the scaled ``w = 1``, with
    :func:`_weight_point` for the priors eta; the duality gap takes the
    ensemble's priors.

    The start ``w = 1`` on the states with positive priors is optimal for
    orthogonal states and is the plain square-root measurement where
    priors are equal; it is scaled along the ray to Phi's maximum there,
    ``(Tr M^{1/2} / sum q)**2``.  Both step kinds solve
    ``(lambda I - H) d = r`` with H from :func:`_weight_hessian` and
    lambda ``WEIGHT_DAMPING`` times the norm of the projected gradient
    pg: H is singular whenever more than rank**2 weights are free (every
    rank-2 Gram with n > 4), and a lambda that shrinks with the gradient
    keeps Newton's fast local rate.

    * Log steps, while ``log_steps`` holds (a full-rank Gram, every eta
      positive): Newton on the KKT residual g in log w, whose equation
      ``-log(1 + g) = 0`` is the reweighted square-root measurement's
      ``u - log diag S - log eta = 0`` (Mochon 2006) in ``u = log p``.
      Its right side is ``r = eta (1 + g) log1p(g)`` and its trial
      points ``w exp(t d / w)``, positive for every t.  A log step that
      needs ``t < NEWTON_MIN_DAMPING`` hands the solve to projected steps
      for good.
    * The first log step first tries the Jacobi step ``w (1 + g)**2``,
      g the KKT residual: Newton's step on ``-log(1 + g) = 0`` in log w
      with the Jacobian replaced by ``-I/2``, its value for mutually
      orthogonal states, which is twice Mochon's reweighting
      ``q <- eta diag(S)``.  It costs one :func:`_weight_point` and no
      Hessian, and is taken only undamped, where it passes
      :func:`_trial`; otherwise that step is the Newton step above.
    * Projected steps (Bertsekas 1982): weights within
      ``eps_k = |w - max(w + grad, 0)|`` of 0 whose gradient points out
      of the feasible set are active and move along the gradient; the
      free ones take the step with ``r = grad``, along the projection arc
      ``max(w + t d, 0)`` down to ``t = WEIGHT_MIN_STEP``.  A zero weight
      is a bound here, so these steps reach the zero weights that log
      steps only approach.

    Each Newton step backtracks by halves (:func:`_backtrack`).  In w
    the gradient is ``eta g``, so pg weighs each state's KKT residual by
    its prior, as the duality gap does.  The gap is evaluated wherever
    ``|pg| <= GAP_SCREEN`` and at the end.  The ascent stops once the gap
    certifies, ``|pg| <= WEIGHT_GRAD_TOL``, backtracking fails or
    ``MAX_STEPS`` steps, the Jacobi step among them, are taken.  Returns
    the isometry, whether ``|pg| <= WEIGHT_GRAD_TOL``, the gap and the
    trace: the success probability at the start and after each step that
    raised it.
    """
    # scaling w by c leaves V, Y and the success probability as they are
    w = (eta > 0.0).astype(float)
    _, grad, success, s, y, u, vh = _weight_point(b, eta, w)
    root_c = float(s.sum()) / float(eta @ w)
    w *= root_c**2
    point = (root_c * float(s.sum()), (grad + eta) / root_c - eta, success, root_c * s, y, u, vh)
    trace = [success]
    for step in range(MAX_STEPS + 1):
        _, grad, _, s, y, u, vh = point
        pgn = float(np.linalg.norm(np.where(w > 0.0, grad, np.maximum(grad, 0.0))))
        v = u @ vh if pgn <= GAP_SCREEN else None
        gap = None if v is None else dual_gap(b, priors, v)
        if (gap is not None and gap <= CERT_TOL) or pgn <= WEIGHT_GRAD_TOL or step == MAX_STEPS:
            break
        lam = WEIGHT_DAMPING * pgn
        found = None
        if log_steps and step == 0:
            found = _trial(b, eta, w, point, w * (1.0 + grad / eta) ** 2)
        if log_steps and found is None:
            rhs = (eta + grad) * np.log1p(grad / eta)
            hess = _weight_hessian(eta, s, y)
            try:
                d = np.linalg.solve(lam * np.eye(len(w)) - hess, rhs)
            except np.linalg.LinAlgError:
                log_steps = False
            else:
                found = _backtrack(b, eta, w, point, lambda t: w * np.exp(t * d / w), NEWTON_MIN_DAMPING)
                log_steps = found is not None
        if found is None:
            eps_k = float(np.linalg.norm(w - np.maximum(w + grad, 0.0)))
            free = (w > eps_k) | (grad >= 0.0)
            hess = _weight_hessian(eta[free], s, y[free])
            d = grad.copy()
            try:
                d[free] = np.linalg.solve(lam * np.eye(len(hess)) - hess, grad[free])
            except np.linalg.LinAlgError:
                break
            found = _backtrack(b, eta, w, point, lambda t: np.maximum(w + t * d, 0.0), WEIGHT_MIN_STEP)
            if found is None:
                break
        w, point = found
        if point[2] > trace[-1]:
            trace.append(point[2])
    if v is None:
        v = u @ vh
        gap = dual_gap(b, priors, v)
    return v, pgn <= WEIGHT_GRAD_TOL, gap, trace


def optimize_general(ensemble: Ensemble) -> OptimizeResult:
    """Optimal coupling of an ensemble: the square-root measurement of
    the weights that maximize Phi (:func:`_weight_point`).

    Priors below ``CERT_TOL / (2 rank)`` count as 0 in the weight
    problem, never in the duality gap.  Every input starts at the scaled
    ``w = 1`` of :func:`_ascend_weights`, which takes at most ``MAX_STEPS``
    steps: log steps, the first of them a Jacobi step where that passes,
    while the Gram has full rank and every weight is positive, projected
    Newton steps otherwise.  No random numbers are drawn.
    A best-effort result with ``converged=False`` is returned when neither
    the certificate nor the gradient test is met.

    The solve and its duality gap see the Gram without the modes below
    the spectral factor's relative eigenvalue cut ``RANK_TOL``, which can
    move the optimum by far more than ``CERT_TOL`` (16-PSK at
    ``alpha_sq = 1`` loses a 4.5e-12 eigenvalue, and its certified p_error
    is 1.4e-7 above the optimum); a cut that leaves the rows of every
    coupling ``B V`` more than ``ROW_NORM_TOL`` short of unit norm raises
    ValidationError.
    """
    sf = spectral_factor(ensemble)
    b = sf.factor
    priors = ensemble.priors
    n, rank = ensemble.n, sf.rank
    if rank < n:
        # every coupling B V has the row norms of B: 1 less the cut modes
        cut = sf.eigenvalues[: n - rank]
        lost = float(np.max((np.abs(sf.eigenvectors[:, : n - rank]) ** 2) @ cut))
        if lost > ROW_NORM_TOL:
            raise ValidationError(
                f"the {RANK_TOL:g} rank cut drops Gram eigenvalues up to {cut[-1]:.3e}, "
                f"which leaves coupling rows {lost:.3e} short of unit norm"
            )

    # below CERT_TOL / (2 rank) a prior moves the gap by at most
    # CERT_TOL / 2 (where every other state's constraint holds, H >= 0 and
    # lambda_min(H - eta_j psi_j psi_j^H) >= -eta_j), and its weight only
    # makes Phi ill-scaled: the weight solve takes it as 0
    eta = np.where(priors >= CERT_TOL / (2 * rank), priors, 0.0)
    v, grad_ok, gap, trace = _ascend_weights(b, priors, eta, rank == n and eta.min() > 0.0)
    coupling = CouplingMatrix(b @ v, ensemble)
    certified = gap <= CERT_TOL
    return OptimizeResult(
        coupling=coupling,
        p_error=error_probability(coupling),
        objective_trace=tuple(trace),
        restarts_used=1,
        converged=grad_ok or certified,
        dual_gap=gap,
        certified=certified,
    )


def optimal_coupling(ensemble: Ensemble) -> CouplingMatrix:
    """Best-known coupling for an ensemble: the closed form of the first
    structure it has (two states; equal priors with equal real overlaps;
    equal priors with a circulant Gram matrix), else the weight solve of
    :func:`optimize_general`.

    The weight solve also takes over when a closed form refuses the ensemble:
    an overlap beyond ``check_binary``'s or ``check_symmetric``'s range, or a
    circulant ``C C^H`` more than ``ROOT_RESIDUAL_TOL`` off G, that form's one
    acceptance test.  A weight solve that does not converge raises NoSolutionError.
    """
    n, gram = ensemble.n, ensemble.gram
    try:
        if n == 2:
            return binary_optimal_coupling(float(ensemble.priors[0]), complex(gram[0, 1]))
        if ensemble.equal_priors:
            row = gram[0, 1:]
            if ensemble._circulant_deviation == 0.0 and np.all(row == row[0]) and row[0].imag == 0.0:
                return symmetric_optimal_coupling(n, row[0].real)
            return circulant_optimal_coupling(ensemble)
    except QsdError:
        pass
    return _converged_solve(ensemble).coupling


def _converged_solve(ensemble: Ensemble) -> OptimizeResult:
    """:func:`optimize_general`'s result, or NoSolutionError when it did not converge."""
    result = optimize_general(ensemble)
    if not result.converged:
        raise NoSolutionError(f"the weight solve did not converge (dual gap {result.dual_gap:.3e})")
    return result


# ---------------------------------------------------------------------------
# structured PSK solvers


def psk_params(row: np.ndarray) -> PskParams:
    """PskParams of the first row of an optimal 3- or 4-PSK coupling (the
    opposite-state amplitude is real, so theta2 is 0 or pi)."""
    q, w = float(row[0].real), complex(row[1])
    u, v = w.real, -w.imag
    common = dict(p=q * q, r=u * u + v * v, theta1=math.atan2(v, u), u=u, v=v)
    if len(row) == 3:
        return PskParams(**common)
    z = float(row[2].real)
    return PskParams(**common, r_prime=z * z, theta2=0.0 if z >= 0.0 else math.pi)


def psk3_solve(alpha_sq: float) -> tuple[PskParams, float]:
    """Parameters (:func:`psk_params`) and error of the optimal 3-PSK coupling."""
    cpl = optimal_coupling(gram_psk(3, alpha_sq))
    return psk_params(cpl.c[0]), error_probability(cpl)


def psk4_solve(alpha_sq: float) -> tuple[PskParams, float]:
    """Parameters (:func:`psk_params`) and error of the optimal 4-PSK coupling."""
    cpl = optimal_coupling(gram_psk(4, alpha_sq))
    return psk_params(cpl.c[0]), error_probability(cpl)

"""Shared helpers for the test suite."""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from qsd.cli import main
from qsd.ensembles import Ensemble, spectral_factor


# settings that optimize_general refuses, and qsd optimize with them
REFUSED_SETTINGS = [
    {"max_iters": 0},
    {"max_iters": -1},
    {"max_iters": 2.5},
    {"max_iters": math.nan},
    {"max_iters": 3.0},
    {"max_iters": 1e3},
    {"max_iters": math.inf},
    {"max_iters": -math.inf},
    {"max_iters": None},
    {"max_iters": False},
    {"max_iters": True},
    {"max_iters": "5"},
]


def random_isometry(rng, rank, n):
    """A random rank x n matrix with orthonormal rows."""
    m = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    q, _ = np.linalg.qr(m)
    return q.conj().T


def random_gram(rng, n, rank):
    """Gram matrix of n random unit vectors in C^rank."""
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    g = x @ x.conj().T
    g = 0.5 * (g + g.conj().T)
    np.fill_diagonal(g, 1.0)
    return g


def run_cli(*args: str):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "qsd", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main_cli(*args: str):
    """Run ``qsd.cli.main`` in this process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def cli_json(*args: str):
    code, out, err = run_cli(*args)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


@pytest.fixture
def tmp_json(tmp_path):
    def write(obj, name="payload.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def lapack_spies(monkeypatch) -> collections.Counter:
    """Count the np.linalg eigh, eigvalsh, svd and qr calls made from here on."""
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        original = getattr(np.linalg, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def near_dependent(k: int) -> Ensemble:
    """Ensemble number k of nearly dependent states: n (2 to 24) complex
    Gaussian vectors whose last coordinate is scaled by 1e-5 to 1e-2
    before they are normalized (median lambda_min / lambda_max 1e-9 over
    k < 600), with Dirichlet(1) priors."""
    rng = np.random.default_rng([2202, k])
    n = int(rng.integers(2, 25))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x[:, -1] *= 10 ** rng.uniform(-5, -2)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    gram = x @ x.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    np.fill_diagonal(gram, 1.0)
    return Ensemble(n, gram, rng.dirichlet(np.ones(n)))


def coupling_isometry(coupling) -> np.ndarray:
    """Isometry V of any feasible coupling C = B V.

    V is recovered as the polar factor of ``B^H C``: with ``C = B V``,
    ``B^H C = (B^H B) V`` and ``B^H B`` is positive definite, so that
    factor is V itself.  Nothing here runs the ascent.
    """
    sf = spectral_factor(coupling.ensemble)
    u, _, vh = np.linalg.svd(sf.factor.conj().T @ coupling.c, full_matrices=False)
    return u @ vh


def reference_dual_gap(b, priors, v) -> float:
    """Reference for :func:`qsd.optimizer.dual_gap`, by brute force.

    It forms ``H - eta_j psi_j psi_j^H`` for every j and takes the lowest
    eigenvalue of each with one batched eigvalsh of n rank x rank
    matrices, O(n rank**3); the library reads the same eigenvalues from
    one eigh of H and the secular equation.
    """
    diag = np.einsum("ij,ji->i", b, v)
    gamma = (b.conj().T * (priors * diag)) @ v.conj().T
    h = 0.5 * (gamma + gamma.conj().T)
    stacked = h - priors[:, None, None] * np.einsum("ja,jb->jab", b.conj(), b)
    lam_min = float(np.linalg.eigvalsh(stacked)[:, 0].min())
    return b.shape[1] * max(0.0, -lam_min)


def _basis_vec(dim: int, index: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def dilation_input_vector(dilation, input_j: int) -> np.ndarray:
    """Joint-space vector ``state_j (x) e_init`` for input j."""
    return np.kron(
        dilation.state_coords[input_j],
        _basis_vec(dilation.ancilla_dim, dilation.ancilla_init_index),
    )


def dilation_target_vector(dilation, input_j: int) -> np.ndarray:
    """Joint-space vector ``sum_k c[j, k] (post_k (x) e_k)`` for input j."""
    n = dilation.system_dim
    out = np.zeros(n * n, dtype=complex)
    for k in range(n):
        out += dilation.coupling.c[input_j, k] * np.kron(
            dilation.post_states[:, k], _basis_vec(n, k)
        )
    return out


def outcome_amplitudes(dilation, input_j: int) -> np.ndarray:
    """Amplitudes ``<post_k (x) e_k | U (state_j (x) e_init)>`` for all k,
    from the dense joint unitary one Kronecker vector at a time."""
    n = dilation.system_dim
    mapped = dilation.joint_unitary @ dilation_input_vector(dilation, input_j)
    return np.array(
        [np.vdot(np.kron(dilation.post_states[:, k], _basis_vec(n, k)), mapped) for k in range(n)]
    )


def reference_residuals(dilation) -> dict:
    """Reference for :func:`qsd.coupling.dilation_residuals`, by brute force.

    Unitarity is ``max|U^H U - I|`` over the dense n^2 x n^2 matrix; the
    map and outcome-probability residuals go one input at a time through
    the Kronecker-product vectors above; the library reads all four from
    the n x n block.
    """
    ensemble = dilation.coupling.ensemble
    n = ensemble.n
    u = dilation.joint_unitary
    coords = dilation.state_coords
    out = {
        "unitary_residual": float(np.max(np.abs(u.conj().T @ u - np.eye(n * n)))),
        "map_residual": 0.0,
        "gram_residual": float(np.max(np.abs(coords @ coords.conj().T - ensemble.gram))),
        "outcome_prob_residual": 0.0,
    }
    for j in range(n):
        mapped = u @ dilation_input_vector(dilation, j)
        out["map_residual"] = max(
            out["map_residual"],
            float(np.max(np.abs(mapped - dilation_target_vector(dilation, j)))),
        )
        probs = np.abs(outcome_amplitudes(dilation, j)) ** 2
        out["outcome_prob_residual"] = max(
            out["outcome_prob_residual"],
            float(np.max(np.abs(probs - np.abs(dilation.coupling.c[j]) ** 2))),
        )
    return out


def coupling_gap(coupling) -> float:
    """Duality gap of any feasible coupling C = B V, by the reference."""
    sf = spectral_factor(coupling.ensemble)
    return reference_dual_gap(sf.factor, coupling.ensemble.priors, coupling_isometry(coupling))


def mp_psk_error(n, alpha_sq):
    """SRM error of n-PSK at 60 digits: 1 - ((1/n) sum_k sqrt(lambda_k))**2,
    with the circulant eigenvalues summed in mpmath from the Gram row."""
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha_sq)
        omega = [mpmath.expjpi(mpmath.mpf(2 * d) / n) for d in range(n)]
        row = [mpmath.exp(-a * (1 - omega[d])) for d in range(n)]
        lam = [
            mpmath.re(mpmath.fsum(row[d] * mpmath.conj(omega[(k * d) % n]) for d in range(n)))
            for k in range(n)
        ]
        p = (mpmath.fsum(mpmath.sqrt(x) for x in lam) / n) ** 2
        return 1 - p


def mp_psk_min_error(n, alpha_sq, priors, tol=1e-40, max_iters=20000):
    """Minimum error of n-PSK with any positive priors, at 60 digits.

    The optimum for linearly independent states is the square-root
    measurement of reweighted priors q (Mochon, PRA 73, 032328, 2006):
    with ``S = (Q^{1/2} G Q^{1/2})^{1/2}`` the coupling is ``Q^{-1/2} S``,
    and q is a fixed point of ``q <- eta * diag(S)`` (normalized).  That
    plain iteration runs here until q moves by less than ``tol``
    relatively; the error is the coupling's off-diagonal mass
    ``sum_j eta_j sum_{k != j} |S_jk|**2 / q_j``.
    """
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha_sq)
        omega = [mpmath.expjpi(mpmath.mpf(2 * d) / n) for d in range(n)]
        gram = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                gram[j, k] = mpmath.exp(-a * (1 - omega[(k - j) % n]))
        eta = [mpmath.mpf(p) for p in priors]

        def sqrt_a(q):
            r = [mpmath.sqrt(x) for x in q]
            mat = mpmath.matrix(n, n)
            for j in range(n):
                for k in range(n):
                    mat[j, k] = r[j] * gram[j, k] * r[k]
            lam, w = mpmath.eigh(mat)
            root = mpmath.diag([mpmath.sqrt(max(x, 0)) for x in lam])
            return w * root * w.transpose_conj()

        q = list(eta)
        for _ in range(max_iters):
            s = sqrt_a(q)
            new = [eta[j] * mpmath.re(s[j, j]) for j in range(n)]
            total = mpmath.fsum(new)
            new = [x / total for x in new]
            moved = max(abs(new[j] / q[j] - 1) for j in range(n))
            q = new
            if moved < tol:
                break
        else:
            raise AssertionError("reweighting fixed point did not converge")
        s = sqrt_a(q)
        return mpmath.fsum(
            eta[j] * abs(s[j, k]) ** 2 / q[j] for j in range(n) for k in range(n) if k != j
        )


def golden_section_min(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """Minimize f on [a, b] by golden-section search (Kiefer 1953) until
    the bracket is at most 2 xatol wide; returns the best point and its
    value.  f must be unimodal on [a, b]."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 2.0 * xatol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)

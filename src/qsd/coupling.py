"""Ancilla-coupling matrices and their explicit joint-space dilations.

A coupling matrix C holds the amplitudes ``c[j, k]`` for finding the
ancilla in outcome k when the input was state j; it keeps the outcome
law ``|c[j, k]|**2`` from validation for every reader.  C is physically
realizable exactly when ``C C^H`` equals the ensemble's Gram matrix;
every feasible C arises as ``B V`` with ``B B^H = G`` and V
row-orthonormal, the form in which the optimizer module builds its couplings.
``build_dilation`` turns a feasible coupling into concrete coordinates:
state vectors, the n x n block of the joint unitary, and the
post-measurement states, in O(n^3) time and O(n^2) memory; the dense
n^2 x n^2 unitary is assembled from the block only when it is first
read.  ``dilation_residuals`` checks that unitary from its block alone,
and ``_block_residuals`` computes the two of its residuals that a long
Monte Carlo run gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .closed_form import (
    _circulant_roots,
    binary_individual_errors,
    symmetric_min_error,
    symmetric_p_quadratic,
)
from .ensembles import (
    Ensemble,
    _frozen,
    _readonly,
    circulant,
    gram_binary,
    gram_symmetric,
    spectral_factor,
)
from .errors import (
    InfeasibleCouplingError,
    InvalidIsometryError,
    NoSolutionError,
    UndefinedConditionalError,
    ValidationError,
)

ROW_NORM_TOL = 1e-10
FEASIBILITY_TOL = 1e-8
ISOMETRY_TOL = 1e-8
# largest |C C^H - G| entry a closed-form circulant coupling may leave
ROOT_RESIDUAL_TOL = 1e-10
# largest dense joint unitary a DilationModel will assemble (16 n^4 bytes)
MAX_DILATION_BYTES = 1 << 30
# ||X X^H - I||_F up to which _polar_orthonormal iterates instead of
# taking the SVD; two Newton-Schulz steps reach roundoff from there.  The
# dilation inputs of feasible couplings lie far inside it (at most 7e-14
# on the benchmark's `dilation` rounds), so it only decides where an
# input that is barely feasible on an ill-conditioned Gram goes
POLAR_NS_BOUND = 1e-4


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Amplitudes ``c[j, k]`` of ancilla outcome k given input state j.

    Rows are unit vectors (each input evolves unitarily); feasibility
    against the target ensemble is a separate check because closed-form
    constructions meet it at 1e-12 while optimizer outputs are only
    required to meet 1e-8.

    Validation computes the outcome law once and keeps it, read-only:
    ``_mass[j, k] = |c[j, k]|**2``, the probability of outcome k on input
    j, its row sums ``_row_mass`` and its off-diagonal row sums
    ``_off_row_mass``.  The success and error probabilities, the
    post-measurement probability, the Monte Carlo sampler and the
    dilation's outcome-probability residual all read it.
    """

    c: np.ndarray
    ensemble: Ensemble

    def __post_init__(self):
        c = np.array(self.c, dtype=complex)
        object.__setattr__(self, "c", _frozen(c))
        n = self.ensemble.n
        if c.shape != (n, n):
            raise ValidationError(f"coupling must be {n}x{n}, got {c.shape}")
        mass = np.abs(c) ** 2
        row_mass = mass.sum(axis=1)
        row_norm_err = float(np.max(np.abs(row_mass - 1.0)))
        if not row_norm_err <= ROW_NORM_TOL:  # NaN entries fail too
            raise ValidationError(
                f"coupling rows must be unit vectors (residual {row_norm_err:.3e})"
            )
        off = mass.copy()
        np.fill_diagonal(off, 0.0)
        object.__setattr__(self, "_mass", _frozen(mass))
        object.__setattr__(self, "_row_mass", _frozen(row_mass))
        object.__setattr__(self, "_off_row_mass", _frozen(off.sum(axis=1)))

    @property
    def n(self) -> int:
        return self.ensemble.n


def _joint_unitary(block: np.ndarray) -> np.ndarray:
    """The dense n^2 x n^2 joint unitary with the n x n block ``block``,
    read-only: ``block.T`` at rows ``k*n + k`` and columns ``m*n``, and 1
    on the remaining rows and columns paired in sorted order.

    A matrix of more than ``MAX_DILATION_BYTES`` (1 GiB, so n >= 91) is
    refused with a ValidationError before anything is allocated.
    """
    n = len(block)
    dim = n * n
    if 16 * dim * dim > MAX_DILATION_BYTES:
        raise ValidationError(
            f"a {dim}x{dim} joint unitary needs {16 * dim * dim / 2**30:.2f} GiB, "
            f"above the {MAX_DILATION_BYTES / 2**30:g} GiB limit"
        )
    joint_unitary = np.zeros((dim, dim), dtype=complex)
    flat = joint_unitary.reshape(-1)
    # the block at rows k*n + k and columns m*n
    flat[np.arange(n)[:, None] * ((n + 1) * dim) + np.arange(n) * n] = block.T
    # the other rows and columns in sorted order, in closed form: the
    # output slots leave runs of n rows between them, the input slots runs
    # of n - 1 columns.  Not np.setdiff1d: numpy 2.4's setdiff1d imports
    # numpy.ma on first use, 15-28 ms that would land in the first
    # read of a process.
    rows = np.arange(n - 1)[:, None] * (n + 1) + np.arange(1, n + 1)
    cols = np.arange(n)[:, None] * n + np.arange(1, n)
    flat[rows.ravel() * dim + cols.ravel()] = 1.0
    return _frozen(joint_unitary)


class _LazyJointUnitary:
    """``DilationModel.joint_unitary``, a descriptor-typed dataclass field.

    An array given to the constructor is kept as a read-only view, not
    copied.  None stands for the unitary of the model's ``block``: the
    first read assembles it with :func:`_joint_unitary` and keeps it.
    Two threads that read it first at once may each assemble it; both
    arrays are equal and read-only, and the last one is kept.
    """

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            # dataclasses reads the class attribute as the field's
            # default: there is none
            raise AttributeError(self._name)
        u = obj.__dict__[self._name]
        if u is None:
            u = obj.__dict__[self._name] = _joint_unitary(obj.block)
        return u

    def __set__(self, obj, value):
        if value is not None:
            value = _frozen(np.asarray(value, dtype=complex).view())
        obj.__dict__[self._name] = value


@dataclass(frozen=True, eq=False)
class DilationModel:
    """Concrete realization of a coupling as a joint-space unitary.

    The system and ancilla each get dimension n.  Joint vectors use the
    system-major Kronecker layout: component ``m*n + i`` of ``x (x) y``
    is ``x[m]*y[i]``.  Row j of ``state_coords`` is a coordinate vector
    for state j (pairwise inner products reproduce the Gram matrix), the
    ancilla starts in basis slot ``ancilla_init_index``, and
    ``joint_unitary`` maps ``state_j (x) e_init`` to
    ``sum_k c[j, k] * (post_states[:, k] (x) e_k)``.

    ``block`` is the n x n unitary whose transpose ``joint_unitary``
    holds at rows ``k*n + k`` and columns ``m*n``; the other rows and
    columns are paired by 1s (see :func:`build_dilation`).
    ``joint_unitary`` given as None, as
    :func:`build_dilation` gives it, is assembled from ``block`` on its
    first read, which allocates 16 n^4 bytes and raises ValidationError
    above ``MAX_DILATION_BYTES``.  ``repr`` leaves ``joint_unitary`` out,
    but ``dataclasses.replace`` reads it and so assembles it.  A
    given array is kept as is, and ``block`` is then not checked against
    it.  Arrays that are already read-only are shared, writable ones
    copied.
    """

    system_dim: int
    ancilla_dim: int
    state_coords: np.ndarray
    ancilla_init_index: int
    block: np.ndarray
    joint_unitary: _LazyJointUnitary = _LazyJointUnitary()
    post_states: np.ndarray
    coupling: CouplingMatrix

    def __post_init__(self):
        for name in ("state_coords", "block", "post_states"):
            object.__setattr__(self, name, _readonly(getattr(self, name), complex))

    def __repr__(self):
        # not the generated repr, which would assemble joint_unitary;
        # block shows the same unitary
        shown = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
                 if f.name != "joint_unitary"]
        return f"{type(self).__name__}({', '.join(shown)})"


def success_probability(coupling: CouplingMatrix) -> float:
    """Prior-weighted probability that the outcome names the input,
    ``sum_j eta_j * |c[j, j]|**2``."""
    # a contiguous copy: np.dot sums a strided view in another order
    return float(np.dot(coupling.ensemble.priors, coupling._mass.diagonal().copy()))


def error_probability(coupling: CouplingMatrix) -> float:
    """Prior-weighted probability that the outcome misnames the input,
    ``sum_j eta_j * sum_{k != j} |c[j, k]|**2``.

    Summing the off-diagonal mass keeps the relative accuracy of small
    errors, which ``1 - success_probability`` loses to cancellation
    (below ~1e-16 it returns 0 or a rounding residue).
    """
    return float(np.dot(coupling.ensemble.priors, coupling._off_row_mass))


def _gram_residual(rows: np.ndarray, gram: np.ndarray) -> float:
    """Max entrywise deviation of ``R R^H`` from a Gram matrix."""
    return float(np.max(np.abs(rows @ rows.conj().T - gram)))


def _circulant_root_residual(c: np.ndarray, gram: np.ndarray, deviation: float) -> float:
    """Upper bound on ``_gram_residual(c, gram)`` for an exact circulant
    c, in O(n^2); deviation is G's deviation from the circulant of its own
    first row, which an Ensemble keeps since validation.

    ``C C^H`` is the circulant of its first row ``conj(C) C[0]``, up to
    the order in which each entry's n products are summed.  Its largest
    miss of G is therefore at most that row's miss of G's first row,
    plus deviation (0 for what ``gram_psk`` and ``gram_symmetric``
    build), plus what two orders of one sum of products of unit rows can
    differ by after rounding, ``2 (n + 2) eps`` (Higham 2002, sections
    3.1 and 3.6).
    """
    row_miss = float(np.max(np.abs(c.conj() @ c[0] - gram[0])))
    return row_miss + deviation + 2 * (c.shape[0] + 2) * np.finfo(float).eps


def feasibility_residual(coupling: CouplingMatrix) -> float:
    """Max entrywise deviation of ``C C^H`` from the target Gram matrix."""
    return _gram_residual(coupling.c, coupling.ensemble.gram)


def binary_optimal_coupling(eta1: float, overlap: complex) -> CouplingMatrix:
    """Optimal two-state coupling built from the closed-form error rates.

    Amplitudes are ``[[sqrt(1-r1), sqrt(r1)], [sqrt(r2), sqrt(1-r2)]]``
    with the overlap's phase absorbed into the second row, so the
    feasibility law holds for complex overlaps too.
    """
    ensemble = gram_binary(overlap, eta1)
    sol = binary_individual_errors(eta1, overlap)
    c = np.array(
        [
            [np.sqrt(1.0 - sol.r1), np.sqrt(sol.r1)],
            [np.sqrt(sol.r2), np.sqrt(1.0 - sol.r2)],
        ],
        dtype=complex,
    )
    phi = np.angle(complex(overlap))
    if phi != 0.0:
        c[1] *= np.exp(-1j * phi)
    return CouplingMatrix(c, ensemble)


def symmetric_optimal_coupling(n: int, s: float) -> CouplingMatrix:
    """Optimal coupling for n states with common real overlap s.

    Diagonal ``sqrt(p)`` with p the larger quadratic root, constant
    off-diagonal t with ``t**2 = r``, where ``r = (1-p)/(n-1)`` is taken
    from :func:`~qsd.closed_form.symmetric_min_error` so that it keeps its
    relative accuracy.  The off-diagonal sign follows the overlap
    constraint ``2*sqrt(p)*t + (n-2)*t**2 = s``, so negative overlaps get a
    negative t.
    """
    ensemble = gram_symmetric(n, s)
    p, _ = symmetric_p_quadratic(n, s)
    r = symmetric_min_error(n, s) / (n - 1)
    t = (s - (n - 2) * r) / (2.0 * np.sqrt(p))
    c = np.full((n, n), t, dtype=complex)
    np.fill_diagonal(c, np.sqrt(p))
    return CouplingMatrix(c, ensemble)


def circulant_optimal_coupling(ensemble: Ensemble) -> CouplingMatrix:
    """Optimal coupling for an equal-prior ensemble with a circulant Gram matrix.

    Such a set (N-PSK among them) is geometrically uniform, so the
    square-root measurement is optimal (Ban, Kurokawa, Momose & Hirota
    1997; Eldar & Forney 2001).  Its coupling ``G^{1/2}`` is the circulant
    whose first row is the inverse DFT of the square roots of the Gram
    eigenvalues.  NoSolutionError unless ``C C^H = G`` holds to
    ``ROOT_RESIDUAL_TOL`` by :func:`_circulant_root_residual`, a check that
    does not use the DFT.
    """
    c = circulant(np.fft.ifft(_circulant_roots(ensemble)))
    residual = _circulant_root_residual(c, ensemble.gram, ensemble._circulant_deviation)
    if not residual <= ROOT_RESIDUAL_TOL:
        raise NoSolutionError(
            f"circulant coupling misses the overlap constraints (residual {residual:.3e})"
        )
    return CouplingMatrix(c, ensemble)


def coupling_from_unitary(ensemble: Ensemble, v: np.ndarray) -> CouplingMatrix:
    """Feasible coupling ``C = B V`` from a row-orthonormal isometry V.

    B is the spectral factor of the Gram matrix (its principal square
    root when full rank), so ``C C^H = B V V^H B^H = G`` for any V with
    orthonormal rows.  V must be rank(G) x n.
    """
    sf = spectral_factor(ensemble)
    return CouplingMatrix(sf.factor @ _checked_isometry(v, sf.rank, ensemble.n), ensemble)


def _checked_isometry(v, rank: int, n: int) -> np.ndarray:
    """V as a complex array, after checking that it is rank x n with
    orthonormal rows (to ``ISOMETRY_TOL``); raises InvalidIsometryError."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (rank, n):
        raise InvalidIsometryError(f"isometry must be {rank}x{n} (rank x n), got {v.shape}")
    ortho = _gram_residual(v, np.eye(rank))
    if not ortho <= ISOMETRY_TOL:
        raise InvalidIsometryError(f"rows are not orthonormal (residual {ortho:.3e})")
    return v


def _polar_orthonormal(m: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal rows/columns: the unitary polar
    factor of ``diag(weights) @ m``.

    A wide input whose rows are nearly orthonormal,
    ``d = ||X X^H - I||_F <= POLAR_NS_BOUND``, takes the Newton-Schulz
    iteration ``X <- X - (X X^H - I) X / 2`` (Bjorck & Bowie 1971;
    Higham 1986), each step mapping d to at most ``0.8 d**2``, until d is
    within ``4 r eps``, the roundoff floor of r orthonormal rows.  Entry
    (i, j) of ``X X^H - I`` goes ``w_j / (w_i + w_j)`` to row i and the
    rest to row j (half to each for equal weights): the smallest
    w-weighted change that makes the rows orthonormal to first order, so
    the result is the weighted polar factor to first order in d.  Every
    other input, and one still above the floor after three steps, takes
    the SVD.
    """
    rows = m.shape[0]
    eye = np.eye(rows)
    floor_sq = (4 * rows * np.finfo(float).eps) ** 2
    x = m
    for _ in range(4):
        gap = x @ x.conj().T - eye
        dist_sq = np.vdot(gap, gap).real
        if dist_sq <= floor_sq:
            return x
        if not dist_sq <= POLAR_NS_BOUND**2:  # NaN entries go to the SVD too
            break
        x = x - (gap * (weights / (weights[:, None] + weights))) @ x
    u, _, vh = np.linalg.svd(weights[:, None] * m, full_matrices=False)
    return u @ vh


def _dilation_block(coupling: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """State coordinates and the n x n block of a feasible coupling's dilation.

    Raises InfeasibleCouplingError when ``C C^H`` misses the Gram matrix
    by more than ``FEASIBILITY_TOL``.  With G = W diag(lam) W^H from
    :func:`spectral_factor` (kept eigenvectors W_r, dropped ones W_perp),
    V is the row-orthonormal Procrustes factor of ``thin^H C`` with
    ``thin = W_r Lam_r^{1/2}``: the V that minimizes ``||thin V - C||``.
    It is computed as the Lam_r-weighted polar factor of
    ``X0 = Lam_r^{-1/2} W_r^H C``.  For an exactly feasible C, X0 is V
    itself, and ``X0 X0^H - I = Lam_r^{-1/2} W_r^H (C C^H - G) W_r
    Lam_r^{-1/2}``, so its rows are orthonormal up to the feasibility
    residual scaled by the smallest kept eigenvalue; the polar factor is
    then a Newton-Schulz step or two, with no SVD.  The weights matter on
    ill-conditioned Grams: the unweighted polar factor of X0 spreads an
    error of a light row over the heavy ones, which multiplies the map
    residual by up to ``sqrt(lam_max / lam_min)``.  At full rank the
    block is ``W V``.  Otherwise one QR completes V's rows to a unitary
    ``V_full`` and the block is ``[W_r | W_perp] V_full``.  Row j,
    column k of ``state_coords @ block`` is the amplitude of input j on
    output slot ``k*n + k``; nothing of size n^2 is allocated.
    ``state_coords`` is the Gram square root on the rank support: dropped
    modes contribute 0, so rank-deficient Grams do not leak
    sqrt(ulp)-size mass along them.
    """
    residual = feasibility_residual(coupling)
    if not residual <= FEASIBILITY_TOL:
        raise InfeasibleCouplingError(
            f"coupling does not reproduce the Gram matrix (residual {residual:.3e}); "
            "inner products are not preserved, so no unitary extension exists"
        )
    sf = spectral_factor(coupling.ensemble)
    # eigenvalues ascend, so the kept modes are the last rank columns
    cut = coupling.n - sf.rank
    w_r = sf.eigenvectors[:, cut:]
    lam = sf.eigenvalues[cut:]
    v_iso = _polar_orthonormal((w_r.conj().T @ coupling.c) / np.sqrt(lam)[:, None], lam)
    if cut == 0:
        return sf.sqrt, w_r @ v_iso
    # the last n - r columns of Q span the orthogonal complement of V's rows
    q, _ = np.linalg.qr(v_iso.conj().T, mode="complete")
    block = w_r @ v_iso + sf.eigenvectors[:, :cut] @ q[:, sf.rank :].conj().T
    return sf.sqrt, block


def build_dilation(coupling: CouplingMatrix) -> DilationModel:
    """Realize a feasible coupling as an n^2 x n^2 joint unitary, kept as
    its n x n block.

    State j gets coordinates ``S[j, :]`` (S the Gram square root), the
    ancilla starts at slot 0, and post-measurement system states are the
    standard basis.  U must send each ``state_j (x) e_0`` to
    ``sum_k c[j, k] (e_k (x) e_k)``.  Both sides are already confined to
    n-dimensional coordinate subspaces: with G = W diag(lam) W^H (kept
    eigenvectors first) and V the row-orthonormal Procrustes factor of
    ``thin^H C`` (``thin = W_r Lam_r^{1/2}``), the inputs expand along
    ``conj(w_alpha) (x) e_0`` (slots ``m*n``) and the targets along
    ``sum_k V[alpha, k] (e_k (x) e_k)`` (slots ``k*n + k``).  V is
    already n x n at full rank; for a rank-deficient Gram one QR completes
    its rows to an n x n unitary ``V_full``.  That unitary maps the first
    frame onto the second exactly, so U consists of

    * the n x n unitary block ``(W V_full)^T`` (from
      :func:`_dilation_block`) at rows ``k*n + k`` and columns ``m*n``,
      and
    * a 0/1 permutation pairing the remaining n^2 - n input slots with
      the remaining n^2 - n output slots in sorted order.

    The model keeps the block; its ``joint_unitary`` is assembled from
    it on first read (see :class:`DilationModel`).  A build therefore
    costs what :func:`dilation_residuals` costs: the O(n^3) products (and
    the QR when rank < n) on the eigendecomposition the ensemble already
    holds, and O(n^2) memory, at any n.  ``MAX_DILATION_BYTES`` (1 GiB,
    so n >= 91) limits only that first read.

    Inner products here are conjugate-linear in the second slot:
    ``<x, y> = sum_i x_i conj(y_i)``, so coordinate rows satisfy
    ``coords @ coords^H = G``.  That convention is forced jointly by the
    feasibility law ``C C^H = G`` and the mapping above, since a unitary
    preserves pairwise inner products and the targets' pairwise products
    equal ``(C C^H)_jl``.
    """
    n = coupling.n
    state_coords, block = _dilation_block(coupling)
    return DilationModel(
        system_dim=n,
        ancilla_dim=n,
        state_coords=state_coords,
        ancilla_init_index=0,
        block=_frozen(block),
        joint_unitary=None,
        post_states=_frozen(np.eye(n, dtype=complex)),
        coupling=coupling,
    )


# largest dilation residual that `qsd dilation` reports as ok and that a
# long Monte Carlo run accepts
DILATION_CHECK_TOL = 1e-10


def _block_residuals(coupling: CouplingMatrix) -> tuple[np.ndarray, np.ndarray, float, float]:
    """State coordinates, mapped inputs ``state_coords @ block``, and the
    unitarity and outcome-probability residuals of the dilation's n x n
    block (see :func:`dilation_residuals`): the two that a long Monte
    Carlo run gates on."""
    state_coords, block = _dilation_block(coupling)
    amps = state_coords @ block
    unitary = _gram_residual(block, np.eye(coupling.n))
    outcome_prob = float(np.max(np.abs(np.abs(amps) ** 2 - coupling._mass)))
    return state_coords, amps, unitary, outcome_prob


def dilation_residuals(coupling: CouplingMatrix) -> dict:
    """Unitarity, state-map, Gram and outcome-probability residuals of the
    dilation that :func:`build_dilation` would build, from its n x n block.

    Input j enters U only through the columns ``m*n`` and reaches the
    outcome slots ``k*n + k`` only through the block, and U is a 0/1
    permutation elsewhere, so ``U (state_j (x) e_0)`` is row j of
    ``state_coords @ block`` on the outcome slots and 0 on all others:

    * ``unitary_residual``: ``max|block block^H - I|``, the part of
      ``max|U^H U - I|`` the permutation does not make exact;
    * ``map_residual``: ``max|state_coords @ block - C|``;
    * ``gram_residual``: ``max|state_coords state_coords^H - G|``;
    * ``outcome_prob_residual``: ``max||state_coords @ block|**2 - |C|**2|``.

    The first and last come from :func:`_block_residuals`, which is all a
    long Monte Carlo run computes.  O(n^3) time and nothing of size n^2
    allocated.  Raises InfeasibleCouplingError when ``C C^H`` misses the
    Gram matrix by more than ``FEASIBILITY_TOL``.
    """
    state_coords, amps, unitary, outcome_prob = _block_residuals(coupling)
    return {
        "unitary_residual": unitary,
        "map_residual": float(np.max(np.abs(amps - coupling.c))),
        "gram_residual": _gram_residual(state_coords, coupling.ensemble.gram),
        "outcome_prob_residual": outcome_prob,
    }


def post_measurement_state(
    dilation: DilationModel, input_j: int, outcome_k: int
) -> tuple[np.ndarray, float]:
    """System state and probability for ancilla outcome k on input j.

    In this shared-post-state construction the conditional state is
    ``post_states[:, k]`` for every input; the probability is
    ``|c[j, k]|**2``.  Outcomes with probability below 1e-24 have no
    defined conditional state.
    """
    n = dilation.system_dim
    if not (0 <= input_j < n and 0 <= outcome_k < n):
        raise ValidationError("state or outcome index out of range")
    prob = float(dilation.coupling._mass[input_j, outcome_k])
    if prob <= 1e-24:
        raise UndefinedConditionalError(
            f"outcome {outcome_k} has probability {prob:.3e} on input {input_j}; "
            "the conditional state is undefined"
        )
    return dilation.post_states[:, outcome_k].copy(), prob


def coupling_to_json(coupling: CouplingMatrix) -> dict:
    from ._serialize import matrix_obj

    return {"c": matrix_obj(coupling.c)}


def coupling_from_json(source: dict, ensemble: Ensemble) -> CouplingMatrix:
    from ._serialize import parse_matrix

    if not isinstance(source, dict) or "c" not in source:
        raise ValidationError('coupling JSON must be an object with a "c" matrix')
    return CouplingMatrix(parse_matrix(source["c"]), ensemble)

"""Monte Carlo simulation of the protocol and sequential binary discrimination.

Sampling touches only the coupling's row distributions (outcome k on
input j has probability ``|c[j, k]|**2``, which the coupling keeps from
validation), never the joint unitary; a separate cross-check recomputes
those distributions from the dilation's n x n block and fails loudly on
disagreement.  The count matrix is drawn in one multinomial over the
n**2 (input, outcome) cells, so a run costs the same at any shot count
and depends only on (coupling, shots, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .closed_form import helstrom_bound
from .coupling import DILATION_CHECK_TOL, CouplingMatrix, _block_residuals, error_probability
from .ensembles import _frozen, check_integer, check_prior, check_seed, gram_binary
from .errors import InfeasibleSequentialError, ValidationError

# numpy's multinomial takes the shot count as a signed 64-bit integer
MAX_SHOTS = 2**63
# outcome probabilities below this are treated as an impossible branch
NEGLIGIBLE_PROB = 1e-15


@dataclass(frozen=True, eq=False)
class SimulationReport:
    shots: int
    seed: int
    counts: np.ndarray
    empirical_error: float
    analytic_error: float
    std_error: float
    elapsed: float

    def __post_init__(self):
        # a read-only view: an int64 array is not copied
        object.__setattr__(
            self, "counts", _frozen(np.asarray(self.counts, dtype=np.int64).view())
        )


def run_monte_carlo(coupling: CouplingMatrix, shots: int, seed: int) -> SimulationReport:
    """Simulate the protocol: draw an input by prior, draw an ancilla
    outcome from the input's row distribution, guess that outcome.

    The shots are independent, so the count matrix is one draw from
    Multinomial(shots, eta_j |c[j, k]|**2) over the n**2 cells: the same
    law as sampling shot by shot, at O(n**2) cost for any shot count.
    Deterministic for fixed (coupling, shots, seed).  Long runs
    (>= 10^6 shots) first verify the row distributions against the
    dilation (:func:`check_against_dilation`).
    """
    shots = check_integer(shots, "shots", 1)
    if shots >= MAX_SHOTS:
        raise ValidationError("shots must be below 2**63")
    seed = check_seed(seed)
    if shots >= 1_000_000:
        check_against_dilation(coupling)
    # CouplingMatrix has checked that the rows sum to 1 within ROW_NORM_TOL
    mass = coupling._mass

    start = time.perf_counter()
    # priors may dip to -PRIOR_TOL; multinomial refuses negative cells
    joint = np.maximum(coupling.ensemble.priors, 0.0)[:, None] * mass / coupling._row_mass[:, None]
    joint /= joint.sum()
    counts = np.random.default_rng(seed).multinomial(shots, joint.ravel()).reshape(mass.shape)
    elapsed = time.perf_counter() - start

    # a prior at -PRIOR_TOL must not turn the error, and so std_error,
    # negative; rows up to ROW_NORM_TOL long may take it just above 1
    analytic = max(error_probability(coupling), 0.0)
    return SimulationReport(
        shots=shots,
        seed=seed,
        counts=counts,
        empirical_error=(shots - int(counts.trace())) / shots,
        analytic_error=analytic,
        std_error=math.sqrt(max(analytic * (1.0 - analytic), 0.0) / shots),
        elapsed=elapsed,
    )


def check_against_dilation(coupling: CouplingMatrix) -> float:
    """Recompute outcome probabilities from the dilation and compare with
    ``|c[j, k]|**2``.  Returns the max deviation.

    It computes only what it gates on, the unitarity and
    outcome-probability residuals of :func:`~qsd.coupling.dilation_residuals`,
    from the dilation's n x n block; the dense n^2 x n^2 unitary is never
    built: O(n^2) memory and O(n^3) time at any n.  Raises
    ValidationError when the probabilities or the block's unitarity
    ``max|block block^H - I|`` are off by more than ``DILATION_CHECK_TOL``,
    and InfeasibleCouplingError when the coupling misses its Gram matrix.
    """
    _, _, unitarity, worst = _block_residuals(coupling)
    # written so that a NaN residual fails too
    if not worst <= DILATION_CHECK_TOL:
        raise ValidationError(
            f"coupling rows disagree with the dilation (residual {worst:.3e})"
        )
    if not unitarity <= DILATION_CHECK_TOL:
        raise ValidationError(
            f"the dilation's block is not unitary (residual {unitarity:.3e})"
        )
    return worst


@dataclass(frozen=True)
class TwoStageParams:
    """First-measurement parameters for sequential binary discrimination.

    r1, r2 are the stage-one misidentification probabilities; t1, t2 the
    real overlaps of the post-measurement system states conditioned on
    outcomes 1 and 2.  Feasibility against a given overlap s (the
    preservation constraint) is checked by :func:`two_stage_binary`.
    """

    r1: float
    r2: float
    t1: float
    t2: float

    def __post_init__(self):
        if not (0.0 <= self.r1 <= 1.0 and 0.0 <= self.r2 <= 1.0):
            raise ValidationError("r1 and r2 must be probabilities")
        if not (-1.0 <= self.t1 <= 1.0 and -1.0 <= self.t2 <= 1.0):
            raise ValidationError("t1 and t2 must be overlaps in [-1, 1]")


@dataclass(frozen=True)
class TwoStageResult:
    first_stage_error: float
    conditional_ensembles: tuple
    combined_error: float


def preservation_residual(s: float, params: TwoStageParams) -> float:
    """Residual of the inner-product preservation law
    ``sqrt((1-r1) r2) t1 + sqrt(r1 (1-r2)) t2 = s``."""
    lhs = (
        np.sqrt((1.0 - params.r1) * params.r2) * params.t1
        + np.sqrt(params.r1 * (1.0 - params.r2)) * params.t2
    )
    return float(abs(lhs - s))


def two_stage_binary(eta1: float, s: float, params: TwoStageParams) -> TwoStageResult:
    """Measure, keep the system, then measure the conditional pair optimally.

    Stage one uses individual error rates (r1, r2) and leaves
    post-measurement states with overlap t1 (outcome 1) or t2 (outcome
    2); stage two applies the optimal binary measurement to each
    conditional ensemble.  The combined error can never beat the
    single-shot optimum, and reaches it at the two endpoint
    constructions (optimal first stage with t1 = t2 = 1, or a vacuous
    first stage deferring everything to stage two).
    """
    eta1 = check_prior(eta1)
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValidationError("s must lie in [0, 1]")
    if preservation_residual(s, params) > 1e-10:
        raise InfeasibleSequentialError(
            "stage-one parameters cannot preserve the states' inner product"
        )
    eta2 = 1.0 - eta1
    first_stage_error = eta1 * params.r1 + eta2 * params.r2

    # posterior weight and ensemble behind each outcome
    branches = (
        (eta1 * (1.0 - params.r1) + eta2 * params.r2, eta1 * (1.0 - params.r1), params.t1),
        (eta1 * params.r1 + eta2 * (1.0 - params.r2), eta1 * params.r1, params.t2),
    )
    conditionals = []
    combined = 0.0
    for prob, eta1_joint, t in branches:
        if prob <= NEGLIGIBLE_PROB:
            conditionals.append(None)
            continue
        posterior = min(max(eta1_joint / prob, 0.0), 1.0)
        conditionals.append(gram_binary(abs(t), posterior))
        combined += prob * helstrom_bound(posterior, abs(t))
    return TwoStageResult(
        first_stage_error=first_stage_error,
        conditional_ensembles=tuple(conditionals),
        combined_error=combined,
    )

"""The four benchmark workloads and the independent checks on their results.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Work comes in rounds.  A round has a
fixed mix of operations whose inputs are drawn from the round's random
generator, so a seed fixes every input and the mix does not vary between
runs.

Every result is checked against a reference that does not share the method
under test: closed-form expressions written out here, numpy linear algebra,
the circulant / Gram square-root-measurement oracles for the solvers, and
binomial error bars for the Monte Carlo.  A check returns None when the
result is right, else ``(reason, wrong)``: ``wrong`` is True when the program
returned a result as valid that is outside tolerance, False when it refused
(exception, nonzero exit, ``converged=False``).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qsd
from cli_child import SPANS_MARK

PSK_ALPHA_SQ = (0.05, 20.0)
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple | None]


def refused(reason: str) -> tuple:
    return reason, False


def wrong(reason: str) -> tuple:
    return reason, True


# ---------------------------------------------------------------------------
# inputs


def random_gram(rng, n: int, rank: int) -> np.ndarray:
    """Gram matrix of n random unit vectors in C^rank."""
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    gram = x @ x.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    np.fill_diagonal(gram, 1.0)
    return gram


def random_isometry(rng, rank: int, n: int) -> np.ndarray:
    m = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    q, _ = np.linalg.qr(m)
    return q.conj().T


def draw_priors(rng, n: int, kind: str) -> np.ndarray:
    return np.full(n, 1.0 / n) if kind == "equal" else rng.dirichlet(np.ones(n))


def random_coupling(rng, n: int) -> qsd.CouplingMatrix:
    """Feasible coupling B V of a random full- or half-rank Gram."""
    rank = int(rng.choice([n, max(n // 2, 1)]))
    ens = qsd.Ensemble(n, random_gram(rng, n, rank), draw_priors(rng, n, "dirichlet"))
    return qsd.coupling_from_unitary(ens, random_isometry(rng, rank, n))


def symmetric_coupling(rng, n: int) -> qsd.CouplingMatrix:
    return qsd.symmetric_optimal_coupling(n, float(rng.uniform(0.1, 0.9)))


# ---------------------------------------------------------------------------
# references, written independently of the package


def helstrom(eta1: float, overlap: complex) -> float:
    return 0.5 * (1.0 - math.sqrt(max(1.0 - 4.0 * eta1 * (1.0 - eta1) * abs(overlap) ** 2, 0.0)))


def symmetric_srm_error(n: int, s: float) -> float:
    """Square-root-measurement error of n states with common overlap s.

    The Gram matrix is circulant with eigenvalues 1 + (n-1) s (once) and
    1 - s (n-1 times); the SRM succeeds with ((1/n) sum_k sqrt(lambda_k))^2,
    which is optimal for geometrically uniform states."""
    root_sum = math.sqrt(max(1.0 + (n - 1) * s, 0.0)) + (n - 1) * math.sqrt(max(1.0 - s, 0.0))
    return 1.0 - (root_sum / n) ** 2


def coupling_error(c: np.ndarray, priors: np.ndarray) -> float:
    return 1.0 - float(np.dot(priors, np.abs(np.diag(c)) ** 2))


def feasibility(c: np.ndarray, gram: np.ndarray) -> float:
    return float(np.max(np.abs(c @ c.conj().T - gram)))


def check_optimum(p_error: float, c: np.ndarray, gram: np.ndarray, priors: np.ndarray):
    residual = feasibility(c, gram)
    if residual > 1e-8:
        return wrong(f"feasibility residual {residual:.2e}")
    if abs(p_error - coupling_error(c, priors)) > 1e-10:
        return wrong("p_error disagrees with the coupling's diagonal")
    if np.allclose(priors, priors[0], rtol=0.0, atol=1e-12):
        ref = qsd.srm_error_general(qsd.Ensemble(len(priors), gram, priors))
        if p_error > ref + 1e-9:
            return wrong(f"p_error {p_error:.6e} worse than the SRM {ref:.6e}")
    elif p_error > 1.0 - float(priors.max()) + 1e-10:
        return wrong("p_error worse than always guessing the likeliest state")
    return None


def check_psk(n: int, alpha_sq: float, p_error: float):
    ref = qsd.srm_error_circulant(qsd.gram_psk(n, alpha_sq))
    if abs(p_error - ref) > 1e-8:
        return wrong(f"psk{n} p_error {p_error:.6e} vs circulant SRM {ref:.6e}")
    return None


def check_counts(counts, priors, shots: int, analytic: float, empirical: float):
    """Sampled counts against binomial error bars (6 sigma: a false alarm
    has probability ~2e-9 per test)."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.min() < 0 or int(counts.sum()) != shots:
        return wrong("counts do not add up to the shots")
    if abs(empirical - (1.0 - np.trace(counts) / shots)) > 1e-12:
        return wrong("empirical error disagrees with the counts")
    sigma = math.sqrt(max(analytic * (1.0 - analytic), 1.0 / shots) / shots)
    if abs(empirical - analytic) > 6.0 * sigma:
        return wrong(f"empirical error {empirical:.5f} vs analytic {analytic:.5f}")
    rows = counts.sum(axis=1) / shots
    row_sigma = np.sqrt(np.maximum(priors * (1.0 - priors), 1.0 / shots) / shots)
    if np.any(np.abs(rows - priors) > 6.0 * row_sigma):
        return wrong("input frequencies disagree with the priors")
    return None


def check_report(report, cpl: qsd.CouplingMatrix, shots: int):
    priors = np.asarray(cpl.ensemble.priors)
    analytic = coupling_error(np.asarray(cpl.c), priors)
    if report.shots != shots or abs(report.analytic_error - analytic) > 1e-10:
        return wrong("report disagrees with its inputs")
    return check_counts(report.counts, priors, shots, analytic, report.empirical_error)


def check_dilation(dil, cpl: qsd.CouplingMatrix):
    """Unitarity, state mapping, outcome probabilities and Gram residuals."""
    n = cpl.n
    u = np.asarray(dil.joint_unitary)
    c = np.asarray(cpl.c)
    post = np.asarray(dil.post_states)
    coords = np.asarray(dil.state_coords)
    init = dil.ancilla_init_index
    unitary = float(np.max(np.abs(u.conj().T @ u - np.eye(n * n))))
    # column j: U (state_j (x) e_init); component m*n + k is system m, ancilla k
    mapped = u[:, init::n] @ coords.T
    target = np.einsum("mk,jk->mkj", post, c).reshape(n * n, n)
    amps = np.einsum("mk,mkj->jk", post.conj(), mapped.reshape(n, n, n))
    residuals = {
        "unitary": unitary,
        "map": float(np.max(np.abs(mapped - target))),
        "outcome_prob": float(np.max(np.abs(np.abs(amps) ** 2 - np.abs(c) ** 2))),
        "gram": feasibility(coords, np.asarray(cpl.ensemble.gram)),
    }
    bad = {k: v for k, v in residuals.items() if not v <= 1e-10}
    if bad:
        return wrong(f"dilation residuals above 1e-10: {bad}")
    return None


# ---------------------------------------------------------------------------
# in-process workloads


class Solve:
    """Optimizer calls, about 3/4 optimize_general and 1/4 psk3_solve /
    psk4_solve.  A round has 8 random full-rank Grams drawn from the seed
    (n in {3, 8, 16, 24}, equal or Dirichlet priors), 2 rank-deficient Grams
    (rank n/2 or 2) taken in turn from a fixed corpus, and both PSK solvers
    at 2 intensities.

    The optimizer's time on rank-deficient Grams is heavy-tailed across
    random draws (coefficient of variation 0.8 to 1.7 per stratum), so the
    ~30 such calls that fit in a run made throughput differ by ~20% from
    seed to seed.  They therefore come from a corpus drawn once from a fixed
    seed, without selection, that cycles through all 16 (n, rank, priors)
    strata; its slow and non-converging cases are in every run.  PSK solve
    time varies smoothly with alpha^2, so each run's intensities are a
    systematic sample of the log range [0.05, 20] with a seeded offset,
    visited in seeded order.
    """

    CORPUS_SEED = 171009343
    PER_ROUND = 2  # corpus Grams, and intensities per PSK solver

    def __init__(self, seed: int, rounds: int, smoke: bool = False):
        sizes = (3, 8) if smoke else (3, 8, 16, 24)
        self.seed = seed
        self.full = [(n, prior) for n in sizes for prior in ("equal", "dirichlet")]
        self.deficient = [
            (n, rank, prior)
            for n in sizes
            for rank in sorted({n // 2, 2} - {n}, reverse=True)
            for prior in ("equal", "dirichlet")
        ]
        rng = np.random.default_rng(seed)
        slots = self.PER_ROUND * rounds
        lo, hi = map(math.log, PSK_ALPHA_SQ)
        offset = rng.random()
        self.alpha_sq = [math.exp(lo + (hi - lo) * (i + offset) / slots) for i in rng.permutation(slots)]

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for n, prior in self.full:
            ens = qsd.Ensemble(n, random_gram(rng, n, n), draw_priors(rng, n, prior))
            ops.append(Op(f"optimize n={n} rank={n} {prior}", _optimize(ens), _check_optimize(ens)))
        for k in range(self.PER_ROUND * r, self.PER_ROUND * (r + 1)):
            n, rank, prior = self.deficient[k % len(self.deficient)]
            corpus = np.random.default_rng([self.CORPUS_SEED, k])
            ens = qsd.Ensemble(n, random_gram(corpus, n, rank), draw_priors(corpus, n, prior))
            ops.append(Op(f"optimize n={n} rank={rank} {prior} corpus#{k}", _optimize(ens), _check_optimize(ens)))
        for alpha_sq in self.alpha_sq[self.PER_ROUND * r : self.PER_ROUND * (r + 1)]:
            for n in (3, 4):
                ops.append(Op(f"psk{n} alpha_sq={alpha_sq:.3g}", _psk(n, alpha_sq), _check_psk(n, alpha_sq)))
        rng.shuffle(ops)
        return ops


def _optimize(ens):
    return lambda: qsd.optimize_general(ens)


def _check_optimize(ens):
    def check(res):
        if not res.converged:
            return refused("converged=False")
        return check_optimum(res.p_error, np.asarray(res.coupling.c), np.asarray(ens.gram), np.asarray(ens.priors))

    return check


def _psk(n, alpha_sq):
    return lambda: (qsd.psk3_solve if n == 3 else qsd.psk4_solve)(alpha_sq)


def _check_psk(n, alpha_sq):
    return lambda out: check_psk(n, alpha_sq, out[1])


class Dilation:
    """Explicit dilations of feasible couplings, n from 8 to 24: either
    build_dilation alone or run_monte_carlo at exactly 10^6 shots, which
    builds the dilation to verify the coupling before sampling.

    A round has both operations at n = 8, 12, 16, 20 and one of them, in
    turn, at n = 24, which alone costs as much as the rest of the round.
    Each size gets one closed-form symmetric and one random coupling.  The
    nine latencies of a round are well apart, so the median falls inside the
    n = 16 build_dilation cluster rather than between two clusters.
    """

    SHOTS = 1_000_000

    def __init__(self, seed: int, rounds: int, smoke: bool = False):
        self.seed = seed
        self.sizes = (3, 4) if smoke else (8, 12, 16, 20, 24)

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for n in self.sizes:
            make = [symmetric_coupling, random_coupling]
            rng.shuffle(make)
            kinds = ("build", "mc") if n != self.sizes[-1] else (("build", "mc")[(self.seed + r) % 2],)
            for kind, maker in zip(kinds, make):
                cpl = maker(rng, n)
                if kind == "build":
                    ops.append(Op(f"build_dilation n={n}", _build(cpl), _check_build(cpl)))
                else:
                    ops.append(Op(f"monte_carlo n={n} shots=1e6", _mc(cpl, self.SHOTS, rng), _check_mc(cpl, self.SHOTS)))
        rng.shuffle(ops)
        return ops


def _build(cpl):
    return lambda: qsd.build_dilation(cpl)


def _check_build(cpl):
    return lambda dil: check_dilation(dil, cpl)


def _mc(cpl, shots, rng):
    seed = int(rng.integers(2**63))
    return lambda: qsd.run_monte_carlo(cpl, shots, seed)


def _check_mc(cpl, shots):
    return lambda report: check_report(report, cpl, shots)


class Sample:
    """Monte Carlo without the dilation: 999,999 shots (one below the
    10^6 threshold that triggers it) on n in {2, 4, 16, 64}, plus 10^4 and
    10^5-shot calls so the per-call fixed cost shows.

    A round also has two more 10^4-shot calls at rotating sizes and three
    more 10^5-shot calls at n = 2 or 4.  Latencies grow with shots and then
    with n, so a round's 17 operations sort into six 10^4-shot calls, five
    10^5-shot calls at n <= 4 (whose times are alike) and six longer ones:
    the median is the middle of those five, not the edge of a cluster,
    where it would move with the cluster's width from run to run."""

    SHOTS = (999_999, 100_000, 10_000)

    def __init__(self, seed: int, rounds: int, smoke: bool = False):
        self.seed = seed
        self.sizes = (2, 4) if smoke else (2, 4, 16, 64)

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        calls = [(n, shots) for n in self.sizes for shots in self.SHOTS]
        k = len(self.sizes)
        calls += [(self.sizes[r % k], 10_000), (self.sizes[(r + 2) % k], 10_000)]
        calls += [(2, 100_000), (4, 100_000), ((2, 4)[r % 2], 100_000)]
        ops = []
        for n, shots in calls:
            if n == 2:
                overlap = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                cpl = qsd.binary_optimal_coupling(float(rng.uniform(0.2, 0.8)), complex(overlap))
            else:
                cpl = (symmetric_coupling if rng.random() < 0.5 else random_coupling)(rng, n)
            ops.append(Op(f"monte_carlo n={n} shots={shots}", _mc(cpl, shots, rng), _check_mc(cpl, shots)))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# command line


class Cli:
    """A seeded rotation of the seven subcommands, each a fresh
    ``python -m qsd`` process on small inputs.  In a traced run the process
    is ``cli_child.py``, which records spans inside the command.

    Most commands take about the interpreter's start-up time whatever
    their input, but ``optimize`` on a rank-2 Gram and ``psk --n 4`` at
    small alpha^2 can take 2-3 times as long.  With 28 commands in a run,
    how many of those a seed drew moved a run's throughput and tail, so,
    as in ``Solve``, the slow inputs are stratified: ``optimize`` takes a
    full-rank Gram drawn from the seed and a rank-2 Gram from a fixed
    corpus in turn, and ``psk`` alternates n = 3 and 4, each at a
    systematic sample of the log alpha^2 range with a seeded offset.
    """

    def __init__(self, seed: int, rounds: int, root: str, workdir: str, env: dict, tracer=None):
        self.seed, self.root, self.workdir, self.env, self.tracer = seed, root, workdir, env, tracer
        self.stdout_bytes = 0
        self.files = 0
        rng = np.random.default_rng([seed, rounds])
        slots = (rounds + 1) // 2
        lo, hi = map(math.log, PSK_ALPHA_SQ)
        # per PSK size, one intensity per round that uses that size
        self.alpha_sq = {
            n: [math.exp(lo + (hi - lo) * (i + rng.random()) / slots) for i in rng.permutation(slots)]
            for n in (3, 4)
        }

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = [
            self._bound(rng),
            self._symmetric(rng),
            self._psk(r),
            self._optimize(rng, r),
            self._simulate(rng),
            self._dilation(rng),
            self._sweep(rng),
        ]
        rng.shuffle(ops)
        return ops

    def _op(self, kind: str, argv: list[str], check) -> Op:
        def run():
            head = [CHILD] if self.tracer else ["-m", "qsd"]
            proc = subprocess.run(
                [sys.executable, *head, *argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=170,
            )
            if self.tracer and SPANS_MARK in proc.stderr:
                proc.stderr, _, spans = proc.stderr.rpartition(SPANS_MARK)
                self.tracer.adopt(json.loads(spans))
            self.stdout_bytes += len(proc.stdout.encode())
            return proc

        def checked(proc: subprocess.CompletedProcess):
            if proc.returncode != 0:
                return refused(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            try:
                return check(proc.stdout)
            except (ValueError, KeyError, TypeError) as exc:
                return wrong(f"unreadable output: {exc!r}")

        return Op(kind, run, checked)

    def _bound(self, rng) -> Op:
        eta1 = float(rng.uniform(0.05, 0.95))
        overlap = complex(rng.uniform(0.0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        argv = ["bound", f"--eta1={eta1!r}", f"--overlap-re={overlap.real!r}", f"--overlap-im={overlap.imag!r}"]

        def check(out):
            out = json.loads(out)
            ref = helstrom(eta1, overlap)
            if abs(out["p_error"] - ref) > 1e-12:
                return wrong(f"bound {out['p_error']!r} vs Helstrom {ref!r}")
            if abs(eta1 * out["r1"] + (1 - eta1) * out["r2"] - ref) > 1e-12:
                return wrong("r1, r2 do not average to the bound")
            return None

        return self._op("cli bound", argv, check)

    def _symmetric(self, rng) -> Op:
        n = int(rng.integers(2, 7))
        s = float(rng.uniform(-0.9 / (n - 1), 0.95))
        argv = ["symmetric", "--n", str(n), f"--s={s!r}", "--emit-coupling"]

        def check(out):
            out = json.loads(out)
            ref = symmetric_srm_error(n, s)
            if abs(out["p_error"] - ref) > 1e-12:
                return wrong(f"symmetric {out['p_error']!r} vs SRM {ref!r}")
            c = parse_matrix(out["coupling"]["c"])
            gram = np.full((n, n), s, dtype=complex)
            np.fill_diagonal(gram, 1.0)
            return check_optimum(out["p_error"], c, gram, np.full(n, 1.0 / n))

        return self._op(f"cli symmetric n={n}", argv, check)

    def _psk(self, r: int) -> Op:
        n = 3 + r % 2
        alpha_sq = self.alpha_sq[n][r // 2]
        argv = ["psk", "--n", str(n), "--alpha-sq", repr(alpha_sq)]
        return self._op(
            f"cli psk n={n} alpha_sq={alpha_sq:.3g}",
            argv,
            lambda out: check_psk(n, alpha_sq, json.loads(out)["p_error"]),
        )

    def _optimize(self, rng, r: int) -> Op:
        if r % 2 == 0:
            n = int(rng.integers(3, 7))
            rank = n
            priors = draw_priors(rng, n, str(rng.choice(["equal", "dirichlet"])))
        else:
            # the (n, priors) strata in turn, inputs from a seed-independent corpus
            n, prior = (3, 4, 5, 6)[(r // 2) % 4], ("equal", "dirichlet")[(r // 8) % 2]
            rank, rng = 2, np.random.default_rng([Solve.CORPUS_SEED, 1, r])
            priors = draw_priors(rng, n, prior)
        gram = random_gram(rng, n, rank)
        path = os.path.join(self.workdir, f"gram{self.files}.json")
        self.files += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "gram", "matrix": matrix_json(gram), "priors": list(priors)}, fh)
        argv = ["optimize", "--ensemble", path, "--emit-coupling"]

        def check(out):
            out = json.loads(out)
            if not out["converged"]:
                return refused("converged=False")
            c = parse_matrix(out["coupling"]["c"])
            return check_optimum(out["p_error"], c, gram, priors)

        return self._op(f"cli optimize n={n} rank={rank}", argv, check)

    def _simulate(self, rng) -> Op:
        shots = 100_000
        if rng.random() < 0.5:
            n, s = int(rng.integers(2, 5)), float(rng.uniform(0.1, 0.9))
            ensemble = {"kind": "symmetric", "n": n, "s": s}
            priors, analytic = np.full(n, 1.0 / n), symmetric_srm_error(n, s)
        else:
            eta1 = float(rng.uniform(0.2, 0.8))
            overlap = complex(rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            ensemble = {"kind": "binary", "overlap": {"re": overlap.real, "im": overlap.imag}, "eta1": eta1}
            priors, analytic = np.array([eta1, 1.0 - eta1]), helstrom(eta1, overlap)
        argv = ["simulate", "--ensemble", json.dumps(ensemble), "--shots", str(shots), "--seed", str(int(rng.integers(2**63)))]

        def check(out):
            out = json.loads(out)
            if abs(out["analytic_error"] - analytic) > 1e-10:
                return wrong(f"analytic error {out['analytic_error']!r} vs {analytic!r}")
            return check_counts(out["counts"], priors, shots, analytic, out["empirical_error"])

        return self._op(f"cli simulate {ensemble['kind']}", argv, check)

    def _dilation(self, rng) -> Op:
        n = int(rng.integers(3, 7))
        if rng.random() < 0.5:
            ensemble = {"kind": "symmetric", "n": n, "s": float(rng.uniform(0.1, 0.9))}
        else:
            gram = random_gram(rng, n, n)
            ensemble = {"kind": "gram", "matrix": matrix_json(gram), "priors": [1.0 / n] * n}
        argv = ["dilation", "--ensemble", json.dumps(ensemble), "--check"]

        def check(out):
            # the joint unitary stays inside the process; the dilation
            # workload recomputes these residuals independently
            out = json.loads(out)
            residuals = {k: v for k, v in out.items() if k.endswith("_residual")}
            if out["system_dim"] != n or len(residuals) != 4 or not out["ok"]:
                return wrong(f"dilation payload {out}")
            if max(residuals.values()) > 1e-10:
                return wrong(f"dilation residuals {residuals}")
            return None

        return self._op(f"cli dilation {ensemble['kind']} n={n}", argv, check)

    def _sweep(self, rng) -> Op:
        ns, steps = (2, 3, 4), 9
        lo, hi = float(rng.uniform(-0.3, 0.0)), float(rng.uniform(0.5, 0.99))
        argv = [
            "sweep", "--family", "symmetric", "--n", ",".join(map(str, ns)), "--axis", "s",
            f"--min={lo!r}", f"--max={hi!r}", "--steps", str(steps), "--outputs", "closed_form,srm_oracle",
        ]

        def check(out):
            lines = out.strip().split("\n")
            if len(lines) != 1 + len(ns) * steps:
                return wrong(f"sweep printed {len(lines)} lines")
            for line in lines[1:]:
                _, n, _, value, closed, srm, _ = line.split(",")
                ref = symmetric_srm_error(int(n), float(value))
                if max(abs(float(closed) - ref), abs(float(srm) - ref)) > 1e-10:
                    return wrong(f"sweep row {line!r} vs SRM {ref!r}")
            return None

        return self._op("cli sweep", argv, check)


def matrix_json(m: np.ndarray) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]


def parse_matrix(rows) -> np.ndarray:
    return np.array([[complex(z["re"], z["im"]) for z in row] for row in rows])

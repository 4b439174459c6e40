"""qsd benchmark: one closed-loop workload, its end-to-end or per-layer metrics.

    python3 qsdbench/run.py --workload {cli,solve,dilation,sample} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout (the directory holding ``src/qsd``).
The package is used from ``src``; nothing is installed.

``--seconds`` sets how much work a run does: the number of rounds is
``seconds`` divided by the workload's nominal round time, measured on the
reference machine (see NOTES.md).  Both commits of a comparison therefore
run identical inputs for a seed.

Operation times are scaled to the reference machine's idle speed by a calibration kernel timed between operations
(``SpeedProbe``); raw times are kept in the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
rounds untraced, then the same rounds again with spans around every layer
call, and prints per-layer metrics: additive ones per round, plus the
ops/s of both halves so the tracing overhead shows.

Human-readable lines come first; the last line of stdout is the JSON
result.  A copy with the run environment, failures and sample counts is
written to ``qsdbench/results/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# nominal seconds per round on the reference machine (2-core Xeon)
ROUND_SECONDS = {"cli": 5.0, "solve": 1.0, "dilation": 4.4, "sample": 0.6}

SETUP_SPAWNS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t, flush=True)"
# spawn -> "import numpy" returned on the idle reference machine (2-vCPU Xeon)
NUMPY_SPAWN_REFERENCE_S = 0.18


def eigh_kernel():
    """Small dense Hermitian eigendecompositions and a Python loop: the
    optimizers' kind of work."""
    import numpy as np

    rng = np.random.default_rng(0)
    h = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    h = h + h.conj().T

    def run():
        for _ in range(6):
            w, v = np.linalg.eigh(h)
            v = (v * w) @ v.conj().T
        total = 0
        for i in range(2000):
            total += i * i

    return run


def array_kernel():
    """Uniform draws compared with cumulative probabilities and binned, on
    64k-element arrays: memory-bound elementwise numpy work."""
    import numpy as np

    rng = np.random.default_rng(0)
    u = rng.random(65536)
    cum = np.cumsum(rng.random(4)) / 2

    def run():
        for _ in range(3):
            np.bincount((u[:, None] > cum[None, :]).sum(axis=1), minlength=5)

    return run


class SpeedProbe:
    """Machine speed, from a fixed calibration kernel timed between operations.

    On the shared 2-vCPU reference machine, co-tenant load slows the
    benchmark by up to 2x for seconds to minutes at a time, in CPU time as
    well as in wall time, and whole runs speed up or slow down with it.
    ``factor()`` is the kernel's time on the idle reference machine over
    the median of its last ``window`` times in this run; multiplying a time
    by it gives the time at the reference speed.  The kernel does not call
    qsd, so a change to the program moves the scaled times as much as the
    raw ones.

    Which kernel tracks a workload was measured (IQR / median of a metric
    over 5 seeds, raw -> scaled):

    - ``solve`` (optimizer calls on the benchmark's thread): ``eigh_kernel``
      over 15 samples took ops/s from 0.23-0.29 to 0.04-0.05;
      ``array_kernel`` over 5 samples did worse (0.07; p50 0.09).
    - ``cli`` (fresh processes), ``sample`` (Monte Carlo on worker
      threads) and ``dilation`` (threaded BLAS): ``array_kernel`` over 5
      samples took ``cli``'s p50 from 0.11 to 0.04, ``sample``'s ops/s
      from 0.08 to 0.02 and ``dilation``'s tail from 0.10 to 0.04 (its
      ops/s 0.04 -> 0.06); ``eigh_kernel`` over 15 samples had widened
      ``cli``'s ops/s (0.12 -> 0.27) and ``dilation``'s (0.05 -> 0.17).
    """

    MIN_GAP_S = 0.1  # between samples, to keep the overhead low

    def __init__(self, kernel, reference_s: float, window: int):
        self._kernel = kernel()
        self._reference_s = reference_s
        self._recent = collections.deque(maxlen=window)
        self._last = -math.inf
        self.factors = []
        for _ in range(5):
            self.sample(force=True)

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < self.MIN_GAP_S:
            return
        start = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self._recent.append(self._last - start)

    def factor(self) -> float:
        self.sample()
        f = self._reference_s / statistics.median(self._recent)
        self.factors.append(f)
        return f


# per workload, the SpeedProbe that scales its times: kernel, the kernel's time
# on the idle reference machine (2-vCPU Xeon), samples in the rolling median
PROBES = {
    "solve": (eigh_kernel, 1.1e-3, 15),
    "cli": (array_kernel, 7.8e-3, 5),
    "sample": (array_kernel, 7.8e-3, 5),
    "dilation": (array_kernel, 7.8e-3, 5),
}


def spawn_import(module: str, env: dict, root: str) -> tuple[float, float]:
    """Time a fresh interpreter from spawn to ``import module`` returned,
    and the import alone as measured inside it."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", IMPORT_PROBE.format(module)], cwd=root, env=env, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    wall = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or not line.strip():
        raise RuntimeError(f"a fresh interpreter could not import {module}")
    return wall, float(line)


def measure_setup(env: dict, root: str) -> dict:
    """Set-up time: spawn -> ``import qsd`` returned, in fresh interpreters.

    Each qsd spawn is paired with a spawn that imports only numpy, a cost
    the program cannot change, and the set-up time is the median of
    ``qsd / numpy`` times the numpy spawn's time on the idle reference
    machine.  Interpreter start and imports slow down with co-tenant load
    on the reference machine: the medians of 10 raw runs drifted by 27 % between two
    sets of runs ten minutes apart.  Within a minute the ratio varied half
    as much as the raw time; over 20 minutes it still drifted by ~20 %,
    against ~30 % raw.  Raw times are kept in the result file.
    """
    qsd_s, numpy_s, import_s = [], [], []
    for _ in range(SETUP_SPAWNS):
        wall, inner = spawn_import("qsd", env, root)
        qsd_s.append(wall)
        import_s.append(inner)
        numpy_s.append(spawn_import("numpy", env, root)[0])
    ratio = statistics.median(q / r for q, r in zip(qsd_s, numpy_s))
    return {"setup_s": ratio * NUMPY_SPAWN_REFERENCE_S, "qsd_s": qsd_s, "numpy_s": numpy_s, "import_s": import_s}


def run_rounds(workload, rounds: int, probe: SpeedProbe | None = None, tracer=None) -> dict:
    """Run ``rounds`` rounds; return latencies (scaled by ``probe`` when
    given, raw otherwise) and the failures."""
    raw, latencies, failures, wrong = [], [], [], 0
    for r in range(rounds):
        for op in workload.round(r):
            op_id = len(raw)
            if tracer:
                tracer.op = op_id
                span = tracer.begin("op")
            start = time.perf_counter()
            try:
                result, outcome = op.run(), None
            except Exception as exc:  # any exception is a failed operation
                outcome = (f"{type(exc).__name__}: {exc}", False)
            raw.append(time.perf_counter() - start)
            if tracer:
                tracer.end(span, kind=op.kind)
            latencies.append(raw[-1] * (probe.factor() if probe else 1.0))
            if outcome is None:
                outcome = op.check(result)
            if tracer:
                tracer.op = None
            if outcome is not None:
                failures.append({"op": op_id, "kind": op.kind, "reason": outcome[0], "wrong": outcome[1]})
                wrong += outcome[1]
    return {"raw": raw, "latencies": latencies, "failures": failures, "wrong": wrong}


def ops_per_s(res: dict) -> float:
    return len(res["latencies"]) / sum(res["latencies"])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value
    (the 11th largest sample)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb(workload: str) -> float:
    # cli work happens in child processes; the largest waited-for child wins
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(spans: list, rounds: int, import_s: list[float], factor: float) -> dict:
    """Per-layer values from the traced pass; times are scaled by the
    pass's median speed factor."""
    from tracing import self_times

    own = [t * factor for t in self_times(spans)]
    calls, self_s = {}, {}
    for span, t in zip(spans, own):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + t
    opt = [s[5] for s in spans if s[0] == "optimizer.optimize_general" and "restarts" in s[5]]
    mc = [(s, t) for s, t in zip(spans, own) if s[0] == "simulate.run_monte_carlo" and "shots" in s[5]]
    shots = sum(s[5]["shots"] for s, _ in mc)
    mc_wall = factor * sum(s[2] - s[1] for s, _ in mc)

    def per_round(table, name):
        return table.get(name, 0) / rounds

    def mean(key):
        return sum(f[key] for f in opt) / len(opt) if opt else 0.0

    return {
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.main.self_s": (per_round(self_s, "cli.main"), "s"),
        "serialize.dumps.self_s": (per_round(self_s, "serialize.dumps"), "s"),
        "optimizer.optimize_general.calls": (per_round(calls, "optimizer.optimize_general"), "count"),
        "optimizer.optimize_general.self_s": (per_round(self_s, "optimizer.optimize_general"), "s"),
        "optimizer.optimize_general.restarts": (mean("restarts"), "count"),
        "optimizer.optimize_general.converged_ratio": (mean("converged"), "ratio"),
        "optimizer.optimize_general.trace_len": (mean("trace_len"), "count"),
        "optimizer.psk_solve.calls": (per_round(calls, "optimizer.psk_solve"), "count"),
        "optimizer.psk_solve.self_s": (per_round(self_s, "optimizer.psk_solve"), "s"),
        "optimizer.psk_solve.failed": (
            sum(1 for s in spans if s[0] == "optimizer.psk_solve" and s[5].get("failed")) / rounds,
            "count",
        ),
        "ensembles.Ensemble.self_s": (per_round(self_s, "ensembles.Ensemble"), "s"),
        "ensembles.spectral_factor.calls": (per_round(calls, "ensembles.spectral_factor"), "count"),
        "ensembles.spectral_factor.self_s": (per_round(self_s, "ensembles.spectral_factor"), "s"),
        "coupling.build_dilation.calls": (per_round(calls, "coupling.build_dilation"), "count"),
        "coupling.build_dilation.self_s": (per_round(self_s, "coupling.build_dilation"), "s"),
        "coupling.feasibility_residual.self_s": (per_round(self_s, "coupling.feasibility_residual"), "s"),
        "simulate.sample.self_s": (factor * sum(s[5]["elapsed"] for s, _ in mc) / rounds, "s"),
        "simulate.verify.self_s": (sum(t - factor * s[5]["elapsed"] for s, t in mc) / rounds, "s"),
        "simulate.shots": (shots / rounds, "count"),
        "simulate.shots_per_s": (shots / mc_wall if mc_wall else 0.0, "1/s"),
        "closed_form.oracle.calls": (per_round(calls, "closed_form.oracle"), "count"),
        "closed_form.oracle.self_s": (per_round(self_s, "closed_form.oracle"), "s"),
    }


def environment(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "QSD_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in threads},
        "git_commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qsd", "__init__.py")):
        print(f"error: no qsd sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = {**os.environ, "PYTHONPATH": src}

    setup = measure_setup(env, root)
    probe = SpeedProbe(*PROBES[args.workload])

    import tracing
    import workloads

    rounds = 1 if args.smoke else max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    if args.trace and not args.smoke:
        rounds = max(1, rounds // 2)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    with tempfile.TemporaryDirectory(prefix=".qsdbench-", dir=root) as workdir:

        def make(tracer=None):
            if args.workload == "cli":
                return workloads.Cli(args.seed, rounds, root, workdir, env, tracer)
            cls = {"solve": workloads.Solve, "dilation": workloads.Dilation, "sample": workloads.Sample}
            return cls[args.workload](args.seed, rounds, args.smoke)

        res = run_rounds(make(), rounds, probe)
        if args.trace:
            tracer = tracing.Tracer()
            untraced_factors = len(probe.factors)
            restore = tracing.instrument(tracer)
            try:
                traced_workload = make(tracer)
                traced = run_rounds(traced_workload, rounds, probe, tracer)
            finally:
                restore()

    n = len(res["latencies"])
    failed = len(res["failures"])
    if args.trace:
        factor = statistics.median(probe.factors[untraced_factors:])
        metrics = layer_metrics(tracer.spans, rounds, setup["import_s"], factor)
        metrics["cli.stdout_bytes"] = (getattr(traced_workload, "stdout_bytes", 0) / rounds, "bytes")
        metrics["bench.ops_per_s_untraced"] = (ops_per_s(res), "1/s")
        metrics["bench.ops_per_s_traced"] = (ops_per_s(traced), "1/s")
        n += len(traced["latencies"])
        failed += len(traced["failures"])
        failures = res["failures"] + [{**f, "kind": f"{f['kind']} (traced)"} for f in traced["failures"]]
    else:
        pct, tail_s = tail(res["latencies"])
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "ops_per_s": (ops_per_s(res), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(res["latencies"]), "ms"),
            "latency_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        }
        failures = res["failures"]
    wrong = res["wrong"] + (traced["wrong"] if args.trace else 0)

    samples = {"setup_s": SETUP_SPAWNS, "ops": len(res["latencies"]), "rounds": rounds}
    print(f"qsdbench {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} ops={n}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  failed_frac {failed / n:.4g} ({failed} of {n}; {wrong} wrong results)")
    if not args.trace:
        print(f"  latency_tail_ms is p{pct:.2f} of {len(res['latencies'])} samples; setup_s is from {SETUP_SPAWNS} spawn pairs")
    for f in failures[:20]:
        print(f"  failed op {f['op']} [{f['kind']}]: {f['reason'][:160]}")

    result = {
        "correct": wrong == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "samples": samples,
        "latency_tail_percentile": None if args.trace else pct,
        "speed_factor_median": statistics.median(probe.factors),
        "latencies_s": res["latencies"],
        "raw_latencies_s": res["raw"],
        "setup_spawns_s": {"qsd": setup["qsd_s"], "numpy": setup["numpy_s"]},
        "failures": failures,
        "environment": environment(root, args.seed),
    }
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A/B the benchmark harness: a parent commit against the working tree.

    python tools/ab.py --parent <rev> --workload W [--workload W ...] \
        --seeds A-B --seconds S [--smoke]

The parent's committed files are exported with ``git archive`` into a
temporary directory (no network).  For each workload and each seed k in
A..B, ``python3 qsdbench/run.py --workload W --seed k --seconds S --trace 0``
runs once in that export and once in the working tree, one run at a time,
the parent first on odd seeds.  On the first seed a ``--trace 1`` run of
each side follows, in the same order, for the per-layer values.  Each
side's ``src/**/__pycache__`` is deleted before each of its runs: the
harness's ``setup_s`` times fresh interpreters importing qsd, and a
bytecode cache left by an earlier run or a test session would make it
read faster on one side than on the other.

The result is written to ``BENCH_<parent short sha>.json`` at the
checkout root: per workload its seeds, every run, and per end-to-end
metric of ``BENCHMARK.json`` the medians and quartiles of both sides and
the number of seed pairs in which the change is better (ties count for
neither side), and under ``per_layer`` the traced pair's values of both
sides, whose change / parent ratios it prints.  ``per_layer`` also holds,
under ``self_s_share``, each ``*.self_s`` layer as a share of its side's
summed ``*.self_s``, with their ratios printed beside the raw ones: the
harness scales a traced run's self times by one speed factor per run,
which moves every raw value together (up to 1.65x for unchanged code)
but cancels in a share.  For each end-to-end metric it also prints
whether the change won at least 9 of 10 pairs and whether the medians
differ, in the metric's better direction, by more than the parent's
interquartile range; and, against the metric's ``bound`` in
``BENCHMARK.json``, how much worse the change's median is than the
parent's, relative to it, with one of ``ok``, ``REGRESSED`` or
``unresolved`` (the parent's runs spread by more than the bound, and not
every change run beats every parent run).

    python tools/ab.py --parent <rev> --in-process --workload W [...] \
        --seeds A-B --seconds S [--smoke]

``--in-process`` compares the two trees inside one interpreter instead,
for the library workloads (``solve``, ``dilation``, ``sample``).  The
parent's ``src/qsd`` is loaded three times and the working tree's once,
side by side, each as its own package
(``importlib.util.spec_from_file_location`` with
``submodule_search_locations``; qsd's modules import each other
relatively), and the working tree's ``qsdbench/workloads.py``, unmodified,
is bound to each.  For each seed the four make the same rounds from the
same inputs (``run.py``'s number of rounds for ``--seconds``).  Every
operation runs once untimed on the third parent copy, so that no timed run
is the first of its kind in the caches (that run took 11 % longer than the
next on ``dilation``), then on the parent, the second parent copy and the
change in turn, the order rotating through the six permutations, with its
wall time and its thread's CPU time recorded; each timed result is
checked, untimed, by the workload's own check.  Per workload and
clock it prints the median of the per-operation ratios change / parent,
with the order statistics that bracket that median with at least 90 %
confidence (the 5-95 % interval, distribution-free), and the same for the
parent's second copy against the first: the null, whose interval shows
what identical code reads.  CPU time is the calling thread's, so the
work of BLAS threads and of ``sample``'s Monte Carlo workers is missing
from it.  Nothing is pinned and no machine setting is changed.  The
result goes to ``BENCH_<parent short sha>_in_process.json``: these
summaries and the failed operations per side, not the per-operation
times.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: pathlib.Path) -> None:
    """The committed files of sha, unpacked into dest."""
    archive = dest.with_suffix(".tar")
    git("archive", "--format=tar", f"--output={archive}", sha)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: float, smoke: bool, trace: int = 0) -> dict:
    """One harness run in root, after deleting its source bytecode;
    returns the harness's result file."""
    for cache in (root / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    cmd = [sys.executable, "qsdbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    name = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    with open(root / "qsdbench" / "results" / name, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the seed pairs in
    which the change is better."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
    pairs = list(by_seed.values())
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        out[name] = {
            "parent_median": statistics.median(parent),
            "parent_quartiles": quartiles(parent),
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def verdicts(summary: dict, metrics: list[dict], runs: list[dict]) -> list[str]:
    """Two lines per metric: the gain check (9 of 10 pairs, median gain
    beyond the parent's IQR) and the no-regression check against the
    metric's ``bound``.  The latter reads ``ok``, ``REGRESSED`` when the
    change's median is worse than the parent's by more than the bound
    (relative), or ``unresolved`` when the parent's IQR exceeds the bound
    times its median, unless every change run beats every parent run."""
    lines = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        s = summary[name]
        sign = 1 if m["better"] == "higher" else -1
        gain = sign * (s["change_median"] - s["parent_median"])
        iqr = s["parent_quartiles"][1] - s["parent_quartiles"][0]
        wins = s["change_better_pairs"] >= 0.9 * s["pairs"]
        # relative to the parent's median; a median of 0 gives NaN, which
        # reads as unresolved
        scale = abs(s["parent_median"]) or math.nan
        worse, spread = -gain / scale, iqr / scale
        side = {k: [sign * r["metrics"][name] for r in runs if r["side"] == k] for k in ("parent", "change")}
        if min(side["change"]) > max(side["parent"]):
            check = "ok"
        elif not spread <= bound:
            check = "unresolved"
        else:
            check = "REGRESSED" if worse > bound else "ok"
        lines.append(
            f"  {name:16s} parent {s['parent_median']:.6g} {fmt(s['parent_quartiles'])}"
            f"  change {s['change_median']:.6g} {fmt(s['change_quartiles'])}"
            f"  better in {s['change_better_pairs']}/{s['pairs']} pairs (>= 9/10: {yes(wins)})"
            f"  median gain {gain:.4g} vs parent IQR {iqr:.4g} ({yes(gain > iqr)})"
        )
        lines.append(
            f"  {'':16s} median worse by {worse:+.2%} (bound {bound:.0%},"
            f" parent IQR {spread:.2%} of median): {check}"
        )
    return lines


def fmt(q: list[float]) -> str:
    return f"[{q[0]:.6g}, {q[1]:.6g}]"


def yes(flag: bool) -> str:
    return "yes" if flag else "no"


def self_s_shares(layers: dict) -> dict:
    """Each ``*.self_s`` value of one traced run as a share of their sum."""
    self_s = {name: value for name, value in layers.items() if name.endswith(".self_s")}
    total = sum(self_s.values())
    return {name: value / total if total else 0.0 for name, value in self_s.items()}


def layer_ratios(parent_layers: dict, change_layers: dict) -> list[str]:
    lines = []
    for name, parent in parent_layers.items():
        change = change_layers[name]
        ratio = f"{change / parent:.3f}" if parent else "-"
        lines.append(f"  {name:44s} parent {parent:.6g}  change {change:.6g}  ratio {ratio}")
    return lines


IN_PROCESS_SIDES = ("parent", "null", "change")
IN_PROCESS_WORKLOADS = {"solve": "Solve", "dilation": "Dilation", "sample": "Sample"}


def load_tree(src: pathlib.Path, name: str):
    """The qsd package under src, imported as the package ``name``."""
    init = src / "qsd" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def bind_workloads(package):
    """qsdbench/workloads.py as a module of its own whose ``import qsd``
    finds package."""
    name = f"workloads_{package.__name__}"
    spec = importlib.util.spec_from_file_location(name, ROOT / "qsdbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    sys.modules["qsd"] = package
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["qsd"]
    return module


def median_ranks(n: int) -> tuple[int, int]:
    """0-based ranks of the order statistics of n samples that bracket
    their median with at least 90 % confidence: the l-th smallest and the
    l-th largest, l the largest with P(Binomial(n, 1/2) <= l - 1) <= 5 %
    (l = 1 when even the extremes fall short, below 5 samples)."""
    cdf = term = 1  # P(B <= k) * 2**n, and C(n, k), at k = 0
    k = 0
    while 20 * cdf <= 2**n:
        term = term * (n - k) // (k + 1)
        cdf += term
        k += 1
    lo = max(k - 1, 0)
    return lo, n - 1 - lo


def ratio_summary(parent: list[float], other: list[float]) -> dict:
    ratios = sorted(o / p for p, o in zip(parent, other))
    lo, hi = median_ranks(len(ratios))
    return {"median": statistics.median(ratios), "interval": [ratios[lo], ratios[hi]], "pairs": len(ratios)}


def run_in_process(workloads: dict, workload: str, seeds: list[int], rounds: int, smoke: bool) -> dict:
    """Every operation of ``rounds`` rounds per seed: once untimed on the
    ``warm`` side, then timed on each side in turn.  Returns the number of
    operations and, per side, the failed ones and the wall and thread CPU
    times."""
    orders = list(itertools.permutations(IN_PROCESS_SIDES))
    times = {side: {"wall": [], "cpu": []} for side in IN_PROCESS_SIDES}
    failed = dict.fromkeys(IN_PROCESS_SIDES, 0)
    count = 0
    for seed in seeds:
        made = {side: getattr(mod, IN_PROCESS_WORKLOADS[workload])(seed, rounds, smoke) for side, mod in workloads.items()}
        for r in range(rounds):
            ops = {side: w.round(r) for side, w in made.items()}
            for same in zip(*ops.values()):
                same = dict(zip(ops, same))
                if len({op.kind for op in same.values()}) != 1:
                    raise RuntimeError(f"the sides made different operations: {[op.kind for op in same.values()]}")
                count += 1
                try:
                    same["warm"].run()
                except Exception:  # the timed runs count failures
                    pass
                for side in orders[count % len(orders)]:
                    op = same[side]
                    wall, cpu = time.perf_counter(), time.thread_time()
                    try:
                        result, outcome = op.run(), None
                    except Exception as exc:  # any exception is a failed operation
                        outcome = (f"{type(exc).__name__}: {exc}", False)
                    cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
                    times[side]["wall"].append(wall)
                    times[side]["cpu"].append(cpu)
                    if outcome is None:
                        outcome = op.check(result)
                    failed[side] += outcome is not None
    return {"ops": count, "failed": failed, "times": times}


def in_process(args, parent_root: pathlib.Path) -> dict:
    """The ``--in-process`` comparison of every requested workload."""
    sys.path.insert(0, str(ROOT / "qsdbench"))
    from run import ROUND_SECONDS

    trees = {side: parent_root / "src" for side in ("parent", "null", "warm")} | {"change": ROOT / "src"}
    bound = {side: bind_workloads(load_tree(src, f"qsd_ab_{side}")) for side, src in trees.items()}
    results = {}
    for workload in args.workload:
        rounds = 1 if args.smoke else max(1, round(args.seconds / ROUND_SECONDS[workload]))
        rec = run_in_process(bound, workload, args.seeds, rounds, args.smoke)
        times = rec.pop("times")
        rec["summary"] = {
            clock: {other: ratio_summary(times["parent"][clock], times[other][clock]) for other in ("change", "null")}
            for clock in ("wall", "cpu")
        }
        results[workload] = {"seeds": args.seeds, "rounds": rounds, **rec}
        failed = ", ".join(f"{side} {n}" for side, n in rec["failed"].items())
        print(f"{workload}: in process, {rec['ops']} operations per side; failed: {failed}")
        for clock, pair in rec["summary"].items():
            for other, s in pair.items():
                lo, hi = s["interval"]
                print(
                    f"  {clock:4s} {other:6s}/ parent median {s['median']:.4f}"
                    f"  5-95 % interval [{lo:.4f}, {hi:.4f}] ({lo - 1:+.2%}, {hi - 1:+.2%})"
                )
        sys.stdout.flush()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True, choices=("cli", "solve", "dilation", "sample"))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--smoke", action="store_true", help="the harness's tiny inputs, one round")
    parser.add_argument("--in-process", action="store_true", help="both trees in this interpreter, per-operation times")
    args = parser.parse_args(argv)
    if args.in_process and not set(args.workload) <= set(IN_PROCESS_WORKLOADS):
        parser.error(f"--in-process takes the workloads {', '.join(IN_PROCESS_WORKLOADS)}")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    change = f"the working tree at {head}" + (", with uncommitted changes" if dirty else "")

    workloads, machine = {}, None
    with tempfile.TemporaryDirectory(prefix="qsd-ab-") as tmp:
        parent_root = pathlib.Path(tmp) / "parent"
        export(parent, parent_root)
        if args.in_process:
            result = {
                "what": (
                    f"tools/ab.py --in-process --seconds {args.seconds:g}{' --smoke' if args.smoke else ''}: "
                    "the parent's qsd loaded three times (parent, null, warm) and this change's once, "
                    "in one interpreter; each operation once untimed on warm, then timed on parent, "
                    "null and change in rotating order; per clock, the median change / parent and "
                    "null / parent ratio with its 5-95 % interval"
                ),
                "parent": parent,
                "change": change,
                "workloads": in_process(args, parent_root),
            }
            return write_result(result, f"BENCH_{parent[:7]}_in_process.json")
        sides = {"parent": parent_root, "change": ROOT}
        for workload in args.workload:
            runs, per_layer = [], {"seed": args.seeds[0]}
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for i, side in enumerate(order):
                    rec = run_once(sides[side], workload, seed, args.seconds, args.smoke)
                    runs.append(
                        {
                            "seed": seed,
                            "side": side,
                            "first": i == 0,
                            "attempted": rec["attempted"],
                            "failed": rec["failed"],
                            "speed_factor_median": rec["speed_factor_median"],
                            "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
                        }
                    )
                    if machine is None:
                        env = rec["environment"]
                        machine = {k: v for k, v in env.items() if k not in ("git_commit", "seed")}
                if seed == per_layer["seed"]:
                    for side in order:
                        rec = run_once(sides[side], workload, seed, args.seconds, args.smoke, trace=1)
                        per_layer[side] = {k: v["value"] for k, v in rec["metrics"].items()}
                    per_layer["self_s_share"] = {side: self_s_shares(per_layer[side]) for side in order}
            summary = summarize(runs, metrics)
            workloads[workload] = {"seeds": args.seeds, "summary": summary, "runs": runs, "per_layer": per_layer}
            failed = {side: sum(r["failed"] for r in runs if r["side"] == side) for side in sides}
            print(f"{workload}: {len(args.seeds)} pairs, failed ops parent {failed['parent']} change {failed['change']}")
            print("\n".join(verdicts(summary, metrics, runs)))
            print(f"{workload}: per layer, traced pair on seed {per_layer['seed']}")
            print("\n".join(layer_ratios(per_layer["parent"], per_layer["change"])))
            print(f"{workload}: *.self_s as shares of each side's summed *.self_s")
            shares = per_layer["self_s_share"]
            print("\n".join(layer_ratios(shares["parent"], shares["change"])), flush=True)

    result = {
        "what": (
            f"qsdbench/run.py --seconds {args.seconds:g} --trace 0{' --smoke' if args.smoke else ''}, "
            "run on the parent commit and on this change, in alternating order per seed "
            "(odd seed: parent first), one run at a time; per_layer: one --trace 1 run "
            "of each side on the first seed, in the same order, and each side's "
            "*.self_s values as shares of their sum"
        ),
        "parent": parent,
        "change": change,
        "machine": machine,
        "workloads": workloads,
    }
    return write_result(result, f"BENCH_{parent[:7]}.json")


def write_result(result: dict, name: str) -> int:
    path = ROOT / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

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


def verdicts(summary: dict, metrics: list[dict]) -> list[str]:
    lines = []
    for m in metrics:
        s = summary[m["name"]]
        sign = 1 if m["better"] == "higher" else -1
        gain = sign * (s["change_median"] - s["parent_median"])
        iqr = s["parent_quartiles"][1] - s["parent_quartiles"][0]
        wins = s["change_better_pairs"] >= 0.9 * s["pairs"]
        lines.append(
            f"  {m['name']:16s} parent {s['parent_median']:.6g} {fmt(s['parent_quartiles'])}"
            f"  change {s['change_median']:.6g} {fmt(s['change_quartiles'])}"
            f"  better in {s['change_better_pairs']}/{s['pairs']} pairs (>= 9/10: {yes(wins)})"
            f"  median gain {gain:.4g} vs parent IQR {iqr:.4g} ({yes(gain > iqr)})"
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True, choices=("cli", "solve", "dilation", "sample"))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--smoke", action="store_true", help="the harness's tiny inputs, one round")
    args = parser.parse_args(argv)

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
            print("\n".join(verdicts(summary, metrics)))
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
    path = ROOT / f"BENCH_{parent[:7]}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

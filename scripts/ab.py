"""Compare two checkouts on the command-line benchmark, in alternating pairs.

Usage: python3 scripts/ab.py --base DIR --change DIR --workload W --pairs N
                             --seconds S --out FILE [--first-seed K]

Each DIR is the root of a checkout.  Pair p (p = 1 .. N) runs

    python3 clibench/run.py --workload W --seed K+p-1 --seconds S --trace 0

once from each tree, each tree's own benchmark timing its own program; odd
pairs run the base first, even pairs the change.  With the default K = 1
the seed is the pair number.  The paths of the two trees must have the
same length, because the benchmark's peak_rss_mib counts the launcher's
memory, which follows the path.

For each end-to-end metric of the base's BENCHMARK.json, FILE gets each
side's median and quartiles, the pairs each side won (ties count for
neither), and whether the medians differ by more than the base's
interquartile range; also every run's `correct`, `attempted` and `failed`.
A table goes to stdout.  Exit 0 when every run was correct with nothing
failed, 3 otherwise, 4 on bad usage.

To compare a commit with its parent, check both out beside each other:

    git worktree add ../ab/base HEAD~1
    git worktree add ../ab/chng HEAD
    python3 scripts/ab.py --base ../ab/base --change ../ab/chng \\
        --workload exact_limit --pairs 10 --seconds 30 --out ab.json
    git worktree remove ../ab/base && git worktree remove ../ab/chng
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree}: clibench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's spread, the pairs each side won, and the gap against the base's IQR."""
    report = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = {}
        for run in runs:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]["value"]
        won = {side: 0 for side in SIDES}
        for values in pairs.values():
            gap = sign * (values["change"] - values["base"])
            if gap:
                won["change" if gap > 0 else "base"] += 1
        entry = {side: spread([values[side] for values in pairs.values()]) for side in SIDES}
        base = entry["base"]
        entry.update(
            unit=metric["unit"], better=metric["better"], won=won,
            gap_exceeds_base_iqr=abs(entry["change"]["median"] - base["median"]) > base["q3"] - base["q1"],
        )
        report[name] = entry
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    problem = None
    if args.pairs < 1:
        problem = "--pairs must be >= 1"
    elif len(str(trees["base"])) != len(str(trees["change"])):
        problem = (f"the paths differ in length ({trees['base']}, {trees['change']}); "
                   "peak_rss_mib follows the path")
    else:
        missing = [f"--{side} {tree}" for side, tree in trees.items() if not (tree / "clibench" / "run.py").is_file()]
        if missing:
            problem = f"no clibench/run.py under {', '.join(missing)}"
    if problem:
        print(f"ab.py: error: {problem}", file=sys.stderr)
        return 4
    metrics = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs = []
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        for side in SIDES if pair % 2 else SIDES[::-1]:
            try:
                result = run_bench(trees[side], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(f"ab.py: error: {exc}", file=sys.stderr)
                return 3
            runs.append({"pair": pair, "seed": seed, "side": side, **result})
            print(f"pair {pair} seed {seed} {side}: correct {result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}", file=sys.stderr)

    report = {
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "python": sys.version.split()[0], "metrics": compare(runs, metrics), "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{'metric':15} {'base median [q1-q3]':>30} {'change median [q1-q3]':>30} {'won b/c':>8}  gap > base IQR")
    for name, entry in report["metrics"].items():
        cells = [f"{e['median']:.4g} [{e['q1']:.4g}-{e['q3']:.4g}]" for e in (entry["base"], entry["change"])]
        won = f"{entry['won']['base']}/{entry['won']['change']}"
        print(f"{name:15} {cells[0]:>30} {cells[1]:>30} {won:>8}  {entry['gap_exceeds_base_iqr']}")
    return 0 if all(run["correct"] and run["failed"] == 0 for run in runs) else 3


if __name__ == "__main__":
    sys.exit(main())

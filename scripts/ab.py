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
neither), whether the medians differ by more than the base's
interquartile range, and whether the gain rule holds: the change won at
least 9 of every 10 pairs and its median is better by more than the base's
interquartile range.  Beside each metric stands the win split of setup_s,
the drift control: it times `import arnold_lab`, which runs none of the
program, so a one-sided split there is the host drifting, not the change.
When the control itself passes the gain rule, either way, FILE's
control_drifted is true and a warning goes to stderr.  FILE also gets
every run's `correct`, `attempted` and `failed`.  A table goes to stdout.
Exit 0 when every run was correct with nothing failed, 3 otherwise, 4 on
bad usage.

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
# the metric no change to the program moves, read as a control beside every other
CONTROL = "setup_s"


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


def gain_rule(wins: int, pairs: int, gap: float, iqr: float) -> bool:
    """At least 9 of every 10 pairs won, and the median better by more than the base's IQR."""
    return 10 * wins >= 9 * pairs and gap > iqr


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's spread, the pairs each side won, the gap against the
    base's IQR, whether the gain rule holds, and the control's win split beside it."""
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
        gap, iqr = sign * (entry["change"]["median"] - base["median"]), base["q3"] - base["q1"]
        entry.update(
            unit=metric["unit"], better=metric["better"], won=won, gap_exceeds_base_iqr=abs(gap) > iqr,
            gain_rule_holds=gain_rule(won["change"], len(pairs), gap, iqr),
        )
        report[name] = entry
    for entry in report.values():
        entry["control_won"] = report[CONTROL]["won"]
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

    compared = compare(runs, metrics)
    control, base = compared[CONTROL], compared[CONTROL]["base"]
    report = {
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "python": sys.version.split()[0], "metrics": compared,
        # the control passing the gain rule for either side
        "control_drifted": gain_rule(max(control["won"].values()), args.pairs,
                                     abs(control["change"]["median"] - base["median"]),
                                     base["q3"] - base["q1"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{'metric':15} {'base median [q1-q3]':>30} {'change median [q1-q3]':>30} {'won b/c':>8}"
          f"  gap > base IQR  gain rule  {CONTROL} b/c")
    for name, entry in report["metrics"].items():
        cells = [f"{e['median']:.4g} [{e['q1']:.4g}-{e['q3']:.4g}]" for e in (entry["base"], entry["change"])]
        won, control = (f"{split['base']}/{split['change']}" for split in (entry["won"], entry["control_won"]))
        print(f"{name:15} {cells[0]:>30} {cells[1]:>30} {won:>8}  {entry['gap_exceeds_base_iqr']!s:14}"
              f"  {entry['gain_rule_holds']!s:9}  {control}")
    if report["control_drifted"]:
        print(f"ab.py: warning: the control {CONTROL} passes the gain rule, so the host drifted "
              "between the sides; read no win split of this run as the change's", file=sys.stderr)
    return 0 if all(run["correct"] and run["failed"] == 0 for run in runs) else 3


if __name__ == "__main__":
    sys.exit(main())

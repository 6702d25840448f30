"""End-to-end benchmark of the arnold-lab command line.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the program is imported from its
src/ directory.  Each invocation is `python -m arnold_lab ...` in a fresh
process, one at a time (a closed loop with a single client), with
ARNOLD_LAB_THREADS and ARNOLD_LAB_TRACE removed from its environment.
Whole rounds of the workload run until S seconds have passed; then every
distinct invocation's output is checked against values computed apart
from the program, and every repeat must be byte-identical to it.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics.  They time an invocation by the CPU time the kernel
charged to it (user + system, from os.wait4), not by wall time: on a
shared host the wall time also holds whatever the hypervisor gave to
other guests, which moved run medians by 25 % here.  With --trace 1
every invocation runs twice, plain and under spans.py, and the object
holds the per-layer metrics, the tracing overhead, the wall-time median
and the share of CPU time stolen during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".clibench"
SETUP_SAMPLES = 11


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("ARNOLD_LAB_THREADS", "ARNOLD_LAB_TRACE")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Client of launch.py, which spawns one process at a time for us."""

    def __init__(self, stderr_path: Path):
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(stderr_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, command: list[str]) -> dict:
        """Seconds from spawn to reaped exit, exit code, peak RSS and stdout."""
        self.launcher.stdin.write(json.dumps(command).encode() + b"\n")
        self.launcher.stdin.flush()
        header = self.launcher.stdout.readline()
        if not header:
            raise RuntimeError("launcher exited")
        result = json.loads(header)
        result["stdout"] = self.launcher.stdout.read(result["bytes"])
        return result


def steal_ticks() -> int:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def program(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "arnold_lab", *argv]


def traced_program(argv: tuple[str, ...], spans_path: Path) -> list[str]:
    return [sys.executable, str(HERE / "spans.py"), str(spans_path), *argv]


class Outputs:
    """Keeps the first output of each distinct invocation for checking;
    later outputs of the same arguments only have to match it."""

    def __init__(self):
        self.first: dict[tuple, tuple] = {}
        self.records: list[dict] = []

    def add(self, result: dict, invocation) -> dict:
        stdout = result.pop("stdout")
        if result["code"] == 0:
            reference = self.first.setdefault(invocation.argv, (invocation, stdout))[1]
            result["same"] = stdout == reference
        result["argv"] = invocation.argv
        self.records.append(result)
        return result

    def verify(self) -> tuple[int, int, list[str]]:
        """Invocations that exited non-zero, that printed a wrong output, and why."""
        found = {argv: invocation.check(stdout) for argv, (invocation, stdout) in self.first.items()}
        crashed, wrong, problems = 0, 0, []
        for record in self.records:
            command = " ".join(record["argv"])
            if record["code"] != 0:
                crashed += 1
                problems.append(f"{command}: exit {record['code']}: {record['stderr'].strip()}")
            elif found[record["argv"]] or not record["same"]:
                wrong += 1
                why = found[record["argv"]] or ["output differs from an earlier run of the same arguments"]
                problems.extend(f"{command}: {p}" for p in why[:5])
        return crashed, wrong, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "arnold_lab" / "cli.py").is_file():
        print(f"clibench: no arnold_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"clibench: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stderr_path = OUT / f"stderr-{os.getpid()}.txt"
    spans_path = OUT / f"spans-{os.getpid()}.json"
    runner = Runner(stderr_path)
    outputs = Outputs()
    plain, traced, summaries = [], [], []
    try:
        runner.run(program(workload.round()[0].argv))  # warm-up: writes the bytecode cache
        floor, imported = [], []

        def probe_setup() -> None:
            if args.trace:
                floor.append(runner.run([sys.executable, "-c", "pass"])["cpu_s"])
            imported.append(runner.run([sys.executable, "-c", "import arnold_lab"])["cpu_s"])

        # set-up probes are spread over the run, one per two invocations,
        # so a brief slow spell of the host cannot move their median
        start, steal_start = time.perf_counter(), steal_ticks()
        while not plain or time.perf_counter() - start < args.seconds:
            for invocation in workload.round():
                plain.append(outputs.add(runner.run(program(invocation.argv)), invocation))
                if args.trace:
                    traced.append(outputs.add(runner.run(traced_program(invocation.argv, spans_path)), invocation))
                    if spans_path.exists():
                        summaries.append(spans.summarize(json.loads(spans_path.read_text(encoding="utf-8"))))
                        spans_path.unlink()
                if len(plain) % 2 == 0:
                    probe_setup()
        ticks = os.sysconf("SC_CLK_TCK") * (time.perf_counter() - start) * os.cpu_count()
        steal_pct = 100 * (steal_ticks() - steal_start) / ticks
        while len(imported) < SETUP_SAMPLES:
            probe_setup()
    finally:
        runner.close()
        stderr_path.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)

    crashed, wrong, problems = outputs.verify()
    for problem in problems[:20]:
        print(f"clibench: {problem}", file=sys.stderr)
    cpu = [r["cpu_s"] for r in plain]
    if args.trace:
        metrics = spans.layer_metrics(summaries)
        metrics["cli.output_bytes"] = statistics.fmean(r["bytes"] for r in traced)
        metrics["setup.interpreter_s"] = statistics.median(floor)
        metrics["setup.import_s"] = statistics.median(imported) - statistics.median(floor)
        metrics["trace.overhead_s"] = statistics.median(r["cpu_s"] for r in traced) - statistics.median(cpu)
        metrics["wall.latency_p50_s"] = statistics.median(r["seconds"] for r in plain)
        metrics["host.steal_pct"] = steal_pct
        report = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS}
    else:
        report = {
            "cpu_p50_s": {"value": statistics.median(cpu), "unit": "s"},
            "ops_per_cpu_s": {"value": len(cpu) / sum(cpu), "unit": "1/s"},
            "setup_s": {"value": statistics.median(imported), "unit": "s"},
            "peak_rss_mib": {"value": max(r["rss_kib"] for r in plain) / 1024, "unit": "MiB"},
        }
    attempted = len(plain) + len(traced)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": crashed + wrong, "metrics": report}))
    return 0


PER_LAYER_UNITS = (
    ("setup.interpreter_s", "s"),
    ("setup.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("expressions.parse_s", "s"),
    ("elementary.eval_expr_s", "s"),
    ("elementary.eval_expr_calls", "count"),
    ("series.compose_s", "s"),
    ("series.compose_calls", "count"),
    ("series.mul_calls", "count"),
    ("series.divide_s", "s"),
    ("series.pow_binomial_s", "s"),
    ("series.max_coeff_bits", "bits"),
    ("inversion.compositional_inverse_s", "s"),
    ("inversion.compositional_inverse_calls", "count"),
    ("limits.arnold_ratio_self_s", "s"),
    ("numeric.counterexample_pair_s", "s"),
    ("numeric.numeric_inverse_s", "s"),
    ("numeric.numeric_inverse_calls_per_row", "count"),
    ("numeric.series_inverse_calls_per_row", "count"),
    ("numeric.geometric_sample_self_s", "s"),
    ("numeric.sweep_s", "s"),
    ("numeric.sweep_rows_per_s", "1/s"),
    ("numeric.sweep_workers", "count"),
    ("trace.overhead_s", "s"),
    ("wall.latency_p50_s", "s"),
    ("host.steal_pct", "%"),
)


if __name__ == "__main__":
    sys.exit(main())

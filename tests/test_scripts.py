"""Smoke tests of the desk-scale reproduction and kernel-timing scripts."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _run_experiments(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"), *args],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=60,
    )


def test_run_experiments():
    proc = _run_experiments()
    assert proc.returncode == 0, proc.stderr
    assert "limit of (f - g)/(g^-1 - f^-1) at 0: 1\n" in proc.stdout


def test_run_experiments_at_the_divergence_order():
    # tan o sin and sin o tan first differ at x^7, and order 7 resolves the limit
    proc = _run_experiments("--order", "7")
    assert proc.returncode == 0, proc.stderr
    assert "first divergence at N = 7\n" in proc.stdout
    assert "limit of (f - g)/(g^-1 - f^-1) at 0: 1\n" in proc.stdout


def test_run_experiments_below_the_divergence_order_exits_3():
    proc = _run_experiments("--order", "3")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("run_experiments.py: error: series agree through order 3; "
                           "the ratio needs distinct inputs\n")


def test_run_experiments_into_a_closed_pipe_exits_4():
    # the read end is closed before the script starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_experiments.py")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
            cwd=ROOT,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == "run_experiments.py: error: cannot write stdout: Broken pipe\n"


def _bench_kernels(orders, out):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_kernels.py"),
         "--orders", orders, "--out", str(out)],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=60,
    )


def test_bench_kernels_at_the_divergence_order(tmp_path):
    # order 7 resolves the headline pair, so the ladder may start there
    out = tmp_path / "bench.json"
    proc = _bench_kernels("7,8", out)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["orders"] == [7, 8]


def test_bench_kernels_small_ladder(tmp_path):
    out = tmp_path / "bench.json"
    proc = _bench_kernels("8,12", out)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["orders"] == [8, 12]
    assert set(result["kernels"]) == {
        "eval_text_limit_pairs", "compositional_inverse", "arnold_ratio", "sweep_rows",
    }
    for entry in result["kernels"].values():
        assert len(entry["seconds"]) == 2 and all(t > 0 for t in entry["seconds"])
        assert isinstance(entry["exponent"], float)
    assert "compositional_inverse" in proc.stdout
    startup = result["startup"]
    assert set(startup) == {"clock", "bytecode", "python_pass_s", "import_arnold_lab_s",
                            "import_arnold_lab_cli_s", "import_arnold_lab_cli_numeric_s",
                            "counterexample_one_point_s", "limit_order_24_no_site_s"}
    assert 0 < startup["python_pass_s"] and 0 < startup["import_arnold_lab_s"]
    assert 0 < startup["import_arnold_lab_cli_s"] and 0 < startup["import_arnold_lab_cli_numeric_s"]
    assert 0 < startup["counterexample_one_point_s"] and 0 < startup["limit_order_24_no_site_s"]
    assert "import arnold_lab " in proc.stdout and "import arnold_lab.cli " in proc.stdout
    assert "+ numeric " in proc.stdout and "one-point counterexample " in proc.stdout
    assert "limit --order 24 under -S " in proc.stdout


def _ab(base, change, out):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "--base", str(base), "--change", str(change),
         "--workload", "exact_limit", "--pairs", "1", "--seconds", "0", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )


def _benchmark_copy(tree):
    for name in ("src", "clibench"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".clibench"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)


def test_ab_same_tree_on_both_sides(tmp_path):
    for name in ("a", "b"):
        _benchmark_copy(tmp_path / name)
    out = tmp_path / "ab.json"
    proc = _ab(tmp_path / "a", tmp_path / "b", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert (report["workload"], report["pairs"], report["seconds"]) == ("exact_limit", 1, 0)
    assert [(run["side"], run["seed"]) for run in report["runs"]] == [("base", 1), ("change", 1)]
    for run in report["runs"]:
        assert run["correct"] is True and run["failed"] == 0 and run["attempted"] > 0
    assert set(report["metrics"]) == {"cpu_p50_s", "ops_per_cpu_s", "setup_s", "peak_rss_mib"}
    control = report["metrics"]["setup_s"]["won"]
    for entry in report["metrics"].values():
        for side in ("base", "change"):
            assert len(entry[side]["values"]) == 1
            assert entry[side]["q1"] == entry[side]["median"] == entry[side]["q3"] > 0
        assert sum(entry["won"].values()) <= 1
        assert isinstance(entry["gap_exceeds_base_iqr"], bool)
        # one pair, with an IQR of 0: the rule holds exactly when the change won it
        assert entry["gain_rule_holds"] is (entry["won"]["change"] == 1)
        assert entry["control_won"] == control
    # one pair that either side won passes the rule, so the control then reads as drift
    assert report["control_drifted"] is (sum(control.values()) == 1)
    assert ("warning: the control setup_s" in proc.stderr) is report["control_drifted"]
    assert "cpu_p50_s" in proc.stdout and "gain rule" in proc.stdout


def test_ab_refuses_paths_of_different_length(tmp_path):
    proc = _ab(tmp_path / "a", tmp_path / "bb", tmp_path / "ab.json")
    assert proc.returncode == 4
    assert "paths differ in length" in proc.stderr
    assert not (tmp_path / "ab.json").exists()

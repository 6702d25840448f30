"""Smoke tests of the desk-scale reproduction and kernel-timing scripts."""

import json
import os
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


def test_run_experiments():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py")],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "limit of (f - g)/(g^-1 - f^-1) at 0: 1\n" in proc.stdout


def test_bench_kernels_small_ladder(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_kernels.py"),
         "--orders", "8,12", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["orders"] == [8, 12]
    assert set(result["kernels"]) == {
        "eval_text_limit_pairs", "compositional_inverse", "lagrange_inverse_oracle",
        "series_compose", "arnold_ratio",
    }
    for entry in result["kernels"].values():
        assert len(entry["seconds"]) == 2 and all(t > 0 for t in entry["seconds"])
        assert isinstance(entry["exponent"], float)
    assert "compositional_inverse" in proc.stdout
    startup = result["startup"]
    assert set(startup) == {"clock", "bytecode", "python_pass_s", "import_arnold_lab_s",
                            "import_arnold_lab_cli_s", "import_arnold_lab_cli_numeric_s"}
    assert 0 < startup["python_pass_s"] and 0 < startup["import_arnold_lab_s"]
    assert 0 < startup["import_arnold_lab_cli_s"] and 0 < startup["import_arnold_lab_cli_numeric_s"]
    assert "import arnold_lab " in proc.stdout and "import arnold_lab.cli " in proc.stdout
    assert "+ numeric " in proc.stdout

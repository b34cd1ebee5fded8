"""The benchmark builds what it runs from `src/` and reads promptgp by name
(`nb.neighbors`, `[local_search] top_mean`, `[gp] icl_k`, the traced
functions, `gw.stats`).  One short run of each fast workload, on a copy of
the checkout, must pass every check the benchmark makes, so that a change
that breaks what `bench/run.py` reads fails here.  `evolve_http` is left
out: its 10 ms loopback stub makes one run take about 20 s."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["evolve_icl", "refine"])
def test_bench_workload_passes_its_checks(tmp_path, workload):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

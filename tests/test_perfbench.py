"""The benchmark's self-test: every workload, at a reduced size, through one
round and the benchmark's own output checks (oracle agreement, expected-count
conservation, brute-force design rows)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def listing(path):
    return sorted(p.relative_to(path) for p in path.rglob("*"))


def test_selftest_passes():
    perfbench = ROOT / "perfbench"
    before = listing(perfbench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selftest"], cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=600)
    work = perfbench / "work"
    if Path("work") not in before and work.is_dir() and not any(work.iterdir()):
        work.rmdir()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert listing(perfbench) == before

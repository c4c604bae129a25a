"""The benchmark's own self-check (``python3 bench/run.py --selfcheck``)
passes: its traced runs patch ``FormalSum.terms``, ``FormalSum.__mul__``,
``HalfInt.from_twice`` and the ``__hash__`` of each algebra value class,
so a refactor that moves one of them breaks only traced benchmark runs.
Its work directory is under the ignored ``bench/out/``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--selfcheck"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-check passed" in proc.stdout

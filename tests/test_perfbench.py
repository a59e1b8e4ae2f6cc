"""The benchmark's self-test passes against the package as it stands.

The benchmark's tracer wraps package functions and methods by name (for
example ``Tape.backward``), so a package change that breaks the benchmark
fails here. About 11 s.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]

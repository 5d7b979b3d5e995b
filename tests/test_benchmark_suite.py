"""The benchmark's own tests pass, so a change to a name they pin (such as
``protocol.dm_apply_cz`` or ``verify --inject-fault``) fails tier-1 too.

They run in a subprocess from the repository root: both suites import
their helpers with ``from conftest import ...``, so one pytest session
cannot collect them together.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_suite_passes():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]

"""The package's first import loads numpy with OpenBLAS on one thread and
leaves the environment as it found it; a value the caller set wins."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = (
    "import os, fusioncat.catalog\n"
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "set-to-2"])
def test_first_import_threads_and_environment(setting):
    if setting and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS runs no more threads than there are CPUs")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if setting:
        env["OPENBLAS_NUM_THREADS"] = setting
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    # threads, then what the process's environment holds
    assert out.stdout.split() == (["1", "None"] if setting is None else ["2", "2"])

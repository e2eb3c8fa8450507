"""The package never imports scipy; only the tests and the benchmark's
oracle do.  Each command runs twice in a fresh interpreter, once with an
import hook that refuses every `scipy*` module, and must print the same
bytes both times."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sprcause

SRC = Path(sprcause.__file__).resolve().parents[1]
SOLUTION = (Path(__file__).resolve().parents[1]
            / "perfbench" / "data" / "grid-a-N100-delta0.001.solution.json")

BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""
RUN_CLI = "from sprcause.cli import main; main()"


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env,
                          timeout=600, check=False)


@pytest.mark.parametrize("argv", [
    ["identify", "--model", "example", "--dist", "example", "-N", "50", "--workers", "1"],
    ["validate", "--model", "grid-a", "--dist", "grid", "--solution", str(SOLUTION), "-M", "10"],
    ["bounds", "3", "40", "0.9"],
], ids=["identify", "validate", "bounds"])
def test_commands_run_the_same_without_scipy(argv):
    blocked = _python(BLOCK_SCIPY + RUN_CLI, *argv)
    free = _python(RUN_CLI, *argv)
    assert blocked.returncode == 0, blocked.stderr.decode()
    assert blocked.stdout
    assert (blocked.stdout, blocked.stderr, blocked.returncode) == (
        free.stdout, free.stderr, free.returncode)


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, sprcause.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = _python(code)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().strip() == "[]"

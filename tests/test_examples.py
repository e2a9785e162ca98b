"""Smoke tests: the example scripts run end to end.

Only the quick examples run here (the longer simulations are exercised
through their underlying modules' own tests); each must exit cleanly
and print its headline content.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), path
    saved_argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved_argv
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "LOSS" in out
        assert "executed" in out

    def test_skewed_workload(self, capsys):
        out = run_example("skewed_workload.py", capsys)
        assert "zipf" in out
        assert "uniform" in out

    def test_data_mining(self, capsys):
        out = run_example("data_mining_batch.py", capsys)
        assert "point queries" in out
        assert "AUTO" in out

    def test_striped_array(self, capsys):
        out = run_example("striped_array.py", capsys)
        # The table is frozen: the kernel-served arrays print exactly
        # what the retired off-kernel array printed.
        assert out.splitlines()[:7] == [
            "servicing 256 random reads on striped arrays",
            "",
            "drives   makespan  speedup  parallel eff.  per-drive batch",
            "     1     8703 s    1.00x          100%             256",
            "     2     5534 s    1.57x           87%             128",
            "     4     2712 s    3.21x           88%              64",
            "     8     1521 s    5.72x           79%              32",
        ]

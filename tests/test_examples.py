"""Smoke tests: every example script runs end-to-end at a small size."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "image_understanding.py", "percolation.py", "scalability_study.py"} <= names


def test_quickstart():
    out = run_example("quickstart.py", "9", "64")
    assert "components" in out
    assert "process-parallel run agrees" in out


def test_quickstart_other_image():
    out = run_example("quickstart.py", "6", "64")
    assert "1 components" in out  # the filled disc is one component


def test_image_understanding():
    out = run_example("image_understanding.py", "64", "4")
    assert "verified against the sequential baseline." in out
    assert "largest objects:" in out


def test_percolation():
    out = run_example("percolation.py", "48", "4")
    assert "spanning probability crosses 1/2" in out


def test_scalability_study():
    out = run_example("scalability_study.py", "128", "32")
    assert "parallel efficiency" in out
    assert "TMC CM-5" in out


def test_ising_swendsen_wang():
    out = run_example("ising_swendsen_wang.py", "24", "24")
    assert "phase transition bracketed" in out

"""Byte-for-byte golden outputs of the command line: the exact reports of
the README scenario and of generic m=3 and m=4 scenarios, the float
reports of generic m=2 and m=3 scenarios, an exact and two float sweeps,
and the case lines of all seven identity checks (those of 3.3 carry its
printed gamma-matrix residuals).

The files under ``tests/data/`` were written by the command line of
earlier versions (the float sweep before the sweep shared the report's
gating rule and ran its derived scenarios on the term route alone).  The
float m=2 and m=3 reports and the m=3 float sweep were written again when
float jet and symbol products and compositions moved into the row kernel
shared with exact ones: float sums are taken in kernel order, which moved
the composition oracle's rounding residue, not the terms.  Any later
change that is meant to keep outputs identical must keep these tests
green.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsionres.cli import main

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def test_golden_run_report_of_readme_scenario(capsys):
    scenario = DATA / "readme_scenario.json"
    assert main(["run", "--scenario", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "readme_scenario_report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["exact_m3", "float_m2", "exact_m4", "float_m3"])
def test_golden_run_report_of_generic_scenario(capsys, name):
    scenario = DATA / f"{name}_scenario.json"
    assert main(["run", "--scenario", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / f"{name}_scenario_report.json").read_text(encoding="utf-8")


def test_golden_exact_sweep(capsys):
    assert main(["sweep", "--m", "2", "--trials", "3", "--seed", "1", "--mode", "exact"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "sweep_m2_trials3_seed1_exact.txt").read_text(encoding="utf-8")


def test_golden_float_sweep(capsys):
    assert main(["sweep", "--m", "2", "--trials", "3", "--seed", "1", "--mode", "float"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "sweep_m2_trials3_seed1_float.txt").read_text(encoding="utf-8")


def test_golden_float_sweep_m3(capsys):
    assert main(["sweep", "--m", "3", "--trials", "1", "--seed", "2", "--mode", "float"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "sweep_m3_trials1_seed2_float.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["2.1", "2.4", "2.5", "3.3", "3.4", "sphere", "gamma"])
def test_golden_lemma(capsys, name):
    assert main(["lemma", "--name", name, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / f"lemma_{name}_seed1.txt").read_text(encoding="utf-8")


def test_golden_run_report_through_python_m(tmp_path):
    """``PYTHONPATH=src python -m torsionres run`` works from a source
    checkout without installing the package, and writes the same report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "torsionres", "run", "--scenario", str(DATA / "readme_scenario.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "readme_scenario_report.json").read_text(encoding="utf-8")

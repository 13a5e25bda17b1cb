"""Byte-for-byte golden outputs of the command line, exact mode.

The files under ``tests/data/`` were written by the command line before
the term route was reduced to base-point symbols; any later change that
is meant to keep reports identical must keep these tests green.
"""

from pathlib import Path

from torsionres.cli import main

DATA = Path(__file__).parent / "data"


def test_golden_run_report_of_readme_scenario(capsys):
    scenario = DATA / "readme_scenario.json"
    assert main(["run", "--scenario", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "readme_scenario_report.json").read_text(encoding="utf-8")


def test_golden_exact_sweep(capsys):
    assert main(["sweep", "--m", "2", "--trials", "3", "--seed", "1", "--mode", "exact"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "sweep_m2_trials3_seed1_exact.txt").read_text(encoding="utf-8")

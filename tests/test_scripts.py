"""Smoke tests: the scripts run end to end and agree with the library."""

import json

from collatzgraphs import cycles_with_denominator

from conftest import ROOT, run_python


def run_script(name, *argv):
    return run_python(str(ROOT / "scripts" / name), *argv)


def test_cycle_census_text():
    proc = run_script("cycle_census.py", "--max-len", "8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("b = 1  (")
    assert "cycles from words of length <= 8" in proc.stdout


def test_cycle_census_json_matches_library():
    proc = run_script("cycle_census.py", "--max-len", "8", "--json", "--b", "5")
    assert proc.returncode == 0, proc.stderr
    expected = [cycle.to_jsonable() for cycle in cycles_with_denominator(5, 8)]
    assert expected
    assert json.loads(proc.stdout) == {"5": expected}


def test_reproduce_values():
    proc = run_script("reproduce_values.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("\n0 mismatches\n")

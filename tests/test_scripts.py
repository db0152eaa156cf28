"""Smoke tests: the scripts run end to end and agree with the library."""

import json
import os
import subprocess
import sys
from pathlib import Path

from collatzgraphs import cycles_with_denominator

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


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

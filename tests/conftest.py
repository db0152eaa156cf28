"""Shared strategies, a child-interpreter helper, and the acceptance-summary report.

Acceptance tests are named test_cNN_*; the terminal summary prints one
PASS/FAIL line per criterion number NN so the whole gate is readable at a
glance.
"""

import argparse
import os
import re
import subprocess
import sys
from collections import defaultdict
from math import gcd
from pathlib import Path

from hypothesis import strategies as st

from collatzgraphs import BranchMap, Word
from collatzgraphs.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv):
    """Run a child interpreter that imports the package from src/, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def cli_commands() -> dict[tuple[str, str], argparse.ArgumentParser]:
    """Every subcommand of the CLI parser, keyed by (group, name)."""
    commands = {}
    (top,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for group, group_parser in top.choices.items():
        (sub,) = [a for a in group_parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, command in sub.choices.items():
            commands[group, name] = command
    return commands


_CRITERION = re.compile(r"test_acceptance\.py.*::test_c(\d{2})")
_results: dict[str, list[int]] = defaultdict(lambda: [0, 0])


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    tally = _results[m.group(1)]
    tally[1] += 1
    if report.passed:
        tally[0] += 1


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for nn in sorted(_results):
        passed, total = _results[nn]
        verdict = "PASS" if passed == total else "FAIL"
        terminalreporter.write_line(f"criterion {nn}: {verdict} ({passed}/{total} checks)")


@st.composite
def branch_maps(draw, primes=(2, 3, 5)):
    """Admissible maps: multipliers coprime to p, offsets clearing branch i."""
    p = draw(st.sampled_from(primes))
    branches = []
    for i in range(p):
        a = draw(
            st.integers(min_value=-9, max_value=9).filter(lambda a, p=p: a != 0 and gcd(a, p) == 1)
        )
        offset = draw(st.integers(min_value=-3, max_value=3))
        branches.append((a, (-a * i) % p + p * offset))
    return BranchMap(p, tuple(branches))


@st.composite
def digit_words(draw, base=None, min_len=0, max_len=8):
    if base is None:
        base = draw(st.sampled_from((2, 3, 5)))
    digits = draw(
        st.lists(st.integers(min_value=0, max_value=base - 1), min_size=min_len, max_size=max_len)
    )
    return Word(base, tuple(digits))

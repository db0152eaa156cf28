"""Recorded CLI invocations, replayed byte for byte.

tests/data/cli_golden.json lists one case per invocation: its argv, the id of
an earlier case whose stdout it reads on stdin ("stdin_from") or the text
itself ("stdin"), and optionally a stand-in for one library call ("fake", a
key of FAKES) for the verdicts and failures that no admissible map produces.
Each case records the exit code, stdout and stderr, plus the file written
when an argument is "{output}".
Every subcommand and every --format is covered.

After an intended change of output, rewrite the records with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import io
import json
import sys
import tempfile
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from collatzgraphs import cli

from conftest import cli_commands

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
OUTPUT = "{output}"


def _fail_inversion(f, target):
    raise RuntimeError("preimage does not map onto the target; map branches are not De Bruijn")


FAKES = {
    "verify-false": ("verify_conjugacy", lambda f, k: False),
    "spectral-violation": ("uniform_power_violation", lambda f, k, l_max: (k + 1, 0, 3, 1)),
    "invert-fails": ("phi_inverse_truncated", _fail_inversion),
}


def replay(case: dict, stdin: str, tmp: Path) -> dict:
    """Run one case through cli.main and return what it recorded."""
    target = tmp / "out.txt"
    argv = [str(target) if arg == OUTPUT else arg for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with ExitStack() as stack:
        if "fake" in case:
            stack.enter_context(mock.patch.object(cli, *FAKES[case["fake"]]))
        stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(stdin)))
        stack.enter_context(redirect_stdout(out))
        stack.enter_context(redirect_stderr(err))
        code = cli.main(argv)
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if OUTPUT in case["argv"]:
        result["output"] = target.read_text()
    return result


CASES = json.loads(GOLDEN.read_text())
BY_ID = {case["id"]: case for case in CASES}


def test_cases_cover_every_subcommand_and_format():
    commands = cli_commands()
    assert {tuple(case["argv"][:2]) for case in CASES} == set(commands)
    for path, command in commands.items():
        argvs = [case["argv"] for case in CASES if tuple(case["argv"][:2]) == path]
        for action in command._actions:
            if action.dest == "format":
                used = {
                    a[a.index("--format") + 1] if "--format" in a else action.default
                    for a in argvs
                }
                assert used == set(action.choices), path


@pytest.mark.parametrize("case", CASES, ids=list(BY_ID))
def test_replay_matches_record(case, tmp_path, monkeypatch):
    monkeypatch.delenv("COLLATZGRAPHS_SIZE_LIMIT", raising=False)
    stdin = BY_ID[case["stdin_from"]]["stdout"] if "stdin_from" in case else case.get("stdin", "")
    got = replay(case, stdin, tmp_path)
    assert got == {key: case[key] for key in got}


def _write() -> None:
    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            stdin = (
                recorded[case["stdin_from"]]["stdout"] if "stdin_from" in case
                else case.get("stdin", "")
            )
            case.update(replay(case, stdin, Path(tmp)))
            recorded[case["id"]] = case
    GOLDEN.write_text(json.dumps(CASES, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    _write()

"""The CLI contract under random argument vectors.

Argument vectors are built from the real parser: every subcommand, each
optional argument present or not, exactly one member of each mutually
exclusive group, and values drawn by what the argument takes (presets, small
integers, short digit strings, rationals and junk). With a small size budget
in the environment, main must return an exit code 0-3, or argparse must exit
with 2; no other exception may escape.
"""

import argparse
import io
import os
import sys
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from collatzgraphs import cli
from collatzgraphs.maps import PRESETS

from conftest import cli_commands

COMMANDS = cli_commands()

small_ints = st.integers(min_value=-2, max_value=10)
digit_strings = st.text(alphabet="0123456789,", max_size=8)
rationals = st.one_of(
    small_ints.map(str),
    st.tuples(st.integers(-50, 50), st.integers(-3, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.text(max_size=3),
)
GRAPH_JSON = '{"m": 2, "edges": [[0, 0, 0], [0, 1, 2], [1, 0, 1], [1, 1, 3]]}'
stdin_texts = st.sampled_from([GRAPH_JSON, "", "[]", '{"m": 2, "edges": [[0, 5, null]]}'])


def _values(action: argparse.Action, files: dict) -> st.SearchStrategy:
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest == "map":
        return st.sampled_from(PRESETS + ("no-such-map",))
    if action.dest == "input":
        return st.sampled_from(["-", files["graph"], files["junk"], files["missing"]])
    if action.dest == "output":
        return st.sampled_from([files["output"], files["missing_dir"]])
    if action.type is int:
        return small_ints.map(str)
    if action.dest in ("exact", "start"):
        return rationals
    return digit_strings


@st.composite
def argvs(draw, files):
    path = draw(st.sampled_from(sorted(COMMANDS)))
    parser = COMMANDS[path]
    groups = parser._mutually_exclusive_groups
    chosen = {draw(st.sampled_from(group._group_actions)) for group in groups}
    grouped = {action for group in groups for action in group._group_actions}
    argv = list(path)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action in grouped:
            if action not in chosen:
                continue
        elif action.option_strings and not action.required and not draw(st.booleans()):
            continue
        value = draw(_values(action, files))
        argv += [action.option_strings[0], value] if action.option_strings else [value]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    (root / "graph.json").write_text(GRAPH_JSON)
    (root / "junk.json").write_text("not json")
    return {
        "graph": str(root / "graph.json"),
        "junk": str(root / "junk.json"),
        "missing": str(root / "missing.json"),
        "output": str(root / "out.txt"),
        "missing_dir": str(root / "no-such-dir" / "out.txt"),
    }


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_main_returns_an_exit_code_or_argparse_exits(files, data):
    argv = data.draw(argvs(files), label="argv")
    stdin = data.draw(stdin_texts, label="stdin")
    with ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, {"COLLATZGRAPHS_SIZE_LIMIT": "4096"}))
        stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(stdin)))
        stack.enter_context(redirect_stdout(io.StringIO()))
        stack.enter_context(redirect_stderr(io.StringIO()))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 1, 2, 3), argv


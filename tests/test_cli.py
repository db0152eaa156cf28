"""The command-line surface: outputs, formats, and exit codes."""

import json
import random
import sys
import time

import pytest

from collatzgraphs import (
    cli,
    graph_from_json,
    map_to_json,
    modular_graph,
    necklace_count,
    original_collatz_map,
)
from collatzgraphs.cli import main

from conftest import run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_perm_json(capsys):
    code, out, _ = run(capsys, "conj", "perm", "--map", "collatz", "--k", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cycles"] == [[1, 5], [2, 10], [9, 13]]
    assert data["order"] == 2
    assert data["size"] == 16


def test_perm_text(capsys):
    code, out, _ = run(capsys, "conj", "perm", "--map", "collatz", "--k", "4")
    assert code == 0
    assert out == "(1,5)(2,10)(9,13)\norder 2\n"


def test_perm_identity_text(capsys):
    code, out, _ = run(capsys, "conj", "perm", "--map", "shift", "--k", "3")
    assert code == 0
    assert out == "()\norder 1\n"


def test_conj_verify_exit_code(capsys):
    code, out, _ = run(capsys, "conj", "verify", "--map", "collatz-original", "--k", "3")
    assert code == 0
    assert out == "true\n"


def test_phi_exact(capsys):
    code, out, _ = run(capsys, "conj", "phi", "--map", "collatz", "--exact", "5")
    assert code == 0
    assert out == "-13/3\n"


def test_phi_exact_json(capsys):
    code, out, _ = run(
        capsys, "conj", "phi", "--map", "collatz", "--exact", "5", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "-13/3"
    assert data["digits"] == "100(01)"


def test_phi_word_and_inverse(capsys):
    code, out, _ = run(capsys, "conj", "phi", "--map", "collatz", "--word", "10110")
    assert (code, out) == (0, "10010\n")
    code, out, _ = run(capsys, "conj", "phi", "--map", "collatz", "--invert", "10010")
    assert (code, out) == (0, "10110\n")


def test_phi_word_and_inverse_json(capsys):
    code, out, _ = run(capsys, "conj", "phi", "--word", "10110", "--format", "json")
    assert (code, json.loads(out)) == (0, {"word": "10010"})
    code, out, _ = run(capsys, "conj", "phi", "--invert", "10010", "--format", "json")
    assert (code, json.loads(out)) == (0, {"word": "10110"})


@pytest.mark.parametrize(
    "argv",
    [
        "conj phi --exact 27 --max-steps 5",
        "cycles classify --map an+b --a 5 --b 1 --start 7 --max-steps 5",
    ],
)
def test_undetermined_json(argv, capsys):
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert (code, json.loads(out)) == (3, {"undetermined": True, "max_steps": 5})


def test_phi_exact_undetermined(capsys):
    code, out, _ = run(
        capsys, "conj", "phi", "--map", "collatz", "--exact", "27", "--max-steps", "5"
    )
    assert code == 3
    assert out == "undetermined\n"


def test_seq_fkm(capsys):
    code, out, _ = run(capsys, "seq", "fkm", "--p", "2", "--k", "4")
    assert (code, out) == (0, "0000100110101111\n")


def test_seq_verify_true(capsys):
    code, out, _ = run(capsys, "seq", "verify", "--p", "2", "--k", "4", "0000100110101111")
    assert (code, out) == (0, "true\n")


def test_seq_verify_false(capsys):
    code, out, _ = run(capsys, "seq", "verify", "--p", "2", "--k", "2", "0101")
    assert (code, out) == (1, "false\n")


def test_seq_verify_out_of_range_digit_is_a_verdict(capsys):
    code, out, _ = run(capsys, "seq", "verify", "--p", "2", "--k", "2", "0123")
    assert (code, out) == (1, "false\n")


def test_seq_verify_huge_k_is_decided_by_length(capsys):
    # 3**k is never built: a 3-digit sequence is far shorter than 2**k
    start = time.perf_counter()
    code, out, _ = run(capsys, "seq", "verify", "--p", "3", "--k", "100000000", "012")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "false\n")


def test_graph_modular_dot(capsys):
    code, out, _ = run(capsys, "graph", "modular", "--map", "collatz", "--m", "3")
    assert code == 0
    assert out.startswith("digraph {")
    assert '2 -> 1 [label="2"];' in out


def test_graph_modular_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "graph", "modular", "--map", "collatz", "--m", "6", "--format", "json"
    )
    assert code == 0
    from collatzgraphs import collatz_map

    assert graph_from_json(out) == modular_graph(collatz_map(), 6)


def test_graph_debruijn(capsys):
    code, out, _ = run(capsys, "graph", "debruijn", "--p", "2", "--k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["m"] == 4


def test_graph_line_and_transpose_from_file(tmp_path, capsys):
    source = tmp_path / "g.json"
    code, out, _ = run(
        capsys, "graph", "modular", "--map", "collatz", "--m", "2", "--format", "json"
    )
    source.write_text(out)

    code, out, _ = run(capsys, "graph", "line", "--input", str(source), "--format", "json")
    assert code == 0
    assert json.loads(out)["m"] == 4

    code, out, _ = run(capsys, "graph", "transpose", "--input", str(source), "--format", "json")
    assert code == 0
    twice = tmp_path / "t.json"
    twice.write_text(out)
    code, out2, _ = run(capsys, "graph", "transpose", "--input", str(twice), "--format", "json")
    assert code == 0
    assert json.loads(out2) == json.loads(source.read_text())


def test_custom_map_from_json_file(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(map_to_json(original_collatz_map()))
    code, out, _ = run(capsys, "conj", "perm", "--map", str(path), "--k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["cycles"] == [[1, 4, 7], [3, 6]]


def test_cycles_from_word_json(capsys):
    code, out, _ = run(capsys, "cycles", "from-word", "100", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "word": "100",
        "b": 5,
        "rational_cycle": ["1/5", "4/5", "2/5"],
        "integer_cycle": [1, 4, 2],
    }


def test_cycles_for_b_text(capsys):
    code, out, _ = run(capsys, "cycles", "for-b", "--b", "1", "--max-len", "3")
    assert code == 0
    assert out.splitlines() == [
        "0  b=1  (0)",
        "1  b=1  (-1)",
        "01  b=1  (2, 1)",
        "011  b=1  (-10, -5, -7)",
    ]


def test_cycles_classify(capsys):
    code, out, _ = run(capsys, "cycles", "classify", "--map", "collatz", "--start", "3")
    assert code == 0
    assert "integer cycle 1, 2" in out
    assert "preperiod 5" in out


def test_cycles_classify_undetermined(capsys):
    code, out, _ = run(
        capsys,
        "cycles", "classify",
        "--map", "an+b", "--a", "5", "--b", "1",
        "--start", "7", "--max-steps", "50",
    )
    assert code == 3
    assert out == "undetermined\n"


@pytest.mark.parametrize(
    "argv, option, value",
    [
        ("cycles classify", "--start", "-1/3"),
        ("cycles classify --format json", "--start", "-5/7"),
        ("conj phi", "--exact", "-1/5"),
        ("conj phi --format json", "--exact", "-1/5"),
    ],
)
def test_negative_rational_as_a_separate_argument(argv, option, value, capsys):
    # argparse takes -1/3 for an option unless told it is a number
    joined = run(capsys, *argv.split(), f"{option}={value}")
    assert joined[0] == 0
    assert run(capsys, *argv.split(), option, value) == joined


def test_count_necklaces(capsys):
    code, out, _ = run(capsys, "count", "necklaces", "--p", "2", "--k", "6")
    assert (code, out) == (0, "9\n")


def test_count_necklaces_huge_k_fails_fast(capsys):
    # the count has about 3e7 decimal digits, past Python's int-to-str limit;
    # the divisor scan must not take O(k) steps to get there
    code, out, err = run(capsys, "count", "necklaces", "--p", "2", "--k", "100000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_count_necklaces_past_the_int_to_str_limit(capsys, monkeypatch):
    # about 6000 decimal digits: within the size budget, past Python's
    # default int-to-str limit of 4300 digits
    code, out, err = run(capsys, "count", "necklaces", "--p", "2", "--k", "20000")
    assert (code, out) == (2, "")
    assert "int-to-str digit limit" in err and "PYTHONINTMAXSTRDIGITS" in err
    limit = sys.get_int_max_str_digits()
    try:
        # what PYTHONINTMAXSTRDIGITS=0 does at start-up
        sys.set_int_max_str_digits(0)
        code, out, _ = run(capsys, "count", "necklaces", "--p", "2", "--k", "20000")
        assert (code, out) == (0, f"{necklace_count(2, 20000)}\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_cycles_from_word_past_the_int_to_str_limit(capsys):
    # 3000 digits: within the size budget, but the cycle's numbers have
    # about 900 decimal digits, past the lowest limit Python allows
    rng = random.Random(3000)
    word = "".join(rng.choice("01") for _ in range(3000))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, "cycles", "from-word", word)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert "int-to-str digit limit (640)" in err and "PYTHONINTMAXSTRDIGITS" in err


def test_words_lyndon(capsys):
    code, out, _ = run(capsys, "words", "lyndon", "--p", "2", "--k", "4", "--mode", "dividing")
    assert code == 0
    assert out.splitlines() == ["0", "0001", "0011", "01", "0111", "1"]


def test_spectral_check(capsys):
    code, out, _ = run(capsys, "spectral", "check", "--map", "collatz", "--k", "3", "--l-max", "6")
    assert (code, out) == (0, "true\n")


def test_usage_error_names_the_problem(capsys):
    code, _, err = run(capsys, "graph", "modular", "--map", "mystery", "--m", "3")
    assert code == 2
    assert "mystery" in err

    code, _, err = run(capsys, "conj", "perm", "--map", "an+b", "--a", "4", "--b", "1", "--k", "2")
    assert code == 2
    assert "odd" in err

    code, _, err = run(capsys, "graph", "modular", "--map", "collatz", "--m", "0")
    assert code == 2

    code, _, err = run(capsys, "cycles", "from-word", "10102", "--map", "collatz")
    assert code == 2


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "seq", "fkm", "--p", "2", "--k", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "00010111\n"


def test_out_of_memory_is_a_usage_error_naming_the_budget(capsys, monkeypatch):
    def exhausted(f, m):
        raise MemoryError

    monkeypatch.setattr(cli, "modular_graph", exhausted)
    code, out, err = run(capsys, "graph", "modular", "--m", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory")
    assert "COLLATZGRAPHS_SIZE_LIMIT" in err


def test_installed_entry_point():
    proc = run_python("-m", "collatzgraphs", "conj", "phi", "--map", "collatz", "--exact", "1")
    assert proc.returncode == 0
    assert proc.stdout == "-1/3\n"


def test_argparse_usage_exit():
    proc = run_python("-m", "collatzgraphs", "graph", "modular")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        "words lyndon --p 2 --k 40",
        "seq fkm --p 2 --k 40",
        "cycles for-b --b 5 --max-len 40",
        "conj perm --k 24",
        "conj verify --k 24",
        "conj verify --map collatz-original --k 100000000",
        "graph modular --m 16777216",
        "graph debruijn --p 2 --k 100000000",
        "graph debruijn --p 3 --k 100000000",
        "conj perm --map collatz-original --k 100000000",
        "spectral check --k 12 --l-max 13",
        "count necklaces --p 3 --k 100000000",
    ],
)
def test_oversized_requests_fail_fast_naming_the_budget(argv, capsys, monkeypatch):
    monkeypatch.delenv("COLLATZGRAPHS_SIZE_LIMIT", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "COLLATZGRAPHS_SIZE_LIMIT" in err


def test_graph_vertex_count_is_charged(tmp_path, capsys, monkeypatch):
    # no edges, but export and the line graph hold one entry per vertex
    monkeypatch.delenv("COLLATZGRAPHS_SIZE_LIMIT", raising=False)
    source = tmp_path / "g.json"
    source.write_text('{"m": 1099511627776, "edges": []}')
    start = time.perf_counter()
    code, out, err = run(capsys, "graph", "line", "--input", str(source))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "graph vertices" in err and "COLLATZGRAPHS_SIZE_LIMIT" in err


def test_long_cycle_word_is_charged_for_its_big_integers(capsys, monkeypatch):
    # 50000 states of about 50000 bits each: refused after the composition
    monkeypatch.delenv("COLLATZGRAPHS_SIZE_LIMIT", raising=False)
    rng = random.Random(50000)
    word = "".join(rng.choice("01") for _ in range(50000))
    start = time.perf_counter()
    code, out, err = run(capsys, "cycles", "from-word", word)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "machine words" in err and "COLLATZGRAPHS_SIZE_LIMIT" in err


def test_divergent_orbit_is_charged_for_its_states(capsys, monkeypatch):
    # 5n+1 from 7 diverges: the stored states pass the default budget in
    # machine words long before a million steps
    monkeypatch.delenv("COLLATZGRAPHS_SIZE_LIMIT", raising=False)
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "cycles", "classify",
        "--map", "an+b", "--a", "5", "--b", "1",
        "--start", "7", "--max-steps", "1000000",
    )
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert "orbit state machine words" in err and "COLLATZGRAPHS_SIZE_LIMIT" in err

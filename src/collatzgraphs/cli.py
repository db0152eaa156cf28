"""Command-line front end over the library: graphs, conjugacies, sequences,
cycles, and spectral checks, with deterministic text/JSON/DOT output.

Exit codes: 0 for success or a true verdict, 1 for a false verdict, 2 for a
usage error (a violated precondition is named on standard error), 3 when an
iteration budget ran out before a decision could be reached.

Each runner returns (exit code, text), text None when nothing is printed.
main is the one place that writes the text, to standard output or --output,
and the one place that turns a library error into exit code 2.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .arith import Word
from .conjugacy import (
    conjugacy_permutation,
    phi_exact,
    phi_inverse_truncated,
    phi_truncated,
    verify_conjugacy,
)
from .cycles import classify_orbit, cycles_with_denominator, word_cycle
from .graphs import (
    Digraph,
    Permutation,
    debruijn_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    line_graph,
    modular_graph,
    transpose,
)
from .limits import SIZE_LIMIT_ENV, ResourceLimitError
from .maps import PRESETS, BranchMap, map_from_json, standard_map
from .spectral import uniform_power_violation
from .words import fkm_sequence, is_debruijn_sequence, lyndon_words, necklace_count

OK = 0
FALSE = 1
USAGE = 2
UNDETERMINED = 3

Result = tuple[int, str | None]

_OUT_OF_MEMORY = f"out of memory (lower {SIZE_LIMIT_ENV} to refuse such requests up front)"
# the interpreter's own text for this error points to a Python call
_INT_TO_STR = (
    "a number has more decimal digits than Python's int-to-str digit limit ({});"
    " set PYTHONINTMAXSTRDIGITS=0 to lift it"
)

# argparse's own pattern for an argument that is a negative number, not an
# option (-1, -0.5), widened to negative fractions such as -1/3
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _parse_digit_list(text: str) -> tuple[int, ...]:
    """Digits as typed, without range validation (verdict checks want raw digits)."""
    if not text:
        return ()
    try:
        if "," in text:
            return tuple(int(part) for part in text.split(","))
        return tuple(int(c) for c in text)
    except ValueError:
        raise ValueError(f"not a digit string: {text!r}") from None


def _resolve_map(args: argparse.Namespace) -> BranchMap:
    name = args.map
    if name in PRESETS:
        return standard_map(name, a=args.a, b=args.b)
    path = Path(name)
    if path.exists():
        return map_from_json(path.read_text())
    raise ValueError(f"--map must be one of {', '.join(PRESETS)} or a JSON file path, got {name!r}")


def _read_graph(args: argparse.Namespace) -> Digraph:
    if args.input == "-":
        return graph_from_json(sys.stdin.read())
    return graph_from_json(Path(args.input).read_text())


_GRAPH_WRITERS = {"dot": graph_to_dot, "json": graph_to_json}


def _formatted(args: argparse.Namespace, jsonable, text) -> str:
    """json.dumps(jsonable()) under --format json, else text(): only one is built."""
    return json.dumps(jsonable()) if args.format == "json" else text()


def _word(args: argparse.Namespace, word: Word) -> Result:
    return OK, _formatted(args, lambda: {"word": str(word)}, lambda: str(word))


def _undetermined(args: argparse.Namespace) -> Result:
    return UNDETERMINED, _formatted(
        args, lambda: {"undetermined": True, "max_steps": args.max_steps}, lambda: "undetermined"
    )


def _verdict(ok: bool, detail: str = "") -> Result:
    if ok:
        return OK, "true"
    return FALSE, f"false\n{detail}" if detail else "false"


def _perm_text(phi: Permutation) -> str:
    notation = "".join("(" + ",".join(str(v) for v in c) + ")" for c in phi.cycles())
    return f"{notation or '()'}\norder {phi.order()}"


def _cycle_text(cycle) -> str:
    return "\n".join(
        [
            f"word {cycle.word}",
            f"b {cycle.b}",
            "rational cycle " + ", ".join(str(e) for e in cycle.elements),
            "integer cycle " + ", ".join(str(n) for n in cycle.integer_cycle),
        ]
    )


def _run_graph_modular(args: argparse.Namespace) -> Result:
    return OK, _GRAPH_WRITERS[args.format](modular_graph(_resolve_map(args), args.m))


def _run_graph_debruijn(args: argparse.Namespace) -> Result:
    return OK, _GRAPH_WRITERS[args.format](debruijn_graph(args.p, args.k))


def _run_graph_line(args: argparse.Namespace) -> Result:
    return OK, _GRAPH_WRITERS[args.format](line_graph(_read_graph(args)))


def _run_graph_transpose(args: argparse.Namespace) -> Result:
    return OK, _GRAPH_WRITERS[args.format](transpose(_read_graph(args)))


def _run_conj_perm(args: argparse.Namespace) -> Result:
    phi = conjugacy_permutation(_resolve_map(args), args.k)
    return OK, _formatted(args, phi.to_jsonable, lambda: _perm_text(phi))


def _run_conj_verify(args: argparse.Namespace) -> Result:
    return _verdict(verify_conjugacy(_resolve_map(args), args.k))


def _run_conj_phi(args: argparse.Namespace) -> Result:
    f = _resolve_map(args)
    if args.word is not None:
        return _word(args, phi_truncated(f, Word.from_str(args.word, f.p)))
    if args.invert is not None:
        target = Word.from_str(args.invert, f.p)
        try:
            preimage = phi_inverse_truncated(f, target)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return FALSE, None
        return _word(args, preimage)
    result = phi_exact(f, _parse_rational(args.exact), max_steps=args.max_steps)
    if result is None:
        return _undetermined(args)
    return OK, _formatted(
        args,
        lambda: {
            "value": str(result.value),
            "digits": str(result.digits),
            "steps_used": result.steps_used,
        },
        lambda: str(result.value),
    )


def _run_seq_fkm(args: argparse.Namespace) -> Result:
    return OK, str(fkm_sequence(args.p, args.k))


def _run_seq_verify(args: argparse.Namespace) -> Result:
    digits = _parse_digit_list(args.sequence)
    base = max([args.p] + [d + 1 for d in digits])
    return _verdict(is_debruijn_sequence(Word(base, digits), args.p, args.k))


def _run_count_necklaces(args: argparse.Namespace) -> Result:
    return OK, str(necklace_count(args.p, args.k))


def _run_words_lyndon(args: argparse.Namespace) -> Result:
    return OK, "\n".join(str(w) for w in lyndon_words(args.p, args.k, mode=args.mode))


def _run_cycles_from_word(args: argparse.Namespace) -> Result:
    f = _resolve_map(args)
    cycle = word_cycle(f, Word.from_str(args.word, f.p))
    return OK, _formatted(args, cycle.to_jsonable, lambda: _cycle_text(cycle))


def _run_cycles_for_b(args: argparse.Namespace) -> Result:
    found = cycles_with_denominator(args.b, args.max_len)
    lines = (f"{c.word}  b={c.b}  ({', '.join(str(n) for n in c.integer_cycle)})" for c in found)
    return OK, _formatted(args, lambda: [c.to_jsonable() for c in found], lambda: "\n".join(lines))


def _run_cycles_classify(args: argparse.Namespace) -> Result:
    f = _resolve_map(args)
    result = classify_orbit(f, _parse_rational(args.start), max_steps=args.max_steps)
    if result is None:
        return _undetermined(args)
    return OK, _formatted(
        args,
        lambda: {"cycle": result.cycle.to_jsonable(), "preperiod": result.preperiod},
        lambda: f"{_cycle_text(result.cycle)}\npreperiod {result.preperiod}",
    )


def _run_spectral_check(args: argparse.Namespace) -> Result:
    violation = uniform_power_violation(_resolve_map(args), args.k, args.l_max)
    if violation is None:
        return _verdict(True)
    return _verdict(False, "violation l={} i={} j={} entry={}".format(*violation))


def _add_map_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--map",
        default="collatz",
        help=f"branch map: one of {', '.join(PRESETS)}, or a path to a map JSON file",
    )
    parser.add_argument("--a", type=int, help="multiplier for the an+b preset (odd)")
    parser.add_argument("--b", type=int, help="offset for the an+b preset (odd)")


def _add_pk(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    return parser


GROUPS = {
    "graph": "build and convert digraphs",
    "conj": "digit conjugacy to the De Bruijn shift",
    "seq": "De Bruijn sequences",
    "count": "counting formulas",
    "words": "word enumeration",
    "cycles": "rational cycles of branch maps",
    "spectral": "adjacency power checks",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatzgraphs",
        description="Modular digraphs of branch maps, De Bruijn graphs, digit "
        "conjugacies, necklace counting, and rational cycle tables.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {
        name: top.add_parser(name, help=text).add_subparsers(dest="subcommand", required=True)
        for name, text in GROUPS.items()
    }

    def command(path, func, help, formats=(), map_args=False) -> argparse.ArgumentParser:
        group, name = path.split()
        sub = groups[group].add_parser(name, help=help)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        if map_args:
            _add_map_args(sub)
        if formats:
            sub.add_argument("--format", choices=formats, default=formats[0])
        sub.add_argument("--output", help="write to this file instead of standard output")
        sub.set_defaults(func=func)
        return sub

    dot, text = ("dot", "json"), ("text", "json")
    sub = command("graph modular", _run_graph_modular,
                  "residue transition graph of a branch map mod m", dot, map_args=True)
    sub.add_argument("--m", type=int, required=True, help="modulus (number of vertices)")
    _add_pk(command("graph debruijn", _run_graph_debruijn, "De Bruijn graph on p**k words", dot))
    for sub in (
        command("graph line", _run_graph_line,
                "line graph of a graph JSON (labels become vertices)", dot),
        command("graph transpose", _run_graph_transpose, "reverse every edge of a graph JSON", dot),
    ):
        sub.add_argument("--input", default="-", help="graph JSON file, or - for standard input")

    sub = command("conj perm", _run_conj_perm,
                  "conjugacy permutation of residues mod p**k", text, map_args=True)
    sub.add_argument("--k", type=int, required=True)
    sub = command("conj verify", _run_conj_verify,
                  "check the permutation maps the modular graph onto the De Bruijn graph",
                  map_args=True)
    sub.add_argument("--k", type=int, required=True)
    sub = command("conj phi", _run_conj_phi,
                  "digit conjugacy of a single value", text, map_args=True)
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--word", help="truncated image of a digit word")
    mode.add_argument("--exact", help="exact rational image of a rational input")
    mode.add_argument("--invert", help="preimage word of a digit word")
    sub.add_argument("--max-steps", type=int, default=10000)

    _add_pk(command("seq fkm", _run_seq_fkm, "lexicographic Lyndon-word concatenation sequence"))
    sub = _add_pk(command("seq verify", _run_seq_verify,
                          "check a digit string is a (p, k) De Bruijn sequence"))
    sub.add_argument("sequence", help="digit string (comma separated for digits above 9)")
    _add_pk(command("count necklaces", _run_count_necklaces,
                    "number of aperiodic necklaces of length k"))
    sub = _add_pk(command("words lyndon", _run_words_lyndon, "Lyndon words over p letters"))
    sub.add_argument("--mode", choices=("exact", "dividing"), default="exact",
                     help="lengths exactly k, or all lengths dividing k")

    sub = command("cycles from-word", _run_cycles_from_word,
                  "the cycle whose digit word is given", text, map_args=True)
    sub.add_argument("word", help="digit word over the map's base")
    sub = command("cycles for-b", _run_cycles_for_b,
                  "all 3n+1 rational cycles with denominator b, up to a word length", text)
    sub.add_argument("--b", type=int, required=True, help="denominator (positive, coprime to 6)")
    sub.add_argument("--max-len", type=int, default=12)
    sub = command("cycles classify", _run_cycles_classify,
                  "iterate a seed until its orbit reaches a cycle", text, map_args=True)
    sub.add_argument("--start", required=True, help="integer or rational seed")
    sub.add_argument("--max-steps", type=int, default=10000)

    sub = command("spectral check", _run_spectral_check,
                  "are all l-step walk counts mod p**k uniformly p**(l-k)", map_args=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--l-max", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
        if text is not None:
            if text and not text.endswith("\n"):
                text += "\n"
            if args.output:
                Path(args.output).write_text(text)
            else:
                sys.stdout.write(text)
        return code
    except (ValueError, ResourceLimitError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            message = _OUT_OF_MEMORY
        elif isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            message = _INT_TO_STR.format(sys.get_int_max_str_digits())
        else:
            message = exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())

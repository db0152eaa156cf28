"""Command-line front end over the library: graphs, conjugacies, sequences,
cycles, and spectral checks, with deterministic text/JSON/DOT output.

Exit codes: 0 for success or a true verdict, 1 for a false verdict, 2 for a
usage error (a violated precondition is named on standard error), 3 when an
iteration budget ran out before a decision could be reached.
"""

import argparse
import json
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
from .limits import ResourceLimitError
from .maps import PRESETS, BranchMap, map_from_json, standard_map
from .spectral import uniform_power_violation
from .words import fkm_sequence, is_debruijn_sequence, lyndon_words, necklace_count

OK = 0
FALSE = 1
USAGE = 2
UNDETERMINED = 3


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


def _emit(args: argparse.Namespace, text: str) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    output = getattr(args, "output", None)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _read_graph(args: argparse.Namespace) -> Digraph:
    if args.input == "-":
        return graph_from_json(sys.stdin.read())
    return graph_from_json(Path(args.input).read_text())


def _emit_graph(args: argparse.Namespace, g: Digraph) -> int:
    _emit(args, graph_to_json(g) if args.format == "json" else graph_to_dot(g))
    return OK


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


def _run_graph_modular(args: argparse.Namespace) -> int:
    return _emit_graph(args, modular_graph(_resolve_map(args), args.m))


def _run_graph_debruijn(args: argparse.Namespace) -> int:
    return _emit_graph(args, debruijn_graph(args.p, args.k))


def _run_graph_line(args: argparse.Namespace) -> int:
    return _emit_graph(args, line_graph(_read_graph(args)))


def _run_graph_transpose(args: argparse.Namespace) -> int:
    return _emit_graph(args, transpose(_read_graph(args)))


def _run_conj_perm(args: argparse.Namespace) -> int:
    phi = conjugacy_permutation(_resolve_map(args), args.k)
    if args.format == "json":
        _emit(args, json.dumps(phi.to_jsonable()))
    else:
        _emit(args, _perm_text(phi))
    return OK


def _run_conj_verify(args: argparse.Namespace) -> int:
    ok = verify_conjugacy(_resolve_map(args), args.k)
    _emit(args, "true" if ok else "false")
    return OK if ok else FALSE


def _run_conj_phi(args: argparse.Namespace) -> int:
    f = _resolve_map(args)
    if args.word is not None:
        _emit(args, str(phi_truncated(f, Word.from_str(args.word, f.p))))
        return OK
    if args.invert is not None:
        try:
            preimage = phi_inverse_truncated(f, Word.from_str(args.invert, f.p))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return FALSE
        _emit(args, str(preimage))
        return OK
    result = phi_exact(f, _parse_rational(args.exact), max_steps=args.max_steps)
    if result is None:
        _emit(args, "undetermined")
        return UNDETERMINED
    if args.format == "json":
        payload = {
            "value": str(result.value),
            "digits": str(result.digits),
            "steps_used": result.steps_used,
        }
        _emit(args, json.dumps(payload))
    else:
        _emit(args, str(result.value))
    return OK


def _run_seq_fkm(args: argparse.Namespace) -> int:
    _emit(args, str(fkm_sequence(args.p, args.k)))
    return OK


def _run_seq_verify(args: argparse.Namespace) -> int:
    digits = _parse_digit_list(args.sequence)
    base = max([args.p] + [d + 1 for d in digits])
    ok = is_debruijn_sequence(Word(base, digits), args.p, args.k)
    _emit(args, "true" if ok else "false")
    return OK if ok else FALSE


def _run_count_necklaces(args: argparse.Namespace) -> int:
    _emit(args, str(necklace_count(args.p, args.k)))
    return OK


def _run_words_lyndon(args: argparse.Namespace) -> int:
    found = lyndon_words(args.p, args.k, mode=args.mode)
    _emit(args, "\n".join(str(w) for w in found))
    return OK


def _run_cycles_from_word(args: argparse.Namespace) -> int:
    f = _resolve_map(args)
    cycle = word_cycle(f, Word.from_str(args.word, f.p))
    if args.format == "json":
        _emit(args, json.dumps(cycle.to_jsonable()))
    else:
        _emit(args, _cycle_text(cycle))
    return OK


def _run_cycles_for_b(args: argparse.Namespace) -> int:
    found = cycles_with_denominator(args.b, args.max_len)
    if args.format == "json":
        _emit(args, json.dumps([cycle.to_jsonable() for cycle in found]))
    else:
        lines = [
            f"{cycle.word}  b={cycle.b}  ({', '.join(str(n) for n in cycle.integer_cycle)})"
            for cycle in found
        ]
        _emit(args, "\n".join(lines))
    return OK


def _run_cycles_classify(args: argparse.Namespace) -> int:
    f = _resolve_map(args)
    result = classify_orbit(f, _parse_rational(args.start), max_steps=args.max_steps)
    if result is None:
        _emit(args, "undetermined")
        return UNDETERMINED
    if args.format == "json":
        payload = {"cycle": result.cycle.to_jsonable(), "preperiod": result.preperiod}
        _emit(args, json.dumps(payload))
    else:
        _emit(args, _cycle_text(result.cycle) + f"\npreperiod {result.preperiod}")
    return OK


def _run_spectral_check(args: argparse.Namespace) -> int:
    violation = uniform_power_violation(_resolve_map(args), args.k, args.l_max)
    if violation is None:
        _emit(args, "true")
        return OK
    l, i, j, entry = violation
    _emit(args, f"false\nviolation l={l} i={i} j={j} entry={entry}")
    return FALSE


def _add_map_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--map",
        default="collatz",
        help=f"branch map: one of {', '.join(PRESETS)}, or a path to a map JSON file",
    )
    parser.add_argument("--a", type=int, help="multiplier for the an+b preset (odd)")
    parser.add_argument("--b", type=int, help="offset for the an+b preset (odd)")


def _add_output_args(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--output", help="write to this file instead of standard output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatzgraphs",
        description="Modular digraphs of branch maps, De Bruijn graphs, digit "
        "conjugacies, necklace counting, and rational cycle tables.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    graph = top.add_parser("graph", help="build and convert digraphs").add_subparsers(
        dest="subcommand", required=True
    )
    g_mod = graph.add_parser("modular", help="residue transition graph of a branch map mod m")
    _add_map_args(g_mod)
    g_mod.add_argument("--m", type=int, required=True, help="modulus (number of vertices)")
    _add_output_args(g_mod, ("dot", "json"))
    g_mod.set_defaults(func=_run_graph_modular)

    g_db = graph.add_parser("debruijn", help="De Bruijn graph on p**k words")
    g_db.add_argument("--p", type=int, required=True)
    g_db.add_argument("--k", type=int, required=True)
    _add_output_args(g_db, ("dot", "json"))
    g_db.set_defaults(func=_run_graph_debruijn)

    g_line = graph.add_parser("line", help="line graph of a graph JSON (labels become vertices)")
    g_line.add_argument("--input", default="-", help="graph JSON file, or - for standard input")
    _add_output_args(g_line, ("dot", "json"))
    g_line.set_defaults(func=_run_graph_line)

    g_tr = graph.add_parser("transpose", help="reverse every edge of a graph JSON")
    g_tr.add_argument("--input", default="-", help="graph JSON file, or - for standard input")
    _add_output_args(g_tr, ("dot", "json"))
    g_tr.set_defaults(func=_run_graph_transpose)

    conj = top.add_parser("conj", help="digit conjugacy to the De Bruijn shift").add_subparsers(
        dest="subcommand", required=True
    )
    c_perm = conj.add_parser("perm", help="conjugacy permutation of residues mod p**k")
    _add_map_args(c_perm)
    c_perm.add_argument("--k", type=int, required=True)
    _add_output_args(c_perm, ("text", "json"))
    c_perm.set_defaults(func=_run_conj_perm)

    c_verify = conj.add_parser(
        "verify", help="check the permutation maps the modular graph onto the De Bruijn graph"
    )
    _add_map_args(c_verify)
    c_verify.add_argument("--k", type=int, required=True)
    c_verify.add_argument("--output")
    c_verify.set_defaults(func=_run_conj_verify)

    c_phi = conj.add_parser("phi", help="digit conjugacy of a single value")
    _add_map_args(c_phi)
    mode = c_phi.add_mutually_exclusive_group(required=True)
    mode.add_argument("--word", help="truncated image of a digit word")
    mode.add_argument("--exact", help="exact rational image of a rational input")
    mode.add_argument("--invert", help="preimage word of a digit word")
    c_phi.add_argument("--max-steps", type=int, default=10000)
    _add_output_args(c_phi, ("text", "json"))
    c_phi.set_defaults(func=_run_conj_phi)

    seq = top.add_parser("seq", help="De Bruijn sequences").add_subparsers(
        dest="subcommand", required=True
    )
    s_fkm = seq.add_parser("fkm", help="lexicographic Lyndon-word concatenation sequence")
    s_fkm.add_argument("--p", type=int, required=True)
    s_fkm.add_argument("--k", type=int, required=True)
    s_fkm.add_argument("--output")
    s_fkm.set_defaults(func=_run_seq_fkm)

    s_verify = seq.add_parser("verify", help="check a digit string is a (p, k) De Bruijn sequence")
    s_verify.add_argument("--p", type=int, required=True)
    s_verify.add_argument("--k", type=int, required=True)
    s_verify.add_argument("sequence", help="digit string (comma separated for digits above 9)")
    s_verify.add_argument("--output")
    s_verify.set_defaults(func=_run_seq_verify)

    count = top.add_parser("count", help="counting formulas").add_subparsers(
        dest="subcommand", required=True
    )
    c_neck = count.add_parser("necklaces", help="number of aperiodic necklaces of length k")
    c_neck.add_argument("--p", type=int, required=True)
    c_neck.add_argument("--k", type=int, required=True)
    c_neck.add_argument("--output")
    c_neck.set_defaults(func=_run_count_necklaces)

    words = top.add_parser("words", help="word enumeration").add_subparsers(
        dest="subcommand", required=True
    )
    w_lyndon = words.add_parser("lyndon", help="Lyndon words over p letters")
    w_lyndon.add_argument("--p", type=int, required=True)
    w_lyndon.add_argument("--k", type=int, required=True)
    w_lyndon.add_argument(
        "--mode",
        choices=("exact", "dividing"),
        default="exact",
        help="lengths exactly k, or all lengths dividing k",
    )
    w_lyndon.add_argument("--output")
    w_lyndon.set_defaults(func=_run_words_lyndon)

    cycles = top.add_parser("cycles", help="rational cycles of branch maps").add_subparsers(
        dest="subcommand", required=True
    )
    cy_word = cycles.add_parser("from-word", help="the cycle whose digit word is given")
    _add_map_args(cy_word)
    cy_word.add_argument("word", help="digit word over the map's base")
    _add_output_args(cy_word, ("text", "json"))
    cy_word.set_defaults(func=_run_cycles_from_word)

    cy_b = cycles.add_parser(
        "for-b", help="all 3n+1 rational cycles with denominator b, up to a word length"
    )
    cy_b.add_argument("--b", type=int, required=True, help="denominator (positive, coprime to 6)")
    cy_b.add_argument("--max-len", type=int, default=12)
    _add_output_args(cy_b, ("text", "json"))
    cy_b.set_defaults(func=_run_cycles_for_b)

    cy_cls = cycles.add_parser("classify", help="iterate a seed until its orbit reaches a cycle")
    _add_map_args(cy_cls)
    cy_cls.add_argument("--start", required=True, help="integer or rational seed")
    cy_cls.add_argument("--max-steps", type=int, default=10000)
    _add_output_args(cy_cls, ("text", "json"))
    cy_cls.set_defaults(func=_run_cycles_classify)

    spectral = top.add_parser("spectral", help="adjacency power checks").add_subparsers(
        dest="subcommand", required=True
    )
    sp_check = spectral.add_parser(
        "check", help="are all l-step walk counts mod p**k uniformly p**(l-k)"
    )
    _add_map_args(sp_check)
    sp_check.add_argument("--k", type=int, required=True)
    sp_check.add_argument("--l-max", type=int, required=True)
    sp_check.add_argument("--output")
    sp_check.set_defaults(func=_run_spectral_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())

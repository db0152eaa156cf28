#!/usr/bin/env python3
"""Census of 3n+1 rational cycles indexed by binary Lyndon words.

Groups every cycle with word length up to --max-len by its denominator b and
prints a table (or JSON with --json): one row per cycle, showing the word,
the denominator, and the scaled integer cycle of the 3n+b map.  Useful for
eyeballing how slowly new denominators appear as the word length grows.

Run:  python scripts/cycle_census.py --max-len 12 [--b 5] [--json]
"""

import argparse
import json
import sys
from collections import defaultdict

from collatzgraphs import collatz_cycles


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-len", type=int, default=12, help="largest word length to scan")
    parser.add_argument("--b", type=int, help="only show this denominator")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args()
    if args.max_len < 1:
        parser.error("--max-len must be at least 1")

    by_denominator = defaultdict(list)
    for cycle in collatz_cycles(args.max_len):
        by_denominator[cycle.b].append(cycle)
    denominators = sorted(by_denominator)
    if args.b is not None:
        denominators = [b for b in denominators if b == args.b]

    if args.json:
        payload = {
            str(b): [cycle.to_jsonable() for cycle in by_denominator[b]] for b in denominators
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0

    total = 0
    for b in denominators:
        cycles = by_denominator[b]
        total += len(cycles)
        print(f"b = {b}  ({len(cycles)} cycle{'s' if len(cycles) != 1 else ''})")
        for cycle in cycles:
            joined = ", ".join(str(n) for n in cycle.integer_cycle)
            print(f"  {str(cycle.word):>{args.max_len}}  ({joined})")
    print(f"\n{total} cycles from words of length <= {args.max_len}, "
          f"{len(denominators)} denominators")
    return 0


if __name__ == "__main__":
    sys.exit(main())

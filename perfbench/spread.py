"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload graphs --workload cli --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seed 1 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 11 12 13 14 15 16 17 18 19 20 --second-set-of perfbench/baseline.json

For every end-to-end metric it prints the median over the seeds and the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median, next to the bound BENCHMARK.json gives it. It does
the same for the raw wall-clock figures each run records (details.raw_*),
which are not host-scaled. Runs go one after another, each in its own
process, from the root of the checkout, for BENCHMARK.json's run_seconds.
With --trace-seed it also makes one traced run per workload and stores its
per-layer metrics. With --second-set-of it compares the medians with those
of an earlier --out file and stores the comparison in that file under
"second_set".
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = ("raw_setup_s", "raw_jobs_per_s", "raw_latency_p50_ms", "raw_latency_p90_ms")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    wall_s = time.monotonic() - start
    return {"provenance": json.loads(lines[-2]), "wall_s": wall_s, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace-seed", type=int, help="also make one traced run with this seed")
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    parser.add_argument("--second-set-of", type=Path, help="compare with this --out file")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    first = json.loads(args.second_set_of.read_text()) if args.second_set_of else None

    summary = {
        "about": (
            f"perfbench over seeds {args.seeds}, {seconds} s runs, one run per seed and workload."
            " spread = (q3 - q1) / median, statistics.quantiles(n=4). raw holds the wall-clock"
            " figures before host scaling."
        ),
        "seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        if not all(r["correct"] for r in runs):
            print(f"{name}: a run reported correct=false", file=sys.stderr)
        entry = {
            "provenance": runs[0]["provenance"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "end_to_end": {},
            "raw": {},
        }
        print(f"{name}: attempted {entry['attempted']}, wall seconds {entry['wall_s']}")
        for metric, spec_m in metrics.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = stats
            bound = spec_m["bound"]
            steady = metric == "setup_s" or stats["spread"] <= bound / 3
            line = (f"  {metric:20s} median {stats['median']:12.4f}  spread {stats['spread']:.4f}"
                    f"  bound {bound}{'' if steady else '  <-- over bound/3'}")
            if first is not None:
                stats["worse_than_first"] = worse_by(
                    first["workloads"][name]["end_to_end"][metric]["median"],
                    stats["median"],
                    spec_m["better"],
                )
                over = stats["worse_than_first"] > bound
                line += f"  worse than first {stats['worse_than_first']:+.4f}"
                line += "  <-- over bound" if over else ""
            print(line)
        for key in RAW:
            stats = summarize([r["provenance"]["details"][key] for r in runs])
            entry["raw"][key] = stats
            print(f"  {key:20s} median {stats['median']:12.4f}  spread {stats['spread']:.4f}")
        if args.trace_seed is not None:
            traced = run_once(name, args.trace_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
        summary["workloads"][name] = entry
    if first is not None:
        first["second_set"] = summary
        args.second_set_of.write_text(json.dumps(first, indent=1) + "\n")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

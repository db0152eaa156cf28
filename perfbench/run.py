"""The collatzgraphs benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 20 --trace 0

One client runs the workload's jobs back to back until the jobs have taken
--seconds in total (and at least MIN_JOBS have run, so that ten samples lie
beyond p90). Every output is checked against oracles.py outside the timed
region. Job times are scaled by a reference loop timed before each job, to
take out the host's speed drift. setup_s is the median of SETUP_REPS set-ups,
each in a fresh process timed from its spawn to its first job. --trace 0
prints the end-to-end metrics; --trace 1 instead runs one round of the same
inputs untraced and traced, again and again for --seconds, and prints
per-layer metrics per round. The
last line of standard output is the result as JSON; a copy with the run's
provenance goes to perfbench/out/.
See perfbench/README.md for the workloads and metric names.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import spans
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
MIN_BEYOND_P90 = 10
MIN_JOBS = 110  # with the inclusive deciles, 110 samples put 11 beyond p90
JOB_TIMEOUT_S = 60
LOOP_WALL_CAP_S = 120.0
REF_NOMINAL_S = 0.002
HELD_OUT_SEED = 9001  # reserved for confirming claims; do not tune against it

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
)

CLI_SUBS = (
    "graph-modular",
    "graph-line",
    "graph-debruijn",
    "conj-perm",
    "conj-verify",
    "cycles-for-b",
    "cycles-classify",
)

PER_LAYER = (
    *((f"{layer}.calls", "count") for layer in spans.LAYERS),
    *((f"{layer}.self_s", "s") for layer in spans.LAYERS),
    ("bench.self_s", "s"),
    ("maps.apply.calls", "count"),
    ("maps.digit_sequence.calls", "count"),
    ("conjugacy.permutation_s", "s"),
    ("conjugacy.verify_self_s", "s"),
    ("conjugacy.residues", "count"),
    ("graphs.build_s", "s"),
    ("graphs.isomorphism_s", "s"),
    ("graphs.edges_built", "count"),
    ("graphs.traced_peak_bytes_per_edge", "B"),
    ("graphs.export_s", "s"),
    ("graphs.parse_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.stdout_bytes", "B"),
    *((f"cli.command_s.{sub}", "s") for sub in CLI_SUBS),
    *((f"cli.child_rss_mib.{sub}", "MiB") for sub in CLI_SUBS),
    ("cycles.classify_s", "s"),
    ("cycles.seeds", "count"),
    ("cycles.determined_ratio", "ratio"),
    ("conjugacy.phi_exact_s", "s"),
    ("conjugacy.phi_exact_steps", "count"),
    ("arith.periodic_digits.constructions", "count"),
    ("cycles.census_s", "s"),
    ("cycles.words_scanned", "count"),
    ("cycles.census_hit_ratio", "ratio"),
    ("words.lyndon_words_yielded", "count"),
    ("spectral.check_self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

GRAPH_BUILDERS = (
    "graphs.modular_graph",
    "graphs.debruijn_graph",
    "graphs.line_graph",
    "graphs.restricted_graph",
    "graphs.transpose",
)


def _edges(args, kwargs, result, dur):
    return {"graphs.edges_built": len(result.edges)}


OBSERVERS = {
    **{name: _edges for name in (*GRAPH_BUILDERS, "graphs.graph_from_json")},
    "conjugacy.conjugacy_permutation": lambda a, kw, r, d: {"conjugacy.residues": r.size},
    "cycles.classify_orbit": lambda a, kw, r, d: {"cycles.determined": int(r is not None)},
    "conjugacy.phi_exact": lambda a, kw, r, d: {
        "conjugacy.phi_exact_steps": r.steps_used if r is not None else 0
    },
    "cycles.cycles_with_denominator": lambda a, kw, r, d: {"cycles.census_hits": len(r)},
    "words.lyndon_words": lambda a, kw, r, d: {"words.lyndon_words_yielded": len(r)},
    "cli.main": lambda a, kw, r, d: {f"cli.command_s.{workloads.subcommand(a[0])}": d},
}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"job ran past {JOB_TIMEOUT_S} s")


def timed(fn):
    """(output, error or None, seconds) of one job, with a timeout."""
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    start = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a failed job is counted, and the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    dur = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return out, err, dur


def checked(job, out, err):
    """The job's error, or its oracle check's, or None."""
    if err is not None:
        return err
    try:
        job.check(out)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def checked_pinned(wl) -> list[str]:
    try:
        wl.pinned()
    except Exception as exc:
        return [f"pinned fact: {type(exc).__name__}: {exc}"]
    return []


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, kind: str, err) -> None:
        self.attempted += 1
        if err is not None:
            self.failures.append(f"{kind}: {err}")


def reference_work() -> int:
    """A fixed pure-Python loop, about 2 ms on the machine the benchmark was
    tuned on. Its time tracks how fast the host runs this process right now."""
    out = []
    for n in range(1, 8000):
        x = n // 2 if n % 2 == 0 else (3 * n + 1) // 2
        out.append((x, n % 7))
    return len({a for a, _ in out})


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def host_scaled(durations: list[float], refs: list[float]) -> list[float]:
    """Each duration at the nominal host speed: times REF_NOMINAL_S over the
    median reference time of the five jobs around it. The host's speed drifts
    by tens of percent within seconds; the reference run before each job
    measures that drift, and this takes it out."""
    n = len(refs)
    return [
        d * REF_NOMINAL_S / statistics.median(refs[max(0, i - 2) : min(n, i + 3)])
        for i, d in enumerate(durations)
    ]


def run_timed(wl, seconds: float, tally: Tally, problems: list[str]) -> dict:
    raw, refs, kinds = [], [], []
    passed = []
    busy = 0.0
    wall_start = time.monotonic()
    for job in itertools.chain.from_iterable(itertools.cycle(wl.rounds)):
        if busy >= seconds and len(raw) >= MIN_JOBS:
            break
        if time.monotonic() - wall_start > LOOP_WALL_CAP_S:
            problems.append(
                f"the loop hit its {LOOP_WALL_CAP_S:.0f} s wall-time cap after {len(raw)} jobs"
                f" and {busy:.1f} busy seconds"
            )
            break
        refs.append(reference_s())
        out, err, dur = timed(job.run)
        err = checked(job, out, err)
        tally.add(job.kind, err)
        busy += dur
        raw.append(dur)
        kinds.append(job.kind)
        passed.append(err is None)
    scaled = host_scaled(raw, refs)
    deciles = statistics.quantiles(scaled, n=10, method="inclusive")
    if wl.children is not None:
        peak_kib = max(kib for _, kib in wl.children.rss_kib)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    by_kind = defaultdict(list)
    for kind, dur in zip(kinds, scaled):
        by_kind[kind].append(dur)
    beyond_p90 = sum(1 for x in scaled if x > deciles[8])
    if beyond_p90 < MIN_BEYOND_P90:
        problems.append(f"only {beyond_p90} samples lie beyond p90")
    return {
        "jobs_per_s": sum(passed) / sum(scaled),
        "latency_p50_ms": 1000 * statistics.median(scaled),
        "latency_p90_ms": 1000 * deciles[8],
        "peak_rss_mib": peak_kib / 1024,
        "success_rate": sum(passed) / len(passed),
        "_samples": len(scaled),
        "_beyond_p90": beyond_p90,
        "_busy_s": busy,
        "_reference_median_ms": 1000 * statistics.median(refs),
        "_raw_jobs_per_s": sum(passed) / busy,
        "_raw_latency_p50_ms": 1000 * statistics.median(raw),
        "_raw_latency_p90_ms": 1000 * statistics.quantiles(raw, n=10, method="inclusive")[8],
        "_median_ms_by_kind": {k: 1000 * statistics.median(v) for k, v in sorted(by_kind.items())},
    }


def run_traced(wl, seconds: float, tally: Tally, problems: list[str]) -> dict:
    jobs = wl.rounds[0]
    lib = wl.lib
    modules = [lib[layer] for layer in spans.LAYERS]
    tracer = spans.Tracer(OBSERVERS)
    untraced_s = traced_s = 0.0
    rounds = 0
    stdout_bytes = 0
    start = time.monotonic()
    while rounds == 0 or time.monotonic() - start < seconds:
        if wl.children is not None:
            for job in jobs:
                out, err, _ = timed(job.run)
                tally.add(job.kind, checked(job, out, err))
                if err is None:
                    stdout_bytes += len(out.stdout)
        plain = []
        for job in jobs:
            out, err, dur = timed(job.in_process())
            untraced_s += dur
            plain.append(out)
            tally.add(job.kind, checked(job, out, err))
        restore = spans.install(tracer, lib["package"], modules)
        try:
            for i, job in enumerate(jobs):
                res, err, _ = timed(lambda: tracer.run_job(i, job.in_process()))
                out, dur = res if err is None else (None, 0.0)
                traced_s += dur
                tally.add(job.kind, checked(job, out, err))
                if out != plain[i]:
                    problems.append(f"{job.kind}: traced output differs from untraced")
        finally:
            restore()
        tracer.record = False
        rounds += 1

    problems.extend(_self_time_problems(tracer))
    metrics = per_layer_metrics(tracer, rounds)
    for layer in workloads.EXERCISED[wl.name]:
        if not metrics[f"{layer}.calls"]:
            problems.append(f"layer {layer} recorded no call")
    rss = defaultdict(int)
    for sub, kib in wl.children.rss_kib if wl.children is not None else ():
        rss[sub] = max(rss[sub], kib)
    metrics.update({f"cli.child_rss_mib.{sub}": rss[sub] / 1024 for sub in CLI_SUBS})
    metrics.update(
        {
            "graphs.traced_peak_bytes_per_edge": _peak_bytes_per_edge(jobs, tracer, rounds),
            "cli.startup_s": wl.startup_s,
            "cli.stdout_bytes": stdout_bytes / rounds,
            "trace.overhead_ratio": traced_s / untraced_s,
            "_rounds": rounds,
        }
    )
    _write_spans(wl.name, tracer)
    return metrics


def per_layer_metrics(tracer, rounds: int) -> dict:
    """The per-round metrics that come from the tracer's counts and times."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for name, n in tracer.calls.items():
        calls[spans.layer_of(name)] += n
        self_s[spans.layer_of(name)] += tracer.self_s[name]
    counters = defaultdict(float)
    for job_counts in tracer.counters.values():
        for key, value in job_counts.items():
            counters[key] += value

    def per_round(value):
        return value / rounds

    def total(*names):
        return per_round(sum(tracer.total_s[n] for n in names))

    def ratio(num, den):
        return num / den if den else 0.0

    scanned = tracer.calls["cycles.collatz_cycle"]
    seeds = tracer.calls["cycles.classify_orbit"]
    metrics = {f"{layer}.calls": per_round(calls[layer]) for layer in spans.LAYERS}
    metrics.update({f"{layer}.self_s": per_round(self_s[layer]) for layer in spans.LAYERS})
    metrics.update(
        {f"cli.command_s.{sub}": per_round(counters[f"cli.command_s.{sub}"]) for sub in CLI_SUBS}
    )
    metrics.update(
        {
            "bench.self_s": per_round(self_s["bench"]),
            "maps.apply.calls": per_round(tracer.calls["maps.BranchMap.apply"]),
            "maps.digit_sequence.calls": per_round(tracer.calls["maps.BranchMap.digit_sequence"]),
            "conjugacy.permutation_s": total("conjugacy.conjugacy_permutation"),
            "conjugacy.verify_self_s": per_round(tracer.self_s["conjugacy.verify_conjugacy"]),
            "conjugacy.residues": per_round(counters["conjugacy.residues"]),
            "graphs.build_s": total(*GRAPH_BUILDERS),
            "graphs.isomorphism_s": total("graphs.check_isomorphism"),
            "graphs.edges_built": per_round(counters["graphs.edges_built"]),
            "graphs.export_s": total("graphs.graph_to_json", "graphs.graph_to_dot"),
            "graphs.parse_s": total("graphs.graph_from_json"),
            "cycles.classify_s": total("cycles.classify_orbit"),
            "cycles.seeds": per_round(seeds),
            "cycles.determined_ratio": ratio(counters["cycles.determined"], seeds),
            "conjugacy.phi_exact_s": total("conjugacy.phi_exact"),
            "conjugacy.phi_exact_steps": per_round(counters["conjugacy.phi_exact_steps"]),
            "arith.periodic_digits.constructions": per_round(
                tracer.calls["arith.PeriodicDigits.__post_init__"]
            ),
            "cycles.census_s": total("cycles.cycles_with_denominator"),
            "cycles.words_scanned": per_round(scanned),
            "cycles.census_hit_ratio": ratio(counters["cycles.census_hits"], scanned),
            "words.lyndon_words_yielded": per_round(counters["words.lyndon_words_yielded"]),
            "spectral.check_self_s": per_round(
                tracer.self_s["spectral.uniform_power_violation"]
                + tracer.self_s["spectral.check_uniform_power"]
            ),
            "trace.spans": len(tracer.spans),
        }
    )
    return metrics


def _self_time_problems(tracer) -> list[str]:
    """Self times of each job's kept spans plus the hot calls they enclose
    must add up to the job's own duration, and none may be negative."""
    problems = []
    own = spans.self_times(tracer.spans)
    by_job = defaultdict(float)
    for s in tracer.spans:
        by_job[s.job] += own[s.id] + s.hot_s
        if own[s.id] < -1e-7:
            problems.append(f"span {s.name} has negative self time {own[s.id]}")
    for s in tracer.spans:
        if s.name == spans.ROOT and abs(by_job[s.job] - (s.end - s.start)) > 1e-6:
            problems.append(f"job {s.job}: self times sum to {by_job[s.job]}, not the job time")
    jobs_total = tracer.total_s[spans.ROOT]
    if abs(sum(tracer.self_s.values()) - jobs_total) > 1e-6 * max(1, len(tracer.calls)):
        problems.append("per-name self times do not sum to the traced job time")
    return problems


def _peak_bytes_per_edge(jobs, tracer, rounds: int) -> float:
    """tracemalloc peak of the job that builds the most graph edges, divided
    by those edges; run untraced, after the traced rounds."""
    edges = {j: c["graphs.edges_built"] for j, c in tracer.counters.items()}
    if not edges or max(edges.values()) == 0:
        return 0.0
    job_id = max(edges, key=edges.get)
    tracemalloc.start()
    try:
        jobs[job_id].in_process()()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (edges[job_id] / rounds)


def _write_spans(name: str, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}.jsonl"
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_used": max(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup_only(name: str, seed: int) -> int:
    """Set the workload up, then print one line: the set-up's own machinery
    time and the CLI start-up time, as JSON. fresh_setup times this."""
    try:
        wl = workloads.build(name, seed)
    except workloads.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"own_setup_s": wl.own_setup_s, "startup_s": wl.startup_s}), flush=True)
    wl.close()
    return 0


def fresh_setup(name: str, seed: int) -> tuple[float, float, float]:
    """One set-up in a new process, timed from its spawn until its first job
    could start: interpreter start-up, every import, map construction, input
    generation and warm-up (for cli also the trivial invocation), less the
    time the child reports for benchmark machinery (the CLI spawner).
    Returns (host-scaled seconds, raw seconds, CLI start-up seconds)."""
    before = reference_s()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not line or proc.wait(timeout=JOB_TIMEOUT_S) != 0:
            raise RuntimeError(f"the set-up process for {name} failed")
    except BaseException:
        proc.kill()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        proc.wait()
        proc.stdout.close()
    report = json.loads(line)
    raw = elapsed - report["own_setup_s"]
    ref = (before + reference_s()) / 2
    return raw * REF_NOMINAL_S / ref, raw, report["startup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, print one line and exit (timed by run.py)"
    )
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be given and positive")
    signal.signal(signal.SIGALRM, _alarm)
    meta = provenance(args.seed)
    # The reference loop only measures the CPU it runs on, so the jobs and
    # their child processes run on that CPU too.
    os.sched_setaffinity(0, {meta["cpu_used"]})

    try:
        wl = workloads.build(args.workload, args.seed)
    except workloads.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    problems: list[str] = []
    try:
        setups = [fresh_setup(args.workload, args.seed) for _ in range(SETUP_REPS)]
        wl.startup_s = statistics.median(startup for _, _, startup in setups)
        if args.trace:
            measured = run_traced(wl, args.seconds, tally, problems)
            names = PER_LAYER
        else:
            measured = run_timed(wl, args.seconds, tally, problems)
            measured["setup_s"] = statistics.median(scaled for scaled, _, _ in setups)
            measured["_raw_setup_s"] = statistics.median(raw for _, raw, _ in setups)
            measured["_setup_s_reps"] = [scaled for scaled, _, _ in setups]
            names = END_TO_END
        problems.extend(checked_pinned(wl))
    finally:
        wl.close()

    result = {
        "correct": not tally.failures and not problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in names},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        **meta,
        "details": {k[1:]: v for k, v in measured.items() if k.startswith("_")},
        "failures": tally.failures[:20],
        "problems": problems[:20],
        **result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in tally.failures[:20] + problems[:20]:
        print(f"failure: {line}")
    print(json.dumps({k: v for k, v in record.items() if k not in result}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

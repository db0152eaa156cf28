"""The benchmark's four workloads: seeded inputs, the jobs that run them, and
the check of every job's output against oracles.py.

A workload is a list of rounds; a round runs each of the workload's cases
once, in an order shuffled by the seed. Rounds differ only where a case takes
seeded inputs (orbit seeds, census denominators, CLI arguments). The library
receives only these generated inputs, never the seed.
"""

import contextlib
import importlib
import io
import json
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, NamedTuple

import oracles as oc
from spans import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "collatzgraphs"

ROUNDS = 64
CHILD_TIMEOUT_S = 30.0

# (map name, k): conjugacy_permutation plus verify_conjugacy. With the
# spectral cases below, six jobs take under 25 ms, three 40-50 ms, three
# 60-100 ms and three about 200 ms, so p50 and p90 fall in the middle of a
# band rather than between two.
CONJ_CASES = (
    ("collatz", 10),
    ("collatz", 11),
    ("collatz", 12),
    ("collatz", 13),
    ("5n+1", 11),
    ("5n+1", 13),
    ("original", 5),
    ("original", 6),
    ("original", 7),
    ("original", 8),
)
# (map name, k): check_uniform_power with l_max = k + 3.
SPECTRAL_CASES = (("collatz", 6), ("collatz", 7), ("collatz", 8), ("original", 4), ("original", 5))

# (group, map name, seeds per batch, max_steps). Four batches take about
# 50 ms; the rational batch about twice that, so p90 falls inside its band.
ORBIT_GROUPS = (
    ("collatz-1e6", "collatz", 28, 10000),
    ("collatz-1e12", "collatz", 14, 10000),
    ("collatz-rational", "collatz", 80, 10000),
    ("3n+5", "3n+5", 36, 10000),
    ("5n+1", "5n+1", 5, 500),
)

CENSUS_LENGTHS = (10, 11, 12, 12)  # the longest twice, so p90 falls well inside its band
DEBRUIJN_CASES = ((2, 16), (3, 10), (4, 8))
LYNDON_CASE = (2, 18)
DENOMINATORS = tuple(b for b in range(1, 50) if gcd(b, 6) == 1)

CLI_M = 8192
CLI_K = 12
CLI_MAX_LEN = 10
TRIVIAL_ARGV = ("conj", "perm", "--k", "4", "--format", "json")

ORACLE_MAPS = {
    "collatz": oc.COLLATZ,
    "5n+1": oc.an_plus_b(5, 1),
    "3n+5": oc.an_plus_b(3, 5),
    "original": oc.ORIGINAL,
}

# The layers each workload is built to exercise; a traced run fails its
# self-check when one of them records no call.
EXERCISED = {
    "graphs": ("maps", "graphs", "conjugacy", "spectral"),
    "orbits": ("arith", "maps", "cycles", "conjugacy"),
    "census": ("words", "cycles"),
    "cli": ("cli", "graphs", "conjugacy", "cycles"),
}


class LibraryMissing(RuntimeError):
    """The checkout has no importable collatzgraphs package under src/."""


@dataclass
class Job:
    kind: str
    inputs: tuple  # the generated arguments, for inspection and tests
    run: Callable[[], object]
    check: Callable[[object], None]
    inproc: Callable[[], object] | None = None  # the same job without subprocesses

    def in_process(self) -> Callable[[], object]:
        return self.inproc or self.run


@dataclass
class Workload:
    name: str
    rounds: list[list[Job]]
    pinned: Callable[[], None]
    children: "Children | None" = None
    startup_s: float = 0.0
    own_setup_s: float = 0.0  # set-up spent on benchmark machinery, left out of setup_s
    lib: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.children is not None:
            self.children.close()


def load_library() -> dict:
    """Import collatzgraphs from this checkout's src/; returns the package
    under "package" and each layer module under its name."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise LibraryMissing(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise LibraryMissing(f"{PACKAGE} was imported from {package.__file__}, not {SRC}")
    lib = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    lib["package"] = package
    return lib


def library_maps(cg) -> dict:
    return {
        "collatz": cg.collatz_map(),
        "5n+1": cg.an_plus_b_map(5, 1),
        "3n+5": cg.an_plus_b_map(3, 5),
        "original": cg.original_collatz_map(),
    }


class Verified:
    """Checks an output once against the oracle, then by equality with it."""

    def __init__(self):
        self._seen: dict = {}

    def check(self, key, out, oracle: Callable[[object], None]) -> None:
        if key in self._seen and self._seen[key] == out:
            return
        oracle(out)
        self._seen[key] = out


# ---------------------------------------------------------------- graphs


def _graphs(rng: random.Random, lib: dict) -> Workload:
    cg = lib["package"]
    maps = library_maps(cg)
    verified = Verified()

    def conj_job(name: str, k: int) -> Job:
        f, fmap = maps[name], ORACLE_MAPS[name]

        def run():
            return cg.conjugacy_permutation(f, k), cg.verify_conjugacy(f, k)

        def oracle(out):
            perm, verdict = out
            oc.check_permutation(fmap, k, perm.images)
            oc.expect(verdict is oc.conjugacy_holds(fmap, k, list(perm.images)), "verdict")

        return Job(
            f"conj {name} k={k}", (name, k), run, lambda out: verified.check((name, k), out, oracle)
        )

    def spectral_job(name: str, k: int) -> Job:
        f, fmap = maps[name], ORACLE_MAPS[name]

        def oracle(out):
            oc.expect(out is oc.uniform_walks(fmap, k, k + 3), f"uniform power {name} k={k}")

        return Job(
            f"spectral {name} k={k}",
            (name, k, k + 3),
            lambda: cg.check_uniform_power(f, k, k + 3),
            lambda out: verified.check(("spectral", name, k), out, oracle),
        )

    cases = [conj_job(*c) for c in CONJ_CASES] + [spectral_job(*c) for c in SPECTRAL_CASES]
    rounds = [rng.sample(cases, len(cases)) for _ in range(ROUNDS)]
    cg.conjugacy_permutation(maps["collatz"], 4)
    cg.check_uniform_power(maps["collatz"], 3, 4)

    def pinned():
        cycles = cg.conjugacy_permutation(maps["collatz"], 4).cycles()
        oc.expect(cycles == oc.PINNED_CYCLES_K4, f"k=4 digit map cycles {cycles}")

    return Workload("graphs", rounds, pinned)


# ---------------------------------------------------------------- orbits


def _orbit_seed(group: str, rng: random.Random):
    if group == "collatz-1e6":
        return rng.randrange(9 * 10**5, 11 * 10**5)
    if group == "collatz-1e12":
        return rng.randrange(9 * 10**11, 11 * 10**11)
    if group == "collatz-rational":
        return Fraction(rng.randrange(-(10**4), 10**4), rng.randrange(1, 102, 2))
    return rng.randrange(1, 10**6)


def classified_plain(result):
    if result is None:
        return None
    c = result.cycle
    return c.elements, c.word.digits, c.b, c.integer_cycle, result.preperiod


def phi_plain(result):
    if result is None:
        return None
    d = result.digits
    return d.preperiod, d.period, result.value, result.steps_used


def _orbits(rng: random.Random, lib: dict) -> Workload:
    cg = lib["package"]
    maps = library_maps(cg)

    def batch_job(group: str, name: str, size: int, max_steps: int) -> Job:
        f, fmap = maps[name], ORACLE_MAPS[name]
        seeds = [_orbit_seed(group, rng) for _ in range(size)]

        def run():
            return [
                (cg.classify_orbit(f, x, max_steps), cg.phi_exact(f, x, max_steps)) for x in seeds
            ]

        def check(out):
            oc.expect(len(out) == len(seeds), "one result per seed")
            for x, (classified, phi) in zip(seeds, out):
                orbit = oc.Orbit(fmap, Fraction(x), max_steps)
                oc.check_classified(orbit, classified_plain(classified))
                oc.check_phi(orbit, phi_plain(phi))

        return Job(f"orbits {group}", (name, tuple(seeds), max_steps), run, check)

    rounds = []
    for _ in range(ROUNDS):
        batch = [batch_job(*g) for g in ORBIT_GROUPS]
        rng.shuffle(batch)
        rounds.append(batch)
    cg.classify_orbit(maps["collatz"], 27)
    cg.phi_exact(maps["collatz"], Fraction(1, 5))

    def pinned():
        result = cg.phi_exact(maps["collatz"], 5)
        got = (str(result.digits), result.value)
        oc.expect(got == oc.PINNED_PHI_5, f"phi_exact(T, 5) = {got}")

    return Workload("orbits", rounds, pinned)


# ---------------------------------------------------------------- census


def census_plain(cycles):
    return [(c.word.digits, c.elements, c.b, c.integer_cycle) for c in cycles]


def _census(rng: random.Random, lib: dict) -> Workload:
    cg = lib["package"]
    verified = Verified()
    tables: dict[int, dict] = {}

    def table(max_len: int) -> dict:
        if max_len not in tables:
            tables[max_len] = oc.census(max_len)
        return tables[max_len]

    def census_job(b: int, max_len: int) -> Job:
        return Job(
            f"census L={max_len}",
            (b, max_len),
            lambda: cg.cycles_with_denominator(b, max_len),
            lambda out: oc.check_census(b, max_len, census_plain(out), table(max_len)),
        )

    def debruijn_job(p: int, k: int) -> Job:
        def run():
            s = cg.fkm_sequence(p, k)
            return s, cg.is_debruijn_sequence(s, p, k)

        def oracle(out):
            oc.check_debruijn(p, k, out[0].digits, out[1])

        return Job(f"fkm p={p} k={k}", (p, k), run, lambda out: verified.check((p, k), out, oracle))

    p, k = LYNDON_CASE
    lyndon = Job(
        f"lyndon p={p} k={k}",
        (p, k),
        lambda: cg.lyndon_words(p, k),
        lambda out: verified.check(
            "lyndon", out, lambda words: oc.check_lyndon_list(p, k, [w.digits for w in words])
        ),
    )
    fixed = [debruijn_job(*c) for c in DEBRUIJN_CASES] + [lyndon]
    rounds = []
    for _ in range(ROUNDS):
        jobs = [census_job(rng.choice(DENOMINATORS), n) for n in CENSUS_LENGTHS] + fixed
        rng.shuffle(jobs)
        rounds.append(jobs)
    cg.cycles_with_denominator(5, 6)
    cg.is_debruijn_sequence(cg.fkm_sequence(2, 4), 2, 4)
    cg.lyndon_words(2, 6)

    def pinned():
        count = len(cg.cycles_with_denominator(1, 14))
        oc.expect(count == oc.PINNED_B1_COUNT, f"{count} cycles with b=1 up to length 14")

    return Workload("census", rounds, pinned)


# ---------------------------------------------------------------- cli


class ChildRun(NamedTuple):
    codes: tuple[int, ...]
    stdout: bytes


class Children:
    """Runs CLI pipelines through spawner.py and keeps each child's peak RSS."""

    def __init__(self):
        self.rss_kib: list[tuple[str, int]] = []
        self._spawner: subprocess.Popen | None = None

    def start(self) -> None:
        """Start the spawner and wait until it takes requests."""
        self._spawner = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            start_new_session=True,
        )
        try:
            head, _ = self._reply(time.monotonic() + CHILD_TIMEOUT_S)
        except BaseException:
            self._kill()
            raise
        if head != "ready - 0":
            self._kill()
            raise RuntimeError(f"the spawner said {head!r}")

    def run(self, pipeline) -> ChildRun:
        if self._spawner is None:
            self.start()
        request = "\x1e".join("\x1f".join(argv) for argv in pipeline) + "\n"
        try:
            self._spawner.stdin.write(request.encode())
            self._spawner.stdin.flush()
            head, stdout = self._reply(time.monotonic() + CHILD_TIMEOUT_S)
        except BaseException:
            self._kill()
            raise
        codes, rss, _ = head.split(" ")
        for argv, kib in zip(pipeline, rss.split(",")):
            self.rss_kib.append((subcommand(argv), int(kib)))
        return ChildRun(tuple(int(c) for c in codes.split(",")), stdout)

    def _reply(self, deadline: float) -> tuple[str, bytes]:
        fd = self._spawner.stdout.fileno()
        buf = bytearray()
        want = None
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while want is None or len(buf) < want:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise TimeoutError(f"pipeline ran past {CHILD_TIMEOUT_S} s")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError("the spawner exited")
                buf += chunk
                if want is None and b"\n" in buf:
                    head_len = buf.index(b"\n") + 1
                    want = head_len + int(buf[:head_len].split()[-1])
        head = buf[: head_len - 1].decode()
        return head, bytes(buf[head_len:])

    def _kill(self) -> None:
        """Stop the spawner and every child it started (one session)."""
        os.killpg(self._spawner.pid, signal.SIGKILL)
        self._spawner.wait()
        self._spawner.stdin.close()
        self._spawner.stdout.close()
        self._spawner = None

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            try:
                self._spawner.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self._spawner.pid, signal.SIGKILL)
                self._spawner.wait()
            self._spawner.stdout.close()
            self._spawner = None


def subcommand(argv) -> str:
    return f"{argv[0]}-{argv[1]}"


def run_in_process(cli, pipeline) -> ChildRun:
    """The same pipeline through cli.main in this process, stdout piped along."""
    text = ""
    codes = []
    for argv in pipeline:
        buf = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdin = saved
        codes.append(code)
        text = buf.getvalue()
    return ChildRun(tuple(codes), text.encode())


_DOT_EDGE = re.compile(r'  (\d+) -> (\d+) \[label="(\d+)"\];')


def _check_dot_debruijn(text: str, p: int, k: int) -> None:
    lines = text.splitlines()
    m = p**k
    oc.expect(lines[0] == "digraph {" and lines[-1] == "}", "DOT header or footer")
    oc.expect(lines[1 : m + 1] == [f"  {v};" for v in range(m)], "DOT vertex lines")
    edges = []
    for line in lines[m + 1 : -1]:
        match = _DOT_EDGE.fullmatch(line)
        oc.expect(match is not None, f"DOT edge line {line!r}")
        edges.append(tuple(int(g) for g in match.groups()))
    oc.expect(edges == oc.debruijn_edges(p, k), "De Bruijn DOT edges")


def _cycle_from_json(c: dict):
    elements = tuple(Fraction(e) for e in c["rational_cycle"])
    return tuple(int(d) for d in c["word"]), elements, c["b"], tuple(c["integer_cycle"])


def _cli(rng: random.Random, lib: dict) -> Workload:
    children = Children()
    verified = Verified()
    fmap = oc.COLLATZ
    tables: dict[int, dict] = {}

    def job(kind: str, pipeline, oracle) -> Job:
        pipeline = tuple(tuple(argv) for argv in pipeline)

        def check(out: ChildRun):
            oc.expect(all(code == 0 for code in out.codes), f"{kind} exit codes {out.codes}")
            verified.check(pipeline, out.stdout, lambda stdout: oracle(stdout.decode()))

        return Job(
            kind,
            pipeline,
            lambda: children.run(pipeline),
            check,
            lambda: run_in_process(lib["cli"], pipeline),
        )

    def line_graph(text):
        data = json.loads(text)
        want = [[s, t, None] for s, t in oc.line_of_modular_edges(fmap, CLI_M)]
        oc.expect(data == {"m": 2 * CLI_M, "edges": want}, "line graph of the modular graph")

    def perm(text):
        data = json.loads(text)
        oc.expect(data["size"] == 2**CLI_K, "permutation size")
        oc.check_permutation(fmap, CLI_K, data["images"], data["cycles"], data["order"])

    def verify(text):
        oc.expect(text == "true\n", f"conj verify printed {text!r}")
        oc.expect(oc.conjugacy_holds(fmap, CLI_K, oc.digit_map(fmap, CLI_K)), "conjugacy")

    def for_b(b):
        def oracle(text):
            if CLI_MAX_LEN not in tables:
                tables[CLI_MAX_LEN] = oc.census(CLI_MAX_LEN)
            cycles = [_cycle_from_json(c) for c in json.loads(text)]
            oc.check_census(b, CLI_MAX_LEN, cycles, tables[CLI_MAX_LEN])

        return oracle

    def classify(start):
        def oracle(text):
            data = json.loads(text)
            word, elements, b, integer_cycle = _cycle_from_json(data["cycle"])
            got = (elements, word, b, integer_cycle, data["preperiod"])
            oc.check_classified(oc.Orbit(fmap, Fraction(start), 10000), got)

        return oracle

    fixed = [
        job(
            "graph-modular|graph-line",
            [("graph", "modular", "--m", str(CLI_M), "--format", "json"),
             ("graph", "line", "--format", "json")],
            line_graph,
        ),
        job(
            "graph-debruijn",
            [("graph", "debruijn", "--p", "2", "--k", str(CLI_K))],
            lambda text: _check_dot_debruijn(text, 2, CLI_K),
        ),
        job("conj-perm", [("conj", "perm", "--k", str(CLI_K), "--format", "json")], perm),
        job("conj-verify", [("conj", "verify", "--k", str(CLI_K))], verify),
    ]
    rounds = []
    for _ in range(ROUNDS):
        b = rng.choice(DENOMINATORS)
        start = rng.randrange(1, 10**6)
        jobs = fixed + [
            job(
                "cycles-for-b",
                [("cycles", "for-b", "--b", str(b), "--max-len", str(CLI_MAX_LEN),
                  "--format", "json")],
                for_b(b),
            ),
            job(
                "cycles-classify",
                [("cycles", "classify", "--start", str(start), "--format", "json")],
                classify(start),
            ),
        ]
        rng.shuffle(jobs)
        rounds.append(jobs)

    # The spawner is benchmark machinery: start it before the trivial
    # invocation is timed, and leave its start-up out of setup_s.
    started = time.perf_counter()
    children.start()
    spawner_s = time.perf_counter() - started
    started = time.perf_counter()
    trivial = children.run([TRIVIAL_ARGV])
    startup_s = time.perf_counter() - started

    def pinned():
        oc.expect(trivial.codes == (0,), f"trivial invocation exit codes {trivial.codes}")
        cycles = [tuple(c) for c in json.loads(trivial.stdout)["cycles"]]
        oc.expect(cycles == oc.PINNED_CYCLES_K4, f"k=4 digit map cycles {cycles}")

    return Workload(
        "cli", rounds, pinned, children=children, startup_s=startup_s, own_setup_s=spawner_s
    )


BUILDERS = {"graphs": _graphs, "orbits": _orbits, "census": _census, "cli": _cli}


def build(name: str, seed: int) -> Workload:
    """One set-up: import, maps, seeded inputs and warm-up."""
    lib = load_library()
    workload = BUILDERS[name](random.Random(f"{name}:{seed}"), lib)
    workload.lib = lib
    return workload

"""Spans around the library's public functions, recorded from outside it.

install() replaces every public function and method of the package's modules
with a timing wrapper, and rebinds each name that another module imported
(conjugacy.modular_graph, maps.residue, the package's own re-exports), so
calls between layers are seen too. Nothing under src/ changes.

Calls to the functions in HOT run millions of times per round. They are timed
and counted but not kept as span records: the enclosing kept span carries
their total time as hot_s. Everything below a hot call counts as hot.
"""

import inspect
import time
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("arith", "maps", "words", "graphs", "conjugacy", "cycles", "spectral", "cli")

HOT = frozenset(
    {
        "arith.residue",
        "arith.mod_inverse",
        "arith.Word.__post_init__",
        "arith.Word.value",
        "arith.Word.from_int",
        "arith.Word.reversed",
        "maps.BranchMap.residue",
        "maps.BranchMap.apply",
        "maps.BranchMap.apply_word",
        "maps.BranchMap.digit_sequence",
        "words.is_primitive",
        "words.is_lyndon",
        "words.mobius",
    }
)

ROOT = "bench.job"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    job: int
    hot_s: float


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> its duration minus what its child spans and hot calls cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: s.end - s.start - covered(children[s.id], s.start, s.end) - s.hot_s for s in spans
    }


class _Frame:
    __slots__ = ("id", "child_s", "hot_s", "hot")

    def __init__(self, span_id: int, hot: bool):
        self.id = span_id
        self.child_s = 0.0
        self.hot_s = 0.0
        self.hot = hot


class Tracer:
    """Per-name call counts, self and total seconds, observer counters per
    job id, and the kept spans of the jobs run while record is true."""

    def __init__(self, observers=None, clock=time.perf_counter):
        self.observers = observers or {}
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.spans: list[Span] = []
        self.record = True
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._job = -1

    def _enter(self, hot: bool) -> _Frame:
        hot = hot or (bool(self._stack) and self._stack[-1].hot)
        frame = _Frame(self._next_id, hot)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: _Frame, start: float, end: float) -> float:
        self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame.child_s - frame.hot_s
        self.total_s[name] += dur
        if self._stack:
            parent = self._stack[-1]
            if frame.hot and not parent.hot:
                parent.hot_s += dur
            else:
                parent.child_s += dur
            parent_id = parent.id
        else:
            parent_id = -1
        if self.record and not frame.hot:
            self.spans.append(Span(frame.id, name, start, end, parent_id, self._job, frame.hot_s))
        return dur

    def wrap(self, name: str, fn):
        hot = name in HOT
        observe = self.observers.get(name)
        clock = self.clock

        def traced(*args, **kwargs):
            frame = self._enter(hot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._leave(name, frame, start, clock())
            if observe is not None:
                self.counters[self._job].update(observe(args, kwargs, result, dur))
            return result

        return traced

    def run_job(self, job_id: int, fn):
        """Run fn as the root span of one job; returns (result, seconds)."""
        self._job = job_id
        frame = self._enter(False)
        start = self.clock()
        try:
            result = fn()
        finally:
            dur = self._leave(ROOT, frame, start, self.clock())
        return result, dur


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the public functions
    of module and the public methods of the classes it defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj) and not name.startswith("_"):
            for attr, member in vars(obj).items():
                qual = f"{layer}.{name}.{attr}"
                if attr == "__post_init__":
                    yield qual, obj, attr, member
                elif attr.startswith("_"):
                    continue
                elif inspect.isfunction(member):
                    yield qual, obj, attr, member
                elif isinstance(member, classmethod):
                    yield qual, obj, attr, member


def install(tracer: Tracer, package, modules) -> callable:
    """Wrap the public callables of modules and rebind every module attribute
    (in modules and the package) that refers to one; returns an undo function."""
    replaced = {}
    undo = []
    for module in modules:
        for qual, owner, attr, member in _public_callables(module):
            if isinstance(member, classmethod):
                new = classmethod(tracer.wrap(qual, member.__func__))
            else:
                new = tracer.wrap(qual, member)
                replaced[id(member)] = new
            undo.append((owner, attr, member))
            setattr(owner, attr, new)
    for module in (package, *modules):
        for attr, value in list(vars(module).items()):
            new = replaced.get(id(value))
            if new is not None:
                undo.append((module, attr, value))
                setattr(module, attr, new)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]

"""Directed graphs on residues: modular graphs of branch maps, De Bruijn graphs.

A graph is a vertex count n (vertices are 0..n-1) and three parallel
array('q') columns with one entry per edge: sources, targets and labels,
where the label -1 means "unlabeled". Labels are optional but pairwise
distinct when present. Multi-edges are distinguished only by label; the
projection to (source, target) pairs is what isomorphism checks compare.
The builders below write the columns directly; the Digraph(n, edges)
constructor, which hand-made and parsed graphs go through, validates and
deduplicates its (source, target, label) triples in one pass over one set.
Graphs are never modified once built.

Builders count what they will store (edges, or the vertices of a restricted,
hand-made or parsed graph) against the size budget of limits.py before
building anything, so a typo cannot ask for a 2**40-edge graph.
"""

from array import array
from collections import Counter
from collections.abc import Iterable, Set
from math import lcm

from .arith import _Record
from .limits import check_size
from .maps import BranchMap, _wire_form

Edge = tuple[int, int, int | None]
NO_LABEL = -1


class EdgeView(Set):
    """A graph's edges as a read-only set of (source, target, label) triples,
    label None when unlabeled. Derived from the columns: len is O(1),
    membership a linear scan."""

    __slots__ = ("_g",)

    def __init__(self, g: "Digraph"):
        self._g = g

    def __len__(self) -> int:
        return len(self._g.sources)

    def __iter__(self):
        for s, t, label in self._g._triples():
            yield s, t, None if label == NO_LABEL else label

    def __contains__(self, edge) -> bool:
        return any(e == edge for e in self)


class Digraph:
    """Vertices 0..n-1 with optionally labeled edges, stored as columns."""

    __slots__ = ("n", "sources", "targets", "labels")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        # export, line graphs and degree lists hold one entry per vertex
        check_size("graph vertices", n)
        triples = set()
        for s, t, label in edges:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"edge ({s}, {t}) leaves the vertex range 0..{n - 1}")
            if label is not None and label < 0:
                raise ValueError(f"negative edge label {label}")
            triples.add((s, t, label))
        labels = [label for _, _, label in triples if label is not None]
        if len(labels) != len(set(labels)):
            raise ValueError("edge labels must be pairwise distinct")
        self.n = n
        try:
            self.sources = array("q", [s for s, _, _ in triples])
            self.targets = array("q", [t for _, t, _ in triples])
            self.labels = array("q", [NO_LABEL if x is None else x for _, _, x in triples])
        except OverflowError:
            raise ValueError("edge endpoints and labels must fit in 64 bits") from None

    @classmethod
    def _from_columns(cls, n: int, sources: array, targets: array, labels: array) -> "Digraph":
        """A graph on columns a builder wrote, trusted as they are."""
        g = cls.__new__(cls)
        g.n, g.sources, g.targets, g.labels = n, sources, targets, labels
        return g

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.n == other.n
            and len(self.sources) == len(other.sources)
            and sorted(self._triples()) == sorted(other._triples())
        )

    def __hash__(self) -> int:
        return hash((self.n, len(self.sources)))

    def __repr__(self) -> str:
        return f"<Digraph on {self.n} vertices with {len(self.sources)} edges>"

    def _triples(self):
        """(source, target, label) with label -1 for unlabeled edges."""
        return zip(self.sources, self.targets, self.labels)

    def _canonical_triples(self):
        """(source, target, label) in export order, label -1 when unlabeled.

        Each edge is sorted as one integer key, (s*n + t) * span + label + 1,
        which orders like the triple and is decoded on the way out, so no
        list of tuples is held. Unlabeled edges come first among equal
        (source, target) pairs, since -1 sorts below every real label.
        """
        n = self.n
        span = max(self.labels, default=NO_LABEL) + 2
        keys = [(s * n + t) * span + label + 1 for s, t, label in self._triples()]
        keys.sort()
        for key in keys:
            pair, label = divmod(key, span)
            s, t = divmod(pair, n)
            yield s, t, label - 1

    def simple_edges(self) -> frozenset[tuple[int, int]]:
        """The (source, target) projection as a set."""
        return frozenset(zip(self.sources, self.targets))

    def edge_multiset(self) -> Counter:
        """The (source, target) projection counted with label multiplicity."""
        return Counter(zip(self.sources, self.targets))

    def out_degrees(self) -> list[int]:
        return _count(self.sources, self.n)


def _count(column: array, n: int) -> list[int]:
    counts = [0] * n
    for v in column:
        counts[v] += 1
    return counts


def _unlabeled(size: int) -> array:
    return array("q", [NO_LABEL]) * size


class Permutation(_Record):
    """A bijection on {0..size-1}, stored as its image tuple."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]):
        object.__setattr__(self, "images", tuple(images))
        self.__post_init__()

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images do not form a bijection on 0..size-1")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.size != other.size:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[other.images[x]] for x in range(self.size)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least element, sorted by that element."""
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cyc.append(cur)
                cur = self.images[cur]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        """Least e >= 1 with the e-fold composition equal to the identity."""
        return lcm(*(len(c) for c in self.cycles()), 1)

    def to_jsonable(self) -> dict:
        return {
            "size": self.size,
            "images": list(self.images),
            "cycles": [list(c) for c in self.cycles()],
            "order": self.order(),
        }


def modular_graph(f: BranchMap, m: int) -> Digraph:
    """The graph of f on residues mod m.

    Every residue r mod p*m contributes the edge (r mod m) -> (f(r) mod m),
    labeled r; f(n) mod m depends only on n mod p*m, so these p*m labeled
    edges realize exactly the relation "some lift of a maps onto b". Edge r
    sits at position r of the columns.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    check_size("modular graph edges", f.p * m)
    size = f.p * m
    apply = f.apply
    targets = array("q", [apply(r) % m for r in range(size)])
    return Digraph._from_columns(m, array("q", range(m)) * f.p, targets, array("q", range(size)))


def debruijn_graph(p: int, k: int) -> Digraph:
    """The p-ary De Bruijn graph of dimension k.

    Vertices are the numbers of length-k digit words (digit i weighted by
    p**i). The word w steps to any word sharing its last k-1 digits:
    n -> (n - n mod p)/p + x*p**(k-1), labeled by the overlap word n + x*p**k,
    which is also the edge's position in the columns.
    """
    if p < 2:
        raise ValueError(f"alphabet size must be at least 2, got {p}")
    if k < 1:
        raise ValueError(f"dimension must be at least 1, got {k}")
    check_size("De Bruijn graph edges", 1, p, k + 1)
    m = p**k
    step = p ** (k - 1)
    heads = [n // p for n in range(m)]
    targets = array("q")
    for x in range(p):
        shift = x * step
        targets.extend([head + shift for head in heads])
    return Digraph._from_columns(m, array("q", range(m)) * p, targets, array("q", range(p * m)))


def line_graph(g: Digraph) -> Digraph:
    """Edges become vertices, named by their labels; u -> v when u's target is v's source.

    Requires every edge to be labeled, with labels exactly 0..len(edges)-1,
    which is what the modular and De Bruijn builders produce.
    """
    labels = g.labels
    if sorted(labels) != list(range(len(labels))):
        raise ValueError("line graph needs all edges labeled exactly 0..E-1")
    out_degrees = g.out_degrees()
    check_size("line graph edges", sum(out_degrees[t] for t in g.targets))
    outgoing = [[] for _ in range(g.n)]
    for s, label in zip(g.sources, labels):
        outgoing[s].append(label)
    sources = array("q")
    targets = array("q")
    for t, label in zip(g.targets, labels):
        succ = outgoing[t]
        sources.extend([label] * len(succ))
        targets.extend(succ)
    return Digraph._from_columns(len(labels), sources, targets, _unlabeled(len(sources)))


def transpose(g: Digraph) -> Digraph:
    """Reverse every edge, keeping labels."""
    return Digraph._from_columns(g.n, g.targets, g.sources, g.labels)


def check_isomorphism(g: Digraph, h: Digraph, phi: Permutation) -> bool:
    """Does phi carry the (source, target) pairs of g exactly onto those of h?

    Pairs are compared as multisets, one per labeled edge: each side is the
    sorted list of its pairs encoded as source * n + target. Vertex counts
    must agree with the permutation size.
    """
    if g.n != h.n or phi.size != g.n:
        raise ValueError(
            f"size mismatch: graphs have {g.n} and {h.n} vertices, permutation {phi.size}"
        )
    n = g.n
    img = phi.images
    mapped = sorted([img[s] * n + img[t] for s, t in zip(g.sources, g.targets)])
    return mapped == sorted([s * n + t for s, t in zip(h.sources, h.targets)])


def restricted_graph(f: BranchMap, bound: int) -> Digraph:
    """The plain orbit graph n -> f(n) on {0..bound-1}; edges leaving the range are dropped."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    check_size("restricted graph vertices", bound)
    sources = array("q")
    targets = array("q")
    for v in range(bound):
        t = f.apply(v)
        if 0 <= t < bound:
            sources.append(v)
            targets.append(t)
    return Digraph._from_columns(bound, sources, targets, _unlabeled(len(sources)))


def graph_to_dot(g: Digraph) -> str:
    """Deterministic DOT rendering: vertices ascending, then edges in canonical order."""
    lines = ["digraph {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [
        f"  {s} -> {t};" if label == NO_LABEL else f'  {s} -> {t} [label="{label}"];'
        for s, t, label in g._canonical_triples()
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Digraph) -> str:
    """Wire form: {"m": n, "edges": [[source, target, label-or-null], ...]}, sorted.

    Written piece by piece in exactly json.dumps's layout, without building
    the nested lists.
    """
    edges = ", ".join(
        f"[{s}, {t}, {'null' if label == NO_LABEL else label}]"
        for s, t, label in g._canonical_triples()
    )
    return f'{{"m": {g.n}, "edges": [{edges}]}}'


def graph_from_json(text: str) -> Digraph:
    """Parse the wire form back into a graph, re-validating."""
    m, raw_edges = _wire_form(text, "graph", "m", "edges")
    check_size("graph JSON edges", len(raw_edges))
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 3):
            raise ValueError(f"graph JSON: edge {item!r} is not a [source, target, label] triple")
        s, t, label = item
        if type(s) is not int or type(t) is not int:
            raise ValueError(f"graph JSON: edge {item!r} has non-integer endpoints")
        if label is not None and type(label) is not int:
            raise ValueError(f"graph JSON: edge {item!r} has a non-integer label")
    g = Digraph(m, raw_edges)
    if len(g.sources) != len(raw_edges):
        raise ValueError("graph JSON: duplicate edges")
    return g

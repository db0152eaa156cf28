"""Directed graphs on residues: modular graphs of branch maps, De Bruijn graphs.

Graphs are immutable: a vertex count n (vertices are 0..n-1) and a frozenset
of edges (source, target, label). Labels are optional but pairwise distinct
when present. Multi-edges are distinguished only by label; the projection to
(source, target) pairs is what isomorphism checks compare.

Builders count what they will store (edges, or the vertices of a restricted
graph) against the size budget of limits.py before building anything, so a
typo cannot ask for a 2**40-edge graph.
"""

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import lcm

from .limits import check_size
from .maps import BranchMap

Edge = tuple[int, int, int | None]


def _edge_sort_key(edge: Edge):
    s, t, label = edge
    return (s, t, label is not None, 0 if label is None else label)


@dataclass(frozen=True)
class Digraph:
    """Vertices 0..n-1 with a set of optionally labeled edges."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", frozenset((s, t, label) for s, t, label in self.edges)
        )
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        labels = []
        for s, t, label in self.edges:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"edge ({s}, {t}) leaves the vertex range 0..{self.n - 1}")
            if label is not None:
                if label < 0:
                    raise ValueError(f"negative edge label {label}")
                labels.append(label)
        if len(labels) != len(set(labels)):
            raise ValueError("edge labels must be pairwise distinct")

    def sorted_edges(self) -> list[Edge]:
        """Edges in the canonical (source, target, label) order used for export."""
        return sorted(self.edges, key=_edge_sort_key)

    def simple_edges(self) -> frozenset[tuple[int, int]]:
        """The (source, target) projection as a set."""
        return frozenset((s, t) for s, t, _ in self.edges)

    def edge_multiset(self) -> Counter:
        """The (source, target) projection counted with label multiplicity."""
        return Counter((s, t) for s, t, _ in self.edges)

    def out_degrees(self) -> list[int]:
        degs = [0] * self.n
        for s, _, _ in self.edges:
            degs[s] += 1
        return degs

    def in_degrees(self) -> list[int]:
        degs = [0] * self.n
        for _, t, _ in self.edges:
            degs[t] += 1
        return degs


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..size-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
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

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(size)))

    @classmethod
    def from_cycles(cls, size: int, cycles) -> "Permutation":
        images = list(range(size))
        touched = set()
        for cyc in cycles:
            for v in cyc:
                if not 0 <= v < size:
                    raise ValueError(f"cycle element {v} outside 0..{size - 1}")
                if v in touched:
                    raise ValueError(f"cycles are not disjoint at {v}")
                touched.add(v)
            for i, v in enumerate(cyc):
                images[v] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))


def modular_graph(f: BranchMap, m: int) -> Digraph:
    """The graph of f on residues mod m.

    Every residue r mod p*m contributes the edge (r mod m) -> (f(r) mod m),
    labeled r; f(n) mod m depends only on n mod p*m, so these p*m labeled
    edges realize exactly the relation "some lift of a maps onto b".
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    check_size("modular graph edges", f.p * m)
    edges = set()
    for r in range(f.p * m):
        edges.add((r % m, f.apply(r) % m, r))
    return Digraph(m, frozenset(edges))


def debruijn_graph(p: int, k: int) -> Digraph:
    """The p-ary De Bruijn graph of dimension k.

    Vertices are the numbers of length-k digit words (digit i weighted by
    p**i). The word w steps to any word sharing its last k-1 digits:
    n -> (n - n mod p)/p + x*p**(k-1), labeled by the overlap word n + x*p**k.
    """
    if p < 2:
        raise ValueError(f"alphabet size must be at least 2, got {p}")
    if k < 1:
        raise ValueError(f"dimension must be at least 1, got {k}")
    check_size("De Bruijn graph edges", 1, p, k + 1)
    m = p**k
    edges = set()
    step = p ** (k - 1)
    for n in range(m):
        head = (n - n % p) // p
        for x in range(p):
            edges.add((n, head + x * step, n + x * m))
    return Digraph(m, frozenset(edges))


def line_graph(g: Digraph) -> Digraph:
    """Edges become vertices, named by their labels; u -> v when u's target is v's source.

    Requires every edge to be labeled, with labels exactly 0..len(edges)-1,
    which is what the modular and De Bruijn builders produce.
    """
    labels = sorted(label for _, _, label in g.edges if label is not None)
    if labels != list(range(len(g.edges))):
        raise ValueError("line graph needs all edges labeled exactly 0..E-1")
    out_degrees = g.out_degrees()
    check_size("line graph edges", sum(out_degrees[t] for _, t, _ in g.edges))
    outgoing = defaultdict(list)
    for s, _, label in g.edges:
        outgoing[s].append(label)
    edges = set()
    for _, t, label in g.edges:
        for succ in outgoing[t]:
            edges.add((label, succ, None))
    return Digraph(len(g.edges), frozenset(edges))


def transpose(g: Digraph) -> Digraph:
    """Reverse every edge, keeping labels."""
    return Digraph(g.n, frozenset((t, s, label) for s, t, label in g.edges))


def check_isomorphism(g: Digraph, h: Digraph, phi: Permutation) -> bool:
    """Does phi carry the (source, target) pairs of g exactly onto those of h?

    Pairs are compared as multisets, one per labeled edge. Vertex counts must
    agree with the permutation size.
    """
    if g.n != h.n or phi.size != g.n:
        raise ValueError(
            f"size mismatch: graphs have {g.n} and {h.n} vertices, permutation {phi.size}"
        )
    mapped = Counter((phi(s), phi(t)) for s, t, _ in g.edges)
    return mapped == h.edge_multiset()


def restricted_graph(f: BranchMap, bound: int) -> Digraph:
    """The plain orbit graph n -> f(n) on {0..bound-1}; edges leaving the range are dropped."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    check_size("restricted graph vertices", bound)
    edges = set()
    for v in range(bound):
        t = f.apply(v)
        if 0 <= t < bound:
            edges.add((v, t, None))
    return Digraph(bound, frozenset(edges))


def graph_to_dot(g: Digraph) -> str:
    """Deterministic DOT rendering: vertices ascending, then edges in canonical order."""
    lines = ["digraph {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for s, t, label in g.sorted_edges():
        if label is None:
            lines.append(f"  {s} -> {t};")
        else:
            lines.append(f'  {s} -> {t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Digraph) -> str:
    """Wire form: {"m": n, "edges": [[source, target, label-or-null], ...]}, sorted."""
    return json.dumps(
        {"m": g.n, "edges": [[s, t, label] for s, t, label in g.sorted_edges()]}
    )


def graph_from_json(text: str) -> Digraph:
    """Parse the wire form back into a graph, re-validating."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid graph JSON: {exc}") from None
    if not isinstance(data, dict) or set(data) != {"m", "edges"}:
        raise ValueError('graph JSON must be an object with keys "m" and "edges"')
    m = data["m"]
    raw_edges = data["edges"]
    if not isinstance(m, int) or not isinstance(raw_edges, list):
        raise ValueError("graph JSON: m must be an integer and edges a list")
    edges = set()
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 3):
            raise ValueError(f"graph JSON: edge {item!r} is not a [source, target, label] triple")
        s, t, label = item
        if not isinstance(s, int) or not isinstance(t, int):
            raise ValueError(f"graph JSON: edge {item!r} has non-integer endpoints")
        if label is not None and not isinstance(label, int):
            raise ValueError(f"graph JSON: edge {item!r} has a non-integer label")
        edges.add((s, t, label))
    if len(edges) != len(raw_edges):
        raise ValueError("graph JSON: duplicate edges")
    return Digraph(m, frozenset(edges))

"""Finite graphs, clique complexes, and transitive orientation enumeration.

Vertices are 0-based integers; edges are sorted (i, j) pairs with i < j.
Adjacency is kept as one bit mask per vertex, which Python integers make
size-free, so graphs may exceed the 64-element complex cap; only the ops
that build complexes enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import MAX_GROUND, SimplicialComplex, VertexSet, complex_from_facets
from .errors import EmptyInput, GroundSetTooLarge, VoidComplex


@dataclass(frozen=True)
class LabeledGraph:
    """An undirected graph, optionally carrying one VertexSet label per vertex."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[VertexSet, ...] | None = None

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex count must be >= 0")
        prev = None
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.vertex_count):
                raise ValueError(f"edge {e!r} invalid for {self.vertex_count} vertices")
            if prev is not None and e <= prev:
                raise ValueError("edges must be strictly sorted")
            prev = e
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("one label per vertex required")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _adjacency(g: LabeledGraph) -> list[int]:
    adj = [0] * g.vertex_count
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def graph_complement(g: LabeledGraph) -> LabeledGraph:
    present = set(g.edges)
    edges = tuple(
        e for e in combinations(range(g.vertex_count), 2) if e not in present
    )
    return LabeledGraph(g.vertex_count, edges, g.labels)


def _maximal_cliques(adj: list[int], n: int) -> list[int]:
    # Bron-Kerbosch with pivoting on adjacency masks.
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        pivot = -1
        best = -1
        rem = pool
        while rem:
            low = rem & -rem
            u = low.bit_length() - 1
            cnt = (p & adj[u]).bit_count()
            if cnt > best:
                best = cnt
                pivot = u
            rem ^= low
        cand = p & ~adj[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            bk(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            cand ^= low

    bk(0, (1 << n) - 1, 0)
    return out


def clique_complex(g: LabeledGraph) -> SimplicialComplex:
    """The complex whose facets are the maximal cliques (flag complex)."""
    n = g.vertex_count
    if n == 0:
        raise EmptyInput("clique complex needs at least one vertex")
    if n > MAX_GROUND:
        raise GroundSetTooLarge(f"{n} vertices exceed the {MAX_GROUND}-element cap")
    cliques = _maximal_cliques(_adjacency(g), n)
    return complex_from_facets(n, [VertexSet.from_mask(m) for m in cliques])


def independence_complex(g: LabeledGraph) -> SimplicialComplex:
    """Clique complex of the complement graph."""
    return clique_complex(graph_complement(g))


def one_skeleton_graph(cx: SimplicialComplex) -> LabeledGraph:
    """The 1-skeleton as a graph on all ground positions (vertex i-1 is position i)."""
    edges = set()
    for f in cx.facets:
        for a, b in combinations(f.elements, 2):
            edges.add((a - 1, b - 1))
    return LabeledGraph(cx.ground_size, tuple(sorted(edges)))


def comparability_graph(cx: SimplicialComplex) -> LabeledGraph:
    """Graph on the nonempty faces with edges between comparable distinct faces.

    Vertex i carries face label ``faces[i]`` in (cardinality, lex) order,
    matching the subdivision's vertex numbering: this graph equals the
    subdivision's 1-skeleton. Built directly from face inclusions, so it
    works even when the subdivision itself would exceed the 64-element cap.
    """
    if cx.void:
        raise VoidComplex("the void complex has no face poset")
    if not cx.facets:
        raise EmptyInput("the empty complex has no face poset")
    faces = cx.faces()
    edges = []
    for i, j in combinations(range(len(faces)), 2):
        if faces[i].issubset(faces[j]) or faces[j].issubset(faces[i]):
            edges.append((i, j))
    return LabeledGraph(len(faces), tuple(edges), tuple(faces))


@dataclass(frozen=True)
class Orientation:
    """One direction per edge of a graph; ``heads[k]`` is the head of ``edges[k]``."""

    edges: tuple[tuple[int, int], ...]
    heads: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.heads):
            raise ValueError("one head per edge required")
        for (i, j), h in zip(self.edges, self.heads):
            if h != i and h != j:
                raise ValueError(f"head {h} not an endpoint of {(i, j)}")

    def arcs(self) -> list[tuple[int, int]]:
        return [
            ((i if h == j else j), h) for (i, j), h in zip(self.edges, self.heads)
        ]

    def orients(self, tail: int, head: int) -> bool:
        e = (tail, head) if tail < head else (head, tail)
        try:
            k = self.edges.index(e)
        except ValueError:
            return False
        return self.heads[k] == head

    @property
    def direction_bits(self) -> tuple[int, ...]:
        # 0 when the edge points min -> max, 1 otherwise.
        return tuple(0 if h == j else 1 for (_, j), h in zip(self.edges, self.heads))

    def reverse(self) -> "Orientation":
        flipped = tuple(
            i if h == j else j for (i, j), h in zip(self.edges, self.heads)
        )
        return Orientation(self.edges, flipped)


def _implication_classes(g: LabeledGraph):
    """Union-find the arcs under the forcing relation.

    Arc 2k is edges[k] oriented min -> max; arc 2k+1 the reverse. Arcs
    sharing a tail whose heads are non-adjacent force each other, and so do
    the two reversals. Returns (parent finder, arcs per root) or None when
    some class contains an edge in both directions (then no transitive
    orientation exists).
    """
    m = g.edge_count
    adj = _adjacency(g)
    parent = list(range(2 * m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for k, (i, j) in enumerate(g.edges):
        incident[i].append((k, j))
        incident[j].append((k, i))

    def arc_from(k: int, tail: int) -> int:
        i, _ = g.edges[k]
        return 2 * k if tail == i else 2 * k + 1

    for x in range(g.vertex_count):
        inc = incident[x]
        for a in range(len(inc)):
            k1, y = inc[a]
            for b in range(a + 1, len(inc)):
                k2, z = inc[b]
                if not (adj[y] >> z) & 1:
                    union(arc_from(k1, x), arc_from(k2, x))
                    union(arc_from(k1, y), arc_from(k2, z))

    for k in range(m):
        if find(2 * k) == find(2 * k + 1):
            return None
    groups: dict[int, list[int]] = {}
    for a in range(2 * m):
        groups.setdefault(find(a), []).append(a)
    return find, groups


def transitive_orientations(g: LabeledGraph) -> list[Orientation]:
    """All transitive orientations, sorted by direction bits over the edge list.

    Enumerates consistent choices over the arc implication classes and
    filters directed triangles; together those two constraints are exactly
    transitivity. The depth-first search emits the sorted order directly:
    it decides the class pairs in first-edge order and tries first the side
    that points each pair's first edge min -> max. Empty result means the
    graph is not a comparability graph. Intended scale is graphs whose class count is modest (face-poset graphs
    have very few classes); pathological inputs may still take exponential
    time in the class count.
    """
    m = g.edge_count
    if m == 0:
        return [Orientation((), ())]
    cls = _implication_classes(g)
    if cls is None:
        return []
    find, groups = cls

    # Pair up each class with its reversal, in first-edge order.
    pair_index: dict[int, int] = {}
    pairs: list[tuple[list[int], list[int]]] = []
    for k in range(m):
        r = find(2 * k)
        if r in pair_index or find(2 * k + 1) in pair_index:
            continue
        pair_index[r] = len(pairs)
        pair_index[find(2 * k + 1)] = len(pairs)
        pairs.append((groups[r], groups[find(2 * k + 1)]))

    pair_of_edge = [pair_index[find(2 * k)] for k in range(m)]

    adj = _adjacency(g)
    edge_id = {e: k for k, e in enumerate(g.edges)}
    triangles: list[list[tuple[int, int, int]]] = [[] for _ in pairs]
    for (u, v) in g.edges:
        common = adj[u] & adj[v]
        w = common >> (v + 1) << (v + 1)  # only w > v, each triangle once
        while w:
            low = w & -w
            t = low.bit_length() - 1
            k1 = edge_id[(u, v)]
            k2 = edge_id[(u, t)]
            k3 = edge_id[(v, t)]
            due = max(pair_of_edge[k1], pair_of_edge[k2], pair_of_edge[k3])
            triangles[due].append((k1, k2, k3))
            w ^= low

    heads = [-1] * m
    results: list[tuple[int, ...]] = []

    def apply(arcs: list[int]) -> None:
        for a in arcs:
            k, rev = divmod(a, 2)
            i, j = g.edges[k]
            heads[k] = i if rev else j

    def consistent(due: int) -> bool:
        for k1, k2, k3 in triangles[due]:
            (u, v) = g.edges[k1]
            t = g.edges[k2][1] if g.edges[k2][1] != u else g.edges[k2][0]
            h1, h2, h3 = heads[k1], heads[k2], heads[k3]
            if h1 == v and h3 == t and h2 == u:
                return False
            if h1 == u and h2 == t and h3 == v:
                return False
        return True

    def solve(p: int) -> None:
        if p == len(pairs):
            results.append(tuple(heads))
            return
        for side in (0, 1):
            apply(pairs[p][side])
            if consistent(p):
                solve(p + 1)
        # heads entries are overwritten by the next apply; no undo needed

    solve(0)
    return [Orientation(g.edges, hs) for hs in results]


def is_transitively_orientable(g: LabeledGraph) -> bool:
    return len(transitive_orientations(g)) > 0


def inclusion_orientation(g: LabeledGraph) -> Orientation:
    """Orient a face-labeled graph from smaller label to larger label."""
    if g.labels is None:
        raise ValueError("graph carries no face labels")
    heads = []
    for i, j in g.edges:
        a, b = g.labels[i], g.labels[j]
        if a.issubset(b) and a != b:
            heads.append(j)
        elif b.issubset(a) and b != a:
            heads.append(i)
        else:
            raise ValueError(f"labels of edge {(i, j)} are not nested")
    return Orientation(g.edges, tuple(heads))

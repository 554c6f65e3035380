"""Finite graphs, clique complexes, and transitive orientation enumeration.

Vertices are 0-based integers; edges are sorted (i, j) pairs with i < j.
Adjacency is kept as one bit mask per vertex, which Python integers make
size-free, so graphs may exceed the 64-element complex cap; only the ops
that build complexes enforce it. Maximal cliques, the implication classes
of the transitive-orientation search (grown by Γ-forcing) and the directed
triangle filter all work on those masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    MAX_GROUND,
    SimplicialComplex,
    VertexSet,
    _mask_elements,
    complex_from_facets,
)
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
    # (cardinality, lex) order: for i < j only faces[i] can lie in faces[j]
    masks = [f.mask for f in faces]
    edges = tuple(
        (i, j)
        for i, j in combinations(range(len(masks)), 2)
        if masks[i] & ~masks[j] == 0
    )
    return LabeledGraph(len(faces), edges, tuple(faces))


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


def transitive_orientations(g: LabeledGraph) -> list[Orientation]:
    """All transitive orientations, sorted by direction bits over the edge list.

    Enumerates consistent choices over the arc implication classes and
    filters directed triangles; together those two constraints are exactly
    transitivity. The depth-first search emits the sorted order directly:
    it decides the class pairs in first-edge order and tries first the side
    that points each pair's first edge min -> max. Empty result means the
    graph is not a comparability graph. Intended scale is graphs whose
    class count is modest (face-poset graphs have very few classes);
    pathological inputs may still take exponential time in the class count.
    """
    m = g.edge_count
    if m == 0:
        return [Orientation((), ())]
    adj = _adjacency(g)
    edge_id = {e: k for k, e in enumerate(g.edges)}

    # Implication classes by Γ-forcing (Golumbic 1980, ch. 5): arc a->b
    # forces a->c for every c adjacent to a but not to b, and c->b for every
    # c adjacent to b but not to a. Each class grows from the first edge not
    # yet in a class, oriented min -> max; that is side 0 of its pair, and
    # side 1 is the same arcs reversed. A class holding both directions of
    # one edge leaves no transitive orientation.
    pair_of_edge = [-1] * m
    side0_head = [0] * m
    pairs: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = []
    for first, (i, j) in enumerate(g.edges):
        if pair_of_edge[first] >= 0:
            continue
        p = len(pairs)
        pair_of_edge[first] = p
        side0_head[first] = j
        grown = [(first, i, j)]
        for _, a, b in grown:  # grown is extended while it is walked
            forced = [(a, c - 1) for c in _mask_elements(adj[a] & ~adj[b] & ~(1 << b))]
            forced += [(c - 1, b) for c in _mask_elements(adj[b] & ~adj[a] & ~(1 << a))]
            for t, h in forced:
                k = edge_id[(t, h) if t < h else (h, t)]
                if pair_of_edge[k] < 0:
                    pair_of_edge[k] = p
                    side0_head[k] = h
                    grown.append((k, t, h))
                elif side0_head[k] != h:
                    return []
        pairs.append(([(k, h) for k, _, h in grown], [(k, t) for k, t, _ in grown]))

    triangles: list[list[tuple[int, int, int]]] = [[] for _ in pairs]
    for k1, (u, v) in enumerate(g.edges):
        # only apexes t > v, so each triangle once
        for t in _mask_elements((adj[u] & adj[v]) >> (v + 1) << (v + 1)):
            k2 = edge_id[(u, t - 1)]
            k3 = edge_id[(v, t - 1)]
            due = max(pair_of_edge[k1], pair_of_edge[k2], pair_of_edge[k3])
            triangles[due].append((k1, k2, k3))

    heads = [-1] * m
    results: list[tuple[int, ...]] = []

    def apply(arcs: list[tuple[int, int]]) -> None:
        for k, h in arcs:
            heads[k] = h

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

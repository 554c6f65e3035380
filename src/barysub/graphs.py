"""Finite graphs, clique complexes, posets, and transitive orientation enumeration.

Vertices are 0-based integers; edges are sorted (i, j) pairs with i < j.
A vertex label, where a graph carries them, is a face mask.
``LabeledGraph.adj`` keeps one neighbour bit mask per vertex, which Python
integers make size-free, so graphs may exceed the 64-element complex cap;
only the ops that build complexes enforce it. Maximal cliques (yielded one
at a time, so a caller may stop at the first it rejects), the
implication classes of the transitive-orientation search (grown by
Γ-forcing, cached as ``LabeledGraph.implication_classes``) and its
directed-triangle test on arc masks all work on those masks. A
transitive orientation is a strict order, so the search returns each one
as a ``FacePoset``: one up-set mask per vertex. The same class phase
alone decides orientability, and the number of orientations is Gallai's
product, read off the classes' tail and head masks. When that number is
2^classes, every side choice of the classes is transitive, and each
orientation is the OR of one side's out-masks per class: the triangle
test runs only when the number is smaller.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from operator import or_

from .core import (MAX_GROUND, SimplicialComplex, _antichain_complex, _mask_elements,
                   _skeleton_adjacency)
from .errors import EmptyInput, GroundSetTooLarge, VoidComplex


@dataclass(frozen=True)
class LabeledGraph:
    """An undirected graph, optionally carrying one face-mask label per vertex."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex count must be >= 0")
        prev = None
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.vertex_count):
                raise ValueError(f"edge {e!r} invalid for {self.vertex_count} vertices")
            if e == prev:
                raise ValueError(f"edge {list(e)} listed twice")
            if prev is not None and e < prev:
                raise ValueError("edges must be strictly sorted")
            prev = e
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("one label per vertex required")

    @functools.cached_property
    def adj(self) -> tuple[int, ...]:
        """Each vertex's neighbour bit mask, built from the edges on first read."""
        adj = [0] * self.vertex_count
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return tuple(adj)

    @functools.cached_property
    def implication_classes(self) -> list[list[tuple[int, int]]] | None:
        """The arc implication classes, each as its side-0 arcs (tail, head).

        None when some class holds both directions of an edge, which happens
        exactly when the graph is not a comparability graph (Golumbic 1980,
        ch. 5). Computed on first read and cached, as ``adj``.
        """
        n = self.vertex_count
        adj = self.adj
        # Γ-forcing: arc a->b forces a->c for every c adjacent to a but not
        # to b, and c->b for every c adjacent to b but not to a. Each class
        # grows from the first edge not yet in a class, oriented min -> max;
        # that is its side 0, and side 1 is the same arcs reversed. fwd[v]
        # and back[v] hold the side-0 heads and tails at v over all classes
        # so far. They need not be per class: Γ is symmetric and commutes
        # with reversal, so forcing never reaches an arc of an earlier class
        # or its reverse, and any hit is the class's own.
        fwd = [0] * n
        back = [0] * n
        classes: list[list[tuple[int, int]]] = []
        for i, j in self.edges:
            if (fwd[i] | back[i]) >> j & 1:
                continue
            fwd[i] |= 1 << j
            back[j] |= 1 << i
            grown = [(i, j)]
            for a, b in grown:  # grown is extended while it is walked
                heads = adj[a] & ~adj[b] & ~(1 << b)
                tails = adj[b] & ~adj[a] & ~(1 << a)
                if heads & back[a] or tails & fwd[b]:
                    return None
                # most arcs force nothing new
                new_heads = heads & ~fwd[a]
                if new_heads:
                    fwd[a] |= new_heads
                    for c in _mask_elements(new_heads):
                        back[c - 1] |= 1 << a
                        grown.append((a, c - 1))
                new_tails = tails & ~back[b]
                if new_tails:
                    back[b] |= new_tails
                    for c in _mask_elements(new_tails):
                        fwd[c - 1] |= 1 << b
                        grown.append((c - 1, b))
            classes.append(grown)
        return classes


def _maximal_cliques(adj: tuple[int, ...], n: int) -> Iterator[int]:
    # Bron-Kerbosch with pivoting on adjacency masks, yielding each maximal
    # clique as it is found. The first path down never adds to x, so the
    # first clique comes after at most n levels.

    def bk(r: int, p: int, x: int) -> Iterator[int]:
        if p == 0 and x == 0:
            yield r
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
            yield from bk(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            cand ^= low

    return bk(0, (1 << n) - 1, 0)


def clique_complex(g: LabeledGraph) -> SimplicialComplex:
    """The complex whose facets are the maximal cliques (flag complex)."""
    n = g.vertex_count
    if n == 0:
        raise EmptyInput("clique complex needs at least one vertex")
    if n > MAX_GROUND:
        raise GroundSetTooLarge(f"{n} vertices exceed the {MAX_GROUND}-element cap")
    return _antichain_complex(n, _maximal_cliques(g.adj, n))


def one_skeleton_graph(cx: SimplicialComplex) -> LabeledGraph:
    """The 1-skeleton as a graph on all ground positions (vertex i-1 is position i)."""
    edges = tuple(
        (i, j - 1)
        for i, a in enumerate(_skeleton_adjacency(cx))
        for j in _mask_elements(a >> (i + 1) << (i + 1))
    )
    return LabeledGraph(cx.ground_size, edges)


def comparability_graph(cx: SimplicialComplex) -> LabeledGraph:
    """Graph on the nonempty faces with edges between comparable distinct faces.

    Vertex i carries face label ``faces[i]`` in (cardinality, lex) order,
    matching the subdivision's vertex numbering: this graph equals the
    subdivision's 1-skeleton. Built directly from face inclusions, so it
    works even when the subdivision itself would exceed the 64-element cap.
    """
    if cx.void:
        raise VoidComplex("the void complex has no face poset")
    if not cx.masks:
        raise EmptyInput("the empty complex has no face poset")
    faces = cx.faces()
    # (cardinality, lex) order: for i < j only faces[i] can lie in faces[j]
    edges = tuple(
        (i, j)
        for i, j in combinations(range(len(faces)), 2)
        if faces[i] & ~faces[j] == 0
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


@dataclass(frozen=True)
class FacePoset:
    """A strict partial order given by its up-sets: ``(elements, up)``.

    ``up[k]`` is the bit mask of the positions (in ``elements``) of the
    elements above ``elements[k]``. Build one from an explicit relation with
    ``FacePoset.from_relation(elements, relation)``.
    """

    elements: tuple[int, ...]
    up: tuple[int, ...]

    @classmethod
    def from_relation(cls, elements, relation) -> "FacePoset":
        """The poset on ``elements`` whose pairs (a, b) mean a below b."""
        elements = tuple(elements)
        pos = {v: k for k, v in enumerate(elements)}
        up = [0] * len(elements)
        for a, b in relation:
            up[pos[a]] |= 1 << pos[b]
        return cls(elements, tuple(up))


def transitive_orientations(g: LabeledGraph) -> list[FacePoset]:
    """All transitive orientations, sorted by direction bits over the edge list.

    Each is returned as its order, ``FacePoset(tuple(range(n)), up)`` with
    ``up[v]`` the heads of the arcs leaving v. An edge's direction bit is 0
    when it points min -> max and 1 otherwise. Every transitive orientation
    picks one side of each arc implication class, so when Gallai's count
    (``count_transitive_orientations``) is 2^classes, every side choice is
    transitive: each class side's out-masks are built once, and each
    orientation is the OR of one side per class. Only when the count is
    below 2^classes does a depth-first search over the side choices run a
    directed-triangle test on arc masks; together those two constraints
    are exactly transitivity, so the arc masks at a leaf need no closure or
    check. Both emit the sorted order directly: they decide the classes in
    first-edge order and take first the side that points each class's
    first edge min -> max. Empty result means the graph is not a
    comparability graph. The result may be exponential in the number of
    classes, so callers with arbitrary input count first:
    ``count_transitive_orientations`` gives its length without building it.
    Reconstruction searches only components with at most two classes,
    which have exactly 2^classes <= 4 orientations.
    """
    n = g.vertex_count
    classes = g.implication_classes
    if classes is None:
        return []
    elements = tuple(range(n))
    if count_transitive_orientations(g) == 1 << len(classes):
        ups = [(0,) * n]
        for grown in classes:
            # the class's out-masks on side 0, and on side 1 (arcs reversed)
            fwd = [0] * n
            back = [0] * n
            for t, h in grown:
                fwd[t] |= 1 << h
                back[h] |= 1 << t
            ups = [tuple(map(or_, up, side)) for up in ups for side in (fwd, back)]
        return [FacePoset(elements, up) for up in ups]
    # sides[p]: class p's arcs as (tail, head), side 0 then side 1
    sides = [(grown, [(h, t) for t, h in grown]) for grown in classes]
    out = [0] * n
    into = [0] * n
    results: list[FacePoset] = []

    def solve(p: int) -> None:
        if p == len(sides):
            results.append(FacePoset(elements, tuple(out)))
            return
        for side in sides[p]:
            for t, h in side:
                out[t] |= 1 << h
                into[h] |= 1 << t
            # reject the side if a new arc t->h closes a triangle t->h->c->t
            for t, h in side:
                if out[h] & into[t]:
                    break
            else:
                solve(p + 1)
            for t, h in side:
                out[t] ^= 1 << h
                into[h] ^= 1 << t

    solve(0)
    return results


def count_transitive_orientations(g: LabeledGraph) -> int:
    """``len(transitive_orientations(g))``, computed without enumerating them.

    0 when the implication classes show g is not a comparability graph.
    Otherwise Gallai's product (Gallai 1967; McConnell & Spinrad 1999),
    read off the classes. Let a class's side-0 arcs have tail mask T and
    head mask H. A class with fewer than |T|·|H| arcs doubles the count;
    every other class adds one to ``below[max(T, H)]``, and each value b
    there multiplies the count by b + 1.

    By Gallai, a class joins two children A, B of a series node, and is
    then all of A × B with T = A and H = B, or is the blown-up quotient of
    a prime node (2 orientations). A prime quotient is never complete
    bipartite and no arc is a loop, so some pair of T × H has no arc.
    Node vertex masks are distinct, and a series node's child c_j, the
    j-th smallest of k as an int, is max(T, H) of j - 1 classes: k! in all.
    """
    classes = g.implication_classes
    if classes is None:
        return 0
    count = 1
    below: dict[int, int] = {}
    for arcs in classes:
        tails = heads = 0
        for t, h in arcs:
            tails |= 1 << t
            heads |= 1 << h
        if len(arcs) < tails.bit_count() * heads.bit_count():
            count *= 2
        else:
            key = max(tails, heads)
            below[key] = below.get(key, 0) + 1
    for b in below.values():
        count *= b + 1
    return count

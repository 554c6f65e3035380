"""Finite graphs, clique complexes, and transitive orientation enumeration.

Vertices are 0-based integers, and a graph is stored as one neighbour bit
mask per vertex (``LabeledGraph.adj``), which Python integers make
size-free, so graphs may exceed the 64-element complex cap; only the ops
that build complexes enforce it. The edge list, sorted (i, j) pairs with
i < j, is a view read off the masks for the JSON writer. A vertex label,
where a graph carries them, is a face mask. Maximal cliques (yielded one
at a time, so a caller may stop at the first it rejects), the implication
classes of the transitive-orientation search (grown by Γ-forcing, cached
as ``LabeledGraph.implication_classes``) and its directed-triangle test on
arc masks all work on those masks, and ``comparability_graph`` builds them
from vertex columns with no pair scan.

An orientation and a strict order are the same data: a tuple of out-masks,
``up[v]`` holding the heads of the arcs leaving v, or, read as an order,
the elements above v. The search returns each transitive orientation in
that form. The same class phase alone decides orientability, and the
number of orientations is Gallai's product, read off the classes' tail
and head masks. When that number is 2^classes, every side choice of the
classes is transitive, and each orientation is the OR of one side's
out-masks per class: the triangle test runs only when the number is
smaller.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from operator import or_

from .core import (MAX_GROUND, SimplicialComplex, _antichain_complex, _mask_elements,
                   _skeleton_adjacency)
from .errors import EmptyInput, GroundSetTooLarge, VoidComplex


@dataclass(frozen=True)
class LabeledGraph:
    """An undirected graph as neighbour masks, optionally with face-mask labels.

    ``adj[v]`` has bit u set when u and v are adjacent. The masks must be
    symmetric; the constructor checks only what costs O(vertices): no bit
    at or past the vertex count, no vertex adjacent to itself, and one
    label per vertex.
    """

    adj: tuple[int, ...]
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.adj)
        for v, a in enumerate(self.adj):
            if a >> n or a >> v & 1:
                raise ValueError(f"neighbour mask of vertex {v} invalid for {n} vertices")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("one label per vertex required")

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as sorted pairs (i, j), i < j, read off the masks."""
        verts = list(range(len(self.adj)))  # the pairs share one int per vertex
        return tuple((i, verts[j - 1]) for i, a in enumerate(self.adj)
                     for j in _mask_elements(a >> (i + 1) << (i + 1)))

    @functools.cached_property
    def implication_classes(self) -> list[list[tuple[int, int]]] | None:
        """The arc implication classes, each as its side-0 arcs (tail, head).

        None when some class holds both directions of an edge, which happens
        exactly when the graph is not a comparability graph (Golumbic 1980,
        ch. 5). Computed on first read and cached on the graph.
        """
        n = self.vertex_count
        adj = self.adj
        # Γ-forcing: arc a->b forces a->c for every c adjacent to a but not
        # to b, and c->b for every c adjacent to b but not to a. Each class
        # grows from the least edge {i, j}, i < j, not yet in a class,
        # oriented i -> j; that is its side 0, and side 1 is the same arcs
        # reversed. fwd[v] and back[v] hold the side-0 heads and tails at v
        # over all classes so far, so the edges at i in no class yet are
        # adj[i] & ~(fwd[i] | back[i]). They need not be per class: Γ is
        # symmetric and commutes with reversal, so forcing never reaches an
        # arc of an earlier class or its reverse, and any hit is the class's
        # own.
        fwd = [0] * n
        back = [0] * n
        classes: list[list[tuple[int, int]]] = []
        for i in range(n):
            while rest := (adj[i] & ~(fwd[i] | back[i])) >> (i + 1):
                j = i + (rest & -rest).bit_length()
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
    return LabeledGraph(tuple(a & ~(1 << v) for v, a in enumerate(_skeleton_adjacency(cx))))


def comparability_graph(cx: SimplicialComplex) -> LabeledGraph:
    """Graph on the nonempty faces with edges between comparable distinct faces.

    Vertex i carries face label ``faces[i]`` in (cardinality, lex) order,
    matching the subdivision's vertex numbering: this graph equals the
    subdivision's 1-skeleton. Built directly from face inclusions, so it
    works even when the subdivision itself would exceed the 64-element cap.
    Adjacency is read off vertex columns: ``col[v]`` is the mask of faces
    holding v, the faces above F are the AND of ``col`` over F, and the
    faces below F are those in no column of a vertex outside F.
    """
    if cx.void:
        raise VoidComplex("the void complex has no face poset")
    if not cx.masks:
        raise EmptyInput("the empty complex has no face poset")
    faces = cx.faces()
    col = [0] * (cx.ground_size + 1)  # 1-based, as _mask_elements yields
    for k, f in enumerate(faces):
        bit = 1 << k
        for v in _mask_elements(f):
            col[v] |= bit
    everyone = (1 << len(faces)) - 1
    # F minus its least vertex u comes before F, so up(F) is one more AND
    ups = {0: everyone}
    adj = []
    for k, f in enumerate(faces):
        up = ups[f] = ups[f & (f - 1)] & col[(f & -f).bit_length()]
        out = 0
        for v in _mask_elements(cx.full_mask ^ f):
            out |= col[v]
        adj.append((up | everyone & ~out) & ~(1 << k))
    return LabeledGraph(tuple(adj), tuple(faces))


def transitive_orientations(g: LabeledGraph) -> list[tuple[int, ...]]:
    """All transitive orientations, sorted by direction bits over the edge list.

    Each is returned as its out-masks ``up``: ``up[v]`` holds the heads of
    the arcs leaving v, which are also the elements above v in the strict
    order the orientation is. An edge's direction bit is 0 when it
    points min -> max and 1 otherwise. Every transitive orientation picks
    one side of each arc implication class, so when Gallai's count
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

    Each path wins on its own inputs, so both stay, chosen by the count.
    Python 3.11 on a shared 2-CPU x86-64 host, classes cached: on the 208
    face-poset graphs of the complexes on at most 5 vertices up to
    isomorphism, best of 15, the direct emission took 2.2 ms and the same
    graphs forced through the search 5.2 ms. On 351 graphs with up to 8!
    orientations (K1-K8, P_m[K2], P_m[C4], cocktail parties and random
    graphs), best of 3, the two paths as chosen took 0.23-0.24 s, and one
    product loop over the classes that prunes each partial product by the
    triangle test took 0.76-0.77 s.
    """
    n = g.vertex_count
    classes = g.implication_classes
    if classes is None:
        return []
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
        return ups
    # sides[p]: class p's arcs as (tail, head), side 0 then side 1
    sides = [(grown, [(h, t) for t, h in grown]) for grown in classes]
    out = [0] * n
    into = [0] * n
    results: list[tuple[int, ...]] = []

    def solve(p: int) -> None:
        if p == len(sides):
            results.append(tuple(out))
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

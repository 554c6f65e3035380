"""Brute-force oracles and corpus builders shared by the test modules.

Everything here is deliberately naive: definitions executed literally,
independent of the library's algorithms, so the two can disagree loudly.
"""

from __future__ import annotations

import functools
import random
from itertools import combinations, permutations

from barysub import (
    MAX_GROUND,
    STATUS_NOT_FACE_POSET,
    STATUS_NOT_ORIENTABLE,
    STATUS_OK,
    EmptyInput,
    GroundSetTooLarge,
    LabeledGraph,
    NotAFacePoset,
    ReconstructionReport,
    SimplicialComplex,
    canonical_form,
    comparability_graph,
    complex_from_face_poset,
    complex_from_facets,
    enumerate_complexes,
    transitive_orientations,
)
from barysub.core import _initial_colors, _mask_elements, induced_components


def mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def graph(n: int, edges=(), labels=None) -> LabeledGraph:
    """The graph on the vertices 0..n-1 with the given (i, j) edges, in any
    order, and the given labels: each edge sets one bit in each endpoint's
    neighbour mask."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return LabeledGraph(tuple(adj), labels)


def cx(n: int, *facets) -> SimplicialComplex:
    return complex_from_facets(n, [list(f) for f in facets])


def facet_sets(c: SimplicialComplex) -> set[frozenset[int]]:
    return {frozenset(_mask_elements(m)) for m in c.masks}


def brute_faces(c: SimplicialComplex) -> set[frozenset[int]]:
    """Nonempty faces via itertools powersets of each facet."""
    out: set[frozenset[int]] = set()
    for m in c.masks:
        els = _mask_elements(m)
        for r in range(1, len(els) + 1):
            for sub in combinations(els, r):
                out.add(frozenset(sub))
    return out


def brute_minimal_nonfaces(c: SimplicialComplex) -> list[frozenset[int]]:
    """Scan all 2^n subsets; n <= 12 only."""
    n = c.ground_size
    assert n <= 12, "oracle scan too large"
    fmasks = c.masks

    def is_face(m: int) -> bool:
        if c.void:
            return False
        if m == 0:
            return True
        return any(m & ~fm == 0 for fm in fmasks)

    found = []
    for m in range(1 << n):
        if is_face(m):
            continue
        minimal = True
        rem = m
        while rem:
            low = rem & -rem
            if not is_face(m ^ low):
                minimal = False
                break
            rem ^= low
        if minimal:
            found.append(m)
    found.sort(key=lambda m: (m.bit_count(), sorted(i + 1 for i in range(n) if m >> i & 1)))
    return [frozenset(i + 1 for i in range(n) if m >> i & 1) for m in found]


def brute_isomorphic(a: SimplicialComplex, b: SimplicialComplex):
    """All-permutations isomorphism oracle; returns a mapping tuple or None."""
    if a.ground_size != b.ground_size or a.void != b.void:
        return None
    n = a.ground_size
    assert n <= 7, "oracle needs n <= 7"
    target = facet_sets(b)
    source = facet_sets(a)
    if len(source) != len(target):
        return None
    for perm in permutations(range(1, n + 1)):
        if {frozenset(perm[v - 1] for v in f) for f in source} == target:
            return perm
    return None


def _unpruned_canonical_connected(c: SimplicialComplex):
    """Individualization-refinement over every leaf, pruning only siblings
    that lie in exactly the same facets; keeps the first least encoding."""
    k = c.ground_size
    members = [tuple(v - 1 for v in _mask_elements(m)) for m in c.masks]
    incident: list[list[int]] = [[] for _ in range(k)]
    for fi, mem in enumerate(members):
        for v in mem:
            incident[v].append(fi)
    init = _initial_colors(c)
    cells = [[v for v in range(k) if init[v] == val] for val in sorted(set(init))]

    def refine(cells):
        while True:
            color = [0] * k
            for ci, cell in enumerate(cells):
                for v in cell:
                    color[v] = ci
            fsig = [tuple(sorted(color[v] for v in mem)) for mem in members]
            new_cells = []
            for cell in cells:
                groups: dict = {}
                for v in cell:
                    sig = tuple(sorted(fsig[fi] for fi in incident[v]))
                    groups.setdefault(sig, []).append(v)
                new_cells.extend(groups[sig] for sig in sorted(groups))
            if len(new_cells) == len(cells):
                return new_cells
            cells = new_cells

    best = []

    def descend(cells):
        cells = refine(cells)
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            labels = [0] * k
            for pos, cell in enumerate(cells):
                labels[cell[0]] = pos
            enc = tuple(sorted(
                (len(mem), tuple(sorted(labels[v] + 1 for v in mem))) for mem in members
            ))
            if not best or enc < best[0]:
                best[:] = [enc, labels]
            return
        cell = cells[target]
        seen = set()
        for v in cell:
            key = tuple(incident[v])
            if key not in seen:
                seen.add(key)
                rest = [u for u in cell if u != v]
                descend(cells[:target] + [[v], rest] + cells[target + 1:])

    descend(cells)
    return best[1], best[0]


def unpruned_canonical(c: SimplicialComplex):
    """(canonical_form sort key, canonical labeling) from the search
    without automorphism pruning, components assembled as the library does."""
    n = c.ground_size
    if c.void:
        return (True, n, ()), tuple(range(1, n + 1))
    parts = []
    for comp in c.connected_components():
        labels, enc = _unpruned_canonical_connected(comp.complex)
        parts.append((comp.complex.ground_size, enc, comp.vertices, labels))
    parts.sort(key=lambda t: (t[0], t[1]))
    labeling = [0] * n
    keys = []
    offset = 0
    for g, enc, orig, labels in parts:
        for j in range(g):
            labeling[orig[j] - 1] = offset + labels[j] + 1
        keys.extend((size, tuple(offset + e for e in els)) for size, els in enc)
        offset += g
    return (False, n, tuple(sorted(keys))), tuple(labeling)


def canonical_dedupe(n: int) -> list[SimplicialComplex]:
    """The labelled universe on [n], keeping the first complex of each
    canonical form."""
    seen = set()
    out = []
    for c in enumerate_complexes(n):
        key = canonical_form(c).sort_key
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def pairwise_comparability_graph(c: SimplicialComplex) -> LabeledGraph:
    """The comparability graph by an inclusion test on every pair of faces.

    Faces come in (cardinality, lex) order, so for i < j only faces[i] can
    lie in faces[j]. This was the library's own builder before adjacency
    was read off vertex columns; it is kept as that builder's oracle.
    """
    faces = c.faces()
    edges = [(i, j) for i, j in combinations(range(len(faces)), 2) if faces[i] & ~faces[j] == 0]
    return graph(len(faces), edges, tuple(faces))


def facet_pair_skeleton(c: SimplicialComplex) -> LabeledGraph:
    """The 1-skeleton on all ground positions: every pair of vertices of
    every facet is an edge."""
    return graph(c.ground_size, {
        (a - 1, b - 1) for f in c.masks for a, b in combinations(_mask_elements(f), 2)
    })


def edge_order_classes(g: LabeledGraph) -> list[list[tuple[int, int]]] | None:
    """``g.implication_classes`` by the walk over the sorted edge list.

    Each class grows by Γ-forcing from the first edge of ``g.edges`` in no
    class yet, oriented min -> max; None when a class holds both directions
    of an edge. This was the library's own walk before the next edge was
    read off the neighbour masks; it is kept as that walk's oracle.
    """
    n = g.vertex_count
    adj = g.adj
    fwd = [0] * n
    back = [0] * n
    classes = []
    for i, j in g.edges:
        if (fwd[i] | back[i]) >> j & 1:
            continue
        fwd[i] |= 1 << j
        back[j] |= 1 << i
        grown = [(i, j)]
        for a, b in grown:
            heads = adj[a] & ~adj[b] & ~(1 << b)
            tails = adj[b] & ~adj[a] & ~(1 << a)
            if heads & back[a] or tails & fwd[b]:
                return None
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


def brute_transitive_orientations(g: LabeledGraph) -> list[tuple[int, ...]]:
    """All 2^|E| head assignments, filtered by the transitivity definition."""
    edges = g.edges  # a view read off the masks, so read it once
    m = len(edges)
    assert m <= 20, "oracle needs |E| <= 20"
    results = []
    for bits in range(1 << m):
        heads = tuple(
            edges[k][0] if bits >> k & 1 else edges[k][1] for k in range(m)
        )
        arcs = set()
        succ: dict[int, list[int]] = {}
        for k in range(m):
            i, j = edges[k]
            h = heads[k]
            t = i if h == j else j
            arcs.add((t, h))
            succ.setdefault(t, []).append(h)
        ok = True
        for (a, b) in arcs:
            for cnode in succ.get(b, ()):
                if (a, cnode) not in arcs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            results.append(heads)
    results.sort(key=lambda hs: tuple(0 if h == e[1] else 1 for e, h in zip(edges, hs)))
    return results


def brute_is_transitively_orientable(g: LabeledGraph) -> bool:
    """Whether some orientation of g's edges is transitive.

    Depth-first over the edges in order, each one way and then the other;
    a partial orientation is dropped as soon as two arcs a->b->c cannot be
    closed by a->c (a and c not adjacent, or their edge already c->a).
    Stops at the first full orientation, which is then transitive.
    """
    edges = g.edges
    nbrs: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    out: list[set[int]] = [set() for _ in range(g.vertex_count)]

    def fits(t: int, h: int) -> bool:
        # t->h->c needs t->c; a->t->h needs a->h
        if any(c not in nbrs[t] or t in out[c] for c in out[h]):
            return False
        return not any(
            t in out[a] and (h not in nbrs[a] or a in out[h])
            for a in range(g.vertex_count)
        )

    def place(k: int) -> bool:
        if k == len(edges):
            return True
        for t, h in (edges[k], edges[k][::-1]):
            if fits(t, h):
                out[t].add(h)
                if place(k + 1):
                    return True
                out[t].discard(h)
        return False

    return place(0)


def poset(n: int, pairs) -> tuple[int, ...]:
    """The out-masks on the elements 0..n-1 whose pairs (a, b) mean a below b,
    or, read as an orientation, the arcs a -> b."""
    up = [0] * n
    for a, b in pairs:
        up[a] |= 1 << b
    return tuple(up)


def relation(up: tuple[int, ...]) -> set[tuple[int, int]]:
    """The pairs (a, b) with a below b, read from ``up`` one bit at a time."""
    n = len(up)
    return {(a, b) for a, m in enumerate(up) for b in range(n) if m >> b & 1}


def reversed_poset(up: tuple[int, ...]) -> tuple[int, ...]:
    """The same elements with every pair of the relation turned around."""
    return poset(len(up), {(b, a) for a, b in relation(up)})


def as_orientation(g: LabeledGraph, up: tuple[int, ...]) -> tuple[int, ...]:
    """The head of each edge of ``g.edges`` under the out-masks ``up``.

    Reads each edge's direction from ``relation(up)``; asserts that every
    edge is related in exactly one direction and that no pair lies off the
    edges.
    """
    assert len(up) == g.vertex_count, (g, up)
    rel = relation(up)
    heads = []
    for i, j in g.edges:
        assert ((i, j) in rel) != ((j, i) in rel), (g, up, (i, j))
        heads.append(j if (i, j) in rel else i)
    assert len(rel) == len(heads), (g, up)
    return tuple(heads)


def brute_complex_from_face_poset(up: tuple[int, ...]):
    """Face-poset check by pairwise order tests and full face enumeration.

    Same contract and messages as ``complex_from_face_poset``: maps every
    element to the mask of sources at or below it, tests injectivity and
    order against inclusion pair by pair, and compares the image set with
    every face the sink images generate, all on plain ints, so a face poset
    with more than 64 sources passes every check and only then raises
    GroundSetTooLarge. The enumeration is exponential in the facet sizes;
    small facets only.
    """
    rel = relation(up)
    elements = range(len(up))
    sources = tuple(v for v in elements if not any(b == v for _, b in rel))
    if not sources:
        raise NotAFacePoset("poset has no minimal elements")
    src_bit = {s: 1 << i for i, s in enumerate(sources)}
    down: dict[int, int] = {}
    for v in elements:
        m = 0
        for s in sources:
            if s == v or (s, v) in rel:
                m |= src_bit[s]
        down[v] = m
    masks = list(down.values())
    if len(set(masks)) != len(masks):
        raise NotAFacePoset("source down-sets are not injective")
    for a in down:
        for b in down:
            if a == b:
                continue
            if (down[a] & ~down[b] == 0) != ((a, b) in rel):
                raise NotAFacePoset("order does not match down-set inclusion")
    tops = {down[v] for v in elements if not any(a == v for a, _ in rel)}
    if any(a != b and a & ~b == 0 for a in tops for b in tops):
        raise NotAFacePoset("maximal down-sets are not an antichain")
    faces = set()
    for top in tops:
        sub = top
        while sub:
            faces.add(sub)
            sub = (sub - 1) & top
    if faces != set(masks):
        raise NotAFacePoset("down-sets do not form the full face family")
    if len(sources) > 64:
        raise GroundSetTooLarge(f"face poset has {len(sources)} minimal elements, cap is 64")
    return complex_from_facets(len(sources), map(_mask_elements, tops)), sources


def chain_count(c: SimplicialComplex) -> int:
    """Saturated singleton-to-facet chains, counted by memoized DFS."""
    n = c.ground_size
    fmasks = set(c.masks)

    def is_face(m: int) -> bool:
        return any(m & ~fm == 0 for fm in fmasks)

    @functools.lru_cache(maxsize=None)
    def up(m: int) -> int:
        if m in fmasks:
            return 1
        total = 0
        for b in range(n):
            nm = m | (1 << b)
            if nm != m and is_face(nm):
                total += up(nm)
        return total

    return sum(up(1 << b) for b in range(n) if is_face(1 << b))


def graph_brute_iso(a: LabeledGraph, b: LabeledGraph) -> bool:
    """All-permutations graph isomorphism; vertex counts <= 8."""
    if a.vertex_count != b.vertex_count or len(a.edges) != len(b.edges):
        return False
    n = a.vertex_count
    assert n <= 8, "oracle needs <= 8 vertices"
    tgt = set(b.edges)
    src = a.edges
    for perm in permutations(range(n)):
        mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in src}
        if mapped == tgt:
            return True
    return False


def brute_components(n: int, edges) -> list[list[int]]:
    """Connected components of a graph on 0..n-1 by breadth-first search.

    Each component is a sorted vertex list; components come in order of
    their least vertex.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for v in queue:
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(queue))
    return comps


def random_complex(rng, n: int, max_facets: int | None = None) -> SimplicialComplex:
    """A random complex on [n]; the support may be a proper subset of [n]."""
    k = rng.randint(1, max_facets or max(3, n))
    facets = []
    for _ in range(k):
        size = rng.randint(1, n)
        facets.append(rng.sample(range(1, n + 1), size))
    return complex_from_facets(n, facets)


def random_cover_complex(rng, n: int, max_facets: int | None = None) -> SimplicialComplex:
    """A random complex on [n] in which every singleton is a face."""
    c = random_complex(rng, n, max_facets)
    covered = 0
    for m in c.masks:
        covered |= m
    missing = [v for v in range(1, n + 1) if not covered >> (v - 1) & 1]
    if not missing:
        return c
    return complex_from_facets(n, [_mask_elements(m) for m in c.masks] + [[v] for v in missing])


def overlap_complex(rng, n: int, k: int) -> SimplicialComplex:
    """k facets on [n], each missing 1-4 random vertices; missing sets may overlap."""
    facets = []
    for _ in range(k):
        miss = set(rng.sample(range(1, n + 1), rng.randint(1, min(4, n))))
        facets.append([v for v in range(1, n + 1) if v not in miss])
    return complex_from_facets(n, facets)


def random_graph(rng, n: int, p: float) -> LabeledGraph:
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < p)
    return graph(n, edges)


def random_poset_graph(rng, n: int) -> LabeledGraph:
    """Comparability graph of a random 2-dimensional poset on n elements:
    i is below j when i < j and i comes before j in a random permutation.
    Its modular decomposition often has one prime node over most vertices."""
    rank = rng.sample(range(n), n)
    return graph(n, tuple((i, j) for i, j in combinations(range(n), 2) if rank[i] < rank[j]))


def labelled_graphs(n: int) -> list[LabeledGraph]:
    """Every graph on the vertices 0..n-1, one per subset of the possible edges."""
    pairs = list(combinations(range(n), 2))
    return [
        graph(n, tuple(e for k, e in enumerate(pairs) if bits >> k & 1))
        for bits in range(1 << len(pairs))
    ]


def disjoint_union(*graphs: LabeledGraph) -> LabeledGraph:
    """The graphs side by side, each one's vertices after the previous one's."""
    edges = []
    offset = 0
    for g in graphs:
        edges += [(offset + i, offset + j) for i, j in g.edges]
        offset += g.vertex_count
    return graph(offset, tuple(edges))


def cycle_graph(n: int) -> LabeledGraph:
    edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return graph(n, tuple(edges))


def path_graph(n: int) -> LabeledGraph:
    return graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> LabeledGraph:
    return graph(n, tuple(combinations(range(n), 2)))


def downset_universe_count(n: int) -> int:
    """Count downward-closed families on [n] containing every singleton.

    Independent oracle for the labeled universe size: iterate all subsets of
    the non-singleton nonempty subsets and test closure directly. n <= 4.
    """
    assert n <= 4
    full = (1 << n) - 1
    non_singletons = [m for m in range(1, full + 1) if m.bit_count() >= 2]
    count = 0
    for pick in range(1 << len(non_singletons)):
        fam = {non_singletons[i] for i in range(len(non_singletons)) if pick >> i & 1}
        closed = True
        for m in fam:
            sub = (m - 1) & m
            while sub and closed:
                if sub.bit_count() >= 2 and sub not in fam:
                    closed = False
                sub = (sub - 1) & m
            if not closed:
                break
        if closed:
            count += 1
    return count


@functools.lru_cache(maxsize=None)
def universe(n: int, up_to_iso: bool = True):
    return tuple(enumerate_complexes(n, up_to_iso))


@functools.lru_cache(maxsize=None)
def universe_through(n_max: int, up_to_iso: bool = True):
    out = []
    for n in range(1, n_max + 1):
        out.extend(universe(n, up_to_iso))
    return tuple(out)


def unfiltered_reconstruct(g: LabeledGraph) -> ReconstructionReport:
    """``reconstruct_from_comparability_graph`` without the count gate.

    Every component enumerates all its transitive orientations and tries
    each on the face-poset check, so ``orientations_tried`` is a count of
    posets actually examined. Kept as the oracle the gated path must
    reproduce report for report; it finishes only where the orientations
    are few enough to list.
    """
    if g.vertex_count == 0:
        raise EmptyInput("graph has no vertices")
    tried = 0
    any_double = False
    picked = []
    status = STATUS_OK
    for comp in induced_components(g.adj, (1 << g.vertex_count) - 1):
        verts = [v - 1 for v in _mask_elements(comp)]
        index = {v: k for k, v in enumerate(verts)}
        sub = graph(
            len(verts),
            tuple((index[i], index[j]) for i, j in g.edges if (comp >> i) & 1),
        )
        ups = transitive_orientations(sub)
        tried += len(ups)
        if not ups:
            status = STATUS_NOT_ORIENTABLE
            break
        successes = []
        for up in ups:
            try:
                rebuilt, sources = complex_from_face_poset(up)
            except NotAFacePoset:
                continue
            successes.append((rebuilt, tuple(verts[s] for s in sources)))
        if not successes:
            status = STATUS_NOT_FACE_POSET
            break
        if len(successes) >= 2:
            forms = {canonical_form(c).sort_key for c, _ in successes}
            assert len(forms) == 1, "successful orientations disagree"
            any_double = True
        picked.append(successes[0])
    if status != STATUS_OK:
        return ReconstructionReport(status, None, tried, False)
    ground = sum(c.ground_size for c, _ in picked)
    if ground > MAX_GROUND:
        raise GroundSetTooLarge(
            f"reconstruction needs {ground} vertices, cap is {MAX_GROUND}"
        )
    facets = []
    source_map = []
    offset = 0
    for c, sources in picked:
        for m in c.masks:
            facets.append([offset + e for e in _mask_elements(m)])
        source_map.extend(sources)
        offset += c.ground_size
    merged = complex_from_facets(ground, facets)
    return ReconstructionReport(STATUS_OK, merged, tried, any_double, tuple(source_map))


def cocktail_party(k: int) -> LabeledGraph:
    """K_{2,...,2} on k parts: vertices 2p and 2p+1 form part p and are the
    only non-adjacent pair among them."""
    n = 2 * k
    return graph(
        n, tuple((i, j) for i, j in combinations(range(n), 2) if j != i + 1 or i % 2)
    )


def module_path(m: int, module: LabeledGraph) -> LabeledGraph:
    """P_m[module]: m copies of module in a row, consecutive copies fully joined."""
    k = module.vertex_count
    edges = [(x * k + i, x * k + j) for x in range(m) for i, j in module.edges]
    edges += [
        (x * k + i, (x + 1) * k + j) for x in range(m - 1)
        for i in range(k) for j in range(k)
    ]
    return graph(m * k, tuple(sorted(edges)))


def has_true_twins(g: LabeledGraph) -> bool:
    """Whether two vertices have the same closed neighbourhood, pair by pair."""
    closed = [{v} for v in range(g.vertex_count)]
    for i, j in g.edges:
        closed[i].add(j)
        closed[j].add(i)
    return any(closed[a] == closed[b] for a, b in combinations(range(g.vertex_count), 2))


def orientation_count_graphs() -> list[LabeledGraph]:
    """Seeded random graphs on at most 8 vertices, the face-poset graphs of
    the universe through 4, K1-K8, P_m[K2] and P_m[C4] for m <= 6, and the
    cocktail-party graphs on 2-4 parts."""
    rng = random.Random(107)
    graphs = [random_graph(rng, rng.randint(0, 8), rng.random()) for _ in range(300)]
    graphs += [comparability_graph(c) for c in universe_through(4)]
    graphs += [complete_graph(n) for n in range(1, 9)]
    for m in range(1, 7):
        graphs.append(module_path(m, complete_graph(2)))
        graphs.append(module_path(m, cycle_graph(4)))
    graphs += [cocktail_party(k) for k in range(2, 5)]
    return graphs

"""Independent reference answers for checking the benchmark's outputs.

Nothing here imports barysub: every expected value is computed from the
definitions, so a defect in the library cannot also hide in its check.
Complexes are (ground size, facets) with facets as sorted vertex tuples;
graphs are (vertex count, edges) with 0-based (i, j) pairs, i < j.
"""

from __future__ import annotations

from itertools import combinations, permutations, product


def face_key(face) -> tuple:
    """The library's output order: cardinality, then lexicographic."""
    return (len(face), tuple(face))


def normalize(facets) -> list[tuple[int, ...]]:
    """Maximal members of a face family, sorted by face_key."""
    sets = {frozenset(f) for f in facets if f}
    maximal = [s for s in sets if not any(s < t for t in sets)]
    return sorted((tuple(sorted(s)) for s in maximal), key=face_key)


def faces(facets) -> list[tuple[int, ...]]:
    """Every nonempty face, sorted by face_key."""
    out = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(combinations(sorted(f), r))
    return sorted(out, key=face_key)


def comparability_edges(face_list) -> list[tuple[int, int]]:
    """0-based pairs of distinct comparable faces."""
    sets = [frozenset(f) for f in face_list]
    return [
        (i, j)
        for i, j in combinations(range(len(sets)), 2)
        if sets[i] < sets[j] or sets[j] < sets[i]
    ]


def subdivision_facets(facets) -> set[frozenset[int]]:
    """Maximal chains of the face poset, as sets of 1-based face indices."""
    index = {frozenset(f): i + 1 for i, f in enumerate(faces(facets))}
    chains = set()
    for f in facets:
        for order in permutations(f):
            chains.add(frozenset(index[frozenset(order[: k + 1])] for k in range(len(order))))
    return chains


def incomparable_pairs(facets) -> set[frozenset[int]]:
    """Minimal nonfaces of the subdivision: 1-based pairs of incomparable faces."""
    n = len(faces(facets))
    edges = {frozenset((i + 1, j + 1)) for i, j in comparability_edges(faces(facets))}
    return {frozenset(p) for p in combinations(range(1, n + 1), 2)} - edges


def hollow_triangle(facets) -> tuple[int, int, int] | None:
    """A 3-set whose edges are faces but which is not a face, or None.

    Such a set is a minimal nonface of size 3, so its presence proves the
    complex is not flag.
    """
    face_set = {frozenset(f) for f in faces(facets)}
    verts = sorted({v for f in facets for v in f})
    for t in combinations(verts, 3):
        if frozenset(t) in face_set:
            continue
        if all(frozenset(p) in face_set for p in combinations(t, 2)):
            return t
    return None


def minimal_transversals(sets) -> set[frozenset[int]]:
    """Inclusion-minimal sets meeting every member, by picking one element of each."""
    picks = {frozenset(choice) for choice in product(*[sorted(s) for s in sets])}
    return {p for p in picks if not any(q < p for q in picks)}


def _extend(order, cand, adj_a, adj_b, inv_a, closing, target, image):
    """Backtracking over vertex images with adjacency and facet pruning."""
    depth = len(image)
    if depth == len(order):
        return True
    v = order[depth]
    used = set(image.values())
    for w in cand[inv_a[v]]:
        if w in used:
            continue
        if any((u in adj_a[v]) != (image[u] in adj_b[w]) for u in image):
            continue
        image[v] = w
        if all(frozenset(image[x] for x in f) in target for f in closing[depth]):
            if _extend(order, cand, adj_a, adj_b, inv_a, closing, target, image):
                return True
        del image[v]
    return False


def _isomorphic(n_a, fam_a, n_b, fam_b) -> bool:
    """Whether a vertex bijection carries the set family fam_a onto fam_b."""
    if n_a != n_b or len(fam_a) != len(fam_b):
        return False
    if sorted(map(len, fam_a)) != sorted(map(len, fam_b)):
        return False

    def skeleton(fam, n):
        adj = {v: set() for v in range(n)}
        for f in fam:
            for x, y in combinations(f, 2):
                adj[x].add(y)
                adj[y].add(x)
        inv = {
            v: (len(adj[v]), tuple(sorted(len(f) for f in fam if v in f)))
            for v in range(n)
        }
        return adj, inv

    adj_a, inv_a = skeleton(fam_a, n_a)
    adj_b, inv_b = skeleton(fam_b, n_b)
    if sorted(inv_a.values()) != sorted(inv_b.values()):
        return False
    cand: dict[tuple, list[int]] = {}
    for w in range(n_b):
        cand.setdefault(inv_b[w], []).append(w)
    # Breadth-first order keeps each new vertex adjacent to placed ones.
    order: list[int] = []
    for start in sorted(range(n_a), key=lambda v: (len(cand[inv_a[v]]), -len(adj_a[v]))):
        if start in order:
            continue
        order.append(start)
        k = len(order) - 1
        while k < len(order):
            for u in sorted(adj_a[order[k]], key=lambda x: len(cand[inv_a[x]])):
                if u not in order:
                    order.append(u)
            k += 1
    pos = {v: i for i, v in enumerate(order)}
    closing: list[list[frozenset]] = [[] for _ in order]
    for f in fam_a:
        if f:
            closing[max(pos[v] for v in f)].append(f)
    target = set(fam_b)
    return _extend(order, cand, adj_a, adj_b, inv_a, closing, target, {})


def complexes_isomorphic(n_a: int, facets_a, n_b: int, facets_b) -> bool:
    """Isomorphism of complexes given by facet lists over 1-based vertices."""
    fam_a = [frozenset(v - 1 for v in f) for f in facets_a]
    fam_b = [frozenset(v - 1 for v in f) for f in facets_b]
    return _isomorphic(n_a, fam_a, n_b, fam_b)


def graphs_isomorphic(n_a: int, edges_a, n_b: int, edges_b) -> bool:
    """Isomorphism of simple graphs on 0-based vertices."""
    fam_a = [frozenset(e) for e in edges_a]
    fam_b = [frozenset(e) for e in edges_b]
    return _isomorphic(n_a, fam_a, n_b, fam_b)

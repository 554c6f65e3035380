"""Exhaustive desk-scale verification of the rigidity and equivalence theorems.

The universe for size n is every complex on ground set [n] in which all n
singletons are faces, i.e. every facet antichain covering [n]. Over that
universe the harnesses check, pair by pair, that the comparability graph
(equivalently the subdivision) determines the complex, and that the chain
of equivalent conditions (duals, complements, subdivisions, iterated
subdivisions, comparability graphs, generator sets) holds or fails in
lockstep.

Every isomorphism decision follows one rule. Where an explicit map is
known it is checked: the rigidity round trip's source map, and the
permutation behind each relabeled copy with the face maps it induces.
A witness that should carry one complex onto another is checked on facet
mask sets: the set of permuted facet masks must equal the other's, with
no relabeled complex built. Everywhere else objects are compared by
``_iso_keys``: a cheap invariant, and a canonical form only where another
object's invariant ties.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations

from .core import (
    SimplicialComplex,
    _antichain_complex,
    _image_masks,
    _initial_colors,
    _mask_elements,
    _Record,
    canonical_form,
    relabel_complex,
)
from .derived import (
    alexander_dual,
    barycentric_subdivision,
    complement_complex,
    facet_ideal_generators,
    stanley_reisner_generators,
)
from .errors import EmptyInput, GroundSetTooLarge, UniverseTooLarge
from .graphs import LabeledGraph, clique_complex, comparability_graph
from .reconstruct import STATUS_OK, reconstruct_from_comparability_graph

MAX_UNIVERSE_GROUND = 5
RIGIDITY_MAX_VERTICES = 5
EQUIVALENCE_MAX_VERTICES = 4


class VerificationReport(_Record):
    """Counts and counterexample log of one verification run.

    ``failures`` empty means every checked biconditional held; ``notes``
    documents method substitutions and skipped checks. Unlike the other
    records, a report is filled in as a harness runs: it takes assignment
    and has no hash, and each report gets its own new lists.
    """

    __slots__ = _fields = ("universe_size", "pair_checks", "failures", "notes")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, universe_size: int, pair_checks: int, failures: list[str] | None = None,
                 notes: list[str] | None = None):
        self.universe_size = universe_size
        self.pair_checks = pair_checks
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes


def enumerate_complexes(n: int, up_to_iso: bool = False) -> list[SimplicialComplex]:
    """All complexes on [n] whose faces include every singleton.

    Enumerated as antichains of nonempty subsets covering [n], by one DFS
    that extends a family only by subsets later in (cardinality, value)
    order. No covering prune is needed: the last subset is [n] itself, so
    every suffix of that order covers [n]. A family's code has bit
    total-1-r for each member of rank r in that order, so of two families
    of one size the one with the larger code sorts first. The list is
    sorted by size, then by descending code.

    With ``up_to_iso`` the DFS is orderly (Read, 1978): it keeps a family
    only when no image of it under the n! vertex permutations has a code
    above its own, that is, when it is the least member of its orbit.
    Dropping the last member of an orbit-least family leaves an
    orbit-least family, so every orbit-least family is reached through
    orbit-least prefixes, and each isomorphism class appears once, as its
    least member; no canonical form is computed.
    Counts up to isomorphism: 1, 2, 5, 20, 180 for n = 1..5.

    The n! comparisons are one big-int test. Each permutation has a lane
    of whole bytes, at least total + 1 bits, the identity's lowest; the
    walk carries one int whose lane p holds guard + own - image_p, with
    the guard the lane's top bit and own and image_p the codes of the
    family and of its p-th image. Both codes are below the guard, so no
    lane borrows from the next, and the family is orbit-least exactly when
    every lane keeps its guard bit (a tie keeps it too). A new member's
    image is never already in an image family, so adding it adds its code
    bits, and the child's lanes are the parent's plus one precomputed
    delta. The labelled walk is the same walk with the identity lane alone.
    """
    if n < 1:
        raise EmptyInput("universe needs a nonempty ground set")
    if n > MAX_UNIVERSE_GROUND:
        raise UniverseTooLarge(f"universe capped at {MAX_UNIVERSE_GROUND} vertices")
    full = (1 << n) - 1
    # a stable sort by size keeps each size's masks in value order
    subsets = sorted(range(1, full + 1), key=int.bit_count)
    total = len(subsets)
    rank = {m: r for r, m in enumerate(subsets)}
    # whole bytes per lane: the total code bits and a guard bit.
    # bit_lane[r] is the code bit of rank r as one lane's bytes.
    width = (total + 8) >> 3
    bit_lane = [(1 << (total - 1 - r)).to_bytes(width, "little") for r in range(total)]
    # rows[p][r]: the rank of subsets[r] relabeled by the p-th permutation.
    # The identity comes first, so its lane is the lowest.
    rows = []
    for perm in permutations(range(n)) if up_to_iso else [range(n)]:
        img = [0] * (full + 1)
        for m in range(1, full + 1):
            low = m & -m
            img[m] = img[m ^ low] | 1 << perm[low.bit_length() - 1]
        rows.append([rank[img[m]] for m in subsets])
    n_lanes = len(rows)
    guards = int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * n_lanes, "little")
    delta = [int.from_bytes(bit_lane[r] * n_lanes, "little")
             - int.from_bytes(b"".join(map(bit_lane.__getitem__, ranks)), "little")
             for r, ranks in enumerate(zip(*rows))]

    # above[r]: the ranks of the subsets that contain subsets[r]
    above = [sum(1 << q for q, c in enumerate(subsets) if c & m == m) for m in subsets]
    families: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(start: int, union: int, margins: int, taken: int) -> None:
        if union == full:
            families.append(tuple(chosen))
        for i in range(start, total):
            # a later subset is never smaller, so it can only contain a
            # member: taken holds the ranks of the members' supersets
            if taken >> i & 1:
                continue
            child = margins + delta[i]
            if child & guards == guards:
                c = subsets[i]
                chosen.append(c)
                extend(i + 1, union | c, child, taken | above[i])
                chosen.pop()

    extend(0, 0, guards, 0)
    # The DFS visits the families of one size in lexicographic order of
    # their ranks, which is descending code order; the sort is stable.
    families.sort(key=len)
    return [_antichain_complex(n, fam) for fam in families]


def graph_canonical_form(g: LabeledGraph):
    """Canonical form of a graph: the complex machinery applied to its clique complex.

    Two graphs are isomorphic exactly when these forms are equal, because
    the clique complex determines the graph (its 1-skeleton) and is built
    invariantly.
    """
    return canonical_form(clique_complex(g))


def _graph_invariant(g: LabeledGraph) -> tuple:
    """Cheap isomorphism invariant: vertex and edge counts, then each vertex's
    degree with its neighbours' sorted degrees (one round of neighbour-degree
    refinement), sorted."""
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    return (g.vertex_count, sum(deg) // 2, tuple(sorted(
        (deg[v], tuple(sorted(deg[u - 1] for u in _mask_elements(a))))
        for v, a in enumerate(adj)
    )))


def _complex_invariant(cx: SimplicialComplex) -> tuple:
    """Cheap isomorphism invariant: the canonical-form search's starting colours."""
    return (cx.ground_size, cx.void, tuple(sorted(_initial_colors(cx))))


def _iso_keys(objs: list, invariant, form) -> tuple[list, int]:
    """Keys equal exactly when the objects are isomorphic, and the number of
    canonical forms computed for them.

    An object's key is ``(invariant,)`` when no other object in ``objs``
    shares its invariant, else ``(invariant, form(obj))``: forms are
    immutable records, equal exactly when the objects are isomorphic. The two
    shapes never compare equal. A None object keeps the key None.
    """
    invariants = [None if o is None else invariant(o) for o in objs]
    sizes = Counter(inv for o, inv in zip(objs, invariants) if o is not None)
    keys = [None if o is None else (inv,) if sizes[inv] == 1 else (inv, form(o))
            for o, inv in zip(objs, invariants)]
    return keys, sum(n for n in sizes.values() if n > 1)


def _pairs_sharing_a_key(keys: list) -> list[tuple[int, int]]:
    """Index pairs i < j with keys[i] == keys[j] (None matches nothing), in
    lexicographic order, found by grouping the keys in a dict."""
    groups: dict = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    return sorted(pair for members in groups.values() for pair in combinations(members, 2))


def _check_cap(n: int, cap: int, harness: str) -> None:
    if n > cap:
        raise UniverseTooLarge(f"{harness} harness capped at {cap} vertices")


def _face_map(src, dst, perm) -> list[int] | None:
    """Where the vertex permutation ``perm`` (1-based images) sends each face
    mask of ``src``: its image's position in ``dst``. None when that is not
    a bijection. A permutation sends distinct faces to distinct faces, so
    equal lengths and every image found make it one."""
    at = {f: k for k, f in enumerate(dst)}
    fmap = [at.get(f) for f in _image_masks(src, perm)]
    if len(src) != len(dst) or None in fmap:
        return None
    return fmap


def _carries_edges(g: LabeledGraph, h: LabeledGraph, fmap: list[int] | None) -> bool:
    """Whether the vertex bijection ``fmap`` carries g's edges exactly onto h's:
    each vertex's image neighbour mask must be h's mask at its image."""
    if fmap is None:
        return False
    return _image_masks(g.adj, [k + 1 for k in fmap]) == [h.adj[k] for k in fmap]


def _relabels_onto(cx: SimplicialComplex, perm, other: SimplicialComplex) -> bool:
    """Whether ``relabel_complex(cx, perm) == other``, decided on facet mask
    sets with no complex built. A permutation sends distinct facets to
    distinct facets, so the image set equals ``set(other.masks)`` exactly
    when the sorted image tuple equals ``other.masks``."""
    if cx.ground_size != other.ground_size or cx.void != other.void:
        return False
    return set(_image_masks(cx.masks, perm)) == set(other.masks)


def _carries_subdivision(s, sc, perm) -> tuple[int, ...] | None:
    """The subdivision-vertex permutation that ``perm`` induces from the
    subdivision ``s`` onto ``sc`` (each a (complex, faces) pair), when it
    carries s's complex exactly onto sc's; else None."""
    fmap = _face_map(s[1], sc[1], perm)
    if fmap is None:
        return None
    sigma = tuple(k + 1 for k in fmap)
    return sigma if _relabels_onto(s[0], sigma, sc[0]) else None


def _round_trip_holds(cx: SimplicialComplex, g: LabeledGraph, rec) -> bool:
    """Whether the reconstruction ``rec`` of g, the comparability graph of
    cx, rebuilt cx, checked by its own witness: rebuilt vertex k goes to the
    vertex of the face ``g.labels[rec.source_map[k-1]]``, and that map must
    carry the rebuilt complex exactly onto cx. Those faces are singletons:
    faces are numbered in (cardinality, lex) order, so inclusion, the first
    orientation of each component, passes with the singletons as sources."""
    if rec.status != STATUS_OK:
        return False
    witness = tuple(g.labels[v].bit_length() for v in rec.source_map)
    if sorted(witness) != list(range(1, cx.ground_size + 1)):
        return False
    return _relabels_onto(rec.complex, witness, cx)


def _counts_note(forms: int) -> str:
    return f"{forms} canonical forms computed, one per object in a tied invariant group"


def verify_subdivision_rigidity(n: int) -> VerificationReport:
    """Check that the comparability graph determines the complex, for all of [n].

    Over the up-to-isomorphism universe: distinct members must have
    non-isomorphic comparability graphs, every member must survive the
    reconstruction round trip, and a relabeled copy must keep an isomorphic
    graph (the positive direction of the biconditional).

    The round trip and the copy are witness checks. The round trip reads a
    vertex map off the reconstruction's source map and requires it to carry
    the rebuilt complex exactly onto the member. The copy's permutation
    induces a map on faces, which must carry the member's comparability-graph
    edges exactly onto the copy's. Distinctness compares the graphs'
    ``_iso_keys``; at n <= 5 no invariant ties, so no form is computed.
    """
    _check_cap(n, RIGIDITY_MAX_VERTICES, "rigidity")
    universe = enumerate_complexes(n, up_to_iso=True)
    report = VerificationReport(universe_size=len(universe), pair_checks=0)
    report.notes.append(
        "round trip and relabeled copy checked by explicit witnesses (the "
        "reconstruction's source map, the face map a permutation induces); "
        "distinct graphs told apart by degree and neighbour degrees, with "
        "canonical forms of the clique complex only where that invariant ties"
    )
    report.notes.append(
        "pair checks = distinct unordered graph pairs + one reconstruction "
        "and one relabeled-copy graph comparison per universe member"
    )
    import random  # only here: a plain `import barysub.cli` does not load it
    rng = random.Random(20260816 + n)
    graphs = [comparability_graph(cx) for cx in universe]
    keys, forms = _iso_keys(graphs, _graph_invariant, graph_canonical_form)
    report.pair_checks += len(universe) * (len(universe) - 1) // 2
    for i, j in _pairs_sharing_a_key(keys):
        report.failures.append(
            f"universe[{i}] and universe[{j}] are non-isomorphic but their "
            f"comparability graphs share a canonical form"
        )
    for i, cx in enumerate(universe):
        report.pair_checks += 1
        rec = reconstruct_from_comparability_graph(graphs[i])
        if not _round_trip_holds(cx, graphs[i], rec):
            report.failures.append(
                f"universe[{i}] failed the reconstruction round trip "
                f"(status {rec.status})"
            )
        report.pair_checks += 1
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        copy_graph = comparability_graph(relabel_complex(cx, tuple(perm)))
        fmap = _face_map(graphs[i].labels, copy_graph.labels, perm)
        if not _carries_edges(graphs[i], copy_graph, fmap):
            report.failures.append(
                f"universe[{i}] relabeled by {perm}: the face map it induces "
                f"does not carry the comparability graph onto the copy's"
            )
    report.notes.append(_counts_note(forms))
    return report


def _transforms(cx: SimplicialComplex) -> dict:
    """The equivalence items' transforms of one complex. Subdivisions are
    (complex, faces) pairs; the second is None where the 64-element
    cap blocks it."""
    sub = barycentric_subdivision(cx)
    try:
        sub2 = barycentric_subdivision(sub[0])
    except GroundSetTooLarge:
        sub2 = None
    return {
        "dual": alexander_dual(cx),
        "complement": complement_complex(cx),
        "subdivision": sub,
        "subdivision2": sub2,
        "graph": comparability_graph(cx),
    }


_ITEM_NAMES = ("dual", "complement", "subdivision", "subdivision2", "graph")


def _broken_items(t: dict, tc: dict, perm: tuple[int, ...]) -> list[str]:
    """The items whose transform of a copy relabeled by ``perm`` is not the
    member's transform ``t`` carried along by ``perm``, in item order. The
    second subdivision is skipped where the cap blocks it."""
    sigma = _carries_subdivision(t["subdivision"], tc["subdivision"], perm)
    held = {
        "dual": _relabels_onto(t["dual"], perm, tc["dual"]),
        "complement": _relabels_onto(t["complement"], perm, tc["complement"]),
        "subdivision": sigma is not None,
        "subdivision2": t["subdivision2"] is None or tc["subdivision2"] is None or (
            sigma is not None
            and _carries_subdivision(t["subdivision2"], tc["subdivision2"], sigma) is not None
        ),
        "graph": _carries_edges(t["graph"], tc["graph"], _face_map(
            t["graph"].labels, tc["graph"].labels, perm)),
    }
    return [item for item in _ITEM_NAMES if not held[item]]


def verify_equivalences(n: int) -> VerificationReport:
    """Check that all equivalence items answer alike on every universe pair.

    Items checked per pair: complex isomorphism, dual isomorphism,
    complement isomorphism, subdivision isomorphism, twice-iterated
    subdivision isomorphism (skipped with a note where the 64-element cap
    blocks the second subdivision), comparability-graph isomorphism. The
    generator-set items are certified by their reduction to complex
    isomorphism: for isomorphic pairs the witness bijection must carry
    minimal nonfaces onto minimal nonfaces and facets onto facets.

    Universe pairs compare ``_iso_keys`` of every item: ``_complex_invariant``
    for the complex items and ``_graph_invariant`` for the graph, with a
    canonical form only where another member's invariant ties (none at
    n <= 4). Relabeled copies are witness checks: each item is equivariant,
    so the copy's transform must equal the member's carried along by the
    permutation (for the subdivisions and the graph, by the face map it
    induces), and the permutation itself is the generators' witness.
    """
    _check_cap(n, EQUIVALENCE_MAX_VERTICES, "equivalence")
    universe = enumerate_complexes(n, up_to_iso=True)
    report = VerificationReport(universe_size=len(universe), pair_checks=0)
    report.notes.append(
        "generator-set items are checked by transporting Stanley-Reisner and "
        "facet generators along the isomorphism witness, standing in for "
        "isomorphism of the generated algebras"
    )
    transforms = [_transforms(cx) for cx in universe]
    skipped = sum(1 for t in transforms if t["subdivision2"] is None)
    if skipped:
        report.notes.append(
            f"{skipped} universe members exceed the 64-element cap at the second "
            f"subdivision; the iterated-subdivision item is skipped for their pairs"
        )
    keys, forms = {}, 0
    for item in ("complex",) + _ITEM_NAMES:
        objs = universe if item == "complex" else [t[item] for t in transforms]
        if item.startswith("subdivision"):
            objs = [None if s is None else s[0] for s in objs]
        invariant, form = ((_graph_invariant, graph_canonical_form) if item == "graph"
                           else (_complex_invariant, canonical_form))
        keys[item], computed = _iso_keys(objs, invariant, form)
        forms += computed
    # A pair can fail only when some item, or the complex itself, agrees on
    # it, so only pairs sharing a key under one of them are compared.
    report.pair_checks += len(universe) * (len(universe) - 1) // 2
    candidates = set()
    for item_keys in keys.values():
        candidates.update(_pairs_sharing_a_key(item_keys))
    for i, j in sorted(candidates):
        expected = keys["complex"][i] == keys["complex"][j]  # always False in this universe
        for item in _ITEM_NAMES:
            ki, kj = keys[item][i], keys[item][j]
            if ki is None or kj is None:
                continue
            if (ki == kj) != expected:
                report.failures.append(
                    f"pair ({i},{j}): item {item} answers "
                    f"{ki == kj} but complex isomorphism is {expected}"
                )
    import random
    rng = random.Random(8160000 + n)
    for i, cx in enumerate(universe):
        srs, fgs = stanley_reisner_generators(cx), facet_ideal_generators(cx)
        for _ in range(2):
            report.pair_checks += 1
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            witness = tuple(perm)
            copy = relabel_complex(cx, witness)
            for item in _broken_items(transforms[i], _transforms(copy), witness):
                report.failures.append(
                    f"universe[{i}] relabeled by {perm}: item {item} broke"
                )
            if set(_image_masks(srs, witness)) != set(stanley_reisner_generators(copy)):
                report.failures.append(
                    f"universe[{i}] relabeled by {perm}: Stanley-Reisner "
                    f"generators not carried onto generators"
                )
            if set(_image_masks(fgs, witness)) != set(facet_ideal_generators(copy)):
                report.failures.append(
                    f"universe[{i}] relabeled by {perm}: facet generators "
                    f"not carried onto generators"
                )
    report.notes.append(_counts_note(forms))
    return report


def verify_theorems(n: int, theorem: str | None = None) -> VerificationReport:
    """Run the 2.2 (rigidity) or 2.3 (equivalence) harness, or both when
    ``theorem`` is None, and merge their reports in that order.

    The caps of all the chosen harnesses are checked before any of them
    runs, so a request over a cap fails at once.
    """
    if theorem not in (None, "2.2", "2.3"):
        raise ValueError(f"unknown theorem {theorem!r}")
    if theorem != "2.3":
        _check_cap(n, RIGIDITY_MAX_VERTICES, "rigidity")
    if theorem != "2.2":
        _check_cap(n, EQUIVALENCE_MAX_VERTICES, "equivalence")
    if theorem == "2.2":
        return verify_subdivision_rigidity(n)
    if theorem == "2.3":
        return verify_equivalences(n)
    parts = (verify_subdivision_rigidity(n), verify_equivalences(n))
    merged = VerificationReport(
        universe_size=sum(p.universe_size for p in parts),
        pair_checks=sum(p.pair_checks for p in parts),
    )
    for p in parts:
        merged.failures.extend(p.failures)
        merged.notes.extend(p.notes)
    return merged

"""Rebuilding a complex from its face-poset graph or its subdivision."""

from itertools import combinations
import json
from math import factorial
from pathlib import Path
import random
import sys
import time

import pytest

import helpers
from helpers import cx, facet_sets

import barysub.reconstruct as reconstruct_module
from barysub import jsonio
from barysub.core import induced_components
from barysub import (
    EmptyInput,
    GroundSetTooLarge,
    LabeledGraph,
    NotAFacePoset,
    NotTransitive,
    STATUS_NOT_FACE_POSET,
    STATUS_NOT_FLAG,
    STATUS_NOT_ORIENTABLE,
    STATUS_OK,
    are_isomorphic,
    barycentric_subdivision,
    clique_complex,
    comparability_graph,
    complex_from_face_poset,
    complex_from_facets,
    count_transitive_orientations,
    empty_complex,
    full_simplex,
    one_skeleton_graph,
    poset_from_orientation,
    reconstruct_from_comparability_graph,
    reconstruct_from_subdivision,
    relabel_complex,
    transitive_orientations,
    void_complex,
)

P3 = helpers.graph(3, ((0, 1), (1, 2)))


def test_poset_from_path_orientation():
    up = helpers.poset(3, {(0, 1), (2, 1)})  # a -> c <- b with c = vertex 1
    assert poset_from_orientation(P3, up) == up == (0b010, 0, 0b010)


def test_poset_from_hexagon_orientation():
    hexa = helpers.cycle_graph(6)
    for p in transitive_orientations(hexa):
        assert poset_from_orientation(hexa, p) == p
        # alternating: the relation is exactly the arc set, nothing forced,
        # and three sources lie below three sinks
        rel = helpers.relation(p)
        assert len(rel) == 6
        tails = {a for a, _ in rel}
        heads = {b for _, b in rel}
        assert len(tails) == len(heads) == 3 and tails.isdisjoint(heads)


def test_poset_single_vertex():
    assert poset_from_orientation(helpers.graph(1, ()), (0,)) == (0,)


def test_poset_rejects_nontransitive_orientation():
    chain = helpers.poset(3, {(0, 1), (1, 2)})  # 0 -> 1 -> 2 but no 0-2 edge
    with pytest.raises(NotTransitive, match="0->1->2 without 0->2"):
        poset_from_orientation(P3, chain)
    cyclic = helpers.poset(3, {(0, 1), (2, 0), (1, 2)})
    with pytest.raises(NotTransitive):
        poset_from_orientation(helpers.cycle_graph(3), cyclic)


def test_poset_rejects_an_orientation_of_other_edges():
    bad = [
        (0b010, 0),  # one mask short
        (0b110, 0, 0b010),  # 0 -> 2 is not an edge
        (0b010, 0b001, 0b010),  # 0 -> 1 and 1 -> 0
        (0b010, 0, 0),  # the edge 1-2 is not directed
        (0b1010, 0, 0b010),  # bit 3 on 3 vertices
        (-1, 0, 0),
    ]
    for up in bad:
        with pytest.raises(ValueError, match="does not direct the graph's edges"):
            poset_from_orientation(P3, up)


def test_poset_from_orientation_accepts_exactly_the_transitive_orientations():
    # every orientation of every labelled graph on at most 5 vertices:
    # 3^10 of them at 5 vertices
    for n in range(6):
        for g in helpers.labelled_graphs(n):
            edges = g.edges
            transitive = set(helpers.brute_transitive_orientations(g))
            for bits in range(1 << len(edges)):
                # bit k set: edge k points from its smaller to its larger end
                heads = tuple(e[bits >> k & 1] for k, e in enumerate(edges))
                up = [0] * n
                for (i, j), h in zip(edges, heads):
                    up[i + j - h] |= 1 << h
                up = tuple(up)
                try:
                    assert poset_from_orientation(g, up) == up
                except NotTransitive:
                    assert heads not in transitive, (g, heads)
                else:
                    assert heads in transitive, (g, heads)


def test_complex_from_path_poset_is_an_edge():
    up = helpers.poset(3, {(0, 1), (2, 1)})
    c, sources = complex_from_face_poset(poset_from_orientation(P3, up))
    assert c == cx(2, (1, 2))
    assert sources == (0, 2)


def test_complex_from_face_poset_failure_modes():
    # a chain a < b < c collapses a and b onto the same source set
    k3 = helpers.cycle_graph(3)
    chain = helpers.poset(3, {(0, 1), (0, 2), (1, 2)})
    with pytest.raises(NotAFacePoset, match="injective"):
        complex_from_face_poset(poset_from_orientation(k3, chain))
    # C4 oriented with both sinks above both sources: sinks collide
    c4 = helpers.cycle_graph(4)
    for p in transitive_orientations(c4):
        assert poset_from_orientation(c4, p) == p
        with pytest.raises(NotAFacePoset, match="injective"):
            complex_from_face_poset(p)
    # the star K_{1,3} with a universal sink misses the pair faces
    star = helpers.graph(4, ((0, 3), (1, 3), (2, 3)))
    up = helpers.poset(4, {(0, 3), (1, 3), (2, 3)})
    with pytest.raises(NotAFacePoset, match="face family"):
        complex_from_face_poset(poset_from_orientation(star, up))
    # order/inclusion mismatch: {0,1} below {0,1,2} without the relation pair
    g5 = helpers.graph(5, ((0, 3), (0, 4), (1, 3), (1, 4), (2, 4)))
    o5 = helpers.poset(5, {(0, 3), (0, 4), (1, 3), (1, 4), (2, 4)})
    with pytest.raises(NotAFacePoset, match="inclusion"):
        complex_from_face_poset(poset_from_orientation(g5, o5))
    # two sinks whose images nest, {0,1} inside {0,1,2}: the order check
    # catches them, so the sink images need no separate antichain test
    nested = helpers.poset(5, {(0, 3), (1, 3), (0, 4), (1, 4), (2, 4)})
    with pytest.raises(NotAFacePoset, match="order does not match down-set inclusion"):
        complex_from_face_poset(nested)
    # degenerate relation with no minimal elements (built by hand)
    bad = helpers.poset(2, {(0, 1), (1, 0)})
    with pytest.raises(NotAFacePoset, match="minimal"):
        complex_from_face_poset(bad)


def test_complex_from_face_poset_rejects_masks_off_the_elements():
    for up in [(0b100,), (0, 0b100), (0b10, -1), (-2, 0)]:
        with pytest.raises(ValueError, match=f"nonnegative with no bit at or past {len(up)}$"):
            complex_from_face_poset(up)


def _face_poset_outcome(check, p):
    try:
        return check(p)
    except NotAFacePoset as e:
        return str(e)


def _assert_face_poset_check_matches_brute_force(p):
    got = _face_poset_outcome(complex_from_face_poset, p)
    want = _face_poset_outcome(helpers.brute_complex_from_face_poset, p)
    assert got == want, p


def test_face_poset_check_matches_brute_force_on_orientations():
    # every orientation of every face-poset graph, then of random graphs
    for c in helpers.universe_through(4):
        g = comparability_graph(c)
        for p in transitive_orientations(g):
            assert poset_from_orientation(g, p) == p
            _assert_face_poset_check_matches_brute_force(p)
    rng = random.Random(131)
    for _ in range(300):
        g = helpers.random_graph(rng, rng.randint(1, 6), rng.random())
        for p in transitive_orientations(g):
            assert poset_from_orientation(g, p) == p
            _assert_face_poset_check_matches_brute_force(p)


def test_face_poset_check_matches_brute_force_on_hand_built_posets():
    cases = [
        helpers.poset(2, {(0, 1), (1, 0)}),  # cyclic
        helpers.poset(1, {(0, 0)}),
        helpers.poset(3, ()),  # three isolated points
        helpers.poset(3, {(0, 2), (1, 2)}),  # an edge
        # an edge whose top carries a self-loop, so it is not a sink
        helpers.poset(3, {(0, 2), (1, 2), (2, 2)}),
    ]
    # random relations: not necessarily transitive, acyclic or irreflexive
    rng = random.Random(137)
    for _ in range(3000):
        n = rng.randint(1, 6)
        density = rng.random() / 2
        rel = frozenset(
            (a, b) for a in range(n) for b in range(n)
            if rng.random() < density and (a != b or rng.random() < 0.2)
        )
        p = helpers.poset(n, rel)
        assert helpers.relation(p) == rel
        cases.append(p)
    outcomes = set()
    for p in cases:
        _assert_face_poset_check_matches_brute_force(p)
        got = _face_poset_outcome(complex_from_face_poset, p)
        outcomes.add(got if isinstance(got, str) else "ok")
    assert outcomes == {
        "ok",
        "poset has no minimal elements",
        "source down-sets are not injective",
        "order does not match down-set inclusion",
        "down-sets do not form the full face family",
    }


def _multipartite_skeleton(m: int):
    """The 1-skeleton of the complete multipartite graph with m parts of 3.
    That graph has 3^m maximal cliques (Moon and Moser), and for m >= 3 a
    triangle across three parts is a minimal nonface, so it is not flag."""
    n = 3 * m
    return complex_from_facets(n, [
        (u, v) for u, v in combinations(range(1, n + 1), 2) if (u - 1) // 3 != (v - 1) // 3
    ])


def test_clique_flag_test_matches_two_element_minimal_nonfaces():
    cases = [void_complex(1), void_complex(3), empty_complex(1), empty_complex(3)]
    # a ground vertex in no facet
    cases += [cx(3, (1, 2)), cx(4, (1, 2, 3)), cx(5, (1, 2), (2, 3), (1, 3))]
    cases += [_multipartite_skeleton(m) for m in (2, 3, 4)]
    for c in helpers.universe_through(4):
        cases += [c, barycentric_subdivision(c)[0]]
    flags = 0
    for b in cases:
        flag = all(nf.bit_count() == 2 for nf in b.minimal_nonfaces())
        flags += flag
        assert (clique_complex(one_skeleton_graph(b)) == b) == flag, b
        r = reconstruct_from_subdivision(b)
        assert (r.status == STATUS_NOT_FLAG) == (not flag), b
    assert 0 < flags < len(cases)
    # m = 21: 63 vertices, 1,890 edge facets and 3^21 maximal cliques, of
    # which the test lists only the first
    b = _multipartite_skeleton(21)
    assert len(b.masks) == 1890
    assert any(nf.bit_count() == 3 for nf in b.minimal_nonfaces())
    start = time.perf_counter()
    r = reconstruct_from_subdivision(b)
    assert time.perf_counter() - start < 1.0
    assert (r.status, r.complex, r.orientations_tried) == (STATUS_NOT_FLAG, None, 0)


def test_canonical_form_runs_only_with_two_successes(monkeypatch):
    calls = []
    real = reconstruct_module.canonical_form

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(reconstruct_module, "canonical_form", counting)
    path4 = cx(4, (1, 2), (2, 3), (3, 4))
    for c in [path4, full_simplex(6).skeleton(2)]:
        calls.clear()
        r = reconstruct_from_comparability_graph(comparability_graph(c))
        assert r.status == STATUS_OK and not r.both_orientations_admissible
        assert calls == [], c
    triangle_boundary = cx(3, (1, 2), (1, 3), (2, 3))
    four_cycle = cx(4, (1, 2), (2, 3), (3, 4), (1, 4))
    five_cycle = cx(5, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
    # two successes that rebuild the same facet masks need no form; the
    # cycles' reversed orders rebuild them relabelled, so both get one
    cases = [
        (comparability_graph(triangle_boundary), 0),
        (helpers.cycle_graph(6), 0),
        (comparability_graph(full_simplex(4)), 0),
        (comparability_graph(full_simplex(4).skeleton(2)), 0),
        (comparability_graph(four_cycle), 2),
        (comparability_graph(five_cycle), 2),
    ]
    for g, forms in cases:
        calls.clear()
        r = reconstruct_from_comparability_graph(g)
        assert r.status == STATUS_OK and r.both_orientations_admissible
        assert len(calls) == forms, g

    # forms that disagree still break the rigidity self-check
    monkeypatch.setattr(reconstruct_module, "canonical_form", lambda c: c.masks)
    with pytest.raises(RuntimeError, match="rigidity violated"):
        reconstruct_from_comparability_graph(comparability_graph(four_cycle))


def test_reconstruct_path_graph():
    r = reconstruct_from_comparability_graph(P3)
    assert r.status == STATUS_OK
    assert r.orientations_tried == 2
    assert not r.both_orientations_admissible
    assert r.complex == cx(2, (1, 2))
    assert r.source_map == (0, 2)


def test_reconstruct_hexagon_is_triangle_boundary():
    hexa = helpers.cycle_graph(6)
    r = reconstruct_from_comparability_graph(hexa)
    assert r.status == STATUS_OK
    assert r.orientations_tried == 2
    assert r.both_orientations_admissible
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert are_isomorphic(r.complex, tri) is not None
    assert set(r.source_map) in ({0, 2, 4}, {1, 3, 5})


def test_reconstruct_small_cycles_fail():
    r3 = reconstruct_from_comparability_graph(helpers.cycle_graph(3))
    assert r3.status == STATUS_NOT_FACE_POSET
    assert r3.complex is None and r3.orientations_tried == 6
    r4 = reconstruct_from_comparability_graph(helpers.cycle_graph(4))
    assert r4.status == STATUS_NOT_FACE_POSET
    assert r4.orientations_tried == 2
    r5 = reconstruct_from_comparability_graph(helpers.cycle_graph(5))
    assert r5.status == STATUS_NOT_ORIENTABLE
    assert r5.orientations_tried == 0


def test_is_complex_comparability_graph():
    for g, ok in [(helpers.cycle_graph(3), False), (helpers.cycle_graph(4), False),
                  (helpers.cycle_graph(5), False), (helpers.cycle_graph(6), True),
                  (helpers.graph(1, ()), True)]:
        assert (reconstruct_from_comparability_graph(g).status == STATUS_OK) == ok, g
    with pytest.raises(EmptyInput):
        reconstruct_from_comparability_graph(helpers.graph(0, ()))


def test_round_trip_over_small_universe():
    for c in helpers.universe_through(5):
        r = reconstruct_from_comparability_graph(comparability_graph(c))
        assert r.status == STATUS_OK, c
        assert are_isomorphic(r.complex, c) is not None, c


def test_round_trip_random_complexes():
    rng = random.Random(109)
    for _ in range(500):
        c = helpers.random_cover_complex(rng, rng.randint(1, 7))
        r = reconstruct_from_comparability_graph(comparability_graph(c))
        assert r.status == STATUS_OK, c
        assert are_isomorphic(r.complex, c) is not None, c


def test_reconstruct_disconnected_graphs():
    two = cx(4, (1, 2), (3, 4))
    r = reconstruct_from_comparability_graph(comparability_graph(two))
    assert r.status == STATUS_OK
    assert are_isomorphic(r.complex, two) is not None
    mixed = cx(5, (1, 2, 3), (4,), (5,))
    r = reconstruct_from_comparability_graph(comparability_graph(mixed))
    assert r.status == STATUS_OK
    assert are_isomorphic(r.complex, mixed) is not None
    # a failing component poisons the whole graph
    c5_plus_point = helpers.graph(
        6, tuple(sorted(tuple(sorted((i, (i + 1) % 5))) for i in range(5)))
    )
    r = reconstruct_from_comparability_graph(c5_plus_point)
    assert r.status == STATUS_NOT_ORIENTABLE


def test_reconstruction_caches_nothing_on_the_callers_graph():
    # a connected graph is searched through a copy, and a disconnected one
    # through re-indexed component masks; implication classes are cached
    # there, so the graph the caller passed in keeps only its two fields
    hexagon = comparability_graph(cx(3, (1, 2), (1, 3), (2, 3)))
    two = comparability_graph(cx(4, (1, 2), (3, 4)))
    k4 = helpers.graph(4, tuple(combinations(range(4), 2)))
    for g, components, status in [(hexagon, 1, STATUS_OK), (two, 2, STATUS_OK),
                                   (k4, 1, STATUS_NOT_FACE_POSET)]:
        assert len(induced_components(g.adj, (1 << g.vertex_count) - 1)) == components
        assert reconstruct_from_comparability_graph(g).status == status
        assert set(vars(g)) == {"adj", "labels"}


def test_reconstruct_three_interleaved_components():
    # an edge's face poset P3 on {0, 4, 2}, a hexagon on 1-3-5-7-9-8 and an
    # isolated point 6: components come in order of least vertex, and each
    # one's sources map back to the input graph's own vertex numbers
    edges = [(0, 4), (2, 4), (1, 3), (3, 5), (5, 7), (7, 9), (8, 9), (1, 8)]
    r = reconstruct_from_comparability_graph(helpers.graph(10, tuple(sorted(edges))))
    assert r.status == STATUS_OK
    assert r.orientations_tried == 2 + 2 + 1
    assert r.both_orientations_admissible
    assert r.source_map == (0, 2, 1, 5, 9, 6)
    assert r.complex == cx(6, (1, 2), (3, 4), (3, 5), (4, 5), (6,))


def p3_copies(k: int, extra: LabeledGraph = helpers.graph(0, ())) -> LabeledGraph:
    """k disjoint copies of P3 (middle vertex 3i+2), then a copy of extra."""
    edges = [e for i in range(k) for e in ((3 * i, 3 * i + 2), (3 * i + 1, 3 * i + 2))]
    edges += [(3 * k + i, 3 * k + j) for i, j in extra.edges]
    return helpers.graph(3 * k + extra.vertex_count, tuple(sorted(edges)))


def test_reconstruction_over_the_ground_cap_raises_ground_set_too_large():
    r = reconstruct_from_comparability_graph(p3_copies(32))
    assert r.status == STATUS_OK and r.complex.ground_size == 64
    with pytest.raises(GroundSetTooLarge, match="needs 66 vertices, cap is 64"):
        reconstruct_from_comparability_graph(p3_copies(33))
    # a failing component still reports before the cap is checked
    for n, status in ((5, STATUS_NOT_ORIENTABLE), (4, STATUS_NOT_FACE_POSET)):
        r = reconstruct_from_comparability_graph(p3_copies(33, helpers.cycle_graph(n)))
        assert r.status == status and r.complex is None


def path_face_poset(n: int) -> tuple[int, ...]:
    """The face poset of the path on n vertices: element i < n is vertex i,
    and element n + i the edge joining vertices i and i + 1."""
    return helpers.poset(2 * n - 1, {(i + d, n + i) for i in range(n - 1) for d in (0, 1)})


def test_face_poset_over_the_ground_cap_passes_its_checks_then_raises():
    # the checks take any number of sources; only the complex is capped
    path64 = cx(64, *((i, i + 1) for i in range(1, 64)))
    for check in (complex_from_face_poset, helpers.brute_complex_from_face_poset):
        assert check(path_face_poset(64)) == (path64, tuple(range(64)))
        with pytest.raises(GroundSetTooLarge, match="65 minimal elements, cap is 64"):
            check(path_face_poset(65))
        with pytest.raises(GroundSetTooLarge, match="65 minimal elements, cap is 64"):
            check((0,) * 65)
    # one element above 65 sources: no image is one source short of it
    above = helpers.poset(66, {(i, 65) for i in range(65)})
    with pytest.raises(NotAFacePoset, match="full face family"):
        complex_from_face_poset(above)
    # the face-poset graph of the path on n vertices is the path on 2n - 1
    assert reconstruct_from_comparability_graph(helpers.path_graph(127)).complex == path64
    with pytest.raises(GroundSetTooLarge, match="65 minimal elements, cap is 64"):
        reconstruct_from_comparability_graph(helpers.path_graph(129))


def test_unique_success_recovers_the_labeling():
    # when exactly one orientation survives, its sources are the singleton
    # faces and mapping each ground vertex to its singleton's source index
    # is an isomorphism onto the reconstruction
    for c in [
        cx(4, (1, 2), (2, 3), (3, 4)),
        cx(4, (1, 2), (1, 3), (1, 4)),
        cx(4, (1, 2, 3), (2, 3, 4)),
    ]:
        g = comparability_graph(c)
        r = reconstruct_from_comparability_graph(g)
        assert r.status == STATUS_OK and not r.both_orientations_admissible
        images = [0] * c.ground_size
        for i, src in enumerate(r.source_map, start=1):
            label = g.labels[src]
            assert label.bit_count() == 1
            images[label.bit_length() - 1] = i
        assert relabel_complex(c, tuple(images)) == r.complex


def test_reconstruct_from_subdivision_examples():
    sub, _ = barycentric_subdivision(cx(2, (1, 2)))
    r = reconstruct_from_subdivision(sub)
    assert r.status == STATUS_OK
    assert are_isomorphic(r.complex, cx(2, (1, 2))) is not None
    hexagon = cx(6, (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6))
    r = reconstruct_from_subdivision(hexagon)
    assert r.status == STATUS_OK
    assert are_isomorphic(r.complex, cx(3, (1, 2), (1, 3), (2, 3))) is not None


def test_reconstruct_from_subdivision_rejects_nonflag():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    r = reconstruct_from_subdivision(tri)  # minimal nonface of size 3
    assert r.status == STATUS_NOT_FLAG
    assert r.complex is None and r.orientations_tried == 0
    r = reconstruct_from_subdivision(cx(2, (1,)))  # uncovered vertex
    assert r.status == STATUS_NOT_FLAG


def test_reconstruct_from_subdivision_round_trip():
    rng = random.Random(113)
    cases = list(helpers.universe_through(4))
    cases += [helpers.random_cover_complex(rng, 5) for _ in range(30)]
    for c in cases:
        sub, _ = barycentric_subdivision(c)
        r = reconstruct_from_subdivision(sub)
        assert r.status == STATUS_OK, c
        assert are_isomorphic(r.complex, c) is not None, c


def test_reconstruct_from_subdivision_on_the_largest_roundtrip_members():
    # the benchmark's roundtrip rebuilds these 6- and 7-vertex complexes only
    # from their comparability graphs; their subdivisions have 41-63
    # vertices and 120-720 facets, so the flag test lists that many cliques
    for n, i in [(6, 4), (6, 5), (6, 3), (6, 2), (7, 2)]:
        c = complex_from_facets(n, combinations(range(1, n + 1), i + 1))
        r = reconstruct_from_subdivision(barycentric_subdivision(c)[0])
        assert r.status == STATUS_OK, (n, i)
        assert are_isomorphic(r.complex, c) is not None, (n, i)


def test_flag_complexes_that_are_not_skeletons():
    # flag inputs reach the graph stage and may still fail there
    c4_complex = cx(4, (1, 2), (2, 3), (3, 4), (1, 4))
    r = reconstruct_from_subdivision(c4_complex)
    assert r.status == STATUS_NOT_FACE_POSET


def _reversed_inclusion(g: LabeledGraph) -> tuple[int, ...]:
    """The face order on g's labels, reversed: larger faces below smaller."""
    return helpers.poset(g.vertex_count, {
        (j, i) for i, a in enumerate(g.labels) for j, b in enumerate(g.labels)
        if a != b and a & ~b == 0
    })


def test_reverse_orientation_success_properties():
    # reversing the face order gives a face poset again only for a narrow
    # self-paired family: every component must be pure, and the rebuilt
    # complex is isomorphic to the original. Simplex skeletons qualify but
    # are not alone: cycle complexes of length >= 4 are self-paired through
    # the vertex/edge exchange without being simplex skeletons.
    hits = []
    for c in helpers.universe_through(5):
        try:
            rebuilt, _ = complex_from_face_poset(_reversed_inclusion(comparability_graph(c)))
        except NotAFacePoset:
            continue
        hits.append(facet_sets(c))
        for comp in c.connected_components():
            assert comp.complex.is_pure(), c
        assert are_isomorphic(rebuilt, c) is not None, c
    assert len(hits) == 14
    tri_boundary = {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
    four_cycle = {
        frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 4}), frozenset({3, 4}),
    }
    assert tri_boundary in hits
    assert four_cycle in hits  # pure, self-paired, not a simplex skeleton


def test_reverse_orientation_failure_examples():
    # the full simplex on >= 2 vertices collapses all reversed source sets
    for c in [full_simplex(2), full_simplex(3),
              cx(4, (1, 2), (2, 3), (3, 4)), cx(3, (1, 2), (3,))]:
        with pytest.raises(NotAFacePoset):
            complex_from_face_poset(_reversed_inclusion(comparability_graph(c)))


def test_both_admissible_members_up_to_four_vertices():
    # exactly five connected complexes on <= 4 vertices admit a second
    # successful orientation: the two full simplexes, the two simplex
    # boundaries, and the 4-cycle
    want = [
        {frozenset({1, 2, 3})},
        {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})},
        {frozenset({1, 2, 3, 4})},
        {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 4}), frozenset({3, 4})},
        {frozenset({1, 2, 3}), frozenset({1, 2, 4}),
         frozenset({1, 3, 4}), frozenset({2, 3, 4})},
    ]
    got = []
    for c in helpers.universe_through(4):
        if not c.is_connected():
            continue
        r = reconstruct_from_comparability_graph(comparability_graph(c))
        assert r.status == STATUS_OK
        if r.both_orientations_admissible:
            got.append(facet_sets(c))
    assert got == want


def test_universal_vertex_means_simplex():
    # a vertex adjacent to everything is a face containing all others
    for c in helpers.universe_through(5):
        g = comparability_graph(c)
        adj = [0] * g.vertex_count
        for i, j in g.edges:
            adj[i] += 1
            adj[j] += 1
        universal = any(d == g.vertex_count - 1 for d in adj)
        assert universal == (c == full_simplex(c.ground_size))
        if universal:
            r = reconstruct_from_comparability_graph(g)
            assert r.status == STATUS_OK
            assert r.complex == full_simplex(r.complex.ground_size)


def test_single_vertex_graph_reconstructs_to_point():
    r = reconstruct_from_comparability_graph(helpers.graph(1, ()))
    assert r.status == STATUS_OK
    assert r.complex == cx(1, (1,))
    assert r.orientations_tried == 1
    assert r.source_map == (0,)


def test_no_face_poset_graph_has_true_twins():
    rng = random.Random(131)
    cases = list(helpers.universe_through(4))
    cases += [helpers.random_complex(rng, rng.randint(1, 6)) for _ in range(200)]
    for c in cases:
        assert not helpers.has_true_twins(comparability_graph(c)), c


def _workload_graphs(workload: str, root: Path) -> list[LabeledGraph]:
    """The graphs the benchmark's reject or roundtrip workload reconstructs at
    seed 7: its graph inputs, and the comparability graphs of its complexes."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import workloads

    workloads.build(workload, 7, root)
    graphs = []
    for path in sorted((root / "in").iterdir()):
        obj = json.loads(path.read_text(encoding="utf-8"))
        if "vertices" in obj:
            graphs.append(jsonio.graph_from_obj(obj))
        elif workload == "roundtrip":
            graphs.append(comparability_graph(jsonio.complex_from_obj(obj)))
    return graphs


def _complement(g: LabeledGraph) -> LabeledGraph:
    present = set(g.edges)
    pairs = combinations(range(g.vertex_count), 2)
    return helpers.graph(g.vertex_count, tuple(e for e in pairs if e not in present))


def test_reconstruction_reports_match_the_unfiltered_search(tmp_path, monkeypatch):
    hexagon = helpers.cycle_graph(6)
    k3 = helpers.complete_graph(3)
    graphs = [g for g in helpers.orientation_count_graphs() if g.vertex_count]
    graphs += [_complement(g) for g in graphs[:300]]
    # a refusal in a later component: earlier components' counts still add up
    graphs += [
        helpers.disjoint_union(hexagon, k3),
        helpers.disjoint_union(hexagon, helpers.cycle_graph(5), k3),
        helpers.disjoint_union(hexagon, k3, helpers.cycle_graph(5)),
    ]
    # no twins of either kind, 2^(m+1) orientations
    graphs += [helpers.module_path(m, helpers.path_graph(4)) for m in range(1, 9)]
    graphs += _workload_graphs("reject", tmp_path / "reject")
    graphs += _workload_graphs("roundtrip", tmp_path / "roundtrip")
    refused = searched = 0

    def count(g):
        nonlocal refused
        k = count_transitive_orientations(g)
        refused += not 0 < k <= 4
        return k

    def search(g):
        nonlocal searched
        searched += 1
        return transitive_orientations(g)

    monkeypatch.setattr(reconstruct_module, "count_transitive_orientations", count)
    monkeypatch.setattr(reconstruct_module, "transitive_orientations", search)
    for g in graphs:
        assert reconstruct_from_comparability_graph(g) == helpers.unfiltered_reconstruct(g), g
    # both paths are exercised: 223 components are refused by the count and
    # 1,010 reach the search
    assert refused > 100 and searched > 100


def test_count_refusals_never_reach_the_search(monkeypatch):
    # K2 and C4 (the cocktail party on 2 parts) have 2 orientations and one
    # implication class each: they are searched, and neither orientation fits
    for g in (helpers.complete_graph(2), helpers.cycle_graph(4)):
        r = reconstruct_from_comparability_graph(g)
        assert r == reconstruct_module.ReconstructionReport(STATUS_NOT_FACE_POSET, None, 2, False)

    def no_search(g):
        raise AssertionError("a component the count refuses reached the search")

    monkeypatch.setattr(reconstruct_module, "transitive_orientations", no_search)
    for n in range(3, 47):
        r = reconstruct_from_comparability_graph(helpers.complete_graph(n))
        assert r.status == STATUS_NOT_FACE_POSET
        assert r.orientations_tried == factorial(n)
        assert r.complex is None and not r.both_orientations_admissible
    # a component that no orientation fits: a 5-cycle with a twin of 0
    c5_twin = helpers.graph(
        6, tuple(sorted(helpers.cycle_graph(5).edges + ((0, 5), (1, 5), (4, 5))))
    )
    r = reconstruct_from_comparability_graph(c5_twin)
    assert r == reconstruct_module.ReconstructionReport(STATUS_NOT_ORIENTABLE, None, 0, False)
    # no true twins: cocktail parties on 3 to 46 parts (46! orientations)
    # and P_m[C4] up to 64 vertices
    graphs = [helpers.cocktail_party(k) for k in range(3, 47)]
    graphs += [helpers.module_path(m, helpers.cycle_graph(4)) for m in range(2, 17)]
    for g in graphs:
        assert not helpers.has_true_twins(g)
        r = reconstruct_from_comparability_graph(g)
        assert r == reconstruct_module.ReconstructionReport(
            STATUS_NOT_FACE_POSET, None, count_transitive_orientations(g), False
        ), g
    # no twins of either kind: P_m[P4] has 2^(m+1) orientations
    for m in [*range(2, 65), 300]:
        r = reconstruct_from_comparability_graph(helpers.module_path(m, helpers.path_graph(4)))
        assert r == reconstruct_module.ReconstructionReport(
            STATUS_NOT_FACE_POSET, None, 2 ** (m + 1), False
        ), m


def test_face_poset_graphs_have_1_2_or_4_orientations():
    # A connected face-poset graph has (implication classes, orientations)
    # (0, 1), (1, 2) or (2, 4), and 4 exactly for a simplex on 3 or more
    # vertices, so the count gate never refuses a complex that reconstructs
    rng = random.Random(151)
    cases = list(helpers.universe_through(5))
    cases += [helpers.random_complex(rng, rng.randint(3, 7)) for _ in range(300)]
    pairs = {(0, 1), (1, 2), (2, 4)}
    seen = []
    for c in cases:
        g = comparability_graph(c)
        if len(induced_components(g.adj, (1 << g.vertex_count) - 1)) > 1:
            continue
        pair = (len(g.implication_classes), count_transitive_orientations(g))
        assert pair in pairs, c
        simplex = len(c.masks) == 1 and c.masks[0].bit_count() >= 3
        assert (pair[1] == 4) == simplex, c
        seen.append(pair)
    # 460 of the 508 complexes are connected, and each pair occurs
    assert len(seen) > 400 and set(seen) == pairs

"""Graphs: clique complexes, comparability graphs, orientations."""

from itertools import combinations
from math import factorial
import random
import time

import pytest

import helpers
from helpers import cx, facet_sets

from barysub import (
    EmptyInput,
    GroundSetTooLarge,
    LabeledGraph,
    Orientation,
    VoidComplex,
    barycentric_subdivision,
    clique_complex,
    comparability_graph,
    complex_from_facets,
    count_transitive_orientations,
    empty_complex,
    full_simplex,
    one_skeleton_graph,
    poset_from_orientation,
    transitive_orientations,
    void_complex,
)
import barysub.graphs as graphs_module
from barysub.core import _mask_elements


def brute_cliques(g: LabeledGraph) -> set[frozenset[int]]:
    present = set(g.edges)
    out = set()
    for r in range(1, g.vertex_count + 1):
        for sub in combinations(range(g.vertex_count), r):
            if all(e in present for e in combinations(sub, 2)):
                out.add(frozenset(sub))
    return out


def test_labeled_graph_validation():
    g = LabeledGraph((0b010, 0b101, 0b010))
    assert g.vertex_count == 3 and g.edges == ((0, 1), (1, 2)) and g.labels is None
    assert set(vars(g)) == {"adj", "labels"}
    assert LabeledGraph(()).edges == ()
    for adj, v in [((0b100, 0b000), 0),   # a bit at n
                   ((0b10, 0b1, 1 << 70), 2),  # a bit past n
                   ((0b00, 0b10), 1),     # a vertex's own bit
                   ((0b10, -1), 1)]:      # a negative mask has bits past n
        with pytest.raises(ValueError) as info:
            LabeledGraph(adj)
        assert str(info.value) == f"neighbour mask of vertex {v} invalid for {len(adj)} vertices"
    with pytest.raises(ValueError, match="one label per vertex required"):
        LabeledGraph((0, 0), labels=(0b1,))


def test_clique_complex_pinned():
    assert clique_complex(helpers.complete_graph(3)) == full_simplex(3)
    c4 = helpers.cycle_graph(4)
    assert facet_sets(clique_complex(c4)) == {
        frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({1, 4}),
    }
    lonely = helpers.graph(2, ())
    assert clique_complex(lonely) == cx(2, (1,), (2,))


def test_clique_complex_faces_are_cliques():
    rng = random.Random(83)
    for _ in range(60):
        g = helpers.random_graph(rng, rng.randint(1, 9), rng.random())
        c = clique_complex(g)
        got = {frozenset(v - 1 for v in _mask_elements(f)) for f in c.faces()}
        assert got == brute_cliques(g)


def test_clique_complex_bounds():
    with pytest.raises(EmptyInput):
        clique_complex(helpers.graph(0, ()))
    with pytest.raises(GroundSetTooLarge):
        clique_complex(helpers.graph(65, ()))


def test_one_skeleton_graph():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert one_skeleton_graph(tri).edges == ((0, 1), (0, 2), (1, 2))
    assert one_skeleton_graph(full_simplex(3)).edges == ((0, 1), (0, 2), (1, 2))
    # uncovered ground vertices appear as isolated graph vertices
    g = one_skeleton_graph(cx(3, (1, 2)))
    assert g.vertex_count == 3 and g.edges == ((0, 1),)
    assert one_skeleton_graph(full_simplex(64)).edges == tuple(combinations(range(64), 2))
    # against the facet-pair oracle, on random complexes whose facets may
    # leave ground vertices uncovered, and on void and empty complexes
    rng = random.Random(157)
    cases = [void_complex(4), empty_complex(3)]
    for _ in range(300):
        n = rng.randint(1, 24)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(1, min(n, 6)))
            for _ in range(rng.randint(0, 6))
        ]
        cases.append(complex_from_facets(n, facets))
    assert sum(not c.has_all_vertices and bool(c.masks) for c in cases) > 100
    for c in cases:
        assert one_skeleton_graph(c) == helpers.facet_pair_skeleton(c), c


def test_comparability_graph_of_triangle_boundary_is_hexagon():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    g = comparability_graph(tri)
    assert g.vertex_count == 6
    assert g.edges == ((0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5))
    assert g.labels == (0b001, 0b010, 0b100, 0b011, 0b101, 0b110)


def test_comparability_graph_matches_subdivision_skeleton():
    # dual route: direct face-inclusion edges vs the subdivided complex, on
    # one face tuple
    for c in helpers.universe_through(5) + helpers.universe_through(4, up_to_iso=False):
        g = comparability_graph(c)
        sub, faces = barycentric_subdivision(c)
        assert g.vertex_count == sub.ground_size
        assert faces == g.labels
        assert g == helpers.graph(g.vertex_count, one_skeleton_graph(sub).edges, faces)


def test_mask_builders_match_the_pairwise_oracles():
    # vertex columns against an inclusion test on every pair of faces, and
    # classes grown from the masks against the walk over the sorted edges
    rng = random.Random(163)
    complexes = list(helpers.universe_through(4, up_to_iso=False))
    complexes += helpers.universe(5)
    complexes += [helpers.random_complex(rng, rng.randint(1, 10), 4) for _ in range(80)]
    complexes += [full_simplex(n) for n in range(1, 11)]
    for c in complexes:
        g = comparability_graph(c)
        want = helpers.pairwise_comparability_graph(c)
        assert g.adj == want.adj and g.labels == want.labels, c
        assert g.implication_classes == helpers.edge_order_classes(want), c
    graphs = [g for n in range(6) for g in helpers.labelled_graphs(n)]
    graphs += [helpers.random_poset_graph(rng, rng.randint(8, 12)) for _ in range(30)]
    for g in graphs:
        assert g.implication_classes == helpers.edge_order_classes(g), g


def test_comparability_graph_beyond_subdivision_cap():
    # 127 faces: the subdivision itself is out of range, the graph is not
    big = full_simplex(7)
    g = comparability_graph(big)
    assert g.vertex_count == 127
    present = set(g.edges)
    faces = g.labels
    for i, j in [(0, 1), (0, 126), (1, 126)]:
        nested = faces[i] & ~faces[j] == 0 or faces[j] & ~faces[i] == 0
        assert ((i, j) in present) == (nested and i != j)


def test_comparability_graph_rejects_degenerate():
    with pytest.raises(VoidComplex):
        comparability_graph(void_complex(2))
    with pytest.raises(EmptyInput):
        comparability_graph(empty_complex(2))


def test_orientation_helpers():
    edges = ((0, 1), (1, 2))
    o = Orientation(edges, (1, 1))
    assert o.arcs() == [(0, 1), (2, 1)]
    with pytest.raises(ValueError):
        Orientation(edges, (1,))
    with pytest.raises(ValueError):
        Orientation(edges, (2, 1))


def test_transitive_orientation_counts_pinned():
    assert len(transitive_orientations(helpers.complete_graph(3))) == 6
    assert len(transitive_orientations(helpers.complete_graph(4))) == 24
    p3 = helpers.graph(3, ((0, 1), (1, 2)))
    assert len(transitive_orientations(p3)) == 2
    assert len(transitive_orientations(helpers.cycle_graph(4))) == 2
    assert transitive_orientations(helpers.cycle_graph(5)) == []
    assert len(transitive_orientations(helpers.cycle_graph(6))) == 2


def test_edgeless_graphs_have_one_empty_orientation():
    g = helpers.graph(3, ())
    outs = transitive_orientations(g)
    assert len(outs) == 1 and helpers.as_orientation(g, outs[0]).heads == ()


def test_hexagon_orientations_alternate():
    hexa = helpers.cycle_graph(6)
    posets = transitive_orientations(hexa)
    outs = [helpers.as_orientation(hexa, p) for p in posets]
    assert len(outs) == 2
    for o in outs:
        indeg = [0] * 6
        outdeg = [0] * 6
        for t, h in o.arcs():
            outdeg[t] += 1
            indeg[h] += 1
        sources = [v for v in range(6) if indeg[v] == 0 and outdeg[v] == 2]
        sinks = [v for v in range(6) if outdeg[v] == 0 and indeg[v] == 2]
        assert len(sources) == 3 and len(sinks) == 3
    assert posets[1] == helpers.reversed_poset(posets[0])


def test_orientations_are_transitive_by_definition():
    rng = random.Random(97)
    for _ in range(80):
        g = helpers.random_graph(rng, rng.randint(1, 8), rng.random())
        for p in transitive_orientations(g):
            o = helpers.as_orientation(g, p)
            arcs = set(o.arcs())
            for (a, b) in arcs:
                for (bb, c) in arcs:
                    if bb == b:
                        assert (a, c) in arcs, (g, o)


def test_orientations_match_brute_force():
    rng = random.Random(101)
    cases = [
        helpers.complete_graph(3),
        helpers.complete_graph(4),
        helpers.cycle_graph(4),
        helpers.cycle_graph(5),
        helpers.cycle_graph(6),
        helpers.graph(3, ((0, 1), (1, 2))),
        helpers.graph(1, ()),
        helpers.disjoint_union(*[helpers.path_graph(4)] * 3),
    ]
    while len(cases) < 60:
        g = helpers.random_graph(rng, rng.randint(2, 8), rng.random())
        if len(g.edges) <= 12:
            cases.append(g)
    cases += [comparability_graph(c) for c in helpers.universe_through(3)]
    cases += [g for n in range(6) for g in helpers.labelled_graphs(n)]
    # the oracle walks all 2^|E| head assignments, about 8 s at 20 edges
    # and 0.1 s at 14, so this 6-8-vertex sample stops at 14
    sample = []
    while len(sample) < 40:
        n = rng.randint(6, 8)
        g = (helpers.random_poset_graph(rng, n) if len(sample) % 2
             else helpers.random_graph(rng, n, rng.random()))
        if len(g.edges) <= 14:
            sample.append(g)
    for g in cases + sample:
        posets = transitive_orientations(g)
        got = [helpers.as_orientation(g, p).heads for p in posets]
        assert got == helpers.brute_transitive_orientations(g), g
        _assert_posets_match_their_orientations(g, posets)


def test_orientations_without_the_triangle_test_match_the_search(monkeypatch):
    # every side choice is emitted directly when Gallai's count is
    # 2^classes, and searched with the triangle test below it; both sides
    # of that test hold graphs with three or more classes
    three_p4 = helpers.disjoint_union(*[helpers.path_graph(4)] * 3)
    p4_c4 = helpers.module_path(4, helpers.cycle_graph(4))
    k3, k4 = helpers.complete_graph(3), helpers.complete_graph(4)
    for g, classes, count in [(three_p4, 3, 8), (p4_c4, 5, 32), (k3, 3, 6), (k4, 6, 24)]:
        assert len(g.implication_classes) == classes, g
        assert count_transitive_orientations(g) == count, g
    # the search, forced whatever the count, is the reference past the
    # brute-force oracle's 20 edges
    rng = random.Random(131)
    graphs = [three_p4, p4_c4, k3, k4, helpers.module_path(5, helpers.path_graph(4))]
    graphs += [g for n in range(6) for g in helpers.labelled_graphs(n)]
    graphs += [helpers.random_poset_graph(rng, rng.randint(8, 12)) for _ in range(30)]
    for g in graphs:
        with monkeypatch.context() as m:
            m.setattr(graphs_module, "count_transitive_orientations", lambda g: -1)
            searched = transitive_orientations(g)
        assert transitive_orientations(g) == searched, g


def _assert_posets_match_their_orientations(g, posets):
    # each returned poset is the order its orientation reads as
    for p in posets:
        assert poset_from_orientation(g, helpers.as_orientation(g, p)) == p, (g, p)


def _assert_sorted_and_closed_under_reversal(g, posets):
    # each edge's direction bit is 0 exactly when its head is the larger
    # endpoint, so ascending direction bits are strictly descending heads
    heads = [helpers.as_orientation(g, p).heads for p in posets]
    assert all(a > b for a, b in zip(heads, heads[1:])), g
    assert {helpers.reversed_poset(p) for p in posets} == set(posets), g


def test_orientations_deterministic_order_and_reversal_closure():
    rng = random.Random(103)
    for _ in range(40):
        g = helpers.random_graph(rng, rng.randint(2, 7), 0.6)
        _assert_sorted_and_closed_under_reversal(g, transitive_orientations(g))


def test_orientation_counts_beyond_the_brute_force_oracle():
    # known counts: 2^(m+1) for P_m[K2] and P_m[C4], n! for K_n
    cases = [(helpers.complete_graph(n), factorial(n)) for n in range(1, 8)]
    for m in range(4, 9):
        cases.append((helpers.module_path(m, helpers.complete_graph(2)), 2 ** (m + 1)))
        cases.append((helpers.module_path(m, helpers.cycle_graph(4)), 2 ** (m + 1)))
    for g, count in cases:
        posets = transitive_orientations(g)
        _assert_posets_match_their_orientations(g, posets)
        _assert_sorted_and_closed_under_reversal(g, posets)
        outs = [helpers.as_orientation(g, p) for p in posets]
        assert len(outs) == count, g
        for o in outs:
            succ = [0] * g.vertex_count
            for t, h in o.arcs():
                succ[t] |= 1 << h
            # transitive: every successor's successors are successors
            for t, h in o.arcs():
                assert succ[h] & ~succ[t] == 0, (g, o)


def test_count_matches_enumeration():
    # random 2-dimensional posets and P_m[P4] have large prime nodes, whose
    # classes the count must tell from the classes joining two children of
    # a series node; every labelled graph on at most 6 vertices (33,867)
    # holds each small mix of the two
    rng = random.Random(113)
    graphs = [g for n in range(7) for g in helpers.labelled_graphs(n)]
    graphs += [helpers.random_poset_graph(rng, rng.randint(6, 12)) for _ in range(500)]
    graphs += [helpers.module_path(m, helpers.path_graph(4)) for m in range(1, 9)]
    graphs += helpers.orientation_count_graphs()
    for g in graphs:
        count = count_transitive_orientations(g)
        assert count == len(transitive_orientations(g)), g
        # the reconstruction gate's premise: at most two classes exactly
        # when at most 4 orientations, and then 2 per class
        classes = g.implication_classes
        if classes is not None:
            assert (len(classes) <= 2) == (count <= 4), g
            if len(classes) <= 2:
                assert count == 2 ** len(classes), g
    for m in range(4, 7):
        for module in (helpers.complete_graph(2), helpers.cycle_graph(4)):
            assert count_transitive_orientations(helpers.module_path(m, module)) == 2 ** (m + 1)
    for k in range(2, 5):
        assert count_transitive_orientations(helpers.cocktail_party(k)) == factorial(k)


def test_counts_without_enumeration():
    # P_1023[P4]: 4,092 vertices, 1,024 prime nodes, no twins
    p1023 = helpers.module_path(1023, helpers.path_graph(4))
    start = time.perf_counter()
    assert count_transitive_orientations(p1023) == 2 ** 1024
    assert count_transitive_orientations(helpers.complete_graph(20)) == factorial(20)
    path = helpers.module_path(30, helpers.complete_graph(2))
    assert count_transitive_orientations(path) == 2 ** 31
    # series node of 46 non-adjacent pairs
    assert count_transitive_orientations(helpers.cocktail_party(46)) == factorial(46)
    assert count_transitive_orientations(helpers.graph(0, ())) == 1
    assert count_transitive_orientations(helpers.graph(5, ())) == 1
    assert count_transitive_orientations(helpers.cycle_graph(7)) == 0
    assert time.perf_counter() - start < 1.0


def test_orientability_by_implication_classes_matches_a_search():
    rng = random.Random(109)
    for _ in range(5000):
        g = helpers.random_graph(rng, rng.randint(1, 9), rng.random())
        orientable = count_transitive_orientations(g) > 0
        assert orientable == helpers.brute_is_transitively_orientable(g), g


def test_orientability_of_k30_takes_no_enumeration():
    start = time.perf_counter()
    assert count_transitive_orientations(helpers.complete_graph(30)) == factorial(30)
    assert time.perf_counter() - start < 1.0


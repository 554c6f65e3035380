"""Universe enumeration and the exhaustive desk-scale verification harnesses."""

from collections import namedtuple
import hashlib
from itertools import combinations, permutations
import random

import pytest

import helpers
from helpers import facet_sets

from barysub import (
    EmptyInput,
    ReconstructionReport,
    UniverseTooLarge,
    are_isomorphic,
    canonical_form,
    comparability_graph,
    empty_complex,
    enumerate_complexes,
    full_simplex,
    graph_canonical_form,
    reconstruct_from_comparability_graph,
    relabel_complex,
    transitive_orientations,
    verify_equivalences,
    verify_subdivision_rigidity,
    verify_theorems,
    void_complex,
)
from barysub.core import induced_components
import barysub.verify as verify_module


def brute_universe_n3() -> set[frozenset[frozenset[int]]]:
    """All facet antichains covering [3], by raw subset iteration."""
    subsets = [frozenset(s) for r in (1, 2, 3) for s in combinations((1, 2, 3), r)]
    out = set()
    for picks in range(1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if picks >> i & 1]
        if not fam:
            continue
        if any(a < b for a in fam for b in fam):
            continue
        if frozenset().union(*fam) != {1, 2, 3}:
            continue
        out.add(frozenset(fam))
    return out


def test_labeled_universe_counts():
    # OEIS A006126; the brute-force down-set count is feasible up to n = 4
    for n, want in [(1, 1), (2, 2), (3, 9), (4, 114), (5, 6894)]:
        members = enumerate_complexes(n)
        assert len(members) == want
        if n <= 4:
            assert len(members) == helpers.downset_universe_count(n)


def test_universe_order_is_pinned():
    # Both universes for n = 1..5, member by member in the listed order.
    digest = hashlib.sha256()
    for n in range(1, 6):
        for up_to_iso in (False, True):
            for c in enumerate_complexes(n, up_to_iso):
                digest.update(repr((c.ground_size, c.masks, c.void)).encode())
    assert digest.hexdigest() == (
        "0e474f213e22b6145a2eec79e67eb6f92026208ba60f450535a416937b2ce855"
    )


def test_labeled_universe_matches_brute_force_n3():
    got = {frozenset(facet_sets(c)) for c in enumerate_complexes(3)}
    assert got == brute_universe_n3()
    assert len(got) == 9


def test_universe_members_are_covering_antichains():
    for n in (1, 2, 3, 4):
        members = enumerate_complexes(n)
        assert len({c.masks for c in members}) == len(members)
        for c in members:
            assert c.ground_size == n
            assert c.has_all_vertices
            assert not c.void


def test_up_to_iso_universe_counts():
    for n, want in [(1, 1), (2, 2), (3, 5), (4, 20), (5, 180)]:
        assert len(helpers.universe(n)) == want


def assert_orbit_least(n, reps):
    """Each member sorts first in its orbit: no relabeling of it has a
    lexicographically smaller (cardinality, value)-sorted mask list."""
    keys = [sorted((m.bit_count(), m) for m in c.masks) for c in reps]
    for perm in permutations(range(n)):
        img = [sum(1 << perm[v] for v in range(n) if m >> v & 1) for m in range(1 << n)]
        for c, key in zip(reps, keys):
            assert key <= sorted((img[m].bit_count(), img[m]) for m in c.masks)


def test_up_to_iso_universe_is_a_transversal():
    for n in (1, 2, 3, 4, 5):
        reps = helpers.universe(n)
        assert list(reps) == helpers.canonical_dedupe(n)
        assert_orbit_least(n, reps)
    for n in (1, 2, 3, 4):
        reps = helpers.universe(n)
        rep_forms = {canonical_form(c).sort_key for c in reps}
        assert len(rep_forms) == len(reps)
        all_forms = {canonical_form(c).sort_key for c in enumerate_complexes(n)}
        assert rep_forms == all_forms


def test_up_to_iso_universe_at_six_vertices(monkeypatch):
    # 720 permutation lanes of 64 bits each, the code's 63 bits and a guard
    # bit; every member ties with its own identity image, and members with
    # a symmetry tie in further lanes
    monkeypatch.setattr(verify_module, "MAX_UNIVERSE_GROUND", 6)
    reps = enumerate_complexes(6, up_to_iso=True)
    assert len(reps) == 16_143
    assert_orbit_least(6, random.Random(6).sample(reps, 50))


def test_enumerate_bounds():
    with pytest.raises(EmptyInput):
        enumerate_complexes(0)
    with pytest.raises(UniverseTooLarge):
        enumerate_complexes(6)
    with pytest.raises(UniverseTooLarge):
        enumerate_complexes(7)


def test_graph_canonical_form_detects_relabelings():
    rng = random.Random(131)
    for _ in range(40):
        g = helpers.random_graph(rng, rng.randint(1, 8), rng.random())
        form = graph_canonical_form(g)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        edges = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in g.edges))
        assert graph_canonical_form(helpers.graph(g.vertex_count, edges)) == form


def test_graph_canonical_form_regular_pairs():
    # same degree sequence, different graphs: the graph invariant ties, and
    # only the form tells them apart
    c6 = helpers.cycle_graph(6)
    two_triangles = helpers.graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    invariant = verify_module._graph_invariant
    assert invariant(c6) == invariant(two_triangles)
    assert graph_canonical_form(c6) != graph_canonical_form(two_triangles)
    assert not helpers.graph_brute_iso(c6, two_triangles)
    shifted = tuple(sorted(tuple(sorted(((i + 2) % 6, (j + 2) % 6))) for i, j in c6.edges))
    assert graph_canonical_form(c6) == graph_canonical_form(helpers.graph(6, shifted))


def test_graph_canonical_form_against_permutation_oracle():
    rng = random.Random(137)
    pool = [helpers.random_graph(rng, rng.randint(1, 6), rng.random()) for _ in range(16)]
    pool += [helpers.cycle_graph(3), helpers.cycle_graph(4), helpers.complete_graph(4)]
    forms = [graph_canonical_form(g) for g in pool]
    checked = 0
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            a, b = pool[i], pool[j]
            assert (forms[i] == forms[j]) == helpers.graph_brute_iso(a, b), (a, b)
            checked += 1
    assert checked > 150


# non-isomorphic 1-complexes on 6 vertices whose complex invariants tie in pairs
TWO_TRIANGLES = helpers.cx(6, (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6))
HEXAGON = helpers.cx(6, (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))
K33 = helpers.cx(6, *((a, b) for a in (1, 2, 3) for b in (4, 5, 6)))
PRISM = helpers.cx(6, (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6))


def test_iso_keys_break_a_complex_invariant_tie_by_canonical_form():
    # no harness reaches the tied branch for complexes at n <= 4
    relabeled = relabel_complex(HEXAGON, (2, 4, 6, 1, 3, 5))
    invariant = verify_module._complex_invariant
    assert invariant(TWO_TRIANGLES) == invariant(HEXAGON) == invariant(relabeled)
    keys, forms = verify_module._iso_keys(
        [TWO_TRIANGLES, HEXAGON, None, relabeled, full_simplex(6)], invariant, canonical_form)
    assert forms == 3
    assert keys[0] != keys[1] == keys[3]
    assert keys[2] is None and keys[4] == (invariant(full_simplex(6)),)


def test_iso_keys_against_permutation_oracle():
    rng = random.Random(211)
    bases = [TWO_TRIANGLES, HEXAGON, K33, PRISM]
    bases += [helpers.random_complex(rng, rng.randint(1, 6)) for _ in range(40)]
    pool = []
    for c in bases:
        perm = list(range(1, c.ground_size + 1))
        rng.shuffle(perm)
        pool += [c, relabel_complex(c, tuple(perm))]
    keys, forms = verify_module._iso_keys(pool, verify_module._complex_invariant, canonical_form)
    # each complex ties with at least its relabeled copy
    assert forms == len(pool)
    for i, j in combinations(range(len(pool)), 2):
        want = helpers.brute_isomorphic(pool[i], pool[j]) is not None
        assert (keys[i] == keys[j]) == want, (pool[i], pool[j])


def test_rigidity_reports_are_clean():
    for n, size, pairs in [(1, 1, 2), (2, 2, 5), (3, 5, 20), (4, 20, 230)]:
        r = verify_subdivision_rigidity(n)
        assert r.universe_size == size
        assert r.pair_checks == pairs
        assert r.failures == []


def test_rigidity_full_range():
    r = verify_subdivision_rigidity(5)
    assert r.universe_size == 180
    assert r.pair_checks == 16470
    assert r.failures == []


def test_rigidity_bound():
    with pytest.raises(UniverseTooLarge):
        verify_subdivision_rigidity(6)


def test_equivalence_reports_are_clean():
    for n, size, pairs in [(1, 1, 2), (2, 2, 5), (3, 5, 20), (4, 20, 230)]:
        r = verify_equivalences(n)
        assert r.universe_size == size
        assert r.pair_checks == pairs
        assert r.failures == []


Coarse = namedtuple("Coarse", "sort_key")


def _coarse_form(c):
    # ground size plus facet count: equal on many non-isomorphic pairs
    return Coarse((c.ground_size, len(c.masks)))


def test_harnesses_report_failures_under_a_coarse_canonical_form(monkeypatch):
    monkeypatch.setattr(verify_module, "canonical_form", _coarse_form)
    # one invariant group per item, so the coarse form is consulted on every object
    monkeypatch.setattr(verify_module, "_graph_invariant", lambda g: 0)
    monkeypatch.setattr(verify_module, "_complex_invariant", lambda cx: 0)
    r = verify_subdivision_rigidity(4)
    assert (r.universe_size, r.pair_checks, len(r.failures)) == (20, 230, 3)
    assert r.failures[0] == (
        "universe[4] and universe[15] are non-isomorphic but their "
        "comparability graphs share a canonical form"
    )
    e = verify_equivalences(4)
    assert (e.universe_size, e.pair_checks, len(e.failures)) == (20, 230, 182)
    assert e.failures[0] == "pair (0,17): item dual answers True but complex isomorphism is False"
    assert e.failures[1] == "pair (1,2): item dual answers False but complex isomorphism is True"
    assert e.failures[-1] == (
        "pair (16,17): item graph answers False but complex isomorphism is True"
    )


def test_round_trip_witness_failure_is_reported(monkeypatch):
    real = verify_module.reconstruct_from_comparability_graph

    def swapped(g):
        rec = real(g)
        m = list(rec.source_map)
        m[0], m[1] = m[1], m[0]
        return ReconstructionReport(rec.status, rec.complex, rec.orientations_tried,
                                    rec.both_orientations_admissible, tuple(m))

    monkeypatch.setattr(verify_module, "reconstruct_from_comparability_graph", swapped)
    r = verify_subdivision_rigidity(4)
    # the swap is harmless exactly where it is an automorphism of the member
    assert (r.universe_size, r.pair_checks, len(r.failures)) == (20, 230, 11)
    assert r.failures[0] == "universe[1] failed the reconstruction round trip (status ok)"
    assert r.failures[-1] == "universe[16] failed the reconstruction round trip (status ok)"


def test_round_trip_fails_when_a_source_is_not_a_vertex(monkeypatch):
    real = verify_module.reconstruct_from_comparability_graph

    def largest_face_first(g):
        rec = real(g)
        return ReconstructionReport(rec.status, rec.complex, rec.orientations_tried,
                                    rec.both_orientations_admissible,
                                    (g.vertex_count - 1,) + rec.source_map[1:])

    monkeypatch.setattr(verify_module, "reconstruct_from_comparability_graph", largest_face_first)
    r = verify_subdivision_rigidity(4)
    # the witness is a certificate, so a source map that names the largest
    # face first fails on every member instead of passing
    assert r.failures == [
        f"universe[{i}] failed the reconstruction round trip (status ok)" for i in range(20)
    ]
    assert r.notes[-1] == "0 canonical forms computed, one per object in a tied invariant group"


def test_relabeled_copy_witness_failure_is_reported(monkeypatch):
    real_graph, real_relabel = verify_module.comparability_graph, verify_module.relabel_complex
    copies = []

    def tagging(cx, perm):
        copies.append(real_relabel(cx, perm))
        return copies[-1]

    def dropping(cx):
        g = real_graph(cx)
        if any(cx is c for c in copies):
            return helpers.graph(g.vertex_count, g.edges[1:], g.labels)
        return g

    monkeypatch.setattr(verify_module, "relabel_complex", tagging)
    monkeypatch.setattr(verify_module, "comparability_graph", dropping)
    r = verify_subdivision_rigidity(4)
    # every copy loses an edge but the four isolated points, which have none
    assert (r.universe_size, r.pair_checks, len(r.failures)) == (20, 230, 19)
    assert r.failures[0] == (
        "universe[0] relabeled by [2, 1, 3, 4]: the face map it induces does not "
        "carry the comparability graph onto the copy's"
    )
    assert r.failures[-1].startswith("universe[19] relabeled by [4, 3, 2, 1]: ")


def test_non_equivariant_dual_is_reported(monkeypatch):
    real = verify_module.alexander_dual

    def skewed(cx):
        # the dual with vertices 1 and 2 swapped: same canonical form, wrong labels
        return relabel_complex(real(cx), (2, 1) + tuple(range(3, cx.ground_size + 1)))

    monkeypatch.setattr(verify_module, "alexander_dual", skewed)
    e = verify_equivalences(4)
    assert (e.universe_size, e.pair_checks, len(e.failures)) == (20, 230, 23)
    assert all(f.endswith(": item dual broke") for f in e.failures)
    assert e.failures[0] == "universe[1] relabeled by [4, 3, 2, 1]: item dual broke"
    assert e.failures[-1] == "universe[18] relabeled by [4, 2, 3, 1]: item dual broke"


@pytest.mark.parametrize("name,count,first,last", [
    ("stanley_reisner_generators", 5,
     "universe[1] relabeled by [2, 3, 1]: Stanley-Reisner generators not carried onto generators",
     "universe[3] relabeled by [3, 2, 1]: Stanley-Reisner generators not carried onto generators"),
    ("facet_ideal_generators", 7,
     "universe[1] relabeled by [2, 3, 1]: facet generators not carried onto generators",
     "universe[4] relabeled by [2, 1, 3]: facet generators not carried onto generators"),
])
def test_non_equivariant_generators_are_reported(monkeypatch, name, count, first, last):
    real = getattr(verify_module, name)

    def skewed(cx):
        # drop every generator holding vertex 1: a relabeled copy loses others
        return [s for s in real(cx) if not s & 1]

    monkeypatch.setattr(verify_module, name, skewed)
    e = verify_equivalences(3)
    assert (e.universe_size, e.pair_checks, len(e.failures)) == (5, 20, count)
    assert (e.failures[0], e.failures[-1]) == (first, last)


def _witness_cross_check_corpus():
    rng = random.Random(181)
    return list(helpers.universe_through(5)) + [
        helpers.random_complex(rng, rng.randint(1, 6)) for _ in range(300)
    ]


def test_witness_checks_agree_with_canonical_forms():
    """The witness checks against the checks they replace, on the n <= 5
    universe and 300 random complexes that may leave vertices unused."""
    rng = random.Random(191)
    connected = 0
    for cx in _witness_cross_check_corpus():
        g = comparability_graph(cx)
        rec = reconstruct_from_comparability_graph(g)
        held = verify_module._round_trip_holds(cx, g, rec)
        assert held == (rec.complex is not None and are_isomorphic(rec.complex, cx) is not None)
        # the source map names vertices, because the inclusion orientation
        # comes first and passes the face-poset check
        assert all(g.labels[v].bit_count() == 1 for v in rec.source_map)
        if len(induced_components(g.adj, (1 << g.vertex_count) - 1)) == 1:
            connected += 1
            inclusion = helpers.poset(g.vertex_count, {
                (i, j) for i, a in enumerate(g.labels) for j, b in enumerate(g.labels)
                if a != b and a & ~b == 0
            })
            assert transitive_orientations(g)[0] == inclusion
        perm = list(range(1, cx.ground_size + 1))
        rng.shuffle(perm)
        h = comparability_graph(relabel_complex(cx, tuple(perm)))
        fmap = verify_module._face_map(g.labels, h.labels, perm)
        assert verify_module._carries_edges(g, h, fmap)
        assert graph_canonical_form(g) == graph_canonical_form(h)
        # a copy missing an edge: neither check accepts it
        if h.edges:
            damaged = helpers.graph(h.vertex_count, h.edges[1:], h.labels)
            assert verify_module._carries_edges(g, damaged, fmap) is False
            assert graph_canonical_form(g) != graph_canonical_form(damaged)
        # a wrong face map: two faces of unequal degree swapped. The forms
        # still agree, and the witness check refuses the map.
        deg = [a.bit_count() for a in g.adj]
        pair = next(((a, b) for a in range(len(deg)) for b in range(a)
                     if deg[a] != deg[b]), None)
        if pair:
            wrong = list(fmap)
            wrong[pair[0]], wrong[pair[1]] = wrong[pair[1]], wrong[pair[0]]
            assert verify_module._carries_edges(g, h, wrong) is False
    assert connected > 400


def test_mask_set_witness_agrees_with_relabel_complex():
    """``_relabels_onto`` against the comparison it replaces: every member
    of the n <= 4 universes, and the void and empty complexes, under every
    permutation, against its true image and every other complex."""
    pool = list(helpers.universe_through(4))
    pool += [c(n) for n in range(1, 5) for c in (void_complex, empty_complex)]
    checked = 0
    for cx in pool:
        n = cx.ground_size
        for perm in permutations(range(1, n + 1)):
            image = relabel_complex(cx, perm)
            assert verify_module._relabels_onto(cx, perm, image)
            for other in pool:
                assert verify_module._relabels_onto(cx, perm, other) == (image == other)
                checked += 1
    assert checked == 36 * (2 * (1 + 2 + 6 + 24) + 1 + 2 * 2 + 5 * 6 + 20 * 24)


def test_graph_canonical_form_on_every_five_vertex_member():
    # the rigidity harness no longer computes graph forms at n = 5
    rng = random.Random(197)
    for cx in helpers.universe(5):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        copy = relabel_complex(cx, tuple(perm))
        assert graph_canonical_form(comparability_graph(copy)) == graph_canonical_form(
            comparability_graph(cx))


def test_refined_invariant_separates_the_universe():
    for n, size in [(4, 20), (5, 180)]:
        invariants = {verify_module._graph_invariant(comparability_graph(c))
                      for c in helpers.universe(n)}
        assert len(invariants) == size
    # and the complex invariant separates the n = 4 members in every complex item
    transforms = [verify_module._transforms(c) for c in helpers.universe(4)]
    items = {"complex": list(helpers.universe(4))}
    for item in ("dual", "complement"):
        items[item] = [t[item] for t in transforms]
    for item in ("subdivision", "subdivision2"):
        items[item] = [t[item][0] for t in transforms if t[item] is not None]
    for item, objs in items.items():
        invariants = {verify_module._complex_invariant(c) for c in objs}
        assert len(invariants) == len(objs) == (18 if item == "subdivision2" else 20), item
    # so neither harness computes a canonical form at n = 4, nor rigidity at n = 5
    no_forms = "0 canonical forms computed, one per object in a tied invariant group"
    assert verify_subdivision_rigidity(4).notes[-1] == no_forms
    assert verify_subdivision_rigidity(5).notes[-1] == no_forms
    assert verify_equivalences(4).notes[-1] == no_forms


def test_equivalence_skip_note_only_when_cap_binds():
    r3 = verify_equivalences(3)
    assert not any("cap" in note for note in r3.notes)
    r4 = verify_equivalences(4)
    cap_notes = [note for note in r4.notes if "cap" in note]
    assert len(cap_notes) == 1 and cap_notes[0].startswith("2 universe members")


def test_equivalences_bound():
    with pytest.raises(UniverseTooLarge):
        verify_equivalences(5)


def test_verify_theorems_merges_in_order_and_checks_caps_first():
    rigidity, equivalences = verify_subdivision_rigidity(3), verify_equivalences(3)
    assert verify_theorems(3, "2.2") == rigidity
    assert verify_theorems(3, "2.3") == equivalences
    both = verify_theorems(3)
    assert both.universe_size == rigidity.universe_size + equivalences.universe_size
    assert both.pair_checks == rigidity.pair_checks + equivalences.pair_checks
    assert both.notes == rigidity.notes + equivalences.notes and both.failures == []
    with pytest.raises(UniverseTooLarge, match="equivalence harness capped at 4"):
        verify_theorems(5)
    with pytest.raises(UniverseTooLarge, match="rigidity harness capped at 5"):
        verify_theorems(6)
    with pytest.raises(ValueError):
        verify_theorems(3, "2.4")


def test_reports_are_deterministic():
    assert verify_subdivision_rigidity(3) == verify_subdivision_rigidity(3)
    assert verify_equivalences(3) == verify_equivalences(3)


def test_universe_contains_expected_shapes():
    members = {frozenset(facet_sets(c)) for c in enumerate_complexes(3)}
    assert frozenset({frozenset({1, 2, 3})}) in members  # full simplex
    assert frozenset(
        {frozenset({1}), frozenset({2}), frozenset({3})}
    ) in members  # points
    assert frozenset(
        {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
    ) in members  # triangle boundary
    # deterministic order: fewest facets first, so the full simplex leads
    # and the densest antichain (all pairs for n >= 3) closes the list
    for n in (1, 2, 3, 4):
        assert helpers.universe(n)[0] == full_simplex(n)
    for n in (3, 4):
        last = helpers.universe(n)[-1]
        assert facet_sets(last) == {
            frozenset(p) for p in combinations(range(1, n + 1), 2)
        }

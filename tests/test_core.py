"""Core complex type, face queries, nonfaces, skeleta, canonical forms."""

import hashlib
import random
import time
import tracemalloc
from itertools import combinations

import pytest

import helpers
from helpers import cx, facet_sets

from barysub import (
    CanonicalForm,
    EmptyInput,
    GroundSetTooLarge,
    SkeletonIndexOutOfRange,
    SimplicialComplex,
    are_isomorphic,
    canonical_form,
    complex_from_facets,
    empty_complex,
    full_simplex,
    relabel_complex,
    void_complex,
)
from barysub.core import _canonical, _mask_elements, _mask_key, induced_components
from barysub.derived import alexander_dual, barycentric_subdivision, complement_complex
from barysub.errors import NotAFacePoset
from barysub.graphs import clique_complex, comparability_graph, transitive_orientations
from barysub.reconstruct import complex_from_face_poset, reconstruct_from_comparability_graph
from barysub.verify import enumerate_complexes

# SHA-256 of repr((form.sort_key, labeling)) for the barycentric subdivision
# of the 5-simplex, as the unpruned search computes them; the labeling is
# the tuple of canonical labels, ``_canonical(c)[1]``.
SD5_DIGEST = "24173dac779c1aaf9c6fcc701d3f533fef7bc08505f73e6b9c630b39ff3b8012"


def test_mask_key_orders_by_size_then_lex():
    # {2} < {1,4} < {2,3}: cardinality first, then element tuple
    a, b, c = 0b10, 0b1001, 0b110
    assert sorted([c, b, a], key=_mask_key) == [a, b, c]
    # the integer mask key orders masks exactly as the element-tuple key does
    rng = random.Random(41)
    masks = {1 << 63, (1 << 64) - 1}
    while len(masks) < 10_000:
        width = rng.randint(1, 64)
        masks.add(rng.getrandbits(width) | 1 << (width - 1))
    masks |= {m >> 1 for m in list(masks) if m > 1}
    assert all(type(_mask_key(m)) is int for m in masks)
    by_int = sorted(masks, key=_mask_key)
    assert by_int == sorted(masks, key=lambda m: (m.bit_count(), _mask_elements(m)))
    with pytest.raises(OverflowError):
        _mask_key(1 << 64)


def test_mask_key_byte_table_matches_the_64_bit_formula():
    def formula(mask):
        rev = int(f"{mask:064b}"[::-1], 2)
        return (mask.bit_count() << 64) - rev

    # every mask of one or two bytes: the table and the first masks past it
    for m in range(1 << 16):
        assert _mask_key(m) == formula(m), m
    rng = random.Random(43)
    for _ in range(10_000):
        m = rng.getrandbits(rng.randint(1, 64))
        assert _mask_key(m) == formula(m), hex(m)
    # past 64 bits and below zero the key raises, never misorders; a
    # negative mask does not index the byte table from its end
    for m in (1 << 64, (1 << 64) | 1, -1, -256):
        with pytest.raises(OverflowError):
            _mask_key(m)


def test_mask_elements_matches_a_per_bit_oracle():
    def oracle(mask):
        return tuple(i + 1 for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")

    # every mask of one or two bytes: the table lookup, then the byte join
    # over the one or two bytes a mask uses
    masks = list(range(1 << 16))
    # sparse and denser masks (10 and 11 bits set) at every width from 11
    # to 64 bits, all through the byte join; then the edge of the join at
    # 64 bits, past which the per-bit loop takes over
    rng = random.Random(7)
    for width in range(11, 65):
        for ones in (10, 11):
            top = 1 << (width - 1)
            masks.append(top | sum(1 << b for b in rng.sample(range(width - 1), ones - 1)))
    masks += [2**64 - 1, 2**64]
    # random masks, dense and sparse, up to the widest graph masks
    masks += [rng.getrandbits(rng.randint(1, 64)) for _ in range(2000)]
    masks += [rng.getrandbits(rng.randint(65, 4096)) for _ in range(200)]
    masks += [1 << rng.randrange(4096) | 1 << rng.randrange(4096) for _ in range(200)]
    for m in masks:
        assert _mask_elements(m) == oracle(m), hex(m)


def test_complex_from_facets_rejects_non_integer_vertices():
    # int() would truncate 1.9, take True for 1 and parse the characters of
    # "12"; like the JSON reader, complex_from_facets takes none of them for
    # a vertex, and names the vertex and its vertex set as the reader does
    for facet, shown in [([1.9], "1.9"), ((2, True), "True"), ("12", "'1'")]:
        with pytest.raises(ValueError) as info:
            complex_from_facets(3, [facet])
        assert str(info.value) == f"vertex {shown} in vertex set {facet!r} must be an integer"
    # a non-integer is named before an earlier vertex outside 1..64
    with pytest.raises(ValueError, match="vertex 1.5 in vertex set"):
        complex_from_facets(3, [[70, 1.5]])


def test_complex_from_facets_takes_vertices_in_1_to_64():
    for facet, bad in [([0], 0), ([65], 65), ([2, 70, 0], 70), (iter([1, -4]), -4)]:
        with pytest.raises(ValueError) as info:
            complex_from_facets(64, [facet])
        assert str(info.value) == f"vertex {bad} outside 1..64"
    # the cap is inclusive
    assert complex_from_facets(64, [[64, 1]]).masks == (1 | 1 << 63,)


def test_constructor_normalizes():
    c = complex_from_facets(3, [[1], [1, 2], [2, 1], [3]])
    assert facet_sets(c) == {frozenset({1, 2}), frozenset({3})}
    assert not c.void


def test_constructor_rejects_bad_ground():
    with pytest.raises(EmptyInput):
        complex_from_facets(0, [])
    with pytest.raises(GroundSetTooLarge):
        complex_from_facets(65, [])
    with pytest.raises(ValueError):
        complex_from_facets(2, [[3]])
    for n, facets, error, message in [
        (0, [[1]], ValueError, "facet [1] outside ground set of size 0"),
        (-3, [[1]], ValueError, "facet [1] outside ground set of size -3"),
        (65, [[65]], ValueError, "vertex 65 outside 1..64"),
        (-1, [], EmptyInput, "ground set must have at least one element"),
    ]:
        with pytest.raises(error) as info:
            complex_from_facets(n, facets)
        assert str(info.value) == message


def test_oversized_ground_set_is_refused_without_building_its_mask():
    # a full mask over 4e9 positions alone would take about 500 MB
    tracemalloc.start()
    try:
        with pytest.raises(GroundSetTooLarge):
            complex_from_facets(4_000_000_000, [])
        with pytest.raises(GroundSetTooLarge):
            complex_from_facets(10**20, [[1]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _assert_facet_antichain(c):
    for f, g in zip(c.masks, c.masks[1:]):
        assert (f.bit_count(), _mask_elements(f)) < (g.bit_count(), _mask_elements(g))
    for i, f in enumerate(c.masks):
        for j, g in enumerate(c.masks):
            if i != j:
                assert f & ~g
    if not c.void:
        # normalizing the stored facets again changes nothing
        again = complex_from_facets(c.ground_size, map(_mask_elements, c.masks))
        assert (again.ground_size, again.masks) == (c.ground_size, c.masks)
    if not isinstance(c, CanonicalForm):
        _assert_facet_antichain(canonical_form(c))


def _derived_complexes(c, rng):
    """Every library operation's output on c that builds a new complex."""
    n = c.ground_size
    yield complement_complex(c)
    yield alexander_dual(c)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    yield relabel_complex(c, perm)
    yield from (comp.complex for comp in c.connected_components())
    if c.void or not c.masks:
        return
    yield from (c.skeleton(i) for i in range(c.dimension() + 1))
    g = comparability_graph(c)
    yield clique_complex(helpers.random_graph(rng, rng.randint(1, 10), rng.random()))
    if g.vertex_count <= 64:
        yield clique_complex(g)
        yield barycentric_subdivision(c)[0]
    if g.vertex_count <= 40:
        rec = reconstruct_from_comparability_graph(g)
        if rec.complex is not None:
            yield rec.complex
        for poset in transitive_orientations(g)[:4]:
            try:
                yield complex_from_face_poset(poset)[0]
            except NotAFacePoset:
                pass


def test_facet_antichain_invariant():
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        c = helpers.random_complex(rng, rng.randint(1, 8))
        _assert_facet_antichain(c)
        for d in _derived_complexes(c, rng):
            _assert_facet_antichain(d)
            checked += 1
    for n in (1, 2, 3):
        for c in [void_complex(n), empty_complex(n), full_simplex(n)]:
            for d in _derived_complexes(c, rng):
                _assert_facet_antichain(d)
    for c in enumerate_complexes(4):
        _assert_facet_antichain(c)
    assert checked > 600


def test_constructor_checks_its_facets():
    # The constructor takes the facet masks themselves, sorted by (size, lex).
    for n, masks, void, message in [
        (3, (1,), True, "void complex cannot carry facets"),
        (3, ((1, 2),), False, "facet mask (1, 2) invalid over ground size 3"),
        (3, (True,), False, "facet mask True invalid over ground size 3"),
        (3, (1.0,), False, "facet mask 1.0 invalid over ground size 3"),
        (3, (0,), False, "facet mask 0 invalid over ground size 3"),
        (3, (0b1000,), False, "facet mask 8 invalid over ground size 3"),
        (3, (1, 1), False, "facets must be strictly sorted by (size, lex)"),
        (3, (2, 1), False, "facets must be strictly sorted by (size, lex)"),
        (3, (3, 1), False, "facets must be strictly sorted by (size, lex)"),
        (3, (0b110, 0b101), False, "facets must be strictly sorted by (size, lex)"),
    ]:
        with pytest.raises(ValueError) as info:
            SimplicialComplex(n, masks, void)
        assert type(info.value) is ValueError
        assert str(info.value) == message
    # Random mask tuples, half of them pre-sorted, with sizes 1-3 so that
    # equal sizes and duplicates are common: accepted exactly when their
    # _mask_key ints strictly increase.
    rng = random.Random(223)
    verdicts = set()
    for _ in range(3000):
        n = rng.choice((3, 5, 8, 64))
        masks = [sum(1 << (v - 1) for v in rng.sample(range(1, n + 1), rng.randint(1, 3)))
                 for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.5:
            masks.sort(key=_mask_key)
        keys = [_mask_key(m) for m in masks]
        in_order = all(a < b for a, b in zip(keys, keys[1:]))
        verdicts.add(in_order)
        if in_order:
            assert SimplicialComplex(n, tuple(masks)).masks == tuple(masks)
        else:
            with pytest.raises(ValueError) as info:
                SimplicialComplex(n, tuple(masks))
            assert str(info.value) == "facets must be strictly sorted by (size, lex)"
    assert verdicts == {True, False}
    assert SimplicialComplex(3, (2, 0b101)) == cx(3, (2,), (1, 3))
    assert facet_sets(SimplicialComplex(3, (2, 0b101))) == {frozenset({2}), frozenset({1, 3})}


def test_faces_triangle_boundary():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert tri.faces() == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    assert [_mask_elements(f) for f in tri.faces()] == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
    ]


def test_faces_single_vertex():
    assert cx(1, (1,)).faces() == [1]


def test_faces_downward_closed():
    rng = random.Random(11)
    for _ in range(40):
        c = helpers.random_complex(rng, rng.randint(1, 7))
        faces = {frozenset(_mask_elements(f)) for f in c.faces()}
        assert faces == helpers.brute_faces(c)
        for f in faces:
            for e in f:
                smaller = f - {e}
                if smaller:
                    assert smaller in faces


def test_dimension():
    assert full_simplex(4).dimension() == 3
    assert cx(3, (1, 2), (3,)).dimension() == 1
    assert empty_complex(2).dimension() == -1
    assert void_complex(2).dimension() == -1


def test_purity():
    assert cx(3, (1, 2), (2, 3)).is_pure()
    assert not cx(4, (1, 2), (3,)).is_pure()
    assert cx(1, (1,)).is_pure()
    assert empty_complex(3).is_pure()


def test_minimal_nonfaces_pinned():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert tri.minimal_nonfaces() == [0b111]
    two_edges = cx(4, (1, 2), (3, 4))
    assert [_mask_elements(s) for s in two_edges.minimal_nonfaces()] == [
        (1, 3), (1, 4), (2, 3), (2, 4),
    ]
    assert full_simplex(3).minimal_nonfaces() == []


def test_minimal_nonfaces_corners():
    assert void_complex(3).minimal_nonfaces() == [0]
    assert empty_complex(3).minimal_nonfaces() == [0b001, 0b010, 0b100]


def test_minimal_nonfaces_against_brute_force():
    rng = random.Random(13)
    cases = list(helpers.universe_through(4))
    for _ in range(60):
        cases.append(helpers.random_complex(rng, rng.randint(1, 10)))
    # k-subsets of [n]: many facets, many nonfaces
    for n in range(1, 13):
        for k in range(1, n + 1):
            cases.append(complex_from_facets(n, combinations(range(1, n + 1), k)))
    # facets missing overlapping vertex sets
    for _ in range(60):
        cases.append(helpers.overlap_complex(rng, rng.randint(1, 12), rng.randint(1, 8)))
    for c in cases:
        got = [frozenset(_mask_elements(s)) for s in c.minimal_nonfaces()]
        assert got == helpers.brute_minimal_nonfaces(c), c


def test_minimal_nonfaces_local_criterion():
    rng = random.Random(17)
    for _ in range(40):
        c = helpers.random_complex(rng, rng.randint(2, 10))
        faces = set(c.faces())
        for s in c.minimal_nonfaces():
            assert s not in faces and s != 0
            for e in _mask_elements(s):
                smaller = s & ~(1 << (e - 1))
                assert smaller == 0 or smaller in faces


def test_skeleton_pinned():
    tri_full = full_simplex(3)
    assert facet_sets(tri_full.skeleton(1)) == {
        frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
    }
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert facet_sets(tri.skeleton(0)) == {frozenset({1}), frozenset({2}), frozenset({3})}
    assert tri.skeleton(1) == tri
    # only the output is built: the 2,016 edges, not the 2^64 faces
    edges = full_simplex(64).skeleton(1)
    assert len(edges.masks) == 2016
    assert edges == complex_from_facets(64, combinations(range(1, 65), 2))


def test_skeleton_mixed_dimensions():
    c = cx(4, (1, 2, 3), (4,))
    sk = c.skeleton(1)
    assert facet_sets(sk) == {
        frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}), frozenset({4}),
    }
    # every index of random complexes: the facets of the i-skeleton are the
    # faces with i + 1 vertices and the smaller faces that lie in no larger one
    rng = random.Random(179)
    for _ in range(2000):
        c = helpers.random_complex(rng, rng.randint(1, 10))
        faces = helpers.brute_faces(c)
        grows = {f - {v} for f in faces for v in f}
        by_size = [set() for _ in range(c.ground_size + 1)]
        for f in faces:
            by_size[len(f)].add(f)
        for i in range(c.dimension() + 1):
            sk = c.skeleton(i)
            assert sk.ground_size == c.ground_size and not sk.void
            want = by_size[i + 1].union(*(by_size[k] - grows for k in range(1, i + 1)))
            assert facet_sets(sk) == want, (c, i)


def test_skeleton_bounds():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    with pytest.raises(SkeletonIndexOutOfRange):
        tri.skeleton(2)
    with pytest.raises(SkeletonIndexOutOfRange):
        tri.skeleton(-1)
    with pytest.raises(SkeletonIndexOutOfRange):
        void_complex(2).skeleton(0)


def test_euler_characteristic():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert tri.euler_characteristic() == 0
    assert full_simplex(3).euler_characteristic() == 1
    assert cx(1, (1,)).euler_characteristic() == 1
    assert empty_complex(5).euler_characteristic() == 0
    assert void_complex(5).euler_characteristic() == 0


def test_euler_of_simplex_boundary_is_sphere():
    # boundary of the (n-1)-simplex: chi = 1 + (-1)^n
    for n in range(2, 9):
        boundary = full_simplex(n).skeleton(n - 2)
        assert boundary.euler_characteristic() == 1 + (-1) ** n


def test_connectivity():
    assert cx(3, (1, 2), (2, 3)).is_connected()
    assert not cx(4, (1, 2), (3, 4)).is_connected()
    assert cx(1, (1,)).is_connected()
    assert not cx(2, (1,), (2,)).is_connected()
    # an uncovered ground vertex is its own component
    assert not cx(2, (1,)).is_connected()


def _vertex_mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def test_mask_components_match_breadth_first_search():
    assert induced_components([], 0) == []
    assert helpers.graph(0, ()).adj == ()
    rng = random.Random(113)
    for _ in range(400):
        n = rng.randint(1, 40)
        g = helpers.random_graph(rng, n, rng.choice([0.0, 0.02, 0.05, 0.1, 0.3, 0.9]))
        adj = [0] * n
        for i, j in g.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        assert g.adj == tuple(adj), g
        expected = helpers.brute_components(n, g.edges)
        assert induced_components(adj, (1 << n) - 1) == [_vertex_mask(c) for c in expected], g


def test_vertex_partition_matches_breadth_first_search():
    # the labeled universe through 4, then random complexes whose facets
    # leave ground vertices uncovered, void and empty complexes
    rng = random.Random(127)
    cases = list(helpers.universe_through(4, up_to_iso=False))
    for _ in range(300):
        n = rng.randint(1, 20)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))
            for _ in range(rng.randint(0, 5))
        ]
        cases.append(complex_from_facets(n, facets))
    cases += [void_complex(n) for n in (1, 2, 7, 64)]
    cases += [empty_complex(n) for n in (1, 5)]
    assert any(not c.has_all_vertices and c.masks for c in cases)
    for c in cases:
        edges = {
            (a - 1, b - 1) for m in c.masks for a, b in combinations(_mask_elements(m), 2)
        }
        expected = helpers.brute_components(c.ground_size, edges)
        assert c._vertex_partition() == [_vertex_mask(g) for g in expected], c
        assert [comp.vertices for comp in c.connected_components()] == [
            tuple(v + 1 for v in g) for g in expected
        ], c


def test_connected_components_pinned():
    comps = cx(4, (1, 2), (3, 4)).connected_components()
    assert len(comps) == 2
    for comp, verts in [(comps[0], (1, 2)), (comps[1], (3, 4))]:
        assert comp.vertices == verts
        assert facet_sets(comp.complex) == {frozenset({1, 2})}
    comps = cx(3, (1,), (2,), (3,)).connected_components()
    assert len(comps) == 3
    assert all(c.complex == cx(1, (1,)) for c in comps)


def test_connected_components_relabeling_round_trip():
    c = cx(6, (2, 4, 6), (1,), (3, 5))
    comps = c.connected_components()
    rebuilt = set()
    for comp in comps:
        for m in comp.complex.masks:
            rebuilt.add(frozenset(comp.vertices[v - 1] for v in _mask_elements(m)))
    assert rebuilt == facet_sets(c)


def test_canonical_form_pinned_path():
    # all 3! relabelings of the 2-edge path produce one identical form
    base = cx(3, (1, 2), (2, 3))
    forms = set()
    import itertools
    for perm in itertools.permutations(range(1, 4)):
        forms.add(canonical_form(relabel_complex(base, perm)))
    assert len(forms) == 1


def test_canonical_form_random_permutations():
    rng = random.Random(19)
    for c in [
        cx(3, (1, 2), (2, 3)),
        full_simplex(4),
        cx(4, (1, 2), (3, 4)),
        cx(5, (1, 2, 3), (3, 4), (5,)),
        helpers.random_complex(rng, 8),
        helpers.random_complex(rng, 10),
    ]:
        want = canonical_form(c)
        n = c.ground_size
        for _ in range(200):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            assert canonical_form(relabel_complex(c, tuple(perm))) == want


def test_are_isomorphic_pinned():
    a = cx(3, (1, 2), (2, 3))
    b = cx(3, (1, 3), (2, 3))
    w = are_isomorphic(a, b)
    assert w is not None
    assert relabel_complex(a, w) == b
    ident = are_isomorphic(a, a)
    assert ident is not None
    assert relabel_complex(a, ident) == a


def test_not_isomorphic_different_dimension():
    path2 = cx(3, (1, 2), (2, 3))
    points = cx(3, (1,), (2,), (3,))
    assert are_isomorphic(path2, points) is None


def test_isomorphism_requires_equal_ground():
    a = cx(2, (1, 2))
    b = cx(3, (1, 2))
    assert are_isomorphic(a, b) is None
    # same facets, same ground, one unused vertex on each side: isomorphic
    c = cx(3, (1, 2))
    d = cx(3, (2, 3))
    w = are_isomorphic(c, d)
    assert w is not None and relabel_complex(c, w) == d


def test_isomorphism_against_permutation_oracle():
    rng = random.Random(23)
    pool = list(helpers.universe_through(4))
    for _ in range(30):
        pool.append(helpers.random_complex(rng, rng.randint(1, 6)))
    pool.append(void_complex(3))
    pool.append(empty_complex(3))
    pairs = 0
    for i in range(len(pool)):
        for j in range(i, min(i + 12, len(pool))):
            a, b = pool[i], pool[j]
            if a.ground_size > 7 or b.ground_size > 7:
                continue
            got = are_isomorphic(a, b)
            want = helpers.brute_isomorphic(a, b)
            assert (got is None) == (want is None), (a, b)
            if got is not None:
                assert relabel_complex(a, got) == b
            pairs += 1
    assert pairs > 300


def test_isomorphism_is_equivalence_relation():
    rng = random.Random(29)
    pool = [helpers.random_complex(rng, 5) for _ in range(12)]
    for a in pool:
        assert are_isomorphic(a, a) is not None
        for b in pool:
            ab = are_isomorphic(a, b)
            ba = are_isomorphic(b, a)
            assert (ab is None) == (ba is None)
            if ab is None:
                continue
            for c in pool:
                bc = are_isomorphic(b, c)
                if bc is not None:
                    assert are_isomorphic(a, c) is not None


def test_canonical_labeling_maps_to_form():
    rng = random.Random(31)
    for _ in range(25):
        c = helpers.random_complex(rng, rng.randint(1, 7))
        lab = _canonical(c)[1]
        form = canonical_form(c)
        assert relabel_complex(c, lab).masks == form.masks


def _complete_1_complex(n: int) -> SimplicialComplex:
    return complex_from_facets(n, list(combinations(range(1, n + 1), 2)))


def _subdivided_simplex(k: int) -> SimplicialComplex:
    return barycentric_subdivision(full_simplex(k + 1))[0]


def _shuffled(rng, c: SimplicialComplex) -> SimplicialComplex:
    perm = list(range(1, c.ground_size + 1))
    rng.shuffle(perm)
    return relabel_complex(c, tuple(perm))


def test_pruned_canonical_search_matches_the_unpruned_oracle():
    rng = random.Random(37)
    symmetric = [_subdivided_simplex(k) for k in range(5)]
    symmetric += [
        complex_from_facets(n, [(i, i % n + 1) for i in range(1, n + 1)]) for n in range(4, 11)
    ]
    symmetric.append(cx(6, (1, 2, 3), (4, 5, 6)))  # two triangles: Aut swaps them
    symmetric.append(complex_from_facets(  # octahedron boundary
        6, [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    ))
    # An order-6 Latin square as the triangles (row, 6 + column, 12 + symbol).
    # Refinement leaves all 18 vertices in one cell and splits them slowly,
    # while few automorphisms fix a vertex, so pruning with automorphisms
    # that move the path loses the least leaf here.
    latin = ("524361", "352146", "231654", "146523", "463215", "615432")
    symmetric.append(complex_from_facets(18, [
        (r + 1, c + 7, int(s) + 12) for r, row in enumerate(latin) for c, s in enumerate(row)
    ]))
    cases = list(helpers.universe_through(4, False))
    cases += [clique_complex(comparability_graph(c)) for c in helpers.universe(5)]
    cases += symmetric + [_shuffled(rng, c) for c in symmetric]
    cases += [_complete_1_complex(n) for n in range(3, 9)]  # relabeling fixes these
    cases += [helpers.random_complex(rng, rng.randint(1, 10)) for _ in range(150)]
    for c in cases:
        got = (canonical_form(c).sort_key, _canonical(c)[1])
        assert got == helpers.unpruned_canonical(c), c


def test_canonical_forms_of_highly_symmetric_complexes():
    # The unpruned search visits about |Aut| leaves on each of these
    # (9!, 10!, 8! and 6!) and took 10-57 s; every labeling here is the
    # one that search returns.
    rng = random.Random(41)
    for n in (9, 10):
        k = _complete_1_complex(n)
        assert canonical_form(k).masks == k.masks
        assert _canonical(k)[1] == tuple(range(1, n + 1))
        assert canonical_form(_shuffled(rng, k)) == canonical_form(k)
    skeleton = complex_from_facets(8, list(combinations(range(1, 9), 3)))
    assert canonical_form(skeleton).masks == skeleton.masks
    assert _canonical(skeleton)[1] == tuple(range(1, 9))
    assert canonical_form(_shuffled(rng, skeleton)) == canonical_form(skeleton)
    sd5 = _subdivided_simplex(5)
    form = canonical_form(sd5)
    pinned = (form.sort_key, _canonical(sd5)[1])
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == SD5_DIGEST
    for _ in range(2):
        assert canonical_form(_shuffled(rng, sd5)) == form


def test_canonical_form_of_a_complex_with_a_large_facet():
    # 2^17 faces: the start colors come from facet-size profiles, not faces.
    # a hangs a 7-edge path off the big facet, b a 6-edge path and an edge.
    big = range(1, 18)
    a = complex_from_facets(24, [big] + [(v, v + 1) for v in range(17, 24)])
    b = complex_from_facets(24, [big] + [(v, v + 1) for v in range(17, 23)] + [(24, 1)])
    assert sorted(m.bit_count() for m in a.masks) == sorted(m.bit_count() for m in b.masks)
    assert canonical_form(a) != canonical_form(b)
    assert are_isomorphic(a, b) is None
    rng = random.Random(23)
    for base in (a, b):
        form = canonical_form(base)
        for _ in range(6):
            copy = _shuffled(rng, base)
            assert canonical_form(copy) == form
            witness = are_isomorphic(base, copy)
            assert relabel_complex(base, witness) == copy


def test_canonical_form_of_the_full_64_simplex_is_fast():
    full = full_simplex(64)
    start = time.perf_counter()
    form = canonical_form(full)
    assert time.perf_counter() - start < 1.0
    assert form.masks == full.masks


def test_void_vs_empty_are_distinct():
    assert void_complex(2) != empty_complex(2)
    assert are_isomorphic(void_complex(2), empty_complex(2)) is None
    assert are_isomorphic(void_complex(2), void_complex(2)) is not None
    assert canonical_form(void_complex(2)) != canonical_form(empty_complex(2))


def test_vertex_bijection_validation():
    # a vertex bijection is the tuple of the images of 1..n
    with pytest.raises(ValueError, match="mapping is not a permutation of 1..n"):
        relabel_complex(cx(2, (1,), (2,)), (1, 1))
    assert relabel_complex(cx(3, (1, 3), (2,)), (2, 3, 1)) == cx(3, (1, 2), (3,))
    # are_isomorphic returns one: the images of a's vertices in b
    a, b = cx(3, (1, 3), (2,)), cx(3, (1, 2), (3,))
    w = are_isomorphic(a, b)
    assert type(w) is tuple and sorted(w) == [1, 2, 3]
    assert relabel_complex(a, w) == b


def test_vertex_bijection_takes_only_integer_images():
    # a float compares equal to its integer, True to 1, and a string does
    # not sort with ints: each is refused with ValueError, as vertices are
    for mapping in [(1.0, 2.0), (True, 2), ("1", 2), (2.0, 1.0)]:
        with pytest.raises(ValueError, match="must be an integer"):
            relabel_complex(cx(2, (1,), (2,)), mapping)


def test_relabel_complex_wants_a_bijection_of_the_ground_size():
    for mapping in [(1,), (1, 2, 3), (3, 1, 2)]:
        with pytest.raises(ValueError, match="bijection size does not match ground set"):
            relabel_complex(cx(2, (1,), (2,)), mapping)


def test_complex_equality_is_labeled():
    assert cx(3, (1, 2)) != cx(3, (2, 3))
    assert cx(3, (1, 2)) == complex_from_facets(3, [[2, 1]])


def test_every_exported_name_resolves_once():
    import barysub

    assert len(set(barysub.__all__)) == len(barysub.__all__)
    namespace = {}
    exec("from barysub import *", namespace)  # an unresolved name raises here
    assert set(barysub.__all__) <= namespace.keys()

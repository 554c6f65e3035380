"""Subdivision, Alexander dual, complement, and ideal generator families."""

from collections import Counter
import itertools
import random
import time

import pytest

import helpers
from helpers import cx, facet_sets

from barysub import (
    EmptyInput,
    GroundSetTooLarge,
    SimplicialComplex,
    VoidComplex,
    alexander_dual,
    are_isomorphic,
    barycentric_subdivision,
    complement_complex,
    complex_from_facets,
    empty_complex,
    facet_ideal_generators,
    full_simplex,
    iterated_subdivision,
    stanley_reisner_generators,
    void_complex,
)
from barysub.core import _antichain_complex, _mask_elements


def is_face_of(c: SimplicialComplex, mask: int) -> bool:
    if c.void:
        return False
    if mask == 0:
        return True
    return any(mask & ~f == 0 for f in c.masks)


def brute_dual_faces(c: SimplicialComplex) -> set[int]:
    """Faces of the dual by definition: S whose complement is a nonface."""
    full = c.full_mask
    return {m for m in range(1, full + 1) if not is_face_of(c, full & ~m)}


def test_subdivision_of_triangle_boundary_is_hexagon():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    sub, faces = barycentric_subdivision(tri)
    assert sub.ground_size == 6
    assert facet_sets(sub) == {
        frozenset({1, 4}), frozenset({1, 5}), frozenset({2, 4}),
        frozenset({2, 6}), frozenset({3, 5}), frozenset({3, 6}),
    }
    assert faces == (0b001, 0b010, 0b100, 0b011, 0b101, 0b110)


def test_subdivision_labeling_round_trip():
    # each face is read back off the subdivision: the union of the singleton
    # faces at the subdivision vertices that share a facet with its vertex
    c = cx(4, (1, 2, 3), (3, 4))
    sub, faces = barycentric_subdivision(c)
    assert list(faces) == c.faces() and len(faces) == sub.ground_size
    for i, face in enumerate(faces, 1):
        star = {v for f in sub.masks if f >> (i - 1) & 1 for v in _mask_elements(f)}
        assert sum(faces[v - 1] for v in star if faces[v - 1].bit_count() == 1) == face


def test_subdivision_edges_are_comparable_pairs():
    rng = random.Random(41)
    for c in [cx(3, (1, 2), (1, 3), (2, 3)), helpers.random_cover_complex(rng, 4),
              helpers.random_cover_complex(rng, 5)]:
        sub, faces = barycentric_subdivision(c)
        want = set()
        for i in range(len(faces)):
            for j in range(i + 1, len(faces)):
                small, large = faces[i], faces[j]
                if small & ~large == 0:
                    want.add(frozenset({i + 1, j + 1}))
        got = {
            frozenset(_mask_elements(f))
            for f in sub.skeleton(1).masks
            if f.bit_count() == 2
        }
        assert got == want


def test_subdivision_facets_are_saturated_chains():
    rng = random.Random(43)
    cases = list(helpers.universe_through(4))
    cases += [helpers.random_complex(rng, 5) for _ in range(10)]
    for c in cases:
        sub, faces = barycentric_subdivision(c)
        # every facet of the subdivision is a chain 1 = |F_1| < ... saturated
        for chain in sub.masks:
            members = sorted((faces[v - 1] for v in _mask_elements(chain)), key=int.bit_count)
            assert members[0].bit_count() == 1
            for a, b in zip(members, members[1:]):
                assert a & ~b == 0 and b.bit_count() == a.bit_count() + 1
            assert members[-1] in c.masks
        assert len(sub.masks) == helpers.chain_count(c)


def test_subdivision_counts():
    # vertex count = face count, facet count = sum of |F|! over facets
    import math
    rng = random.Random(47)
    for c in [full_simplex(3), cx(4, (1, 2), (2, 3), (3, 4)),
              helpers.random_complex(rng, 5), helpers.random_complex(rng, 5)]:
        sub, _ = barycentric_subdivision(c)
        assert sub.ground_size == len(c.faces())
        assert len(sub.masks) == sum(math.factorial(f.bit_count()) for f in c.masks)


def test_subdivision_preserves_dimension_euler_purity():
    for c in helpers.universe_through(5):
        sub, _ = barycentric_subdivision(c)
        assert sub.dimension() == c.dimension()
        assert sub.euler_characteristic() == c.euler_characteristic()
        assert sub.is_pure() == c.is_pure()
        assert sub.is_connected() == c.is_connected()
        assert sub.has_all_vertices


def test_subdivision_is_flag():
    # minimal nonfaces of any subdivision all have exactly two vertices
    rng = random.Random(53)
    cases = list(helpers.universe_through(4))
    cases += [helpers.random_complex(rng, 5) for _ in range(10)]
    for c in cases:
        sub, _ = barycentric_subdivision(c)
        assert all(s.bit_count() == 2 for s in sub.minimal_nonfaces())


def test_iterated_subdivision_of_triangle_is_twelve_cycle():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    twice = iterated_subdivision(tri, 2)
    assert twice.ground_size == 12
    assert len(twice.masks) == 12
    ring = [(i, i + 1) for i in range(1, 12)] + [(1, 12)]
    assert are_isomorphic(twice, cx(12, *ring)) is not None


def test_iterated_subdivision_edges():
    c = cx(2, (1, 2))
    assert iterated_subdivision(c, 0) == c
    once = iterated_subdivision(c, 1)
    assert facet_sets(once) == {frozenset({1, 3}), frozenset({2, 3})}
    with pytest.raises(ValueError):
        iterated_subdivision(c, -1)


def test_iterated_subdivision_stops_at_a_fixed_point():
    # a 0-dimensional complex is its own subdivision once its ground set is
    # all used, so any step count past that gives the same complex at once
    for c in [cx(1, (1,)), cx(3, (1,), (3,))]:
        start = time.perf_counter()
        assert iterated_subdivision(c, 10**9) == iterated_subdivision(c, 2)
        assert time.perf_counter() - start < 1.0
    assert iterated_subdivision(cx(3, (1,), (3,)), 10**9) == cx(2, (1,), (2,))


def test_subdivision_rejects_degenerate_inputs():
    with pytest.raises(VoidComplex):
        barycentric_subdivision(void_complex(3))
    with pytest.raises(EmptyInput):
        barycentric_subdivision(empty_complex(3))
    with pytest.raises(GroundSetTooLarge):
        barycentric_subdivision(full_simplex(7))  # 127 faces
    barycentric_subdivision(full_simplex(6))  # 63 faces, allowed


def _refusal(c: SimplicialComplex) -> str | None:
    try:
        barycentric_subdivision(c)
    except GroundSetTooLarge as exc:
        return str(exc)
    return None


def test_subdivision_face_bound_refuses_only_over_the_cap():
    # the bound (facet count, or 2^k - 1 for a largest facet of k vertices)
    # never exceeds the face count, so a complex of at most 64 faces is
    # subdivided, and a refused one is refused with its exact count unless
    # the bound alone is over the cap
    rng = random.Random(59)
    universe = helpers.universe_through(5, up_to_iso=False)
    cases = list(universe)
    for _ in range(300):
        n = rng.randint(1, 64)
        top = rng.randint(1, min(n, 7))
        facets = [rng.sample(range(1, n + 1), rng.randint(1, top))
                  for _ in range(rng.randint(1, 70))]
        cases.append(complex_from_facets(n, facets))
    branches = Counter()
    for c in cases:
        count = len(c.faces())
        bound = max(len(c.masks), (1 << c.dimension() + 1) - 1)
        assert bound <= count
        if count <= 64:
            want, branch = None, "subdivided"
        elif bound > 64:
            want, branch = f"subdivision needs at least {bound} vertices, cap is 64", "bound"
        else:
            want, branch = f"subdivision needs {count} vertices, cap is 64", "count"
        assert _refusal(c) == want, c
        branches[branch] += 1
    # the random complexes reach every branch
    assert min(branches["subdivided"] - len(universe), branches["bound"], branches["count"]) > 40


def test_subdivision_refuses_large_facets_before_listing_faces():
    k12 = complex_from_facets(12, itertools.combinations(range(1, 13), 2))
    for c, least in [(full_simplex(64), 2 ** 64 - 1), (k12, 66), (full_simplex(7), 127)]:
        start = time.perf_counter()
        assert _refusal(c) == f"subdivision needs at least {least} vertices, cap is 64"
        assert time.perf_counter() - start < 1.0
    # 63 faces of a 6-vertex facet and two more vertices: the bound passes,
    # the count does not
    assert _refusal(cx(8, (1, 2, 3, 4, 5, 6), (7,), (8,))) == (
        "subdivision needs 65 vertices, cap is 64")


def test_single_point_subdivision_is_fixed():
    pt = cx(1, (1,))
    sub, faces = barycentric_subdivision(pt)
    assert sub == pt
    assert faces == (1,)


def test_dual_pinned_examples():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert alexander_dual(tri) == empty_complex(3)
    assert alexander_dual(empty_complex(3)) == tri
    assert alexander_dual(full_simplex(4)) == void_complex(4)
    assert alexander_dual(void_complex(4)) == full_simplex(4)
    # minimal nonfaces of the two-edge complex are the four cross pairs;
    # their complements are again the cross pairs
    two_edges = cx(4, (1, 2), (3, 4))
    assert facet_sets(alexander_dual(two_edges)) == {
        frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 3}), frozenset({2, 4}),
    }


def test_dual_faces_match_definition():
    rng = random.Random(59)
    cases = list(helpers.universe_through(4))
    cases += [helpers.random_complex(rng, 5) for _ in range(20)]
    cases += [void_complex(3), empty_complex(3), full_simplex(4)]
    for c in cases:
        d = alexander_dual(c)
        want = brute_dual_faces(c)
        got = set(d.faces())
        assert got == want, c
        # the empty set is a dual face exactly when the input misses a face
        assert d.void == (len(c.faces()) == (1 << c.ground_size) - 1 and not c.void)


def test_dual_is_involution():
    rng = random.Random(61)
    cases = list(helpers.universe_through(4))
    cases += list(helpers.universe(5))
    cases += [helpers.random_complex(rng, 10) for _ in range(500)]
    for _ in range(100):
        cases.append(helpers.overlap_complex(rng, rng.randint(1, 12), rng.randint(1, 8)))
    cases += [void_complex(6), empty_complex(6), full_simplex(6)]
    for c in cases:
        d = alexander_dual(c)
        assert alexander_dual(d) == c
        if d.masks:
            # built without complex_from_facets' maximality filter, which
            # must find nothing to drop
            assert complex_from_facets(c.ground_size, map(_mask_elements, d.masks)) == d


def test_dual_of_a_complex_with_many_minimal_nonfaces():
    # 48 vertices, 12 facets missing overlapping sets of 1-4 vertices
    c = helpers.overlap_complex(random.Random(393), 48, 12)
    assert len(c.masks) == 12
    d = alexander_dual(c)
    assert len(d.masks) == len(c.minimal_nonfaces()) == 10560
    assert alexander_dual(d) == c
    assert complex_from_facets(48, map(_mask_elements, d.masks)) == d


def test_duality_keeps_the_sorted_facet_order():
    # The dual and the complement reverse the complemented list instead of
    # sorting it; each must equal the complex built by sorting.
    cases = list(helpers.universe_through(4, up_to_iso=False))
    cases += [complex_from_facets(5, itertools.combinations(range(1, 6), 4)),
              full_simplex(4), void_complex(4), empty_complex(4)]
    for c in cases:
        full = c.full_mask
        nonfaces = c.minimal_nonfaces()
        want_dual = (_antichain_complex(c.ground_size, [full & ~nf for nf in nonfaces])
                     if nonfaces else void_complex(c.ground_size))
        assert alexander_dual(c) == want_dual, c
        want_complement = (void_complex(c.ground_size) if c.void else _antichain_complex(
            c.ground_size, [full & ~m for m in c.masks] or [full]))
        assert complement_complex(c) == want_complement, c


def test_complement_pinned_examples():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert facet_sets(complement_complex(tri)) == {
        frozenset({1}), frozenset({2}), frozenset({3}),
    }
    assert complement_complex(empty_complex(3)) == full_simplex(3)
    assert complement_complex(full_simplex(3)) == empty_complex(3)
    assert complement_complex(void_complex(3)) == void_complex(3)


def test_complement_is_involution():
    rng = random.Random(67)
    cases = list(helpers.universe_through(4))
    cases += [helpers.random_complex(rng, 10) for _ in range(300)]
    cases += [void_complex(5), empty_complex(5), full_simplex(5)]
    for c in cases:
        assert complement_complex(complement_complex(c)) == c


def test_complement_facets_are_complements():
    rng = random.Random(71)
    full = (1 << 8) - 1
    for _ in range(50):
        c = helpers.random_complex(rng, 8)
        got = set(complement_complex(c).masks)
        want = {full & ~f for f in c.masks}
        assert got == (want - {0} if want != {0} else set())


def test_generator_families():
    tri = cx(3, (1, 2), (1, 3), (2, 3))
    assert stanley_reisner_generators(tri) == [0b111]
    assert facet_ideal_generators(tri) == [0b011, 0b101, 0b110]
    assert facet_ideal_generators(empty_complex(2)) == [0]
    assert facet_ideal_generators(void_complex(2)) == []
    assert stanley_reisner_generators(void_complex(2)) == [0]
    assert stanley_reisner_generators(full_simplex(3)) == []


def test_generator_identity_dual_vs_complement():
    # nonface generators of the dual coincide with the facet generators of
    # the complement: two routes to the complements of the facets
    rng = random.Random(73)
    cases = list(helpers.universe_through(4))
    cases += [helpers.random_complex(rng, 9) for _ in range(200)]
    cases += [void_complex(4), empty_complex(4), full_simplex(4)]
    for c in cases:
        left = [_mask_elements(s) for s in stanley_reisner_generators(alexander_dual(c))]
        right = sorted(
            map(_mask_elements, facet_ideal_generators(complement_complex(c))),
            key=lambda e: (len(e), e),
        )
        assert left == sorted(left, key=lambda e: (len(e), e))
        assert left == right, c

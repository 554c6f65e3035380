"""Acceptance gate: one criterion per test, one printed verdict line each.

Each test prints "criterion N (<label>): PASS|FAIL ..." on the real stdout
so the verdicts survive pytest's capture, then asserts. The criteria pin the
package's headline guarantees end to end: reconstruction round trips, the
exhaustive small-universe verifiers, duality identities, subdivision
invariants, orientation counts and canonical-form agreement with brute force.
"""

import random
import time
from contextlib import contextmanager

from barysub import (
    LabeledGraph,
    STATUS_NOT_FACE_POSET,
    STATUS_NOT_ORIENTABLE,
    STATUS_OK,
    GroundSetTooLarge,
    alexander_dual,
    are_isomorphic,
    barycentric_subdivision,
    canonical_form,
    comparability_graph,
    complement_complex,
    complex_from_face_poset,
    complex_from_facets,
    facet_ideal_generators,
    full_simplex,
    iterated_subdivision,
    poset_from_orientation,
    reconstruct_from_comparability_graph,
    stanley_reisner_generators,
    transitive_orientations,
    verify_equivalences,
)

import helpers


@contextmanager
def criterion(capsys, number: int, label: str):
    outcome = {"ok": True, "detail": ""}
    try:
        yield outcome
    except BaseException as exc:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL [{exc!r}]")
        raise
    verdict = "PASS" if outcome["ok"] else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({label}): {verdict}{outcome['detail']}")
    assert outcome["ok"], f"criterion {number} ({label}) failed"


def test_criterion_1_reconstruction_round_trip(capsys):
    with criterion(capsys, 1, "comparability-graph round trip, <=5 vertices") as out:
        start = time.perf_counter()
        members = helpers.universe_through(5)
        bad = []
        for c in members:
            report = reconstruct_from_comparability_graph(comparability_graph(c))
            if report.status != STATUS_OK or not are_isomorphic(report.complex, c):
                bad.append(c.masks)
        elapsed = time.perf_counter() - start
        assert bad == []
        assert len(members) == 208
        assert elapsed < 60.0
        out["detail"] = f" ({len(members)} complexes, {elapsed:.1f}s)"


def test_criterion_2_equivalence_verifier(capsys):
    with criterion(capsys, 2, "equivalence harness on 4 vertices") as out:
        start = time.perf_counter()
        report = verify_equivalences(4)
        elapsed = time.perf_counter() - start
        assert report.failures == []
        assert report.universe_size == 20
        assert elapsed < 300.0
        out["detail"] = (
            f" ({report.pair_checks} checks over {report.universe_size}"
            f" members, {elapsed:.1f}s)"
        )


def test_criterion_3_short_cycles_rejected(capsys):
    with criterion(capsys, 3, "C3, C4, C5 are not complex comparability graphs") as out:
        statuses = {}
        for n in (3, 4, 5):
            statuses[n] = reconstruct_from_comparability_graph(helpers.cycle_graph(n)).status
        assert statuses[3] == STATUS_NOT_FACE_POSET
        assert statuses[4] == STATUS_NOT_FACE_POSET
        assert statuses[5] == STATUS_NOT_ORIENTABLE
        out["detail"] = " (C3/C4 fail poset checks, C5 fails orientability)"


def test_criterion_4_hexagon_reconstruction(capsys):
    with criterion(capsys, 4, "hexagon reconstructs to a triangle boundary") as out:
        hexagon = helpers.cycle_graph(6)
        report = reconstruct_from_comparability_graph(hexagon)
        triangle = complex_from_facets(3, [(1, 2), (1, 3), (2, 3)])
        assert report.status == STATUS_OK
        assert are_isomorphic(report.complex, triangle)
        orientations = transitive_orientations(hexagon)
        assert len(orientations) == 2
        for p in orientations:
            assert poset_from_orientation(hexagon, p) == p
        rebuilt = [complex_from_face_poset(p)[0] for p in orientations]
        assert are_isomorphic(rebuilt[0], rebuilt[1])
        assert report.both_orientations_admissible
        out["detail"] = " (both orientations succeed, results isomorphic)"


def test_criterion_5_duality_identities(capsys):
    with criterion(capsys, 5, "dual involution and generator identity") as out:
        rng = random.Random(20260816)
        pool = list(helpers.universe_through(5))
        pool.extend(helpers.random_complex(rng, 10) for _ in range(500))
        bad = []
        for c in pool:
            if alexander_dual(alexander_dual(c)) != c:
                bad.append(("involution", c.masks))
            lhs = set(stanley_reisner_generators(alexander_dual(c)))
            rhs = set(facet_ideal_generators(complement_complex(c)))
            if lhs != rhs:
                bad.append(("generators", c.masks))
        assert bad == []
        out["detail"] = f" ({len(pool)} complexes, 0 failures)"


def test_criterion_6_subdivision_invariants(capsys):
    with criterion(capsys, 6, "subdivision is flag, dimension/Euler preserved") as out:
        checked = iterated = 0
        for c in helpers.universe_through(5):
            sub, _ = barycentric_subdivision(c)
            assert all(s.bit_count() == 2 for s in sub.minimal_nonfaces())
            assert sub.dimension() == c.dimension()
            assert sub.euler_characteristic() == c.euler_characteristic()
            checked += 1
            try:
                sub2 = iterated_subdivision(c, 2)
            except GroundSetTooLarge:
                continue
            assert all(s.bit_count() == 2 for s in sub2.minimal_nonfaces())
            assert sub2.dimension() == c.dimension()
            assert sub2.euler_characteristic() == c.euler_characteristic()
            iterated += 1
        assert iterated > 0
        out["detail"] = f" ({checked} complexes, {iterated} twice-subdivided)"


def _count_orientations_by_backtracking(g: LabeledGraph) -> int:
    """Exact transitive-orientation count via propagation search.

    Independent of the implication-class machinery: branch on an undecided
    edge, then repeatedly force a->c from a->b->c (failing when {a,c} is not
    an edge or is already oriented c->a) until a fixpoint or contradiction.
    """
    edges = [frozenset(e) for e in g.edges]
    adjacency = set(edges)
    out_neighbors = {}
    for a, b in g.edges:
        out_neighbors.setdefault(a, set()).add(b)
        out_neighbors.setdefault(b, set()).add(a)

    def propagate(state):
        queue = list(state.values())
        while queue:
            a, b = queue.pop()
            # a->b plus b->c forces a->c; c->a plus a->b forces c->b
            for c in out_neighbors[b]:
                if c == a or state.get(frozenset((b, c))) != (b, c):
                    continue
                key = frozenset((a, c))
                if key not in adjacency:
                    return None
                if key in state:
                    if state[key] != (a, c):
                        return None
                else:
                    state[key] = (a, c)
                    queue.append((a, c))
            for c in out_neighbors[a]:
                if c == b or state.get(frozenset((c, a))) != (c, a):
                    continue
                key = frozenset((c, b))
                if key not in adjacency:
                    return None
                if key in state:
                    if state[key] != (c, b):
                        return None
                else:
                    state[key] = (c, b)
                    queue.append((c, b))
        return state

    def search(state):
        undecided = next((e for e in edges if e not in state), None)
        if undecided is None:
            return 1
        total = 0
        a, b = sorted(undecided)
        for arc in ((a, b), (b, a)):
            trial = dict(state)
            trial[undecided] = arc
            if propagate(trial) is not None:
                total += search(trial)
        return total

    if not edges:
        return 1
    return search({})


def test_criterion_7_orientation_count(capsys):
    with criterion(capsys, 7, "connected multi-facet complexes on <=4 vertices") as out:
        members = [
            c
            for c in helpers.universe_through(4)
            if c.is_connected() and len(c.masks) >= 2
        ]
        assert members
        for c in members:
            g = comparability_graph(c)
            found = transitive_orientations(g)
            assert len(found) == 2, c.masks
            assert _count_orientations_by_backtracking(g) == 2, c.masks
            if len(g.edges) <= 12:
                assert len(helpers.brute_transitive_orientations(g)) == 2
        out["detail"] = f" ({len(members)} complexes, all with exactly 2)"


def test_criterion_8_canonical_form_oracle_agreement(capsys):
    with criterion(capsys, 8, "canonical form vs all-permutations oracle") as out:
        corpus = []
        for n in range(1, 5):
            corpus.extend(helpers.universe(n, up_to_iso=False))
        rng = random.Random(8168168)
        corpus.extend(helpers.random_complex(rng, 5) for _ in range(24))
        corpus.extend(helpers.random_complex(rng, 6) for _ in range(10))
        assert all(c.ground_size <= 6 for c in corpus)
        forms = [canonical_form(c) for c in corpus]
        pairs = disagreements = 0
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                pairs += 1
                fast = forms[i] == forms[j]
                slow = helpers.brute_isomorphic(corpus[i], corpus[j]) is not None
                if fast != slow:
                    disagreements += 1
        assert pairs >= 10000
        assert disagreements == 0
        out["detail"] = f" ({pairs} pairs, 0 disagreements)"

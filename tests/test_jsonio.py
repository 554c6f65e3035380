"""Wire formats: canonical JSON in and out."""

import json
import random

import pytest

import helpers
from helpers import cx

from barysub import (
    EmptyInput,
    GroundSetTooLarge,
    LabeledGraph,
    barycentric_subdivision,
    comparability_graph,
    reconstruct_from_comparability_graph,
    stanley_reisner_generators,
    verify_equivalences,
    void_complex,
)
from barysub.jsonio import (
    MAX_GRAPH_VERTICES,
    complex_from_obj,
    complex_to_obj,
    dumps,
    generators_to_obj,
    graph_from_obj,
    graph_to_obj,
    labeling_to_obj,
    reconstruction_report_to_obj,
    verification_report_to_obj,
)

TRI = cx(3, (1, 2), (1, 3), (2, 3))


def test_complex_canonical_text():
    assert dumps(complex_to_obj(TRI)) == (
        '{"ground_set": 3, "facets": [[1, 2], [1, 3], [2, 3]]}'
    )
    assert dumps(complex_to_obj(void_complex(2))) == (
        '{"ground_set": 2, "facets": [], "void": true}'
    )
    assert dumps(complex_to_obj(cx(2, (1,), (2,)))) == (
        '{"ground_set": 2, "facets": [[1], [2]]}'
    )


def test_complex_round_trip():
    rng = random.Random(139)
    cases = [helpers.random_complex(rng, rng.randint(1, 10)) for _ in range(50)]
    cases += [void_complex(4), cx(1, (1,))]
    for c in cases:
        assert complex_from_obj(json.loads(dumps(complex_to_obj(c)))) == c


def test_complex_from_obj_normalizes():
    got = complex_from_obj({"ground_set": 3, "facets": [[2, 1], [2], [3]]})
    assert got == cx(3, (1, 2), (3,))


def test_complex_from_obj_rejects_malformed():
    for bad in [
        [],                                         # not an object
        {},                                         # missing fields
        {"ground_set": 2},                          # missing facets
        {"facets": []},                             # missing ground_set
        {"ground_set": None, "facets": []},
        {"ground_set": 2, "facets": "nope"},
        {"ground_set": 2, "facets": [3]},           # facet not a list
        {"ground_set": 2, "facets": [[None]]},
        {"ground_set": 2, "facets": [[0]]},         # vertex below 1
        {"ground_set": 2, "facets": [[3]]},         # vertex above ground
        {"ground_set": 2, "facets": [[1]], "void": True},
    ]:
        with pytest.raises(ValueError):
            complex_from_obj(bad)
    with pytest.raises(GroundSetTooLarge):
        complex_from_obj({"ground_set": 65, "facets": []})


@pytest.mark.parametrize("bad,named", [
    ({"ground_set": 3, "facets": [[1, 2.5]]}, "vertex 2.5"),
    ({"ground_set": 3, "facets": [["1"]]}, "vertex '1'"),
    ({"ground_set": 3, "facets": [[True]]}, "vertex True"),
    ({"ground_set": 1e3, "facets": []}, "ground_set 1000.0"),
    ({"ground_set": "3", "facets": []}, "ground_set '3'"),
    ({"ground_set": True, "facets": [[1]]}, "ground_set True"),
    ({"ground_set": 3, "facets": [], "void": "no"}, "void 'no'"),
    ({"ground_set": 3, "facets": [], "void": 1}, "void 1"),
])
def test_complex_from_obj_wants_strict_integers(bad, named):
    with pytest.raises(ValueError, match=named):
        complex_from_obj(bad)


@pytest.mark.parametrize("read,obj,message", [
    # within one vertex list a non-integer is named before a vertex out of range
    (complex_from_obj, {"ground_set": 3, "facets": [[70, "a"]]},
     "vertex 'a' in vertex set [70, 'a'] must be an integer"),
    # facets are checked in order
    (complex_from_obj, {"ground_set": 3, "facets": [[5], ["a"]]},
     "vertex 'a' in vertex set ['a'] must be an integer"),
    (complex_from_obj, {"ground_set": 3, "facets": [[70], ["a"]]}, "vertex 70 outside 1..64"),
    # a vertex outside 1..64 in any facet beats a facet outside the ground set
    (complex_from_obj, {"ground_set": 3, "facets": [[5], [70]]}, "vertex 70 outside 1..64"),
    (complex_from_obj, {"ground_set": 100, "facets": [[70]]}, "vertex 70 outside 1..64"),
    (complex_from_obj, {"ground_set": 0, "facets": [[70]]}, "vertex 70 outside 1..64"),
    (complex_from_obj, {"ground_set": 3, "facets": [[-1]]}, "vertex -1 outside 1..64"),
    (complex_from_obj, {"ground_set": 3, "facets": [[1, 2], 3]}, "vertex set 3 must be a list"),
    (graph_from_obj, {"vertices": [[70]], "edges": []}, "vertex 70 outside 1..64"),
])
def test_vertex_list_errors_name_the_first_fault(read, obj, message):
    with pytest.raises(ValueError) as info:
        read(obj)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_complex_from_obj_negative_ground_set_is_refused_like_zero():
    for n in (0, -1):
        with pytest.raises(ValueError, match="outside ground set"):
            complex_from_obj({"ground_set": n, "facets": [[1]]})
        with pytest.raises(EmptyInput):
            complex_from_obj({"ground_set": n, "facets": []})
    assert complex_from_obj({"ground_set": 2, "facets": [], "void": False}) == cx(2)


@pytest.mark.parametrize("bad,named", [
    ({"vertices": 2, "edges": [[False, True]]}, "edge"),
    ({"vertices": 2, "edges": [[0, 1.0]]}, "edge"),
    ({"vertices": True, "edges": []}, "vertices True"),
    ({"vertices": 2.0, "edges": []}, "vertices 2.0"),
    ({"vertices": [[1], [True]], "edges": []}, "vertex True"),
])
def test_graph_from_obj_wants_strict_integers(bad, named):
    with pytest.raises(ValueError, match=named):
        graph_from_obj(bad)


def test_labeling_round_trip():
    _, faces = barycentric_subdivision(TRI)
    text = dumps(labeling_to_obj(faces))
    assert text == '{"vertices": [[1], [2], [3], [1, 2], [1, 3], [2, 3]]}'
    assert tuple(helpers.mask_of(f) for f in json.loads(text)["vertices"]) == faces


def test_graph_canonical_text():
    g = LabeledGraph(3, ((0, 1), (1, 2)))
    assert dumps(graph_to_obj(g)) == '{"vertices": 3, "edges": [[0, 1], [1, 2]]}'
    labeled = comparability_graph(cx(2, (1, 2)))
    assert dumps(graph_to_obj(labeled)) == (
        '{"vertices": [[1], [2], [1, 2]], "edges": [[0, 2], [1, 2]]}'
    )


def test_graph_round_trip():
    rng = random.Random(149)
    for _ in range(40):
        g = helpers.random_graph(rng, rng.randint(0, 9), rng.random())
        assert graph_from_obj(json.loads(dumps(graph_to_obj(g)))) == g
    labeled = comparability_graph(cx(3, (1, 2), (3,)))
    assert graph_from_obj(json.loads(dumps(graph_to_obj(labeled)))) == labeled


def test_graph_from_obj_accepts_unsorted_edge_list():
    g = graph_from_obj({"vertices": 3, "edges": [[1, 2], [0, 1]]})
    assert g.edges == ((0, 1), (1, 2))


def test_graph_from_obj_rejects_malformed():
    for bad in [
        "graph",
        {"vertices": 3},
        {"edges": []},
        {"vertices": "three", "edges": []},
        {"vertices": 3, "edges": [[0]]},
        {"vertices": 3, "edges": [[0, 1, 2]]},
        {"vertices": 3, "edges": [[0, None]]},
        {"vertices": 3, "edges": [[1, 0]]},     # pair not ascending
        {"vertices": 3, "edges": [[0, 3]]},     # endpoint out of range
        {"vertices": 3, "edges": [[0, 1], [0, 1]]},
        {"vertices": [[1], [0]], "edges": []},  # label vertex below 1
    ]:
        with pytest.raises(ValueError):
            graph_from_obj(bad)


class _Pair(list):
    pass


@pytest.mark.parametrize("edges, bad", [
    ([[0]], [0]),
    ([[0, 1, 2]], [0, 1, 2]),
    ([[0, None]], [0, None]),
    (["ab"], "ab"),
    ([[0, 1.5]], [0, 1.5]),
    ([[True, 1]], [True, 1]),
    ([[0, 1], [0], [2.5, 1]], [0]),  # the first bad edge in list order
])
def test_graph_from_obj_names_the_first_bad_edge(edges, bad):
    with pytest.raises(ValueError) as info:
        graph_from_obj({"vertices": 3, "edges": edges})
    assert str(info.value) == f"edge {bad!r} must be a pair of vertex indices"


def test_graph_from_obj_takes_list_subclass_edges():
    g = graph_from_obj({"vertices": 3, "edges": [_Pair([1, 2]), [0, 1]]})
    assert g.edges == ((0, 1), (1, 2))


def test_graph_from_obj_caps_the_vertex_count():
    assert MAX_GRAPH_VERTICES == 4096
    assert graph_from_obj({"vertices": MAX_GRAPH_VERTICES, "edges": []}).vertex_count == 4096
    for vertices in (MAX_GRAPH_VERTICES + 1, 10**20, [[1]] * (MAX_GRAPH_VERTICES + 1)):
        with pytest.raises(GroundSetTooLarge):
            graph_from_obj({"vertices": vertices, "edges": []})


def test_reconstruction_report_shape():
    rep = reconstruct_from_comparability_graph(helpers.cycle_graph(6))
    obj = reconstruction_report_to_obj(rep)
    assert list(obj) == ["status", "complex", "orientations_tried", "both_admissible"]
    assert obj["status"] == "ok"
    assert obj["orientations_tried"] == 2
    assert obj["both_admissible"] is True
    assert complex_from_obj(obj["complex"]) == rep.complex
    failed = reconstruct_from_comparability_graph(helpers.cycle_graph(5))
    obj = reconstruction_report_to_obj(failed)
    assert obj == {
        "status": "not_orientable",
        "complex": None,
        "orientations_tried": 0,
        "both_admissible": False,
    }


def test_verification_report_shape():
    rep = verify_equivalences(2)
    obj = verification_report_to_obj(rep)
    assert list(obj) == ["universe_size", "pair_checks", "failures", "notes"]
    assert obj["universe_size"] == 2
    assert obj["pair_checks"] == 5
    assert obj["failures"] == []
    assert all(isinstance(t, str) for t in obj["notes"])


def test_generators_text():
    assert dumps(generators_to_obj(stanley_reisner_generators(TRI))) == (
        '{"sets": [[1, 2, 3]]}'
    )
    assert dumps(generators_to_obj([0])) == '{"sets": [[]]}'
    assert dumps(generators_to_obj([])) == '{"sets": []}'


def test_dumps_is_single_line():
    rng = random.Random(151)
    for _ in range(20):
        c = helpers.random_complex(rng, 8)
        text = dumps(complex_to_obj(c))
        assert "\n" not in text
        assert json.loads(text) == complex_to_obj(c)

"""Record semantics of the library's value types: equality, hash,
immutability, repr, copying, and the verification report's own lists."""

import copy
import pickle

import pytest

from barysub import (
    CanonicalForm,
    Component,
    LabeledGraph,
    ReconstructionReport,
    SimplicialComplex,
    VerificationReport,
    canonical_form,
    comparability_graph,
    complex_from_facets,
    reconstruct_from_comparability_graph,
)

EDGE = SimplicialComplex(2, (3,))


def _records():
    """One instance of each immutable record, with its field values."""
    g = LabeledGraph((2, 1), (1, 2))
    return [
        (SimplicialComplex(3, (4, 3)), (3, (4, 3), False)),
        (SimplicialComplex(2, (), True), (2, (), True)),
        (CanonicalForm(3, (1, 6)), (3, (1, 6), False)),
        (Component(EDGE, (2, 5)), (EDGE, (2, 5))),
        (g, ((2, 1), (1, 2))),
        (ReconstructionReport("ok", EDGE, 2, False, (0, 1)), ("ok", EDGE, 2, False, (0, 1))),
    ]


def test_records_compare_and_hash_by_class_and_fields():
    for record, values in _records():
        twin = type(record)(*values)
        assert twin == record and not twin != record and twin is not record
        assert hash(twin) == hash(record) == hash(values)
        assert record != values
    # a canonical form never equals a plain complex with the same fields
    form = CanonicalForm(3, (1, 6))
    plain = SimplicialComplex(3, (1, 6))
    assert form != plain and plain != form and len({form, plain}) == 2
    assert SimplicialComplex(2, ()) != SimplicialComplex(2, (), True)
    assert LabeledGraph((2, 1)) != LabeledGraph((2, 1), (1, 2))
    assert canonical_form(complex_from_facets(3, [[2, 3], [1]])) == form


def test_records_are_immutable():
    for record, values in _records():
        for name in (*type(record)._fields, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
        first = type(record)._fields[0]
        with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
            delattr(record, first)
        assert type(record)(*values) == record


def test_record_reprs_are_pinned():
    assert repr(SimplicialComplex(3, (4, 3))) == (
        "SimplicialComplex(ground_size=3, masks=(4, 3), void=False)")
    assert repr(canonical_form(complex_from_facets(3, [[1, 2], [3]]))) == (
        "CanonicalForm(ground_size=3, masks=(1, 6), void=False)")
    assert repr(complex_from_facets(3, [[1, 2], [3]]).connected_components()[1]) == (
        "Component(complex=SimplicialComplex(ground_size=1, masks=(1,), void=False), "
        "vertices=(3,))")
    g = comparability_graph(EDGE)
    assert repr(g) == "LabeledGraph(adj=(4, 4, 3), labels=(1, 2, 3))"
    assert repr(LabeledGraph((2, 1))) == "LabeledGraph(adj=(2, 1), labels=None)"
    assert repr(reconstruct_from_comparability_graph(g)) == (
        "ReconstructionReport(status='ok', complex=SimplicialComplex(ground_size=2, "
        "masks=(3,), void=False), orientations_tried=2, both_orientations_admissible=False, "
        "source_map=(0, 1))")
    assert repr(VerificationReport(3, 4)) == (
        "VerificationReport(universe_size=3, pair_checks=4, failures=[], notes=[])")


def test_records_copy_and_pickle_through_their_constructors():
    for record, _ in _records():
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record


def test_constructors_keep_their_keywords_and_defaults():
    assert SimplicialComplex(ground_size=2, masks=(3,)) == SimplicialComplex(2, (3,), False)
    assert LabeledGraph(adj=(2, 1)).labels is None
    report = ReconstructionReport(status="not_flag", complex=None, orientations_tried=0,
                                  both_orientations_admissible=False)
    assert report.source_map is None
    assert Component(complex=EDGE, vertices=(1, 2)).vertices == (1, 2)


def test_labeled_graph_caches_its_classes_beside_its_two_fields():
    g = LabeledGraph((2, 1))
    assert vars(g) == {"adj": (2, 1), "labels": None}
    classes = g.implication_classes
    assert g.implication_classes is classes
    assert set(vars(g)) == {"adj", "labels", "implication_classes"}
    # the cache is no field: it changes neither equality nor hash
    assert g == LabeledGraph((2, 1)) and hash(g) == hash(LabeledGraph((2, 1)))


def test_verification_reports_own_their_lists_and_take_assignment():
    a, b = VerificationReport(1, 0), VerificationReport(1, 0)
    assert a == b
    a.failures.append("x")
    a.notes.append("y")
    assert b.failures == [] and b.notes == [] and a != b
    a.pair_checks += 3
    assert a.pair_checks == 3
    assert VerificationReport(universe_size=2, pair_checks=1, failures=["f"], notes=["n"]) == (
        VerificationReport(2, 1, ["f"], ["n"]))
    with pytest.raises(TypeError):
        hash(a)

"""JSON wire formats. Every writer emits canonical, fully sorted output."""

from __future__ import annotations

import json

from .core import (SimplicialComplex, _generated_complex, _is_int, _mask_elements, _vertex_mask,
                   void_complex)
from .errors import GroundSetTooLarge
from .graphs import LabeledGraph
from .reconstruct import ReconstructionReport
from .verify import VerificationReport

# Most vertices a graph read from JSON may have; more raise
# GroundSetTooLarge. Graph operations keep one list entry and one bit mask
# per vertex, and the cost grows faster than the count: reconstructing an
# edgeless graph takes about 0.13 s at 4,096 vertices and 2.9 s at 65,536
# (Python 3.11, 2-CPU Linux host). Graphs built in the library, such as
# ``comparability_graph`` results, are not capped.
MAX_GRAPH_VERTICES = 4096


def complex_to_obj(cx: SimplicialComplex) -> dict:
    obj = {
        "ground_set": cx.ground_size,
        "facets": [list(_mask_elements(m)) for m in cx.masks],
    }
    if cx.void:
        obj["void"] = True
    return obj


def complex_from_obj(obj) -> SimplicialComplex:
    if not isinstance(obj, dict):
        raise ValueError("complex JSON must be an object")
    try:
        n = obj["ground_set"]
        facets = obj["facets"]
    except KeyError as exc:
        raise ValueError(f"complex JSON missing or malformed field: {exc}") from exc
    if not _is_int(n):
        raise ValueError(f"ground_set {n!r} must be an integer")
    if not isinstance(facets, list):
        raise ValueError("facets must be a list of vertex lists")
    void = obj.get("void", False)
    if not isinstance(void, bool):
        raise ValueError(f"void {void!r} must be true or false")
    if void:
        if facets:
            raise ValueError("void complex cannot list facets")
        return void_complex(n)
    return _generated_complex(n, [_list_mask(f) for f in facets])


def _list_mask(entries) -> int:
    if not isinstance(entries, list):
        raise ValueError(f"vertex set {entries!r} must be a list")
    return _vertex_mask(entries)


def labeling_to_obj(faces: tuple[int, ...]) -> dict:
    return {"vertices": [list(_mask_elements(f)) for f in faces]}


def graph_to_obj(g: LabeledGraph) -> dict:
    if g.labels is None:
        vertices = g.vertex_count
    else:
        vertices = [list(_mask_elements(lbl)) for lbl in g.labels]
    return {"vertices": vertices, "edges": [list(e) for e in g.edges]}


def graph_from_obj(obj) -> LabeledGraph:
    if not isinstance(obj, dict):
        raise ValueError("graph JSON must be an object")
    vertices = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise ValueError("graph JSON must carry an edge list")
    if _is_int(vertices):
        count = vertices
    elif isinstance(vertices, list):
        count = len(vertices)
    else:
        raise ValueError(f"vertices {vertices!r} must be a count or a list of face labels")
    if count > MAX_GRAPH_VERTICES:
        raise GroundSetTooLarge(
            f"graph with {count} vertices exceeds the {MAX_GRAPH_VERTICES}-vertex cap"
        )
    labels = None
    if not _is_int(vertices):
        labels = tuple(map(_list_mask, vertices))
    pairs = []
    for e in edges:
        if isinstance(e, list) and len(e) == 2:
            a, b = e
            if (type(a) is int or _is_int(a)) and (type(b) is int or _is_int(b)):
                pairs.append((a, b))
                continue
        raise ValueError(f"edge {e!r} must be a pair of vertex indices")
    return LabeledGraph(count, tuple(sorted(pairs)), labels)


def reconstruction_report_to_obj(rep: ReconstructionReport) -> dict:
    return {
        "status": rep.status,
        "complex": None if rep.complex is None else complex_to_obj(rep.complex),
        "orientations_tried": rep.orientations_tried,
        "both_admissible": rep.both_orientations_admissible,
    }


def verification_report_to_obj(rep: VerificationReport) -> dict:
    return {
        "universe_size": rep.universe_size,
        "pair_checks": rep.pair_checks,
        "failures": list(rep.failures),
        "notes": list(rep.notes),
    }


def generators_to_obj(sets: list[int]) -> dict:
    return {"sets": [list(_mask_elements(s)) for s in sets]}


_encode = json.JSONEncoder(separators=(", ", ": ")).encode


def dumps(obj) -> str:
    """Canonical single-line JSON text (insertion-ordered keys, no floats)."""
    return _encode(obj)


"""JSON wire formats. Every writer emits canonical, fully sorted output.

The writers return the JSON text itself, byte for byte what
``json.dumps`` with ``(", ", ": ")`` separators gives for the object form
(``{"ground_set": n, "facets": [[1, 2], ...]}`` and so on). Vertex lists are
rendered from masks a byte at a time; scalars and edge pairs go through
:func:`dumps`.
"""

from __future__ import annotations

import functools
import json

from .core import (MAX_GROUND, SimplicialComplex, _generated_complex, _is_int, _vertex_mask,
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
    if count < 0:
        raise ValueError("vertex count must be >= 0")
    labels = None
    if not _is_int(vertices):
        labels = tuple(map(_list_mask, vertices))
    # the first bad edge in list order is named as the JSON wrote it
    adj = [0] * count
    for e in edges:
        if isinstance(e, list) and len(e) == 2:
            a, b = e
            if (type(a) is int or _is_int(a)) and (type(b) is int or _is_int(b)):
                if not 0 <= a < b < count:
                    raise ValueError(f"edge {e!r} invalid for {count} vertices")
                if adj[a] >> b & 1:
                    raise ValueError(f"edge {e!r} listed twice")
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                continue
        raise ValueError(f"edge {e!r} must be a pair of vertex indices")
    return LabeledGraph(tuple(adj), labels)


_encode = json.JSONEncoder(separators=(", ", ": ")).encode


def dumps(obj) -> str:
    """Canonical single-line JSON text (insertion-ordered keys, no floats)."""
    return _encode(obj)


# _BYTE_TEXT[k][b] is the text of the vertices that byte b sets in byte k of
# a mask, each after ", ": ", 1, 2, 5", or "" for b = 0. Built by doubling,
# as core._BYTE_ELEMENTS is: adding vertex v appends, to the texts so far,
# the same texts followed by ", v".
_BYTE_TEXT = tuple(
    functools.reduce(lambda t, s: t + [e + s for e in t], [f", {v}" for v in range(base, base + 8)],
                     [""])
    for base in range(1, MAX_GROUND, 8))


def _sets_text(masks) -> str:
    # One vertex list per mask: its 8 byte texts joined, less the first ", ".
    # Masks are below 2**64; a wider one raises OverflowError.
    return "[" + ", ".join([
        "[" + "".join(map(list.__getitem__, _BYTE_TEXT, m.to_bytes(8, "little")))[2:] + "]"
        for m in masks]) + "]"


def complex_text(cx: SimplicialComplex) -> str:
    void = ', "void": true' if cx.void else ""
    return f'{{"ground_set": {cx.ground_size}, "facets": {_sets_text(cx.masks)}{void}}}'


def generators_text(sets: list[int]) -> str:
    return f'{{"sets": {_sets_text(sets)}}}'


def labeling_text(faces: tuple[int, ...]) -> str:
    return f'{{"vertices": {_sets_text(faces)}}}'


def graph_text(g: LabeledGraph) -> str:
    vertices = g.vertex_count if g.labels is None else _sets_text(g.labels)
    return f'{{"vertices": {vertices}, "edges": {dumps(g.edges)}}}'


def reconstruction_report_text(rep: ReconstructionReport) -> str:
    cx = "null" if rep.complex is None else complex_text(rep.complex)
    return (f'{{"status": {dumps(rep.status)}, "complex": {cx}, '
            f'"orientations_tried": {rep.orientations_tried}, '
            f'"both_admissible": {dumps(rep.both_orientations_admissible)}}}')


def verification_report_text(rep: VerificationReport) -> str:
    return dumps({
        "universe_size": rep.universe_size,
        "pair_checks": rep.pair_checks,
        "failures": list(rep.failures),
        "notes": list(rep.notes),
    })

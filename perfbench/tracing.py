"""Spans around the library's layer functions, installed from outside.

``Tracer.install`` replaces each listed function by a wrapper under every
name that refers to it in the ``barysub`` modules, and the listed
``SimplicialComplex`` methods on the class; ``uninstall`` puts them back.
Nothing in the library's files changes, and nothing is wrapped while no
tracer is installed. A span is (layer, start, end, parent span, op id);
spans stay in memory until ``dump``. Span times are raw seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# Layer name -> (module, attribute) pairs traced under that name. A module
# of None means a method of barysub.core.SimplicialComplex.
LAYERS = {
    "cli.main": [("barysub.cli", "main")],
    "jsonio.read": [("barysub.jsonio", "complex_from_obj"), ("barysub.jsonio", "graph_from_obj")],
    "jsonio.write": [("barysub.jsonio", "dumps")],
    "derived.barycentric_subdivision": [("barysub.derived", "barycentric_subdivision")],
    "derived.alexander_dual": [("barysub.derived", "alexander_dual")],
    "derived.complement_complex": [("barysub.derived", "complement_complex")],
    "graphs.comparability_graph": [("barysub.graphs", "comparability_graph")],
    "graphs.transitive_orientations": [("barysub.graphs", "transitive_orientations")],
    "graphs.clique_complex": [("barysub.graphs", "clique_complex")],
    "reconstruct.reconstruct_from_comparability_graph": [
        ("barysub.reconstruct", "reconstruct_from_comparability_graph")],
    "reconstruct.reconstruct_from_subdivision": [
        ("barysub.reconstruct", "reconstruct_from_subdivision")],
    "reconstruct.poset_from_orientation": [("barysub.reconstruct", "poset_from_orientation")],
    "reconstruct.complex_from_face_poset": [("barysub.reconstruct", "complex_from_face_poset")],
    "core.minimal_nonfaces": [(None, "minimal_nonfaces")],
    "core.faces": [(None, "faces")],
    "core.canonical": [("barysub.core", "canonical_form"), ("barysub.core", "are_isomorphic")],
    "verify.enumerate_complexes": [("barysub.verify", "enumerate_complexes")],
    "verify.verify_subdivision_rigidity": [("barysub.verify", "verify_subdivision_rigidity")],
    "verify.verify_equivalences": [("barysub.verify", "verify_equivalences")],
}

COUNTERS = (
    "graphs.orientations_returned",
    "core.minimal_nonfaces.sets_returned",
    "reconstruct.complex_from_face_poset.accepted",
    "core.canonical.cache_hits",
    "core.canonical.cache_misses",
)

# Counters fed from a layer's return value.
_RESULT_COUNTERS = {
    "graphs.transitive_orientations": ("graphs.orientations_returned", len),
    "core.minimal_nonfaces": ("core.minimal_nonfaces.sets_returned", len),
    "reconstruct.complex_from_face_poset": ("reconstruct.complex_from_face_poset.accepted",
                                            lambda _: 1),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.names = list(LAYERS)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: int, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = _RESULT_COUNTERS.get(self.names[layer])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op)
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function under each name that refers to it."""
        from barysub.core import SimplicialComplex

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "barysub" or k.startswith("barysub."))]
        for layer, name in enumerate(self.names):
            for module, attr in LAYERS[name]:
                if module is None:
                    owners = [(SimplicialComplex, attr, vars(SimplicialComplex)[attr])]
                else:
                    fn = getattr(sys.modules[module], attr)
                    owners = [(mod, key, fn) for mod in modules
                              for key, value in vars(mod).items() if value is fn]
                wrapped = self.wrap(layer, owners[0][2])
                for owner, key, fn in owners:
                    setattr(owner, key, wrapped)
                    self._patched.append((owner, key, fn))

    def uninstall(self) -> None:
        """Put back every function install replaced."""
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    def note_cache(self, info) -> None:
        """Add one op's canonical-form cache statistics."""
        self.counts["core.canonical.cache_hits"] += info.hits
        self.counts["core.canonical.cache_misses"] += info.misses

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"layers": self.names, "counts": self.counts}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: Path):
    """Read a dump back as (layer names, counts, spans)."""
    with open(path, "r", encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    return head["layers"], head["counts"], spans


def summarize(names: list[str], counts: dict, spans, passes: int) -> dict[str, float]:
    """Per-pass calls, total and self seconds per layer, plus counts and ratios.

    Self time is a span's duration minus the durations of its direct
    children; spans nest because one op runs at a time on one thread.
    """
    children = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    for i, (layer, start, end, _, _) in enumerate(spans):
        calls[layer] += 1
        total[layer] += end - start
        own[layer] += end - start - children[i]
    out: dict[str, float] = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = calls[k] / passes
        out[f"{name}.total_s"] = total[k] / passes
        out[f"{name}.self_s"] = own[k] / passes
    out["graphs.orientations_returned"] = counts["graphs.orientations_returned"] / passes
    out["core.minimal_nonfaces.sets_returned"] = (
        counts["core.minimal_nonfaces.sets_returned"] / passes)
    posets = calls[names.index("reconstruct.complex_from_face_poset")]
    accepted = counts["reconstruct.complex_from_face_poset.accepted"]
    out["reconstruct.face_poset_accept_ratio"] = accepted / posets if posets else 0.0
    lookups = counts["core.canonical.cache_hits"] + counts["core.canonical.cache_misses"]
    out["core.canonical.cache_hit_ratio"] = (
        counts["core.canonical.cache_hits"] / lookups if lookups else 0.0)
    out["core.canonical.cache_lookups"] = lookups / passes
    return out

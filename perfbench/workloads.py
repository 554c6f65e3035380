"""Seeded input generation and per-op output checks for the four workloads.

``build(workload, seed, root)`` writes the inputs of one workload under
``root/in`` and returns its op list. An op is one CLI command line; its
outputs go under ``out/<pass>`` and are read back by its ``check``. The same
workload and seed always give byte-identical inputs and the same op list.
Checks compare against ``oracles`` only, never against the library.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("roundtrip", "reject", "dual", "verify")

DEFAULT_BUDGET_S = 20.0
VERIFY_BUDGET_S = 60.0

# The 8 complexes of tests/fixtures/complexes, copied so the benchmark does
# not change when the test fixtures do.
FIXTURES = {
    "disconnected": (4, [(1, 2), (3, 4)]),
    "edge": (2, [(1, 2)]),
    "path4": (4, [(1, 2), (2, 3), (3, 4)]),
    "point": (1, [(1,)]),
    "simplex4": (4, [(1, 2, 3, 4)]),
    "star": (4, [(1, 2), (1, 3), (1, 4)]),
    "triangle_boundary": (3, [(1, 2), (1, 3), (2, 3)]),
    "two_triangles": (4, [(1, 2, 3), (2, 3, 4)]),
}

Check = Callable[[int, Path], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI call. ``argv`` holds ``{out}`` where the pass directory goes."""

    id: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Check
    budget_s: float = DEFAULT_BUDGET_S


def dumps(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def _load(out: Path, name: str):
    with open(out / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _facet_sets(obj) -> set[frozenset[int]]:
    return {frozenset(f) for f in obj["facets"]}


def _skeleton(n: int, i: int) -> list[tuple[int, ...]]:
    return [tuple(c) for c in combinations(range(1, n + 1), i + 1)]


class _Writer:
    """Writes input files and collects ops for one workload."""

    def __init__(self, root: Path):
        self.indir = root / "in"
        self.indir.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []

    def write(self, name: str, obj) -> str:
        (self.indir / name).write_text(dumps(obj) + "\n", encoding="utf-8")
        return f"in/{name}"

    def op(self, op_id: str, argv: list[str], outputs: list[str], check: Check,
           budget_s: float = DEFAULT_BUDGET_S) -> None:
        self.ops.append(Op(op_id, tuple(argv), tuple(outputs), check, budget_s))


# --- roundtrip ---------------------------------------------------------


def _random_complex(rng: random.Random, n_faces: int) -> tuple[int, list[tuple[int, ...]]]:
    """A complex using every vertex, drawn until it has exactly n_faces faces."""
    while True:
        n = rng.randint(3, 7)
        k = rng.randint(2, 5)
        facets = [rng.sample(range(1, n + 1), rng.randint(1, 3)) for _ in range(k)]
        used = {v for f in facets for v in f}
        for v in range(1, n + 1):
            if v not in used:
                facets[rng.randrange(k)].append(v)
        facets = oracles.normalize(facets)
        if len(oracles.faces(facets)) == n_faces:
            return n, facets


def _roundtrip_members(rng: random.Random, n_random: int):
    """(name, n, facets, full_chain) for every member, ladders first."""
    members = [(f"fix_{k}", n, oracles.normalize(f), True) for k, (n, f) in FIXTURES.items()]
    for n in (4, 5):  # simplex boundaries: both orientations rebuild
        members.append((f"bd{n - 1}", n, _skeleton(n, n - 2), True))
    members.append(("delta4", 5, [tuple(range(1, 6))], True))
    for n in (4, 5, 6):
        members.append((f"sk1_{n - 1}", n, _skeleton(n, 1), True))
    members.append(("sk2_4", 5, _skeleton(5, 2), True))
    # Comparability-graph-only rungs: the flag test on their subdivisions
    # takes seconds to minutes per call, the graph path does not.
    members.append(("bd5", 6, _skeleton(6, 4), False))
    members.append(("delta5", 6, [tuple(range(1, 7))], False))
    members.append(("sk3_5", 6, _skeleton(6, 3), False))
    members.append(("sk2_5", 6, _skeleton(6, 2), False))
    members.append(("sk2_6", 7, _skeleton(7, 2), False))
    for i in range(n_random):
        n, facets = _random_complex(rng, 4 + i % 9)
        members.append((f"rand{i:03d}", n, facets, True))
    return members


def _check_iso(out_name: str, n: int, facets) -> Check:
    def check(code: int, out: Path) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        got = _load(out, out_name)
        if got.get("void") or not oracles.complexes_isomorphic(
            n, facets, got["ground_set"], got["facets"]
        ):
            return "reconstruction is not isomorphic to the input"
        return None

    return check


def _roundtrip(w: _Writer, rng: random.Random) -> None:
    for name, n, facets, full_chain in _roundtrip_members(rng, 120):
        src = w.write(f"{name}.json", {"ground_set": n, "facets": [list(f) for f in facets]})
        face_list = oracles.faces(facets)
        if full_chain:
            chains = oracles.subdivision_facets(facets)
            pairs = oracles.incomparable_pairs(facets)

            def check_sub(code, out, name=name, k=len(face_list), chains=chains):
                got = _load(out, f"{name}.sub.json")
                if code != 0 or got["ground_set"] != k or _facet_sets(got) != chains:
                    return "subdivision differs from the maximal chains of the face poset"
                return None

            def check_nonfaces(code, out, name=name, pairs=pairs):
                sets = [frozenset(s) for s in _load(out, f"{name}.nf.json")["sets"]]
                if code != 0 or any(len(s) != 2 for s in sets):
                    return "subdivision has a minimal nonface that is not a pair"
                if set(sets) != pairs or len(sets) != len(pairs):
                    return "minimal nonfaces differ from the incomparable face pairs"
                return None

            w.op(f"{name}/subdivide", ["subdivide", src, "-o", f"{{out}}/{name}.sub.json"],
                 [f"{name}.sub.json"], check_sub)
            w.op(f"{name}/nonfaces", ["nonfaces", f"{{out}}/{name}.sub.json", "-o",
                                      f"{{out}}/{name}.nf.json"],
                 [f"{name}.nf.json"], check_nonfaces)
            w.op(f"{name}/reconstruct-sub", ["reconstruct-sub", f"{{out}}/{name}.sub.json", "-o",
                                             f"{{out}}/{name}.rsub.json"],
                 [f"{name}.rsub.json"], _check_iso(f"{name}.rsub.json", n, facets))
        edges = oracles.comparability_edges(face_list)
        labels = [list(f) for f in face_list]

        def check_graph(code, out, name=name, labels=labels, edges=edges):
            got = _load(out, f"{name}.cg.json")
            if code != 0 or got["vertices"] != labels or [tuple(e) for e in got["edges"]] != edges:
                return "comparability graph differs from the face-inclusion graph"
            return None

        w.op(f"{name}/comp-graph", ["comp-graph", src, "-o", f"{{out}}/{name}.cg.json"],
             [f"{name}.cg.json"], check_graph)
        w.op(f"{name}/reconstruct", ["reconstruct", f"{{out}}/{name}.cg.json", "-o",
                                     f"{{out}}/{name}.rec.json"],
             [f"{name}.rec.json"], _check_iso(f"{name}.rec.json", n, facets))


# --- reject ------------------------------------------------------------


def _cycle(n: int) -> list[tuple[int, int]]:
    return sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def _random_poset_graph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Comparability graph of a random 4-level poset on 12 elements.

    Each element above the bottom level covers two random elements of the
    level below. No orientation of such a graph is a face poset: a chain of
    4 faces sits in a facet with 2^4 - 1 = 15 > 12 faces.
    """
    height, width = 4, 3
    levels = [range(lvl * width, (lvl + 1) * width) for lvl in range(height)]
    below: dict[int, set[int]] = {v: set() for v in range(height * width)}
    for lvl in range(1, height):
        for v in levels[lvl]:
            for c in rng.sample(levels[lvl - 1], 2):
                below[v] |= {c} | below[c]
    edges = sorted((min(a, b), max(a, b)) for a in below for b in below[a])
    return height * width, edges


def _toggled_graph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A face-poset comparability graph with one vertex pair toggled."""
    _, facets = _random_complex(rng, rng.randint(6, 12))
    face_list = oracles.faces(facets)
    edges = set(oracles.comparability_edges(face_list))
    i, j = sorted(rng.sample(range(len(face_list)), 2))
    edges ^= {(i, j)}
    return len(face_list), sorted(edges)


def _non_flag_complex(rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    """A small complex with a hollow triangle planted in it."""
    while True:
        n = rng.randint(4, 7)
        facets = [rng.sample(range(1, n + 1), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        a, b, c = rng.sample(range(1, n + 1), 3)
        facets += [(a, b), (b, c), (a, c)]
        used = {v for f in facets for v in f}
        facets += [(v,) for v in range(1, n + 1) if v not in used]
        facets = oracles.normalize(facets)
        if oracles.hollow_triangle(facets):
            return n, facets


def _check_rejected(name: str, statuses: tuple[str, ...], vertices: int, edges,
                    tried: int | None = None) -> tuple[Check, Check]:
    """Checks for `reconstruct --report` and `check-comparability` on one graph.

    An input whose rejection is not certified in advance may be accepted;
    then the rebuilt complex's comparability graph must match the input.
    """

    def accepted_ok(cx) -> str | None:
        face_list = oracles.faces(cx["facets"])
        if not oracles.graphs_isomorphic(
            len(face_list), oracles.comparability_edges(face_list), vertices, edges
        ):
            return "accepted, but the rebuilt complex has another comparability graph"
        return None

    def check_report(code, out):
        rep = _load(out, f"{name}.rep.json")
        if code == 0 and rep["status"] == "ok" and "ok" in statuses:
            return accepted_ok(rep["complex"])
        if code != 1 or rep["status"] not in statuses or rep["complex"] is not None:
            return f"exit {code} with status {rep['status']!r}, expected 1 with {statuses}"
        if tried is not None and rep["orientations_tried"] != tried:
            return f"tried {rep['orientations_tried']} orientations, expected {tried}"
        return None

    def check_answer(code, out):
        got = _load(out, f"{name}.cc.json")
        accepted = {"is_comparability_graph": True, "status": "ok"}
        if code == 0 and got == accepted and "ok" in statuses:
            return None
        if code != 1 or got["is_comparability_graph"] or got["status"] not in statuses:
            return f"exit {code} with {got!r}, expected a rejection in {statuses}"
        return None

    return check_report, check_answer


def _reject(w: _Writer, rng: random.Random) -> None:
    graphs = []  # (name, vertices, edges, allowed statuses, orientations tried)
    for n in range(5, 9):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append((f"K{n}", n, edges, ("not_face_poset",), math.factorial(n)))
    graphs.append(("c3", 3, _cycle(3), ("not_face_poset",), 6))
    graphs.append(("c4", 4, _cycle(4), ("not_face_poset",), 2))
    for n in range(5, 42, 2):
        graphs.append((f"c{n}", n, _cycle(n), ("not_orientable",), 0))
    for i in range(40):
        v, edges = _random_poset_graph(rng)
        graphs.append((f"poset{i:02d}", v, edges, ("not_face_poset",), None))
    for i in range(40):
        v, edges = _toggled_graph(rng)
        statuses = ("not_orientable", "not_face_poset", "ok")
        graphs.append((f"toggle{i:02d}", v, edges, statuses, None))
    for name, v, edges, statuses, tried in graphs:
        src = w.write(f"{name}.json", {"vertices": v, "edges": [list(e) for e in edges]})
        check_report, check_answer = _check_rejected(name, statuses, v, edges, tried)
        w.op(f"{name}/reconstruct", ["reconstruct", "--report", src, "-o",
                                     f"{{out}}/{name}.rep.json"],
             [f"{name}.rep.json"], check_report)
        w.op(f"{name}/check-comparability", ["check-comparability", src, "-o",
                                             f"{{out}}/{name}.cc.json"],
             [f"{name}.cc.json"], check_answer)
    for i in range(30):
        name = f"nonflag{i:02d}"
        n, facets = _non_flag_complex(rng)
        src = w.write(f"{name}.json", {"ground_set": n, "facets": [list(f) for f in facets]})

        def check_not_flag(code, out, name=name):
            rep = _load(out, f"{name}.rep.json")
            if code != 1 or rep["status"] != "not_flag" or rep["complex"] is not None:
                return f"exit {code} with status {rep['status']!r}, expected 1 with not_flag"
            return None

        w.op(f"{name}/reconstruct-sub", ["reconstruct-sub", "--report", src, "-o",
                                         f"{{out}}/{name}.rep.json"],
             [f"{name}.rep.json"], check_not_flag)


# --- dual --------------------------------------------------------------

# Sizes of the vertex sets each facet misses. The sets are disjoint, so the
# minimal nonfaces are all ways to pick one vertex from each set, and each
# shape fixes their number (1 to 256) whatever the seed.
DUAL_SHAPES = ((1, 1), (2, 3), (1, 2, 3), (2, 2, 2, 2), (4, 4, 4), (1, 2, 3, 4),
               (3, 3, 3, 3), (2, 2, 2, 2, 2, 2), (4, 4, 4, 4), (3, 3, 3, 3, 3))
DUAL_GROUND = (16, 24, 32, 40, 48, 56, 64)


def _dense_complex(rng: random.Random, n: int, shape) -> list[frozenset[int]]:
    """Disjoint missing-vertex sets of a complex whose facets each omit a few vertices."""
    chosen = rng.sample(range(1, n + 1), sum(shape))
    out, k = [], 0
    for size in shape:
        out.append(frozenset(chosen[k:k + size]))
        k += size
    return out


def _dual(w: _Writer, rng: random.Random) -> None:
    for n in DUAL_GROUND:
        for s, shape in enumerate(DUAL_SHAPES):
            name = f"n{n}s{s}"
            missing = _dense_complex(rng, n, shape)
            ground = frozenset(range(1, n + 1))
            facets = oracles.normalize(ground - m for m in missing)
            src = w.write(f"{name}.json", {"ground_set": n, "facets": [list(f) for f in facets]})
            dual_facets = {ground - t for t in oracles.minimal_transversals(missing)}
            gens = set(missing)

            def check_dual(code, out, name=name, n=n, dual_facets=dual_facets):
                got = _load(out, f"{name}.d.json")
                if code != 0 or got["ground_set"] != n or _facet_sets(got) != dual_facets:
                    return "dual facets are not the complements of the minimal nonfaces"
                return None

            def check_gens(out_name, code, out, gens=gens):
                sets = _load(out, out_name)["sets"]
                if code != 0 or {frozenset(s) for s in sets} != gens or len(sets) != len(gens):
                    return f"{out_name} differs from the facet complements"
                return None

            def check_complement(code, out, name=name, gens=gens):
                got = _load(out, f"{name}.comp.json")
                if code != 0 or _facet_sets(got) != gens:
                    return "complement facets are not the facet complements"
                return None

            def check_involution(code, out, name=name, n=n, facets=facets):
                got = _load(out, f"{name}.dd.json")
                if code != 0 or got != {"ground_set": n, "facets": [list(f) for f in facets]}:
                    return "dual of the dual is not the input"
                return None

            w.op(f"{name}/dual", ["dual", src, "-o", f"{{out}}/{name}.d.json"],
                 [f"{name}.d.json"], check_dual)
            w.op(f"{name}/sr-gens", ["sr-gens", f"{{out}}/{name}.d.json", "-o",
                                     f"{{out}}/{name}.srd.json"],
                 [f"{name}.srd.json"],
                 lambda code, out, f=f"{name}.srd.json", c=check_gens: c(f, code, out))
            w.op(f"{name}/complement", ["complement", src, "-o", f"{{out}}/{name}.comp.json"],
                 [f"{name}.comp.json"], check_complement)
            w.op(f"{name}/facet-gens", ["facet-gens", f"{{out}}/{name}.comp.json", "-o",
                                        f"{{out}}/{name}.fg.json"],
                 [f"{name}.fg.json"],
                 lambda code, out, f=f"{name}.fg.json", c=check_gens: c(f, code, out))
            w.op(f"{name}/dual-dual", ["dual", f"{{out}}/{name}.d.json", "-o",
                                       f"{{out}}/{name}.dd.json"],
                 [f"{name}.dd.json"], check_involution)


# --- verify ------------------------------------------------------------


def _check_verify(out_name: str, universe: int, pairs: int) -> Check:
    def check(code, out):
        rep = _load(out, out_name)
        if code != 0 or rep["failures"]:
            return f"exit {code} with {len(rep['failures'])} failures"
        if (rep["universe_size"], rep["pair_checks"]) != (universe, pairs):
            return (f"universe {rep['universe_size']} with {rep['pair_checks']} checks, "
                    f"expected {universe} with {pairs}")
        return None

    return check


def _verify(w: _Writer, rng: random.Random) -> None:
    # Universe sizes up to isomorphism: 20 at n = 4, 180 at n = 5. Rigidity
    # checks every unordered pair plus two checks per member; the
    # equivalence harness does the same at n = 4.
    w.op("verify5-2.2", ["verify", "--max-vertices", "5", "--theorem", "2.2", "-o",
                         "{out}/v5.json"],
         ["v5.json"], _check_verify("v5.json", 180, math.comb(180, 2) + 2 * 180), VERIFY_BUDGET_S)
    w.op("verify4", ["verify", "--max-vertices", "4", "-o", "{out}/v4.json"],
         ["v4.json"], _check_verify("v4.json", 40, 2 * (math.comb(20, 2) + 2 * 20)),
         VERIFY_BUDGET_S)


_BUILDERS = {"roundtrip": _roundtrip, "reject": _reject, "dual": _dual, "verify": _verify}


def build(workload: str, seed: int, root: Path) -> list[Op]:
    """Write the inputs of one workload under root/in and return its ops."""
    w = _Writer(root)
    _BUILDERS[workload](w, random.Random(f"{workload}:{seed}"))
    return w.ops

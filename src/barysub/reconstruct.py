"""Recover a complex from its barycentric subdivision or comparability graph.

The comparability graph of a complex's face poset determines the complex up
to isomorphism: orient the graph transitively, read each vertex as the set
of sources below it, and check that those sets reproduce a face family.
Every successful orientation yields the same complex up to isomorphism, so
the reconstruction is well defined; the report says how many orientations
were tried and whether more than one of them succeeded. Among connected
complexes on at most five vertices that happens exactly for simplex
boundaries and cycles, whose reversed face poset is again a face poset, and
for full simplices on three or more vertices. There the whole reversal
fails, but reversing the order below the top face succeeds, since the
proper faces form a simplex boundary.

Graphs and posets live on int bit masks. A graph is its adjacency masks
(``LabeledGraph.adj``); it splits into components by OR-ing them, each
component's subgraph is its vertices' masks re-indexed, with no edge list
built. An orientation and the order it reads as are one tuple of
out-masks, ``up[v]`` holding the elements above v, so the orientation
search hands each one to the face-poset check as it is, and the
source-set images and the face-family check are word operations on
Python integers, with no cap on the element count.

A connected face-poset graph has exactly 1, 2 or 4 transitive
orientations: 1 for a point, 4 for a simplex on three or more vertices and
2 otherwise. Let G be the face-poset graph of a connected complex Δ. Every
module M of G with 2 <= |M| < |V(G)| is a set of vertex faces {v} (false
twins) or, when Δ is the simplex on W, the set of every face but W:
  (a) Let M hold a face F with |F| >= 2. Were every {v} in F outside M,
      each would see F and so all of M, and every member would contain F;
      a second member G has some w in G - F, and {w} sees G but not F, so
      {w} is a member not containing F. So some {v} in F is in M. Then
      every {u} in F is in M, or it would see F but not {v}, and so is
      every nonempty H in F, or it would see F but miss some {v} in F - H.
      So M is the face poset of a subcomplex Γ on a vertex set W, |W| >= 2.
  (b) A face outside M sees all of M exactly when it contains W and none
      of it exactly when it misses W, so no face outside Γ meets W without
      containing it.
  (c) If no face outside Γ meets W, connectedness gives Γ = Δ and M is
      all of V(G). Otherwise W is a face, no face X contains W properly
      (for w in W and x in X - W, the face {w, x} would break (b)), and no
      edge leaves W, so Δ is the simplex on W and M its proper faces.
Gallai's product over the modular decomposition, 2 per prime node and k!
per series node of k children (Gallai 1967; McConnell & Spinrad 1999),
then gives the count. When Δ is not a simplex the root is prime, since a
series root needs a face comparable to every face, and its other nodes
are parallel, so the count is 2. The simplex on W with |W| >= 3 is a
series node {W} + ∂W, giving 2!, over the prime boundary, giving 2 more,
so 4. A point gives 1 and an edge 2.

The implication classes (Golumbic 1980, ch. 5) tell at once whether the
count is at most 4. By Gallai, the edges between the children of a prime
node form one class and those between two children of a series node
another, so a comparability graph with p prime nodes and series nodes of
k_1, k_2, ... children has p + Σ C(k_i, 2) classes and 2^p × Π k_i!
orientations:
  (d) With at most two classes every k_i is 2, so the count is
      2^classes <= 4. With three or more, some k_i >= 3 gives a factor
      k_i! >= 6, or else the count is 2^classes >= 8.
So a face-poset component has at most two classes, and a component whose
classes are None (no orientation) or more than two (more than 4) is
refused at once; the count, read off the same classes by
``graphs.count_transitive_orientations``, is taken only to report its
orientations tried. Any other component has exactly 2^classes <= 4
orientations, so by (d) every side choice of its classes is transitive,
and ``transitive_orientations`` emits each one with no triangle test.
"""

from __future__ import annotations

from .core import (
    MAX_GROUND,
    SimplicialComplex,
    _antichain_complex,
    _mask_elements,
    _Record,
    canonical_form,
    induced_components,
)
from .errors import EmptyInput, GroundSetTooLarge, NotAFacePoset, NotTransitive
from .graphs import (
    LabeledGraph,
    _maximal_cliques,
    count_transitive_orientations,
    one_skeleton_graph,
    transitive_orientations,
)

STATUS_OK = "ok"
STATUS_NOT_ORIENTABLE = "not_orientable"
STATUS_NOT_FACE_POSET = "not_face_poset"
STATUS_NOT_FLAG = "not_flag"


def poset_from_orientation(g: LabeledGraph, up: tuple[int, ...]) -> tuple[int, ...]:
    """Check that out-masks ``up`` orient g transitively, and return them.

    ``up[v]`` holds the heads of the arcs leaving v. Raises ValueError
    unless every edge of g is directed exactly once and no non-edge is,
    and NotTransitive unless ``up[h]`` lies in ``up[t]`` for every arc
    t->h. That also rules out directed cycles: around one, the first vertex
    would end up above itself.
    """
    adj = g.adj
    if len(up) != len(adj) or any(m & ~a for m, a in zip(up, adj)):
        raise ValueError("orientation does not direct the graph's edges")
    down = [0] * len(up)
    for t, m in enumerate(up):
        for h in _mask_elements(m):
            down[h - 1] |= 1 << t
    if any(m & d or m | d != a for m, d, a in zip(up, down, adj)):
        raise ValueError("orientation does not direct the graph's edges")
    for t, m in enumerate(up):
        for h in _mask_elements(m):
            missing = up[h - 1] & ~m
            if missing:
                c = (missing & -missing).bit_length() - 1
                raise NotTransitive(f"{t}->{h - 1}->{c} without {t}->{c}")
    return up


def complex_from_face_poset(up: tuple[int, ...]) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """Rebuild the complex whose face poset has up-sets ``up``, or raise NotAFacePoset.

    ``up[k]`` is the mask of the elements above element k; a mask with a
    bit at or past the element count, or a negative one, raises ValueError.
    Sources become the ground vertices, numbered 1.. in ascending element
    order; every element maps to the bit mask of sources at or below it.
    The map must be injective and must turn the order into inclusion, which
    makes the sink images an antichain. The images are then the full face
    family of the complex whose facets are the sink images exactly when
    every element lies at or below a sink and every image with two or more
    sources stays an image after deleting any one of them. The checks are
    word operations on Python ints with no cap on the sources, O(elements x
    sources) of them. Once they pass, the complex is built, and a face poset
    with more than 64 sources raises GroundSetTooLarge there: it is a face
    poset, of a complex over the ground cap. Returns the complex and the
    sources' element indices.
    """
    n = len(up)
    heads = 0
    for m in up:
        heads |= m
    if heads < 0 or heads >> n:
        raise ValueError(f"up masks must be nonnegative with no bit at or past {n}")
    src = [k for k in range(n) if not (heads >> k) & 1]
    if not src:
        raise NotAFacePoset("poset has no minimal elements")
    # holders[i]: the elements whose image contains source i.
    holders = [up[s] | 1 << s for s in src]
    image = [0] * n
    for i, m in enumerate(holders):
        bit = 1 << i
        for k in _mask_elements(m):
            image[k - 1] |= bit
    images = set(image)
    if len(images) != n:
        raise NotAFacePoset("source down-sets are not injective")
    everyone = (1 << n) - 1
    for k in range(n):
        # the elements whose image contains image[k] must be those above k
        above = everyone
        for i in _mask_elements(image[k]):
            above &= holders[i - 1]
        if (above ^ up[k]) & ~(1 << k):
            raise NotAFacePoset("order does not match down-set inclusion")
    sinks = [k for k in range(n) if not up[k]]
    sink_bits = sum(1 << t for t in sinks)
    for k in range(n):
        m = image[k]
        # below no sink (only a self-loop can cause that): in no facet
        if up[k] and not up[k] & sink_bits:
            raise NotAFacePoset("down-sets do not form the full face family")
        if m & (m - 1):
            for i in _mask_elements(m):
                if m ^ (1 << (i - 1)) not in images:
                    raise NotAFacePoset("down-sets do not form the full face family")
    if len(src) > MAX_GROUND:
        raise GroundSetTooLarge(f"face poset has {len(src)} minimal elements, cap is {MAX_GROUND}")
    cx = _antichain_complex(len(src), [image[t] for t in sinks])
    return cx, tuple(src)


class ReconstructionReport(_Record):
    """Outcome of a reconstruction attempt.

    ``status`` is "ok", "not_orientable", "not_face_poset" or "not_flag";
    ``complex`` is the recovered complex when ok, else None;
    ``orientations_tried`` counts the transitive orientations examined over
    all components. For a component the count refuses, the orientations
    are counted from the implication classes, not enumerated; the number is
    the same, since each of them would fail the face-poset check.
    ``both_orientations_admissible`` says whether some
    component admitted at least two successful orientations; they rebuild
    isomorphic complexes, and often equal ones.
    ``source_map[i-1]`` is the input-graph vertex that became ground
    vertex i.
    """

    __slots__ = _fields = ("status", "complex", "orientations_tried",
                           "both_orientations_admissible", "source_map")

    def __init__(self, status: str, complex: SimplicialComplex | None, orientations_tried: int,
                 both_orientations_admissible: bool, source_map: tuple[int, ...] | None = None):
        self._store(status, complex, orientations_tried, both_orientations_admissible, source_map)


def reconstruct_from_comparability_graph(g: LabeledGraph) -> ReconstructionReport:
    """Recover, up to isomorphism, the complex whose face-poset graph is g.

    Works per connected component: enumerate transitive orientations, keep
    those whose poset is a face poset, and take the disjoint union of the
    first survivor of each component. A connected graph is searched as
    given, through a new graph on its adjacency masks that caches its
    implication classes on itself, not on g; a disconnected graph is
    searched one induced subgraph per component, built from its re-indexed
    masks. A component whose implication classes are None or more than two
    has no orientation or more than four, so none can survive: it is refused
    at once, with its orientation count as the orientations tried. When a
    component has two or more survivors, their complexes must be isomorphic
    (the rigidity self-check). Survivors that rebuild equal complexes need
    no canonical form; forms are computed only when two of them differ, as
    for the 4-cycle and the 5-cycle, and must then agree. When there is one
    component, its survivor's complex is returned as built. Fails with
    "not_orientable" when some component has no transitive orientation and
    "not_face_poset" when none of a component's orientations is a face
    poset. Raises GroundSetTooLarge when an orientation of one component is
    the face poset of a complex on more than 64 vertices, or when every
    component succeeds but their sources add up to more than that cap.
    """
    if g.vertex_count == 0:
        raise EmptyInput("graph has no vertices")
    tried = 0
    any_double = False
    picked: list[tuple[SimplicialComplex, tuple[int, ...]]] = []
    status = STATUS_OK
    adj = g.adj
    everyone = (1 << g.vertex_count) - 1
    for comp in induced_components(adj, everyone):
        if comp == everyone:
            # the new graph shares g's adjacency masks; the classes it
            # caches stay on it
            verts = range(g.vertex_count)
            sub = LabeledGraph(adj)
        else:
            # a component is closed under edges: its subgraph is each of its
            # vertices' neighbour masks, re-indexed onto the component
            members = _mask_elements(comp)
            bit = {v: 1 << k for k, v in enumerate(members)}
            verts = [v - 1 for v in members]
            sub = LabeledGraph(tuple(
                sum(map(bit.__getitem__, _mask_elements(adj[i]))) for i in verts))
        classes = sub.implication_classes
        if classes is None or len(classes) > 2:
            # a face-poset component has at most two classes (see above)
            tried += count_transitive_orientations(sub)
            status = STATUS_NOT_ORIENTABLE if classes is None else STATUS_NOT_FACE_POSET
            break
        ups = transitive_orientations(sub)
        tried += len(ups)
        successes: list[tuple[SimplicialComplex, tuple[int, ...]]] = []
        for up in ups:
            try:
                cx, sources = complex_from_face_poset(up)
            except NotAFacePoset:
                continue
            successes.append((cx, tuple(verts[s] for s in sources)))
        if not successes:
            status = STATUS_NOT_FACE_POSET
            break
        if len(successes) >= 2:
            # equal complexes need no canonical form
            built = {cx for cx, _ in successes}
            if len(built) > 1 and len({canonical_form(cx) for cx in built}) > 1:
                raise RuntimeError(
                    "successful orientations disagree; rigidity violated"
                )
            any_double = True
        picked.append(successes[0])
    if status != STATUS_OK:
        return ReconstructionReport(status, None, tried, False)
    if len(picked) == 1:
        cx, sources = picked[0]
        return ReconstructionReport(STATUS_OK, cx, tried, any_double, sources)
    ground = sum(cx.ground_size for cx, _ in picked)
    if ground > MAX_GROUND:
        raise GroundSetTooLarge(
            f"reconstruction needs {ground} vertices, cap is {MAX_GROUND}"
        )
    masks: list[int] = []
    source_map: list[int] = []
    offset = 0
    for cx, sources in picked:
        masks.extend(m << offset for m in cx.masks)
        source_map.extend(sources)
        offset += cx.ground_size
    merged = _antichain_complex(ground, masks)
    return ReconstructionReport(
        STATUS_OK, merged, tried, any_double, tuple(source_map)
    )


def reconstruct_from_subdivision(b: SimplicialComplex) -> ReconstructionReport:
    """Recover the complex whose barycentric subdivision is b, up to isomorphism.

    A subdivision is a flag complex: the clique complex of its own
    1-skeleton (equivalently, all minimal nonfaces have two elements).
    Inputs failing that test report "not_flag"; that includes the void and
    empty complexes and any complex with a ground vertex in no facet.
    Otherwise the complex is determined by the subdivision's 1-skeleton and
    the comparability-graph path applies.

    b is flag exactly when every maximal clique of its 1-skeleton is a
    facet: each facet is a clique, so it lies in a maximal clique, which is
    then a facet too, and facets form an antichain. The test stops at the
    first maximal clique that is not a facet, so it lists at most one
    clique more than b has facets, however many the 1-skeleton has (3^m
    for the complete multipartite graph with m parts of 3, by Moon and
    Moser).
    """
    g = one_skeleton_graph(b)
    facets = set(b.masks)
    for clique in _maximal_cliques(g.adj, g.vertex_count):
        if clique not in facets:
            return ReconstructionReport(STATUS_NOT_FLAG, None, 0, False)
    return reconstruct_from_comparability_graph(g)


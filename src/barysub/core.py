"""Simplicial complexes as facet antichains over a bounded ground set.

Faces are subsets of {1, ..., n} stored as integer bit masks (bit i-1 is
vertex i), so inclusion tests are single word operations. A complex stores
only its facet masks plus a flag separating the void complex (no faces at
all) from the empty complex (just the empty face); everything else (faces,
dimension, minimal nonfaces, skeleta, connectivity, canonical form) is
derived on demand. Faces leave the library as masks too; ``_mask_elements``
decodes one into its sorted vertex tuple. A vertex map is an image tuple:
entry i-1 is the image of vertex i.

All outputs are deterministically ordered: faces by (cardinality, lex),
which ``_mask_key`` computes on the masks, everything downstream by
construction from that order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, groupby

from .errors import EmptyInput, GroundSetTooLarge, SkeletonIndexOutOfRange

MAX_GROUND = 64


# _BYTE_ELEMENTS[k][b] holds the vertices that byte b sets in byte k of a
# mask. Each table is built by doubling: adding vertex v appends, to the
# bytes so far, the same bytes with v's bit set.
_BYTE_ELEMENTS = tuple(
    functools.reduce(lambda t, v: t + [e + (v,) for e in t], range(base, base + 8), [()])
    for base in range(1, MAX_GROUND, 8))


def _mask_elements(mask: int) -> tuple[int, ...]:
    # A byte is one lookup; a mask of at most 64 bits joins the tuples of
    # the bytes up to its highest set bit. Wider masks (graphs past 64
    # vertices) take one loop step per set bit. mask >= 0.
    if mask < 256:
        return _BYTE_ELEMENTS[0][mask]
    if not mask >> 64:
        return sum(map(list.__getitem__, _BYTE_ELEMENTS,
                       mask.to_bytes((mask.bit_length() + 7) >> 3, "little")), ())
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def induced_components(adj, left: int) -> list[int]:
    """Connected components of the subgraph induced on the vertex mask ``left``.

    ``adj[v]`` is the neighbour mask of vertex v (0-based). Each component
    is a vertex mask grown from its least vertex by OR-ing in the neighbour
    masks of newly reached vertices; they come in order of least vertex.
    Neighbour masks may reach outside ``left``; only their bits inside it
    count.
    """
    comps = []
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in _mask_elements(frontier):
                reach |= adj[v - 1]
            frontier = reach & left & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def _is_int(value) -> bool:
    # bool is a subclass of int (and JSON true/false decode to it); it is not
    # an integer here.
    return isinstance(value, int) and not isinstance(value, bool)


# _REV8[b] is the byte b with its eight bits in reverse order.
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _mask_key(mask: int) -> int:
    # Deterministic face order: cardinality, then lex on sorted elements. Of
    # two sets of one size, the lex-smaller one holds the least element of
    # their symmetric difference, so its mask with all 64 bits reversed is
    # the larger. That reversal is below 2**64, so subtracting it from the
    # cardinality shifted past bit 64 keeps sizes apart in one int. to_bytes
    # raises OverflowError past 64 bits, not misorders. mask >= 0; a byte's
    # key is one lookup.
    if not mask >> 8:
        return _BYTE_KEYS[mask]
    return (mask.bit_count() << 64) - int.from_bytes(
        mask.to_bytes(8, "little").translate(_REV8), "big")


# _BYTE_KEYS[b] is _mask_key(b): byte b reversed sits in the top byte.
_BYTE_KEYS = tuple((b.bit_count() << 64) - (_REV8[b] << 56) for b in range(256))


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facet antichain over ground set {1..ground_size}.

    ``masks`` is the stored form, one int per facet in (cardinality, lex)
    order.
    ``void=True`` encodes the void complex (no faces, not even the empty
    one); it always has no facets. ``void=False`` with no facets is the
    empty complex, whose single face is the empty set. Both have
    dimension -1. Every library operation yields a facet antichain by
    construction and builds its result from those facet masks through
    ``_antichain_complex``, which sorts them; :func:`complex_from_facets`
    first normalizes an arbitrary generating family into such an antichain.
    """

    ground_size: int
    masks: tuple[int, ...]
    void: bool = False

    def __post_init__(self):
        n = self.ground_size
        if n < 1:
            raise EmptyInput("ground set must have at least one element")
        if n > MAX_GROUND:
            raise GroundSetTooLarge(f"ground set size {n} exceeds {MAX_GROUND}")
        if self.void and self.masks:
            raise ValueError("void complex cannot carry facets")
        full = (1 << n) - 1
        # m follows prev when it is larger, or when it has the same size and
        # the least element of their symmetric difference is prev's, as in
        # _mask_key's order; a duplicate has no such element. prev = 0 has
        # size 0, below every mask.
        prev = size = 0
        for m in self.masks:
            if type(m) is not int or m == 0 or m & ~full:
                raise ValueError(f"facet mask {m!r} invalid over ground size {n}")
            c = m.bit_count()
            d = m ^ prev
            if c < size or c == size and not prev & d & -d:
                raise ValueError("facets must be strictly sorted by (size, lex)")
            prev, size = m, c

    @property
    def full_mask(self) -> int:
        return (1 << self.ground_size) - 1

    @property
    def has_all_vertices(self) -> bool:
        return not self.void and functools.reduce(int.__or__, self.masks, 0) == self.full_mask

    def _face_set(self) -> set[int]:
        seen = set()
        for m in self.masks:
            sub = m
            while sub:
                seen.add(sub)
                sub = (sub - 1) & m
        return seen

    def faces(self) -> list[int]:
        """All nonempty faces as masks, sorted by (cardinality, lex)."""
        return sorted(self._face_set(), key=_mask_key)

    def dimension(self) -> int:
        # the masks are sorted by cardinality first, so the last is largest
        return self.masks[-1].bit_count() - 1 if self.masks else -1

    def is_pure(self) -> bool:
        """True when all facets share one dimension (vacuously for <= 1 facet)."""
        return len({m.bit_count() for m in self.masks}) <= 1

    def euler_characteristic(self) -> int:
        """Reduced-by-nothing Euler characteristic: sum of (-1)^dim over faces."""
        total = 0
        for m in self._face_set():
            total += -1 if m.bit_count() % 2 == 0 else 1
        return total

    def minimal_nonfaces(self) -> list[int]:
        """Inclusion-minimal nonfaces as masks, sorted by (cardinality, lex).

        A set is a nonface when it lies in no facet, so the minimal nonfaces
        are exactly the minimal transversals of the facet complements.
        Computed by the MMCS search (Murakami and Uno, 2014): a partial
        transversal s takes, in turn, each candidate vertex v of the first
        edge it misses. v is kept only if every vertex of s still has a
        critical edge (one that s ∪ {v} meets in that vertex alone); v then
        leaves the candidates of the later branches, so each minimal
        transversal is found once. Never enumerates the 2^n subsets.
        """
        n = self.ground_size
        if self.void:
            return [0]
        if not self.masks:
            return [1 << i for i in range(n)]
        full = self.full_mask
        # the facets' complements, smallest first
        edges = [full & ~m for m in reversed(self.masks)]
        # holds[u]: bit j set when edges[j] contains vertex u+1
        holds = [0] * n
        for j, edge in enumerate(edges):
            for v in _mask_elements(edge):
                holds[v - 1] |= 1 << j
        found = []

        def search(s: int, crit: list[int], cand: int, uncov: int) -> None:
            # crit[k]: the critical edges of s's k-th vertex; uncov: the
            # edges s misses, never 0 here; cand: the vertices s may take
            branch = edges[(uncov & -uncov).bit_length() - 1] & cand
            cand &= ~branch
            for v in _mask_elements(branch):
                hv = holds[v - 1]
                bit = 1 << (v - 1)
                for c in crit:
                    if not c & ~hv:
                        break  # v meets every critical edge of some vertex
                else:
                    if uncov & ~hv:
                        search(s | bit, [c & ~hv for c in crit] + [uncov & hv], cand, uncov & ~hv)
                    else:
                        found.append(s | bit)
                cand |= bit

        search(0, [], full, (1 << len(edges)) - 1)
        return sorted(found, key=_mask_key)

    def skeleton(self, i: int) -> "SimplicialComplex":
        """The i-skeleton: all faces of dimension at most i. Requires 0 <= i <= dim."""
        dim = self.dimension()
        if i < 0 or i > dim:
            raise SkeletonIndexOutOfRange(f"skeleton index {i} outside 0..{dim}")
        limit = i + 1
        keep = set()
        for m in self.masks:
            if m.bit_count() <= limit:
                keep.add(m)
            else:
                bits = [1 << (v - 1) for v in _mask_elements(m)]
                keep.update(sum(c) for c in combinations(bits, limit))
        return _antichain_complex(self.ground_size, keep)

    def _vertex_partition(self) -> list[int]:
        # Components of the 1-skeleton as vertex masks (bit v-1 is vertex v).
        return induced_components(_skeleton_adjacency(self), self.full_mask)

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton on all ground positions."""
        return len(self._vertex_partition()) == 1

    def connected_components(self) -> list["Component"]:
        """Components relabeled onto compact ground sets, original labels kept.

        Ordered by smallest original vertex. A vertex carried by no facet
        forms its own component (empty, or void when the complex is void).
        """
        parts = self._vertex_partition()
        if len(parts) == 1:
            return [Component(self, tuple(range(1, self.ground_size + 1)))]
        out = []
        for gmask in parts:
            group = _mask_elements(gmask)
            k = len(group)
            if self.void:
                out.append(Component(void_complex(k), group))
                continue
            bit = {v: 1 << j for j, v in enumerate(group)}
            local = [sum(bit[v] for v in _mask_elements(m)) for m in self.masks if m & ~gmask == 0]
            out.append(Component(_antichain_complex(k, local), group))
        return out


def _skeleton_adjacency(cx: SimplicialComplex) -> list[int]:
    """Neighbour masks of the 1-skeleton: entry v-1 is the union of the facets holding v."""
    adj = [0] * cx.ground_size
    for m in cx.masks:
        for v in _mask_elements(m):
            adj[v - 1] |= m
    return adj


@dataclass(frozen=True)
class Component:
    """A connected component together with its original vertex labels.

    ``vertices[j]`` is the original ground position of component vertex j+1.
    """

    complex: SimplicialComplex
    vertices: tuple[int, ...]


def _antichain_complex(ground_size: int, masks) -> SimplicialComplex:
    """The complex with the given facet masks, stored in (cardinality, lex) order.

    The nonzero masks must be distinct and pairwise incomparable, as every
    library operation's facets are by construction; only their order is
    checked. A zero mask is dropped, so ``[0]`` gives the empty complex.
    """
    return SimplicialComplex(ground_size, tuple(sorted((m for m in masks if m), key=_mask_key)))


def complex_from_facets(ground_size: int, facets) -> SimplicialComplex:
    """Build a complex from any generating family of faces.

    Members are iterables of integer vertices in 1..64 (see
    :func:`_vertex_mask`). Empty members are dropped, non-maximal members
    absorbed, and the facet antichain stored in (cardinality, lex) order.
    An empty family yields the empty complex ``{∅}``; use
    :func:`void_complex` for the void complex.
    """
    return _generated_complex(ground_size, map(_vertex_mask, facets))


def _vertex_mask(entries) -> int:
    """The mask of an iterable of vertices, each an integer in 1..64.

    One walk: a non-integer raises at once, so it is named before any
    vertex outside 1..64; the first of those is named after the walk.
    """
    mask = 0
    outside = None
    for v in entries:
        if type(v) is not int and not _is_int(v):
            raise ValueError(f"vertex {v!r} in vertex set {entries!r} must be an integer")
        if 1 <= v <= MAX_GROUND:
            mask |= 1 << (v - 1)
        elif outside is None:
            outside = v
    if outside is not None:
        raise ValueError(f"vertex {outside} outside 1..{MAX_GROUND}")
    return mask


def _generated_complex(ground_size: int, masks) -> SimplicialComplex:
    """:func:`complex_from_facets` on face masks, each checked against the ground set."""
    seen = set()
    for m in masks:
        # shift, not a full mask: ground_size is not capped yet
        if m >> max(ground_size, 0):
            shown = list(_mask_elements(m))
            raise ValueError(f"facet {shown} outside ground set of size {ground_size}")
        seen.add(m)
    maximal: list[int] = []
    # Distinct masks of one size never nest, so only the larger masks kept
    # before m's size class can absorb m; a kept k holds m when m & ~k == 0.
    for _, same_size in groupby(sorted(seen, key=int.bit_count, reverse=True), int.bit_count):
        outside = [~k for k in maximal]
        maximal += [m for m in same_size if all(map(m.__and__, outside))]
    return _antichain_complex(ground_size, maximal)


def void_complex(ground_size: int) -> SimplicialComplex:
    return SimplicialComplex(ground_size, (), void=True)


def empty_complex(ground_size: int) -> SimplicialComplex:
    return SimplicialComplex(ground_size, ())


def full_simplex(ground_size: int) -> SimplicialComplex:
    return complex_from_facets(ground_size, [range(1, ground_size + 1)])


def _image_masks(masks, images) -> list[int]:
    """Each mask carried along the vertex map ``images`` (entry i-1 is the
    image of vertex i); the empty mask stays empty."""
    bits = [0, *(1 << (img - 1) for img in images)]  # 1-based, as _mask_elements yields
    return [sum(map(bits.__getitem__, _mask_elements(m))) for m in masks]


def relabel_complex(cx: SimplicialComplex, images) -> SimplicialComplex:
    """Apply a vertex bijection, given as its image tuple, to a complex.

    ``images[i-1]`` is the image of vertex i. Raises ValueError unless the
    images are integers forming a permutation of 1..n, n the ground size.
    """
    for img in images:
        if not _is_int(img):
            raise ValueError(f"image {img!r} must be an integer")
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError("mapping is not a permutation of 1..n")
    if len(images) != cx.ground_size:
        raise ValueError("bijection size does not match ground set")
    if cx.void:
        return void_complex(cx.ground_size)
    return _antichain_complex(cx.ground_size, _image_masks(cx.masks, images))


class CanonicalForm(SimplicialComplex):
    """Isomorphism-class fingerprint: the complex relabeled onto canonical positions.

    Stored like any complex, as facet ``masks``; a canonical form never
    equals a plain SimplicialComplex. Like every complex it is a frozen
    dataclass, so two forms are equal, and hash alike, exactly when their
    ``sort_key``s are equal: compare forms directly. Two complexes are
    isomorphic exactly when their canonical forms are equal.
    """

    @property
    def sort_key(self):
        facet_keys = tuple((m.bit_count(), _mask_elements(m)) for m in self.masks)
        return (self.void, self.ground_size, facet_keys)


def _initial_colors(cx: SimplicialComplex) -> list:
    """Isomorphism-invariant starting colors for the refinement search."""
    k = cx.ground_size
    budget = sum(1 << m.bit_count() for m in cx.masks)
    if cx.masks and budget <= 60000:
        deg = [[0] * (cx.dimension() + 2) for _ in range(k)]
        for f in cx._face_set():
            s = f.bit_count()
            rem = f
            while rem:
                low = rem & -rem
                deg[low.bit_length() - 1][s] += 1
                rem ^= low
        return [tuple(d) for d in deg]
    prof: list[list[int]] = [[] for _ in range(k)]
    for m in cx.masks:
        for v in _mask_elements(m):
            prof[v - 1].append(m.bit_count())
    return [tuple(sorted(p)) for p in prof]


def _canonical_connected(cx: SimplicialComplex) -> tuple[tuple[int, ...], tuple]:
    """Search for the least facet encoding of one connected complex.

    Individualization-refinement: refine an ordered partition of the
    vertices by facet-incidence signatures, branch on the first
    non-singleton cell, and keep the first leaf, in branching order, whose
    encoding is lexicographically least. Returns (labels, encoding) where
    ``labels[v-1]`` is the 0-based canonical position of vertex v and the
    encoding is the sorted tuple of the relabeled facet masks'
    ``_mask_key`` ints.

    A leaf whose encoding equals the best one gives an automorphism, and
    the search skips a branch that an automorphism fixing its path carries
    onto an earlier sibling branch (McKay & Piperno, "Practical graph
    isomorphism, II", 2014). Such a branch holds the images of an earlier
    branch's leaves, with the same encodings, and the best leaf is replaced
    only by a strictly smaller encoding, so the result is the one the full
    search gives.
    """
    k = cx.ground_size
    nf = len(cx.masks)
    members = [tuple(b - 1 for b in _mask_elements(m)) for m in cx.masks]
    incident: list[list[int]] = [[] for _ in range(k)]
    for fi, mem in enumerate(members):
        for v in mem:
            incident[v].append(fi)

    init = _initial_colors(cx)
    order = sorted(set(init))
    rank = {val: i for i, val in enumerate(order)}
    cells: list[list[int]] = [[] for _ in order]
    for v in range(k):
        cells[rank[init[v]]].append(v)
    cells = [c for c in cells if c]

    def refine(cells: list[list[int]]) -> list[list[int]]:
        while True:
            color = [0] * k
            for ci, cell in enumerate(cells):
                for v in cell:
                    color[v] = ci
            fsig = [tuple(sorted(color[v] for v in members[fi])) for fi in range(nf)]
            new_cells: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[tuple, list[int]] = {}
                for v in cell:
                    sig = tuple(sorted(fsig[fi] for fi in incident[v]))
                    groups.setdefault(sig, []).append(v)
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
            if len(new_cells) == len(cells):
                return new_cells
            cells = new_cells

    best_enc: list = [None]
    best_labels: list = [None]
    best_vertex: list[int] = []  # best_vertex[pos]: the vertex the best leaf puts at pos
    autos: list[list[int]] = []  # automorphisms found, as 0-based image lists
    path: list[int] = []  # vertices individualized above the current node
    branch: list[list[int]] = []  # branch[d]: the cell path[d] was chosen from

    def encode(cells: list[list[int]]) -> tuple[tuple, list[int]]:
        """A leaf's key, the sorted ``_mask_key`` ints of its relabeled facet
        masks (the face order, so keys compare as the facet lists would),
        and its labeling: each vertex at its cell's position."""
        labels = [0] * k
        for pos, cell in enumerate(cells):
            labels[cell[0]] = pos
        return tuple(sorted(_mask_key(sum(1 << labels[v] for v in mem)) for mem in members)), labels

    def redundant(depth: int) -> bool:
        # Does an automorphism found so far that fixes path[:depth] carry
        # path[depth] onto a vertex ahead of it in the cell it was chosen from?
        fixed = path[:depth]
        gens = [g for g in autos if all(g[p] == p for p in fixed)]
        v = path[depth]
        cell = branch[depth]
        earlier = set(cell[:cell.index(v)])
        orbit = {v}
        todo = [v]
        for u in todo:
            for g in gens:
                w = g[u]
                if w in earlier:
                    return True
                if w not in orbit:
                    orbit.add(w)
                    todo.append(w)
        return False

    def descend(cells: list[list[int]]) -> int:
        # Returns the depth of the shallowest branch on the current path
        # found redundant (the search resumes with that branch's next
        # sibling), or a depth past the path's end when there is none.
        cells = refine(cells)
        target = None
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                target = i
                break
        if target is None:
            enc, labels = encode(cells)
            if best_enc[0] is None or enc < best_enc[0]:
                best_enc[0] = enc
                best_labels[0] = labels
                best_vertex[:] = [cell[0] for cell in cells]
            elif enc == best_enc[0]:
                autos.append([best_vertex[labels[v]] for v in range(k)])
                for depth in range(len(path)):
                    if redundant(depth):
                        return depth
            return len(path)
        cell = cells[target]
        rest = cells[target + 1:]
        head = cells[:target]
        depth = len(path)
        branch.append(cell)
        # Vertices lying in exactly the same facets are swapped by an
        # automorphism fixing everything else, so one representative per
        # incidence class covers all branches of its class.
        seen_incidence = set()
        for v in cell:
            key = tuple(incident[v])
            if key in seen_incidence:
                continue
            seen_incidence.add(key)
            path.append(v)
            back = depth if redundant(depth) else descend(
                head + [[v], [u for u in cell if u != v]] + rest
            )
            path.pop()
            if back < depth:
                branch.pop()
                return back
        branch.pop()
        return depth

    descend(cells)
    return tuple(best_labels[0]), best_enc[0]


@functools.lru_cache(maxsize=16384)
def _canonical(cx: SimplicialComplex) -> tuple[CanonicalForm, tuple[int, ...]]:
    n = cx.ground_size
    if cx.void:
        return CanonicalForm(n, (), True), tuple(range(1, n + 1))
    parts = []
    for comp in cx.connected_components():
        labels, enc = _canonical_connected(comp.complex)
        parts.append((comp.complex.ground_size, enc, comp.vertices, labels))
    parts.sort(key=lambda t: (t[0], t[1]))
    labeling = [0] * n
    offset = 0
    for g, _, orig, labels in parts:
        for j in range(g):
            labeling[orig[j] - 1] = offset + labels[j] + 1
        offset += g
    return CanonicalForm(n, relabel_complex(cx, labeling).masks), tuple(labeling)


def canonical_form(cx: SimplicialComplex) -> CanonicalForm:
    """Canonical form; equal forms exactly characterize isomorphism."""
    return _canonical(cx)[0]


def are_isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> tuple[int, ...] | None:
    """An isomorphism witness from a to b, as an image tuple, or None.

    Complexes over different ground sizes are never isomorphic here; vertices
    outside all facets participate like any others (they must map onto
    vertices outside all facets).
    """
    if a.ground_size != b.ground_size or a.void != b.void:
        return None
    fa, la = _canonical(a)
    fb, lb = _canonical(b)
    if fa != fb:
        return None
    inv_b = [0] * len(lb)
    for v, img in enumerate(lb, 1):
        inv_b[img - 1] = v
    return tuple(inv_b[img - 1] for img in la)

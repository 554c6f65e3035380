"""Complexes derived from a complex: subdivision, dual, complement, ideals.

The barycentric subdivision introduces one vertex per nonempty face of the
input; its facets are the saturated chains inside the input's facets. The
subdivision is returned with its faces, the tuple of face masks whose entry
i-1 is the face that new vertex i replaces: the same tuple
``comparability_graph`` carries as its labels, since that graph is the
subdivision's 1-skeleton. Generator sets are lists of masks as well.
"""

from __future__ import annotations

from itertools import permutations

from .core import MAX_GROUND, SimplicialComplex, _antichain_complex, _mask_elements, void_complex
from .errors import EmptyInput, GroundSetTooLarge, VoidComplex


def _require_subdividable(cx: SimplicialComplex) -> None:
    if cx.void:
        raise VoidComplex("the void complex has no face to subdivide")
    if not cx.masks:
        raise EmptyInput("the empty complex has no vertex to subdivide")


def barycentric_subdivision(
        cx: SimplicialComplex) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """Subdivide once; returns the new complex and its faces.

    Facets of the result are the maximal chains of faces ordered by
    inclusion, one per permutation of each facet's vertices, so a facet F
    contributes |F|! chains. The faces come in (cardinality, lex) order;
    new vertex i replaces ``faces[i-1]``. Raises GroundSetTooLarge when the
    input has more than 64 nonempty faces. Each facet is a face, and a facet
    of k vertices has 2^k - 1 nonempty faces, so an input is refused from
    those two bounds before its faces are listed.
    """
    _require_subdividable(cx)
    # masks are sorted by cardinality, so the last facet is a largest one
    least = max(len(cx.masks), (1 << cx.masks[-1].bit_count()) - 1)
    if least > MAX_GROUND:
        raise GroundSetTooLarge(f"subdivision needs at least {least} vertices, cap is {MAX_GROUND}")
    faces = cx.faces()
    if len(faces) > MAX_GROUND:
        raise GroundSetTooLarge(
            f"subdivision needs {len(faces)} vertices, cap is {MAX_GROUND}"
        )
    index = {f: i + 1 for i, f in enumerate(faces)}
    chains = set()
    for facet in cx.masks:
        for order in permutations(_mask_elements(facet)):
            prefix = 0
            chain = 0
            for v in order:
                prefix |= 1 << (v - 1)
                chain |= 1 << (index[prefix] - 1)
            chains.add(chain)
    return _antichain_complex(len(faces), chains), tuple(faces)


def iterated_subdivision(cx: SimplicialComplex, k: int) -> SimplicialComplex:
    """Apply the subdivision k times (k >= 0; k = 0 returns the input).

    Stops early at a fixed point: a complex of dimension 0 subdivides to
    itself once its ground set is all used. Any other complex gains a ground
    vertex at every step after the first, so it reaches the 64-vertex cap
    within 64 steps.
    """
    if k < 0:
        raise ValueError("subdivision count must be >= 0")
    out = cx
    for _ in range(k):
        out, prev = barycentric_subdivision(out)[0], out
        if out == prev:
            break
    return out


def alexander_dual(cx: SimplicialComplex) -> SimplicialComplex:
    """The dual complex: facets are ground-complements of the minimal nonfaces.

    An involution on complexes over a fixed ground set. The full simplex and
    the void complex are each other's duals.
    """
    full = cx.full_mask
    duals = [full & ~nf for nf in cx.minimal_nonfaces()]
    if not duals:
        return void_complex(cx.ground_size)
    return _antichain_complex(cx.ground_size, duals)


def complement_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """Facet-wise ground-complement; an involution.

    The empty complex (facet list {∅}) maps to the full simplex and back.
    """
    if cx.void:
        return void_complex(cx.ground_size)
    full = cx.full_mask
    # the empty complex's one facet is ∅, whose complement is the full set
    return _antichain_complex(cx.ground_size, [full & ~m for m in cx.masks] or [full])


def stanley_reisner_generators(cx: SimplicialComplex) -> list[int]:
    """Supports of the minimal monomial generators of the nonface ideal."""
    return cx.minimal_nonfaces()


def facet_ideal_generators(cx: SimplicialComplex) -> list[int]:
    """Supports of the facet ideal generators: the facet list itself.

    The empty complex contributes the empty support (unit monomial); the
    void complex contributes nothing.
    """
    if cx.void:
        return []
    if not cx.masks:
        return [0]
    return list(cx.masks)

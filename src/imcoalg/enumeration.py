"""Exhaustive generators for small posets, maps and frames.

These back the brute-force oracles: every theorem-shaped claim in the test
suite is checked against enumerations produced here. Poset enumeration is
up to isomorphism (canonical form = lexicographically least relation matrix
over all label permutations).

Monotone maps, p-morphisms, mix-law relations (monotone maps into the
upsets under reverse inclusion) and automorphisms (bijective monotone
self-maps) all come from poset.monotone_assignments, so each list is in
lexicographic order of its assignments; callers that sample from these
lists by index rely on that order. The random generators and the
all-functions scan that only the tests read live in tests/helpers.py.
"""

from itertools import permutations

from .frames import ModalFrame
from .heyting import up_functor
from .poset import (
    Poset,
    PosetMap,
    image,
    is_pmorphism,
    monotone_assignments,
)


def _permuted(up, perm):
    """Rows (up-sets or successor sets) relabelled: x becomes perm[x]."""
    moved = [1 << t for t in perm]
    out = [0] * len(up)
    for x, row in enumerate(up):
        out[perm[x]] = image(moved, row)
    return tuple(out)


def _matrix_bits(up):
    """Relation matrix packed row-major, diagonal included."""
    return sum(row << (i * len(up)) for i, row in enumerate(up))


def _slot_bits(up):
    """Strict relation packed over the slots (i, j), i != j, row-major: the
    index at which a scan over all 2^(n(n-1)) strict relations meets it."""
    n = len(up)
    return sum(
        (row & ((1 << i) - 1) | row >> (i + 1) << i) << (i * (n - 1))
        for i, row in enumerate(up)
    )


def all_posets(n, labels=None):
    """All posets on n elements up to isomorphism, deterministic order.

    Every poset has a natural labelling (i <= j only when i <= j as
    integers), so scanning the transitive relations inside i < j meets every
    class. A new class enters with its whole orbit, so later members of it
    are skipped without canonicalising; it is represented by the labelling
    with the least _slot_bits, the one a scan over all strict relations
    would meet first, and listed by canonical key.
    """
    if labels is None:
        labels = tuple("abcdefgh"[:n])
    perms = list(permutations(range(n)))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    found = {}
    for bits in range(1 << len(slots)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(slots):
            if (bits >> k) & 1:
                up[i] |= 1 << j
        if any(image(up, row) & ~row for row in up):
            continue  # not transitive
        up = tuple(up)
        if up in seen:
            continue
        orbit = {_permuted(up, perm) for perm in perms}
        seen |= orbit
        key = min(map(_matrix_bits, orbit))
        found[key] = Poset(labels, min(orbit, key=_slot_bits), _trusted=True)
    return [found[k] for k in sorted(found)]


def automorphisms(p):
    """Automorphisms of p as permutations, in lexicographic order: the
    bijective monotone self-maps. On a finite poset these are exactly the
    automorphisms, since a monotone bijection maps the comparable pairs
    injectively, hence onto, themselves."""
    return [a for a in monotone_assignments(p, p) if len(set(a)) == p.n]


def monotone_maps(p, q):
    """All monotone maps from p to q, in lexicographic order."""
    return [PosetMap(p, q, a) for a in monotone_assignments(p, q)]


def pmorphisms(p, q):
    return [f for f in monotone_maps(p, q) if is_pmorphism(f)]


def mix_relations(p):
    """All relations satisfying the mix law, as tuples of successor masks,
    in lexicographic order of the upset masks.

    These are the monotone maps from p into its upsets ordered by reverse
    inclusion (up_functor, so more than DEFAULT_CAPS.max_stage upsets
    raise StageTooLarge): each rel[x] is an upset and x <= y forces
    rel[x] >= rel[y].
    """
    ups = up_functor(p)
    return [
        tuple(ups.masks[k] for k in a) for a in monotone_assignments(p, ups)
    ]


def frames_up_to_iso(p):
    """One representative per orbit of mix-law relations under Aut(p)."""
    auts = automorphisms(p)
    seen = set()
    out = []
    for rel in mix_relations(p):
        key = min(_permuted(rel, perm) for perm in auts)
        if key not in seen:
            seen.add(key)
            out.append(ModalFrame(p, rel))
    return out

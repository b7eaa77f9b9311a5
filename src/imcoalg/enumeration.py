"""Exhaustive and random generators for small posets, maps and frames.

These back the brute-force oracles: every theorem-shaped claim in the test
suite is checked against enumerations produced here. Poset enumeration is
up to isomorphism (canonical form = lexicographically least relation matrix
over all label permutations).
"""

from itertools import permutations, product as iproduct

from .poset import Poset, PosetMap, iter_bits, upset_masks


def _relation_bits(up, perm, n):
    """Relation matrix of the permuted poset, packed row-major."""
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    bits = 0
    for i in range(n):
        row = up[inv[i]]
        for j in iter_bits(row):
            bits |= 1 << (i * n + perm[j])
    return bits


def canonical_poset_key(p):
    n = p.n
    return min(_relation_bits(p.up, perm, n) for perm in permutations(range(n)))


def all_posets(n, labels=None):
    """All posets on n elements up to isomorphism, deterministic order."""
    if labels is None:
        labels = tuple("abcdefgh"[:n])
    found = {}
    # candidate strict relations on pairs i != j
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(slots)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(slots):
            if (bits >> k) & 1:
                up[i] |= 1 << j
        ok = True
        for i in range(n):
            for j in iter_bits(up[i]):
                if j != i and (up[j] >> i) & 1:
                    ok = False
                    break
                if up[j] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        p = Poset(labels, up, _trusted=True)
        key = canonical_poset_key(p)
        if key not in found:
            found[key] = p
    return [found[k] for k in sorted(found)]


def automorphisms(p):
    out = []
    for perm in permutations(range(p.n)):
        if all(
            p.leq(i, j) == p.leq(perm[i], perm[j])
            for i in range(p.n)
            for j in range(p.n)
        ):
            out.append(perm)
    return out


def all_functions(p, q):
    for assign in iproduct(range(q.n), repeat=p.n):
        yield PosetMap(p, q, assign)


def monotone_maps(p, q):
    out = []
    for assign in iproduct(range(q.n), repeat=p.n):
        ok = True
        for x in range(p.n):
            ax = assign[x]
            for y in iter_bits(p.up[x]):
                if not q.leq(ax, assign[y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(PosetMap(p, q, assign))
    return out


def pmorphisms(p, q):
    out = []
    for f in monotone_maps(p, q):
        back = True
        for x in range(p.n):
            if f.image_mask(p.up[x]) != q.up[f.assign[x]]:
                back = False
                break
        if back:
            out.append(f)
    return out


def mix_relations(p):
    """All relations satisfying the mix law, as tuples of successor masks.

    Equivalent to all monotone maps from p into its reverse-inclusion-ordered
    upsets: each rel[x] is an upset and x <= y forces rel[x] >= rel[y].
    """
    upsets = upset_masks(p)
    out = []

    def extend(i, chosen):
        if i == p.n:
            out.append(tuple(chosen))
            return
        for m in upsets:
            ok = True
            for j in range(i):
                if p.leq(j, i) and m & ~chosen[j]:
                    ok = False
                    break
                if p.leq(i, j) and chosen[j] & ~m:
                    ok = False
                    break
            if ok:
                extend(i + 1, chosen + [m])

    extend(0, [])
    return out


def frames_on(p):
    from .frames import ModalFrame

    return [ModalFrame.from_masks(p, rel) for rel in mix_relations(p)]


def frames_up_to_iso(p):
    """One representative per orbit of mix-law relations under Aut(p)."""
    from .frames import ModalFrame

    auts = automorphisms(p)
    seen = set()
    out = []
    for rel in mix_relations(p):
        key = None
        for perm in auts:
            moved = [0] * p.n
            for x in range(p.n):
                m = 0
                for y in iter_bits(rel[x]):
                    m |= 1 << perm[y]
                moved[perm[x]] = m
            cand = tuple(moved)
            if key is None or cand < key:
                key = cand
        if key not in seen:
            seen.add(key)
            out.append(ModalFrame.from_masks(p, rel))
    return out


# -- random generators (callers pass a seeded random.Random) ----------------


def random_poset(rng, n, labels=None, edge_prob=0.35):
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    labels = tuple(labels)[:n]
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                up[i] |= 1 << j
    # close transitively; i < j only, so the result is antisymmetric
    for i in range(n - 1, -1, -1):
        acc = up[i]
        for j in iter_bits(acc):
            acc |= up[j]
        up[i] = acc
    return Poset(labels, up, _trusted=True)


def random_upset(rng, p):
    mask = 0
    for i in range(p.n):
        if rng.random() < 0.5:
            mask |= 1 << i
    return p.up_close(mask)


def random_mix_frame(rng, p, pair_prob=0.3):
    from .frames import ModalFrame, mix_closure

    pairs = []
    for i in range(p.n):
        for j in range(p.n):
            if rng.random() < pair_prob:
                pairs.append((p.labels[i], p.labels[j]))
    return mix_closure(ModalFrame.from_pairs(p, pairs))

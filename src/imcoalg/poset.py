"""Finite posets, monotone maps, p-morphisms and order-theoretic predicates.

Conventions used throughout the package:

  - elements are indexed 0..n-1 in the order the labels were given;
  - subsets of a poset are bitmasks over element indices; upsets are
    enumerated in time linear in their number (upset_masks), not by a scan
    over all 2^n subsets;
  - every relation is held as rows of bitmasks, ``rows[x]`` masking the
    points related to x: the order (``Poset.up``/``down``), a modal
    relation, a bisimulation and a map's fibres (``PosetMap.fibres``).
    image (the union of the rows over the bits of a mask) is the kernel
    that unions such rows bit by bit; transpose (the rows of the converse
    relation) reads them off the bit planes of the rows (bit_planes), with
    no loop over bits; pairs_of lists a relation's pairs. Poset.covers
    and the pullback of a neighbourhood family (frames.pow_up_map) are
    image calls too. PosetMap.image_mask keeps a loop of its own, over
    the map's assignment rather than a relation's rows;
  - the back condition up to keys (back_up_to) is one kernel, for the
    truncated tower maps of complexes.check_limit_pmorphism and
    freealg.check_truncated_pmorphism;
  - a poset whose elements are subsets of a base poset is a MaskPoset
    (Poset.over_masks): Up(P) (heyting.up_functor), the neighbourhood
    carrier PowUp(P) (frames.pow_up_functor) and every rooted stage of a
    complex. index_of_mask finds an element by its subset in one
    bisection, so it needs ascending masks, as all three list them. With
    ascending masks, masks[j] ⊆ masks[i] forces j <= i, so no up row has
    a bit above its own index, and the subsets rooted at i lie in
    [2^i, 2^(i+1)) (complexes.build_p_g lists a stage root by root on
    that). A MaskPoset builds its order rows from per-chunk subset tables
    over 8-bit chunks of the base (containment_rows) the first time ``up``
    is read, unless it was given them, and its labels from per-chunk
    frozenset tables (mask_labels) the first time ``labels`` is read; one
    label alone (label(i)) is built from the members down. So a stage
    whose rows or labels nobody reads never builds them, and no table
    loops over bits. An eager Poset stores ``up`` and ``labels`` as plain
    attributes;
  - make_poset keeps the rows it closed, each point with the points its
    pairs put above it, as the poset's generating rows
    (Poset.generating_rows); a poset given by its rows, a MaskPoset
    included, is generated by its ``up`` rows, every pair of the order. A
    property that holds along the whole order once it holds along a
    generating set, such as the mix law (frames.mix_law_witness), is
    tested on these rows, so a chain given by its covers is tested on
    n-1 pairs. __eq__ and __hash__ ignore them: one order given by two
    pair lists is one poset;
  - g-openness is read off per-fibre masks, visiting only the elements
    that have any (open_table, built in one column per target of C-level
    ANDs, with no loop over up bits); a whole list of masks is checked at
    once on bit planes, one int per base element whose bit j says whether
    masks[j] holds it (bit_planes, all_open);
  - monotone maps are enumerated by one search (monotone_assignments):
    each element's candidates are a mask, cut down by the up- and
    down-set rows of the images of its decided neighbours, and the maps
    come out in lexicographic order of their assignments;
  - a constructor given ``_trusted=True`` skips the checks its caller
    already guarantees: Poset the order axioms, PosetMap the range of each
    target index (the root map of a rooted stage, whose roots are in range
    by construction). Only builders that derive the value themselves pass
    it; a value read from input is always checked;
  - every value is immutable after construction, so any operation can run
    from parallel workers without coordination. A value derived from the
    others (a MaskPoset's ``up`` and ``labels``; every poset's
    ``label_index``, ``down``, ``generating_rows`` and hash) is a
    first_read field: built the first time it is read, stored with
    setattr, then read as a plain attribute; workers racing on a first
    read build the same value. A functools.cached_property would write
    through ``instance.__dict__``, which on CPython 3.11 materialises the
    dict and takes every later read off the fast path (five reads of
    ``up``/``n`` on a 2-element poset after its hash and ``down``: 184
    ns, against 108 ns with first_read, 103 ns fresh). A constructor that
    already has such a value stores it as that attribute (Poset its label
    index, make_poset its down and generating rows, a MaskPoset given rows
    its ``up``). Equality, hashing and repr read the labels and ``up``
    rows only;
  - iteration is always in index order, which keeps all derived output
    byte-for-byte reproducible.

``up[i]`` is the bitmask of ``{j : i <= j}`` including ``i`` itself.
"""

from bisect import bisect_left
from itertools import compress, repeat
from operator import and_, invert, lshift

from .errors import (
    DuplicateLabel,
    NotAntisymmetric,
    NotTransitive,
    UnknownLabel,
    ValueNotUpset,
)


def iter_bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(rows, mask):
    """The union of rows[i] over the set bits i of mask: the image of the
    subset under the relation whose rows are given."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def pairs_of(rows):
    """The index pairs (x, y) of a relation held as rows, sorted."""
    return [(x, y) for x, row in enumerate(rows) for y in iter_bits(row)]


def sorted_index(items, value):
    """The index of value in the ascending sequence items, found by one
    bisection; None when value is absent."""
    i = bisect_left(items, value)
    if i < len(items) and items[i] == value:
        return i
    return None


def transpose(rows, n):
    """The rows of the converse relation over n targets, as a list: bit x
    of out[y] is set iff bit y of rows[x] is. These are the bit planes of
    the rows (bit_planes); bits of a row at or past n are ignored."""
    return bit_planes(rows, (1 << n) - 1)


def unknown_label(label):
    """The UnknownLabel error for a label that names no element."""
    return UnknownLabel(f"unknown element {format_label(label)!r}")


def format_label(label):
    """Deterministic display form; nested frozensets print as sorted {..}."""
    if isinstance(label, frozenset):
        return "{" + ",".join(sorted(format_label(x) for x in label)) + "}"
    if isinstance(label, tuple):
        return "(" + ",".join(format_label(x) for x in label) + ")"
    return str(label)


class first_read:
    """A field built the first time it is read: the decorated method
    builds it, setattr stores it under the method's name, and later reads
    find that plain attribute (a non-data descriptor yields to it). No
    lock and no ``__dict__`` access, unlike functools.cached_property."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        setattr(obj, self.name, value)
        return value


class Poset:
    """Immutable finite poset over an indexed tuple of opaque labels."""

    def __init__(self, labels, up, _trusted=False):
        labels = tuple(labels)
        up = tuple(up)
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise DuplicateLabel(f"duplicate label {format_label(lab)!r}")
            index[lab] = i
        self.labels = labels
        self.up = up
        self.n = len(labels)
        self.label_index = index
        if not _trusted:
            self._verify()

    @staticmethod
    def over_masks(masks, base, rows=None):
        """The poset whose element i is the subset masks[i] of base, ordered
        by reverse inclusion (a MaskPoset). ``rows``, when given, are its
        order rows, trusted; otherwise containment_rows builds them the
        first time ``up`` is read. The masks must be distinct, so the
        labels are too."""
        return MaskPoset(masks, base, rows)

    def label(self, i):
        """The label of element i."""
        return self.labels[i]

    def _verify(self):
        n = self.n
        for i in range(n):
            if not (self.up[i] >> i) & 1:
                raise NotTransitive(f"relation not reflexive at {self._name(i)}")
            for j in iter_bits(self.up[i]):
                if j != i and (self.up[j] >> i) & 1:
                    raise NotAntisymmetric(
                        f"cycle between {self._name(i)} and {self._name(j)}"
                    )
                if self.up[j] & ~self.up[i]:
                    k = next(iter_bits(self.up[j] & ~self.up[i]))
                    raise NotTransitive(
                        f"{self._name(i)} <= {self._name(j)} <= {self._name(k)} "
                        f"but not {self._name(i)} <= {self._name(k)}"
                    )

    def _name(self, i):
        return format_label(self.labels[i])

    # -- basic queries ----------------------------------------------------

    @first_read
    def label_index(self):
        """The dict from each label to its element's index."""
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label):
        try:
            return self.label_index[label]
        except KeyError:
            raise unknown_label(label) from None

    def leq(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def leq_labels(self, a, b):
        return self.leq(self.index(a), self.index(b))

    def up_mask(self, i):
        return self.up[i]

    @first_read
    def down(self):
        return tuple(transpose(self.up, self.n))

    @first_read
    def generating_rows(self):
        """Rows of a relation whose reflexive-transitive closure is the
        order: the rows make_poset closed (each point with the points its
        pairs put above it), or else ``up`` itself, every pair of the
        order. Equality and hashing ignore them."""
        return self.up

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def is_upset(self, mask):
        return not image(self.up, mask) & ~mask

    def up_close(self, mask):
        return image(self.up, mask)

    def down_close(self, mask):
        return image(self.down, mask)

    def min_of(self, mask):
        """Index of the least element of the subset, or None."""
        for i in iter_bits(mask):
            if mask & ~self.up[i] == 0:
                return i
        return None

    def covers(self):
        """List of cover pairs (i, j) with i < j and nothing in between:
        per i, the strict up-set less its image under the strict order."""
        strict = [row & ~(1 << i) for i, row in enumerate(self.up)]
        return pairs_of([row & ~image(strict, row) for row in strict])

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        # rows before labels: posets that differ mostly differ in their
        # rows, and a mask-carried poset builds its labels when read
        return self is other or (
            isinstance(other, Poset)
            and self.n == other.n
            and self.up == other.up
            and self.labels == other.labels
        )

    @first_read
    def _hash(self):
        return hash((self.labels, self.up))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        cov = ", ".join(
            f"{self._name(i)}<{self._name(j)}" for i, j in self.covers()
        )
        return f"Poset([{', '.join(map(self._name, range(self.n)))}]; {cov})"


class MaskPoset(Poset):
    """A poset carried by masks over a base poset (Poset.over_masks).

    Element i is the subset masks[i] of the base, labelled by the frozenset
    of its members' base labels. The order rows (containment_rows) and the
    labels (mask_labels) are first_read fields, built the first time
    ``up`` or ``labels`` is read, and the label index on the first index()
    call, so a stage whose rows or labels nobody reads never builds them.
    Given rows, the poset stores them as ``up``. The laziness lives in this
    subclass only: an eager Poset stores ``up`` and ``labels`` as plain
    attributes.
    """

    def __init__(self, masks, base, rows=None):
        self.masks = masks
        self.base = base
        self.n = len(masks)
        if rows is not None:
            self.up = tuple(rows)

    @first_read
    def up(self):
        return containment_rows(self.masks, self.base.n)

    @first_read
    def labels(self):
        return tuple(mask_labels(self.masks, self.base.labels))

    def label(self, i):
        """The label of element i, built from the members down through the
        base's own label(): the same frozenset as labels[i]."""
        return frozenset(map(self.base.label, iter_bits(self.masks[i])))

    def index_of_mask(self, mask):
        """The index of the element whose subset is mask, by one bisection
        over the masks, which must be ascending; ValueNotUpset when no
        element has it."""
        i = sorted_index(self.masks, mask)
        if i is None:
            raise ValueNotUpset(f"mask {mask:#x} is not an element's mask")
        return i


class PosetMap:
    """Total map between posets, stored as a tuple of target indices.

    The assignment must have one index per source element, and each index
    must name a target element; ``_trusted=True`` skips the second check,
    one Python step per element, for assignments in range by
    construction."""

    __slots__ = ("source", "target", "assign")

    def __init__(self, source, target, assign, _trusted=False):
        assign = tuple(assign)
        if len(assign) != source.n:
            raise UnknownLabel("assignment is not total over the source")
        if not _trusted:
            for t in assign:
                if not 0 <= t < target.n:
                    raise UnknownLabel(f"target index {t} out of range")
        self.source = source
        self.target = target
        self.assign = assign

    @classmethod
    def from_dict(cls, source, target, mapping):
        assign = [target.index(mapping[lab]) for lab in source.labels]
        return cls(source, target, assign)

    def __call__(self, label):
        return self.target.labels[self.assign[self.source.index(label)]]

    def fibres(self):
        """Per target index t, the mask of the source elements mapped to t:
        the converse of the map's graph."""
        return transpose([1 << t for t in self.assign], self.target.n)

    def image_mask(self, mask):
        out = 0
        for i in iter_bits(mask):
            out |= 1 << self.assign[i]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PosetMap)
            and self.source == other.source
            and self.target == other.target
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((self.source, self.target, self.assign))

    def __repr__(self):
        pairs = ", ".join(
            f"{format_label(self.source.labels[i])}->"
            f"{format_label(self.target.labels[t])}"
            for i, t in enumerate(self.assign)
        )
        return f"PosetMap({pairs})"


# -- construction ----------------------------------------------------------


def make_poset(labels, pairs):
    """Build a poset from ordered label pairs: leq is the
    reflexive-transitive closure of the pairs. Taking pairs verbatim, with
    the order axioms verified rather than repaired, is
    ``Poset(labels, rows)``.

    The closure is reflexive and transitive by construction, so only
    antisymmetry is checked: a cycle through i and j shows as bit j of
    up[i] & down[i]. NotAntisymmetric names the least such i, then the
    least such j, as Poset's own check does; the poset keeps the down
    rows it was checked with, and the rows before the closure as its
    generating rows (generating_rows)."""
    labels = tuple(labels)
    if not labels:
        raise UnknownLabel("a poset needs at least one element")
    index = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise DuplicateLabel(f"duplicate label {format_label(lab)!r}")
        index[lab] = i
    n = len(labels)
    up = [1 << i for i in range(n)]
    try:
        for a, b in pairs:
            up[index[a]] |= 1 << index[b]
    except KeyError as exc:
        raise unknown_label(exc.args[0]) from None
    gen = tuple(up)
    # Warshall's closure on bitset rows: once every row holding bit k has
    # taken row k in, paths through 0..k need no further step
    for k in range(n):
        bit, row = 1 << k, up[k]
        up = [r | row if r & bit else r for r in up]
    down = transpose(up, n)
    for i, (row, col) in enumerate(zip(up, down)):
        cycle = row & col & ~(1 << i)
        if cycle:
            j = (cycle & -cycle).bit_length() - 1
            raise NotAntisymmetric(
                f"cycle between {format_label(labels[i])} and "
                f"{format_label(labels[j])}"
            )
    poset = Poset(labels, up, _trusted=True)
    poset.down = tuple(down)
    poset.generating_rows = gen
    return poset


def point_poset(label="*"):
    return Poset((label,), (1,), _trusted=True)


def identity_map(p):
    return PosetMap(p, p, range(p.n))


def terminal_map(source, point=None):
    """The unique map into a one-element poset."""
    if point is None:
        point = point_poset()
    return PosetMap(source, point, [0] * source.n)


def product(p, q):
    """Componentwise order on pairs; labels are (label_p, label_q) tuples."""
    labels = []
    for a in p.labels:
        for b in q.labels:
            labels.append((a, b))
    # (i2, j2) is bit i2 * q.n + j2, so block i2 starts at starts[i2]; the
    # blocks do not overlap, so multiplying the spread of ↑i by ↑j copies
    # ↑j into each block of ↑i without carries
    starts = [1 << (i2 * q.n) for i2 in range(p.n)]
    up = []
    for i in range(p.n):
        spread = image(starts, p.up[i])
        up.extend(spread * row for row in q.up)
    return Poset(labels, up, _trusted=True)


# -- predicates -------------------------------------------------------------


def is_monotone(f):
    """x <= y implies f(x) <= f(y): each ↑x lies inside the preimage of
    ↑f(x), read off the fibres of f. Only the targets f hits have their
    preimage built, so a map from a few points into a large stage costs
    a few rows, not one per target element."""
    src, tgt = f.source, f.target
    fibres = f.fibres()
    pre = {t: image(fibres, tgt.up[t]) for t in set(f.assign)}
    return all(not row & ~pre[t] for row, t in zip(src.up, f.assign))


def monotone_assignments(p, q, allowed=None):
    """Every monotone map from p to q as a tuple of target indices, in
    lexicographic order (the order of itertools.product over q's indices).

    Decides the elements of p in index order. The candidates for x are the
    mask allowed[x] (default: all of q) cut down to ↑a(y) for every earlier
    y <= x and to ↓a(y) for every earlier y >= x, so every partial
    assignment is monotone; they are taken lowest bit first. This is the
    one search over monotone maps: mix-law frames, automorphisms and the
    levels of a tower map are all read off monotone maps.
    """
    n = p.n
    if n == 0:
        yield ()
        return
    if allowed is None:
        allowed = (q.full_mask,) * n
    below = [tuple(iter_bits(p.down[x] & ((1 << x) - 1))) for x in range(n)]
    above = [tuple(iter_bits(p.up[x] & ((1 << x) - 1))) for x in range(n)]
    qup, qdown = q.up, q.down
    last = n - 1
    assign = [0] * n
    todo = [0] * n  # per decided element, the candidates not yet tried
    todo[0] = allowed[0]
    x = 0
    while x >= 0:
        left = todo[x]
        if not left:
            x -= 1
            continue
        low = left & -left
        todo[x] = left ^ low
        assign[x] = low.bit_length() - 1
        if x == last:
            yield tuple(assign)
            continue
        x += 1
        m = allowed[x]
        for y in below[x]:
            m &= qup[assign[y]]
        for y in above[x]:
            m &= qdown[assign[y]]
        todo[x] = m


def is_pmorphism(f):
    """Monotone with the back condition: f maps each ↑x onto ↑f(x)."""
    src, tgt = f.source, f.target
    for x in range(src.n):
        if f.image_mask(src.up[x]) != tgt.up[f.assign[x]]:
            return False
    return True


def back_up_to(up, assign, target_up, keys):
    """The back condition up to keys: for every source point x and every
    target element e above assign[x], some x2 >= x has keys[assign[x2]]
    == keys[e]. Only the elements above the images are read."""
    for row, t in zip(up, assign):
        hit = {keys[assign[y]] for y in iter_bits(row)}
        for e in iter_bits(target_up[t]):
            if keys[e] not in hit:
                return False
    return True


def open_table(g):
    """g's openness table: per source element i, the masks ↑i ∩ g⁻¹(t) for
    each t in g[↑i] other than g(i), whose fibre already holds i itself,
    in ascending t, and the mask of the elements whose row is non-empty.
    Only those elements can keep a subset from being open.

    Built in columns, one per target t, over the elements i with some of
    ↑i outside g(i)'s fibre (every other row is empty): entry i of column
    t is the part of that rest in t's fibre, so the entry for g(i) is
    empty, and row i is the non-empty entries at i. A terminal map has no
    such element, so it builds no entry and no per-element object."""
    up = g.source.up
    fibres = g.fibres()
    others = [*map(and_, up, map(invert, map(fibres.__getitem__, g.assign)))]
    at = [*compress(range(len(up)), others)]  # the elements with a row
    above = [*map(others.__getitem__, at)]
    columns = [[*map(and_, above, repeat(fibre))] for fibre in fibres]
    rows = [()] * len(up)
    for i, entries in zip(at, zip(*columns)):
        rows[i] = tuple(filter(None, entries))
    return sum(map(lshift, repeat(1), at)), tuple(rows)


def all_open(masks, table):
    """Whether every mask is g-open, given g's open_table: each member e of
    a mask with a non-empty row must meet every fibre mask N of that row.

    Read on bit planes (bit_planes), one per element involved, bit j of
    plane[e] set iff masks[j] holds e: the masks holding e that miss N are
    plane[e] & ~OR(plane[b] for b in N). That is a few big-int operations
    per (element, fibre mask) pair, and no loop over the masks. Bits of a
    mask past the rows of the table are ignored.
    """
    needy, rows = table
    if not needy:
        return True
    involved = needy
    for e in iter_bits(needy):
        for need in rows[e]:
            involved |= need
    planes = bit_planes(masks, involved)
    for e in iter_bits(needy):
        holds = planes[e]
        if holds:
            for need in rows[e]:
                if holds & ~image(planes, need):
                    return False
    return True


def upset_masks(p, limit=None):
    """Masks of all upsets of p, ascending.

    Decides the elements from the highest index down, excluded branch
    first, so the masks come out in ascending order. A partial choice is
    consistent when no included element lies below an excluded one; every
    consistent choice extends to an upset (close the included part upward),
    so no branch dies and the work is at most n steps per upset found.

    With a limit, enumeration stops at the first upset past it: the result
    is the ascending prefix of limit + 1 masks, so more than limit masks
    means the poset has more than limit upsets.
    """
    up, down = p.up, p.down
    out = []
    stack = [(p.n - 1, 0)]
    while stack:
        i, included = stack.pop()
        if i < 0:
            out.append(included)
            if limit is not None and len(out) > limit:
                break
            continue
        excluded = ~included & ~((2 << i) - 1)
        if not up[i] & excluded:
            stack.append((i - 1, included | 1 << i))
        if not down[i] & included:
            stack.append((i - 1, included))
    return tuple(out)


# _BIT_DIGITS[i] translates a byte to b"1" if its bit i is set, else b"0"
_BIT_DIGITS = tuple(
    bytes(ord("0") + (v >> i & 1) for v in range(256)) for i in range(8)
)


def bit_planes(masks, elements):
    """Per set bit e of ``elements``, the int whose bit j is set iff
    masks[j] holds e; zero at every other index below the highest bit.

    One 8-bit chunk of every mask at a time: the chunks are written one
    byte per mask, highest j first, so a byte string translated to "0"/"1"
    per bit and read in base 2 gives that bit's plane. No loop over bits.
    """
    planes = [0] * elements.bit_length()
    if not masks:
        return planes
    for shift in range(0, len(planes), 8):
        chunk = (elements >> shift) & 255
        if chunk:
            data = bytes([(m >> shift) & 255 for m in reversed(masks)])
            for i in iter_bits(chunk):
                planes[shift + i] = int(data.translate(_BIT_DIGITS[i]), 2)
    return planes


def containment_rows(masks, width):
    """Row k has bit j set iff masks[j] ⊆ masks[k]: the up-set rows of the
    masks under reverse inclusion. ``width`` bounds the base elements.

    The base is split into 8-bit chunks, and masks[j] ⊆ masks[k] iff every
    chunk of masks[j] is a subset of the same chunk of masks[k]. Per chunk,
    the bit planes of its base elements (bit_planes: the j whose chunk has
    that bit) and a subset-union pass over the chunk's 256 values give, for
    each value b that occurs, the j whose chunk lies inside b. Row k is the
    AND of one such entry per chunk: width / 8 big-int ANDs per row and no
    loop over bits. The tables live only for the call.
    """
    if not masks:
        return ()
    full = (1 << len(masks)) - 1
    planes = bit_planes(masks, (1 << width) - 1)
    tables = []  # (shift, chunk mask, value -> j whose chunk lies inside)
    for shift in range(0, width, 8):
        bits = min(8, width - shift)
        low = (1 << bits) - 1
        union = [0] * (low + 1)  # union[b]: j whose chunk meets b
        for i in range(bits):
            plane = planes[shift + i]
            lo = 1 << i
            for b in range(lo, lo << 1):
                union[b] = union[b - lo] | plane
        values = {(m >> shift) & low for m in masks}
        tables.append(
            (shift, low, {b: full ^ union[low ^ b] for b in values})
        )
    rows = []
    for m in masks:
        row = full
        for shift, low, inside in tables:
            row &= inside[(m >> shift) & low]
        # "+ 0" copies the row into one sized to its value, which halves
        # the memory of sorted rows
        rows.append(row + 0)
    return tuple(rows)


_EMPTY = frozenset()


def mask_labels(masks, labels):
    """The frozenset of labels[i] over the set bits i of each mask, for
    masks over the base that ``labels`` indexes.

    Each nonzero 8-bit chunk of a mask is looked up in a per-chunk table of
    frozensets, filled the first time a chunk value occurs, so a label over
    a base of at most 16 elements costs at most one union, and a mask
    costs one step per nonzero chunk, never one per bit. The table lives
    only for the call.
    """
    parts = {}  # chunk bits, kept in place -> frozenset of their labels
    out = []
    for m in masks:
        label = _EMPTY
        while m:
            shift = ((m & -m).bit_length() - 1) & -8
            key = m & (255 << shift)
            m ^= key
            part = parts.get(key)
            if part is None:
                part, k = [], key
                while k:
                    part.append(labels[(k & -k).bit_length() - 1])
                    k &= k - 1
                part = parts[key] = frozenset(part)
            label = label | part if label else part
        out.append(label)
    return out

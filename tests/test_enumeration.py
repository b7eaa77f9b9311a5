"""The monotone-map search against the loops it replaced.

``poset.monotone_assignments`` is the one search over monotone maps:
``monotone_maps``, ``pmorphisms``, ``mix_relations``, ``automorphisms`` and
``enumerate_tower_maps`` all call it. The oracles (``tests/oracles.py``) are
the loops those functions ran before, kept verbatim in behaviour; every
comparison is of ordered lists, because callers (criterion 3's rng-picked
maps, the frame representatives of ``frames_up_to_iso``) depend on the
order.
"""

import pytest

from imcoalg.complexes import build_complex, enumerate_tower_maps
from imcoalg.config import Caps
from imcoalg.enumeration import monotone_maps
from imcoalg.errors import EnumerationTooLarge
from imcoalg.poset import make_poset, terminal_map

from helpers import posets_up_to
from oracles import check, folded, tower_maps_by_backtracking


class TestMonotoneAssignments:
    test_monotone_maps_match_product_scan = folded("monotone_maps")
    test_pmorphisms_filter_the_monotone_maps = folded("pmorphisms")
    test_allowed_matches_filtering = folded("monotone_assignments")
    test_mix_relations_match_backtracking = folded(
        "mix_relations", "mix_relations:own_carrier"
    )
    test_automorphisms_match_permutation_scan = folded("automorphisms")


class TestTowerMapSearch:
    def test_matches_backtracking_up_to_three_elements(self):
        check("enumerate_tower_maps")
        posets = posets_up_to(3)
        total = 0
        for q in posets:
            cx = build_complex(terminal_map(q), 2)
            total += sum(len(enumerate_tower_maps(p, cx, 2)) for p in posets)
        assert total == 1805

    test_fixed_base_map_matches_backtracking = folded("enumerate_tower_maps")

    def test_depth_one_is_the_monotone_maps(self):
        q = make_poset(["a", "b"], [("a", "b")])
        p = make_poset(["x", "y", "z"], [("x", "z")])
        cx = build_complex(terminal_map(q), 2)
        got = enumerate_tower_maps(p, cx, 1)
        assert [t.maps[1] for t in got] == monotone_maps(p, q)

    def test_cap_raises_on_the_map_past_it(self):
        q = make_poset(["a", "b", "c"], [("a", "b")])
        p = make_poset(["x", "y"], [("x", "y")])
        cx = build_complex(terminal_map(q), 2)
        count = len(enumerate_tower_maps(p, cx, 2))
        assert count > 1
        exact = Caps(max_enumeration=count)
        assert len(enumerate_tower_maps(p, cx, 2, caps=exact)) == count
        with pytest.raises(EnumerationTooLarge):
            enumerate_tower_maps(p, cx, 2, caps=Caps(max_enumeration=count - 1))
        with pytest.raises(EnumerationTooLarge):
            tower_maps_by_backtracking(
                p, cx, 2, caps=Caps(max_enumeration=count - 1)
            )

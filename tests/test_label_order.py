"""The kernels do not depend on how a poset is labelled.

``all_posets`` labels naturally, so a test that meets only its output
meets only posets whose index order is a linear extension. The relabelling
checks are entries of the oracle registry (``tests/oracles.py``): each
kernel is checked to commute with the relabelling of its instances,
f(relabel(x)) == relabel(f(x)), where its entry names a relabelling rule.
The tests below keep the ids of the relabelling tests that the registry
replaced; each runs the entries it was folded into.
"""

from imcoalg.complexes import build_p_g
from imcoalg.poset import terminal_map

from helpers import labelled_posets, moved_map, posets_up_to, travelled
from oracles import folded


def test_every_permutation_is_taken():
    labelled = labelled_posets(4)
    assert len(labelled) == 419
    assert len({q.up for q in labelled}) == 242


def test_a_stage_over_a_relabelled_source_builds_no_rows():
    # the stage poset builds its order rows on first read, whatever the
    # labelling of its source
    for p in posets_up_to(3):
        perm = (p.n - 1, *range(p.n - 1))
        stage = build_p_g(moved_map(terminal_map(p), perm, travelled(p, perm)))
        assert "up" not in vars(stage.poset)


test_upset_masks_are_the_relabelled_upsets = folded("upset_masks")
test_impl_mask_commutes_with_relabelling = folded("impl_mask")
test_covers_match_the_betweenness_loop = folded("covers")
test_pairs_of_matches_the_nested_loop = folded("pairs_of")
test_join_irreducibles_match_the_oracle = folded("join_irreducibles")
test_box_mask_commutes_with_relabelling = folded("box_mask")
test_open_table_commutes_with_relabelling = folded("all_open")
test_containment_rows_ignore_the_order_of_base_bits = folded(
    "containment_rows"
)
test_build_p_g_commutes_with_relabelling = folded("build_p_g")
test_verify_complex_commutes_with_relabelling = folded("verify_complex")
test_tower_coords_commute_with_relabelling = folded("tower_coords")
test_lift_map_commutes_with_relabelling = folded("lift_map")
test_image_tower_agrees_commutes_with_relabelling = folded(
    "image_tower_agrees"
)
test_modal_predecessors_commute_with_relabelling = folded("ModalFrame.pre")
test_mix_law_decision_commutes_with_relabelling = folded(
    "check_mix_law", "ModalFrame.mix_witness"
)
test_largest_bisimulation_commutes_with_relabelling_up_to_two = folded(
    "largest_bisimulation", "largest_model_bisimulation"
)
test_largest_bisimulation_commutes_with_relabelling_on_three = (
    test_largest_bisimulation_commutes_with_relabelling_up_to_two
)
test_bisimulation_checks_commute_with_relabelling_up_to_two = folded(
    "is_box_bisimulation", "coalgebraic_bisim_check"
)
test_bisimulation_checks_commute_with_relabelling_on_three = (
    test_bisimulation_checks_commute_with_relabelling_up_to_two
)
test_first_formulas_commute_with_relabelling = folded("first_formulas")
test_truth_mask_commutes_with_relabelling = folded("truth_mask")
test_definable_masks_commute_with_relabelling = folded("definable_masks")

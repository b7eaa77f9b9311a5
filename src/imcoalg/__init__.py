"""Finite-model workbench for intuitionistic modal frames and their
coalgebraic presentations: posets and upset algebras, rooted-stage
complexes with unique lifting, frame/coalgebra correspondences,
bisimulations, a model checker, and truncated free-algebra layers."""

from .config import Caps, DEFAULT_CAPS
from .poset import (
    Poset,
    PosetMap,
    is_monotone,
    is_pmorphism,
    make_poset,
    point_poset,
    product,
)
from .heyting import (
    join_irreducibles,
    up_functor,
    up_functor_map,
)
from .complexes import (
    Complex,
    RootedStage,
    TowerMap,
    build_complex,
    build_p_g,
    check_adjunction,
    check_limit_pmorphism,
    intuitionistic_lift,
    lift_map,
)
from .frames import (
    ModalFrame,
    NbhdFrame,
    check_coalgebra_morphism,
    check_mix_law,
    coalgebra_to_nbhd,
    frame_to_lifted,
    frame_to_upmap,
    is_modal_pmorphism,
    mix_closure,
    nbhd_morphism_condition,
    nbhd_to_coalgebra,
    pow_up_functor,
    upmap_to_frame,
)
from .bisim import (
    Bisimulation,
    bisimilarity_preserves_truth,
    coalgebraic_bisim_check,
    distinguishing_formula,
    is_box_bisimulation,
    largest_bisimulation,
    largest_model_bisimulation,
    search_distinguishing_formulas,
)
from .logic import (
    Model,
    definable_masks,
    enumerate_formulas,
    first_formulas,
    parse,
    print_formula,
    valid_on_model,
)
from .freealg import (
    FreeStage,
    build_free_stages,
    check_modal_stage_properties,
    generator_poset,
    universal_lift,
)

__version__ = "0.1.0"

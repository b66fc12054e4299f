"""Exact computation and verification engine for graded chain complexes
with circle actions: S_U / E_Y functors, Koszul duality checks, balanced
flavor assembly with mapping cones, filtered Laurent complexes, and
connected-sum product complexes — all in exact arithmetic."""

from .exactlin import AbelianGroup, IntMatrix, snf, rank_and_kernel, solve, homology_of_pair
from .chain import (ChainComplex, GradedMap, GradedModule, HomologyTable,
                    PMorphism, cone, direct_sum, homology, induced_on_homology,
                    tensor, validate, verify_exact_at, verify_homotopy)
from .circle import (ALL_FLAVORS, Flavor, HAT, INFINITY, MINUS, PLUS,
                     ShiftReport, Window, e1_page, e_y, e_y_map,
                     fundamental_sequences, koszul_a, koszul_b, s_u, s_u_map,
                     safe_degrees)
from .flavors import (AssemblyInconsistent, BalancedComponents, ConeReport,
                      FlavorBundle, FourFlavors, LadderReport, TowerParams,
                      assemble, cone_identities, cone_total, four_flavors,
                      ladder_check, tower_model)
from .connsum import (ConnSumMaps, FilteredComplex, IdentificationFailed,
                      PositivityViolated, SumInput, case1_check, case2_check,
                      check_positivity, cm_flavors, product_complex,
                      verify_sum_maps)

__all__ = [
    "AbelianGroup", "IntMatrix", "snf", "rank_and_kernel", "solve",
    "homology_of_pair", "ChainComplex", "GradedMap", "GradedModule",
    "HomologyTable", "PMorphism", "cone", "direct_sum", "homology",
    "induced_on_homology", "tensor", "validate", "verify_exact_at",
    "verify_homotopy",
    "ALL_FLAVORS", "Flavor", "HAT", "INFINITY", "MINUS", "PLUS",
    "ShiftReport", "Window", "e1_page", "e_y", "e_y_map",
    "fundamental_sequences", "koszul_a", "koszul_b", "s_u", "s_u_map",
    "safe_degrees",
    "AssemblyInconsistent", "BalancedComponents", "ConeReport",
    "FlavorBundle", "FourFlavors", "LadderReport", "TowerParams",
    "assemble", "cone_identities", "cone_total", "four_flavors",
    "ladder_check", "tower_model",
    "ConnSumMaps", "FilteredComplex", "IdentificationFailed",
    "PositivityViolated", "SumInput", "case1_check", "case2_check",
    "check_positivity", "cm_flavors", "product_complex", "verify_sum_maps",
]

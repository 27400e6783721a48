"""Spherical solutions of the critical-exponent equation and their glued
combinations: curvature-function evaluation, Kelvin transforms, singular
potential quadrature, deviation scans and lower-bound checkers."""

from .blowup import BlowupInput, BubbleReport, detect, excise, fit_bubble, rescale, weighted_max
from .bounds import (
    DepthFactors,
    ThmBParams,
    deep_bubble_bound,
    depth_factors,
    lower_bound_4_4,
    sup_scan,
    thmA_conditions,
    thmA_dual_conditions,
    thmB_chain_bound,
    thmB_condition,
)
from .field_core import (
    BaseField,
    Bubble,
    CallableRadialField,
    KReport,
    ScalarField,
    SumField,
    base_k,
    combined_k_bounds,
    grad_inv_power,
    inv_root_grad_sq,
    k_function,
    k_sum_limit,
    sum_field,
)
from .glue import (
    Cutoff,
    GlueConfig,
    RhoMSolution,
    glue_bubble_into,
    glue_concentric,
    glue_disjoint,
    insert_annulus,
    solve_rho_M,
)
from .kelvin import Inversion, invert_point, kelvin_bubble, kelvin_field, lemma_5_4_compose
from .potential import (
    Kernel,
    QuadResult,
    SingularProfile,
    h_eval,
    int_absH_annulus,
    int_absH_ball,
    lower_bound_3_9,
    rep_formula_report,
    rep_identity_report,
    unit_sphere_area,
    weighted_grad_integral,
)
from .regions import Annulus, Ball, Box, GridSpec

__version__ = "0.1.0"

__all__ = [
    "Annulus", "Ball", "BaseField", "BlowupInput", "Box", "Bubble",
    "BubbleReport", "CallableRadialField", "Cutoff", "DepthFactors",
    "GlueConfig", "GridSpec", "Inversion", "KReport", "Kernel", "QuadResult",
    "RhoMSolution", "ScalarField", "SingularProfile", "SumField", "ThmBParams",
    "base_k", "combined_k_bounds",
    "deep_bubble_bound", "depth_factors", "detect",
    "excise", "fit_bubble", "glue_bubble_into", "glue_concentric",
    "glue_disjoint", "grad_inv_power", "h_eval",
    "insert_annulus", "int_absH_annulus", "int_absH_ball", "inv_root_grad_sq",
    "invert_point", "k_function", "k_sum_limit", "kelvin_bubble",
    "kelvin_field", "lemma_5_4_compose", "lower_bound_3_9",
    "lower_bound_4_4", "rep_formula_report", "rep_identity_report",
    "rescale", "solve_rho_M",
    "sum_field", "sup_scan", "thmA_conditions", "thmA_dual_conditions",
    "thmB_chain_bound", "thmB_condition", "unit_sphere_area",
    "weighted_grad_integral", "weighted_max",
]

"""Exact-arithmetic toolkit for kneading determinants and Artin-Mazur zeta
functions of piecewise monotone interval maps."""

from .combinatorics import (
    Combinatorics,
    OrbitInfo,
    PLModel,
    build_vu_from_periodic_points,
    classify_points,
    generate_vu,
    is_expanding,
    is_framed,
    is_own_combinatorics,
    is_pm,
    is_virtually_unimodal,
    orbit,
    periodic_orbits_of_pl,
    pl_model,
    turning_points,
)
from .kneading import (
    KneadingData,
    kneading_determinant,
    kneading_matrix,
    kneading_rational,
    lap_shape,
    theta_series,
    unimodal_kneading,
    unimodal_rational_form,
    vu_structure_check,
)
from .series import (
    PeriodicityCertificate,
    RationalFn,
    TruncSeries,
    cyclotomic_peel,
    detect_eventual_periodicity,
    rational_from_eventually_periodic,
    rf_to_series,
    series_matrix_det,
)
from .subshift import AdjMatrix, fib_adjacency, fib_language, fib_numbers, sft_periodic_counts, vee_map
from .zeta import counts_from_zeta, mt_relation_check, zeta_from_counts, zeta_vu_closed_form

__version__ = "0.1.0"

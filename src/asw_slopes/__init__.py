"""Exact slope arithmetic for Artin-Schreier-Witt towers over finite fields.

Two independent computational pathways -- character sums over Teichmueller
points and a nuclear operator matrix -- feed one exact verification layer
for slope periodicity, Hodge bounds, polygon turning points, and the
weight-slope law of the block factorization.
"""

from .errors import (
    AswError,
    BudgetExceeded,
    ConfigError,
    CtxMismatch,
    DegreeNotCoprime,
    DegreeViolation,
    InsufficientGuard,
    InsufficientPrecision,
    NoGapAtVertex,
    NonIntegralResult,
    NotPrime,
    PathwayMismatch,
    PrecisionError,
    VerificationError,
    WeightOutsideAnnulus,
)
from .gf import FieldCtx, FqElt, find_irreducible
from .padic import CycInt, Valuation, ZqCtx, binom_pow, teichmuller
from .series import TruncSeries, exp_from_power_sums
from .newton import (
    NewtonPolygon,
    hodge_polygon,
    lower_hull,
    max_gap,
    render_svg,
    turning_points,
    upper_bound_polygon,
)
from .expsum import (
    TowerSpec,
    TraceHistogram,
    char_series,
    char_series_at_character,
    character_sum,
    l_degree,
    l_series,
    newton_from_cyclotomic,
    observed_polygon,
    q_normalization,
    t_adic_sum,
    trace_histogram,
)
from .dwork import (
    artin_hasse,
    char_series_via_operator,
    nuclear_matrix,
    nuclear_traces,
    pi_of_T,
    t_adic_sum_via_operator,
)
from .tower import (
    base_slopes,
    count_points_char,
    count_points_trace,
    count_points_witt,
    cross_check_counts,
    genus_double,
    l_newton,
    predicted_slopes,
    stable_level,
    verify_hodge,
    verify_periodicity,
    witt_add,
    witt_frobenius,
    witt_neg,
    zeta_numerator,
)
from .eigencurve import (
    BlockFactor,
    predicted_block_slopes,
    specialize_block,
    verify_weight_slope_law,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

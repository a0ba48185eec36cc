"""Exact combinatorics of rational (a,b)-Dyck paths.

Paths, simultaneous cores, the zeta and eta maps by four constructions,
pair-based and chain-based inverses, and exhaustive desk-scale checkers
for the q,t-enumeration conjectures.  Everything is pure, immutable, and
integer-exact.
"""

from .bounce import (
    BouncePath,
    conj_predecessor,
    initial_bounce,
    zeta_inverse_fuss,
    zeta_predecessor,
)
from .cores import (
    CorePartition,
    HookFilling,
    RowLengthFilling,
    a_columns_skew,
    a_rows,
    anderson,
    anderson_inverse,
    boundary_boxes,
    core_conjugate,
    hook_filling,
    row_length_filling,
    skew_length_core,
)
from .errors import DyckError
from .inverse import (
    InversionResult,
    chi,
    chi_kth_valley,
    chi_level1,
    exceedances_check,
    iota,
    justified,
    kth_valley_path,
    level_point,
    pair_gamma,
    split_dims,
    square_gamma_shaded,
    zeta_inverse,
    zeta_inverse_detailed,
    zeta_inverse_level1,
)
from .maps import (
    IntervalGrid,
    LaserFilling,
    cross_check,
    eta,
    eta_via_cores,
    eta_via_intervals,
    eta_via_lasers,
    eta_via_sweep,
    interval_grid,
    lambda_partition,
    laser_filling,
    mu_partition,
    zeta,
    zeta_via_cores,
    zeta_via_intervals,
    zeta_via_lasers,
    zeta_via_sweep,
)
from .paths import (
    DyckPath,
    Partition,
    Permutation,
    conjugate,
    enumerate_paths,
    flip,
    full_path,
    gamma,
    lowest_path,
    make_path,
    path_from_bounded_partition,
    path_from_hooks,
    predecessor,
    rational_catalan_number,
    reverse,
    sigma,
    standardize,
    star_product,
    tau,
)
from .render import RenderSpec, render, render_ascii, render_svg
from .stats import (
    area,
    co_skew_length,
    coarea,
    core_rank,
    delta,
    dinv,
    flip_skew_inversions,
    path_rank,
    rank,
    skew_inversions,
    skew_length,
    skew_length_peaks_valleys,
    statistics_summary,
)
from .verification import (
    BijectivityReport,
    QPolynomial,
    QTPolynomial,
    bijectivity_report,
    gaussian_binomial,
    q_bracket,
    qt_catalan,
    qt_symmetry_check,
    rational_q_catalan,
    sl_rank_generating,
)

__version__ = "0.1.0"

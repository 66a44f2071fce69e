"""iselab: exact and Monte Carlo machinery for label profiles of random trees.

Exact generating-function recurrences for joint label-moment expectations
in four tree families, the grand-moment recurrences of their common limit
measure, uniform samplers with deterministic seeding, and the quadrature,
series, and contour routes to the limit's mean density and MGF.

The package level holds the main entry points; everything else is
reached through its module (iselab.genfun, iselab.trees, ...).
"""

from .families import (
    BINARY,
    COMPLETE_BINARY,
    FAMILIES,
    PLANE_0PM1,
    PLANE_PM1,
    TreeFamily,
    get_family,
)
from .genfun import (
    exact_moment,
    f_series,
    float_moment,
    lemma_L3_ratio,
    power_product_series,
)
from .grandmoments import a_coeff, c_lambda, limit_moment_ise
from .numerics import (
    MGF_A_RADIUS,
    ToleranceError,
    contour_point,
    mean_density_quadrature,
    mean_density_series,
    mgf_L,
)
from .partitions import positive_partitions
from .sampler import (
    SeedSpec,
    dyck_moment,
    rescaled_density,
    sample_binary,
    sample_dyck_path,
    sample_plane,
    sample_tree,
)
from .series import BivariateSeries, LaurentPoly, PowerSeries
from .trees import (
    enumerate_trees,
    oracle_moment,
    oracle_power_product_totals,
    shape_key,
    vertical_profile,
)
from .verify import run as run_verification

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "COMPLETE_BINARY",
    "FAMILIES",
    "PLANE_0PM1",
    "PLANE_PM1",
    "TreeFamily",
    "get_family",
    "exact_moment",
    "f_series",
    "float_moment",
    "lemma_L3_ratio",
    "power_product_series",
    "a_coeff",
    "c_lambda",
    "limit_moment_ise",
    "MGF_A_RADIUS",
    "ToleranceError",
    "contour_point",
    "mean_density_quadrature",
    "mean_density_series",
    "mgf_L",
    "positive_partitions",
    "SeedSpec",
    "dyck_moment",
    "rescaled_density",
    "sample_binary",
    "sample_dyck_path",
    "sample_plane",
    "sample_tree",
    "BivariateSeries",
    "LaurentPoly",
    "PowerSeries",
    "enumerate_trees",
    "oracle_moment",
    "oracle_power_product_totals",
    "shape_key",
    "vertical_profile",
    "run_verification",
    "__version__",
]

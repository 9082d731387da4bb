"""Chaining certificates and minorizing metrics on finite metric measure spaces."""

from .chain import (
    CertificateError,
    ChainCertificate,
    PreconditionError,
    averaging_kernel,
    certificate_thm1,
    certificate_thm3,
    certificate_to_json,
    constant_a,
    constant_b3,
    modulus_pairs,
)
from .mc import (
    McReport,
    McStat,
    PathBatch,
    ProcessSampler,
    brownian_grid_sampler,
    empirical_corollary,
    gaussian_abs_moment,
    increment_moment_stats,
    sample,
)
from .minorize import (
    MinorizingMetrics,
    ball_growth_integral,
    majorizing_integral,
)
from .mspace import (
    MetricMeasureSpace,
    RadiusTable,
    SpaceValidationError,
    ZeroMassAtomError,
    generate_space,
    radius_table,
    space_from_json,
    space_to_json,
)
from .orlicz import amemiya_norm, luxemburg_norm
from .verify import (
    Check,
    ConverseWitness,
    ProofTrace,
    TestFunction,
    VerificationReport,
    converse_witness,
    invariant_suite,
    proof_trace,
    verify_thm1,
    verify_thm3,
)
from .young import (
    ConvexGauge,
    YoungFunction,
    pair_series,
    product_condition,
    ratio_condition,
    shifted_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Monte Carlo statistics of concurrence vs. post-measurement mutual information.

The package samples random two-qubit pure states, computes for each the
concurrence and the mutual information left in the outcome distribution
of a local product-basis measurement, and aggregates the pairs into
mergeable 2D histograms.  Closed-form curves (the entanglement bound and
the ridge of the joint density) plus an executable verification suite
make the sampled statistics checkable end to end.
"""

from .curves import mi_from_angles, ridge_concurrence, ridge_mi
from .errors import (
    ConsistencyError,
    DomainError,
    EmptySliceError,
    EntmiError,
    HistogramFormatError,
)
from .histogram import (
    Density1D,
    JointHistogram,
    SliceStats,
    load_histogram,
    write_density_csv,
)
from .pipeline import run_histogram_job
from .sampling import Ensemble, SeedSpec, sample_amplitudes, stream_generator
from .states import (
    concurrence,
    concurrence_polar,
    entanglement_entropy,
    entanglement_from_concurrence,
    mutual_information,
    params_to_amplitudes,
    probabilities,
)
from .verify import (
    VerificationReport,
    check_angle_oracle,
    check_bound,
    check_ridge,
    check_zero_mi_family,
    write_reports_jsonl,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "Density1D",
    "DomainError",
    "EmptySliceError",
    "Ensemble",
    "EntmiError",
    "HistogramFormatError",
    "JointHistogram",
    "SeedSpec",
    "SliceStats",
    "VerificationReport",
    "check_angle_oracle",
    "check_bound",
    "check_ridge",
    "check_zero_mi_family",
    "concurrence",
    "concurrence_polar",
    "entanglement_entropy",
    "entanglement_from_concurrence",
    "load_histogram",
    "mi_from_angles",
    "mutual_information",
    "params_to_amplitudes",
    "probabilities",
    "ridge_concurrence",
    "ridge_mi",
    "run_histogram_job",
    "sample_amplitudes",
    "stream_generator",
    "write_density_csv",
    "write_reports_jsonl",
]

"""Numerical laboratory for the Paulsen and projection problems.

Frames and approximate Schauder frames over small real spaces, the
closest-point maps and gradient flow around equal-norm Parseval families,
projection balance and chordal distances, and a seeded experiment engine
comparing achieved distances against the known theoretical ceilings.

The package namespace holds the names that the scripts, the acceptance
suite and the benchmark's tests use; everything else is imported from its
submodule.
"""

from .asf import (
    PNormSpace,
    analyze_asf,
    asf_dist,
    from_hilbert,
    generate_asf,
)
from .documents import sweep_csv_text, write_flow_trace_csv
from .errors import ShapeMismatch
from .flow import FlowConfig, flow_step, run_flow, tangent_family
from .frames import (
    Frame,
    analyze_frame,
    closest_equal_norm,
    closest_parseval,
    frame_dist,
    frame_operator,
    generate,
    naimark_complement,
)
from .lab import (
    InstanceSpec,
    estimate_paulsen,
    generate_instance,
    nearest_enp_alternating,
    nearest_enp_asf_search,
    record_to_row,
)
from .spectral import sym_eig

__version__ = "0.1.0"

"""Numerical laboratory for a half-line pseudodifferential operator.

The package evaluates the operator's jump kernel and added potential,
applies the operator to sampled functions by two independent routes, builds
the Wiener-Hopf/Mellin generalized symbol along its six-segment contour,
computes winding numbers and Fredholm indices, solves the critical-
smoothness equation, and classifies parameter triples against the proved
invertibility theorems.
"""

from .classify import classify
from .contour import (
    SymbolLoop,
    build_loop,
    build_validation_loop,
    export_loop,
    fredholm_index,
    min_modulus,
    winding_number,
)
from .errors import (
    AccuracyError,
    DomainError,
    GammaOverflowError,
    NotFredholmError,
    PoleError,
    ResolutionError,
)
from .gridfn import GridFunction
from .halfline import (
    apply_fourier,
    apply_singular,
    caputo_derivative,
    mellin_difference_residual,
    quadratic_form,
    rl_integral,
)
from .kernel import (
    DeltaImage,
    KernelParams,
    PotentialKind,
    bernstein_residual,
    delta_image,
    frac_laplacian_constant,
    kernel_m,
    kernel_m_oracle,
    killing_coefficient,
    potential_aminus,
    potential_full,
    symbol_identity_residual,
)
from .reports import ClassificationReport, VerificationReport
from .symbols import (
    Regime,
    SpectralParams,
    c1p_inf,
    c2p_inf,
    mellin_symbol_residual,
    wh_c1,
    wh_c2,
)
from .transcend import (
    alpha_c,
    arg_beta_series_residual,
    critical_s,
    inequality_scan,
    no_solution_certificate,
    te_residual_zero,
)

__version__ = "0.1.0"

"""Poisson geometry of compact symmetric spaces as computable linear algebra.

Triangular and Iwasawa factorizations of complex unimodular matrices, the
homogeneous Poisson bivector on Grassmannians / projective spaces / compact
groups, Birkhoff-layer stratification, the momentum map of the layer-torus
action, and explicit chart tensors with cross-verification between the
equivariant and coordinate descriptions.
"""

__version__ = "0.1.0"

from .errors import (
    InvalidTangent,
    NotPositiveDefinite,
    NumericalDomainError,
    SingularInput,
    StratumAmbiguous,
    SymmetryViolation,
)
from .linalg import (
    BirkhoffFactors,
    IwasawaFactors,
    birkhoff_factor,
    inv_sqrt_hpd,
    iwasawa_factor,
    principal_minors,
)
from .lie import (
    hilbert_transform,
    proj_u,
    trace_form,
)
from .momentum import (
    hamiltonian_residual,
    moment_eval,
)
from .poisson import (
    calibration_constant,
    chart_pi_eval,
    chart_tensor,
    cp1_family,
    cpn_coeffs,
    fothlu_w_chart,
    grassmann_local_pi,
    jacobi_residual,
    omega_apply,
    pi_el_group,
    pi_eval,
    pi_rank,
)
from .strata import (
    birkhoff_layer,
    leaf_factorize,
    torus_tw,
)
from .symspace import (
    SymmetricSpacePreset,
    canonical_rep,
    cartan_embed,
    grassmannian,
    group_case,
    parse_preset,
    project_ip,
    theta_g,
)

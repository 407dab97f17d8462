"""Harmonic analysis on the quantum unit disc.

The quantum disc is the involutive algebra with one generator z and the
relation z* z = q^2 z z* + 1 - q^2.  This package implements its
function theory end to end at desk scale: q-special functions, the
sector-decomposed normal form with the invariant integral, the quantum
symmetry action with the invariant Laplacian, the spherical transform
with its spectral measure, and the explicit kernels inverting the first
and second power of the Laplacian, each identity backed by a numerical
check.
"""

from .context import QContext
from .discalg import (
    DiscElement,
    GridFunction,
    RepMatrix,
    delta_fn,
    element_from_json_dict,
    element_to_json_dict,
    inner,
    inv_integral,
    load_element,
    normal_mul,
    rep_matrix,
    save_element,
    star,
)
from .errors import (
    CapacityError,
    DomainError,
    PoleError,
    QDiscError,
    QuadratureError,
    RangeError,
)
from .green import (
    Kernel,
    apply_kernel,
    classical_limit_report,
    coef_order1,
    coef_order2,
    g_radial_grid,
    gm_quadrature_grid,
    gm_spectral,
    green_solve,
    kernel_G,
    kernel_assembled,
    kernel_invariance_residual,
)
from .qspecial import (
    dilog,
    qgamma,
    qpochhammer,
)
from .spherical import (
    SpectralFunction,
    c_coefficient,
    lambda_rho,
    phi_column,
    phi_rho,
    psi_rho,
    sigma_density,
    spectrum_probe,
    transform_forward,
    transform_inverse,
)
from .uqsl2 import (
    act,
    casimir_apply,
    invariance_residual,
    laplacian_apply,
    radial_laplacian,
    sector_rotate,
)

__version__ = "0.1.0"

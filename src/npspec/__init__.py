"""Spectral asymptotics of polynomially compact boundary operators.

The package computes, by two independent routes, the rate at which
discrete eigenvalues of a zero order polynomially compact operator
accumulate at the points of its essential spectrum:

* a symbol route that manipulates two-term matrix symbols, builds the
  cluster symbols of the elastic Neumann-Poincare operator in closed
  form in the principal curvatures (checked against symbols extracted
  from its kernel) and integrates signed power traces over them;
* a spectral route that discretizes the operator on a closed surface
  with a singularity-corrected Nystrom rule, clusters eigenvalues near
  the essential spectrum and fits counting-function power laws.

The worked case is the Neumann-Poincare operator of 3D linear
elasticity, whose essential spectrum is {0, +k, -k} with
k = mu / (2 (2 mu + lambda)).
"""

from .symbols import (
    TwoTermSymbol,
    SpectralPolynomial,
    compose,
    cluster_symbols,
)
from .elasticity import (
    LameParams,
    kelvin_matrix,
    np_kernel,
    np_principal_symbol,
    single_layer_symbol,
    lambda_projector,
    symmetrizer_symbols,
    essential_spectrum,
    sphere_exact_eigenvalues,
)
from .surfaces import (
    ParametrizedSurface,
    CCoordinateChart,
    make_surface,
    principal_curvatures,
    c_chart,
    surface_quadrature,
)
from .extraction import (
    AngularSymbol,
    SymbolField,
    curvature_matrices,
    chart_kernel,
    homogeneous_parts,
    angular_fourier_symbol,
    np_symbol_field,
)
from .asymptotics import (
    AsymptoticReport,
    coefficient_integral,
)
from .spectral import (
    assemble_operators,
    symmetrize,
    cluster_and_count,
    fit_power_law,
    compactness_check,
)

__all__ = [
    "TwoTermSymbol",
    "SpectralPolynomial",
    "compose",
    "cluster_symbols",
    "LameParams",
    "kelvin_matrix",
    "np_kernel",
    "np_principal_symbol",
    "single_layer_symbol",
    "lambda_projector",
    "symmetrizer_symbols",
    "essential_spectrum",
    "sphere_exact_eigenvalues",
    "ParametrizedSurface",
    "CCoordinateChart",
    "make_surface",
    "principal_curvatures",
    "c_chart",
    "surface_quadrature",
    "AngularSymbol",
    "SymbolField",
    "curvature_matrices",
    "chart_kernel",
    "homogeneous_parts",
    "angular_fourier_symbol",
    "np_symbol_field",
    "AsymptoticReport",
    "coefficient_integral",
    "assemble_operators",
    "symmetrize",
    "cluster_and_count",
    "fit_power_law",
    "compactness_check",
]

__version__ = "0.1.0"

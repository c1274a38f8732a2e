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

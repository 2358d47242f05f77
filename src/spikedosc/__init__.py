"""Spiked harmonic oscillator: -d2/dx2 + B x^2 + A/x^2 + lam/x^alpha on the
half-line with a Dirichlet condition at the origin.

Closed-form matrix elements in the exactly solvable singular-oscillator
basis, Rayleigh-Ritz variational spectra, weak-coupling perturbation series,
and independent quadrature/double-sum oracles.
"""

from .basis import (A_of_gamma, BasisState, OscillatorParams, energy_n,
                    eval_psi, eval_psi_grid, gamma_of_A, norm_coeff)
from .errors import (ConvergenceError, DivergenceError, DomainError,
                     PoleError, SlowConvergenceWarning, SpikedOscError)
from .matel import (MatrixElementTable, build_hamiltonian, build_table,
                    matrix_element, matrix_element_alpha2,
                    vestige_hamiltonian_entry, vestige_limit_entry)
from .oracle import (QuadratureSpec, adaptive_quad, double_sum_matel,
                     matel_quadrature, overlap)
from .perturb import (EnergySeries, WavefunSamples, energy_exact_alpha2,
                      energy_series, energy_series_alpha2,
                      psi1_alpha2_closed, psi1_contour, psi1_series,
                      wavefun_samples)
from .spectrum import (SpectrumResult, eigensolve_symmetric,
                       exact_ground_alpha2, variational_sweep)

__version__ = "0.1.0"

__all__ = [
    "A_of_gamma", "BasisState", "ConvergenceError", "DivergenceError",
    "DomainError", "EnergySeries", "MatrixElementTable", "OscillatorParams",
    "PoleError", "QuadratureSpec", "SlowConvergenceWarning", "SpectrumResult",
    "SpikedOscError", "WavefunSamples", "adaptive_quad", "build_hamiltonian",
    "build_table", "double_sum_matel", "eigensolve_symmetric", "energy_n",
    "energy_exact_alpha2", "energy_series", "energy_series_alpha2",
    "eval_psi", "eval_psi_grid", "exact_ground_alpha2", "gamma_of_A",
    "matel_quadrature", "matrix_element",
    "matrix_element_alpha2", "norm_coeff", "overlap", "psi1_alpha2_closed",
    "psi1_contour", "psi1_series", "variational_sweep",
    "vestige_hamiltonian_entry", "vestige_limit_entry", "wavefun_samples",
]

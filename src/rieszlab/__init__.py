"""Radial solvers and decay analysis for a coupled potential system.

The package studies positive radial solution pairs of the coupled
integral system ``u = I_alpha[v^q]``, ``v = I_alpha[u^p]`` on R^n (the
potential form of a polyharmonic Lane-Emden system):

- :mod:`rieszlab.exponents` — parameter validation, regime
  classification and the closed-form decay/integrability exponents;
- :mod:`rieszlab.grid` — log-radial grids;
- :mod:`rieszlab.riesz` — the radial potential operator: exact kernel,
  conservative cell quadrature, head/tail extensions;
- :mod:`rieszlab.solver` — Anderson-accelerated Picard iteration for
  the regular decaying pair and the exact singular power-law pair;
- :mod:`rieszlab.shooting` — radial ODE shooting (``alpha = 2``) and
  bisection for the separatrix ground state;
- :mod:`rieszlab.analysis` — tail fitting with log-correction
  detection, amplitude limits, integrability and monotonicity
  predicates, and the decay-exponent recursion;
- :mod:`rieszlab.runio` — full-precision CSV/JSON artifacts and run
  manifests;
- :mod:`rieszlab.cli` — the ``rieszlab`` command-line interface;
- :mod:`rieszlab.acceptance` — end-to-end acceptance criteria.
"""

from .errors import (BracketError, CollapseError, DegenerateFitError,
                     DivergentTailError, IntegrationError,
                     NonConvergenceError, NumericalError, PreconditionError,
                     RieszLabError, SingularKernelError, TruncationWarning,
                     ValidationError)
from .exponents import (Params, Regime, RegimeReport, VFastCase, classify,
                        critical_q)
from .grid import RadialGrid, make_grid
from .riesz import (KernelOperator, RadialField, angular_kernel,
                    apply_extended, assemble, field_integral, kernel_ratio,
                    power_law_constant, riesz_normalization, sphere_area,
                    tail_response)
from .solver import (Branch, SolveConfig, SolutionPair, default_init,
                     singular_amplitudes, singular_solution, solve_picard)
from .shooting import (BisectionResult, Outcome, ShotConfig, ShotRecord,
                       Trajectory, bisect_ground_state, shoot)
from .analysis import (DecayFit, FastLimitReport, RecursionTrace,
                       amplitude_b0, check_fast_limits, default_window,
                       envelope_bands, envelope_check, fit_tail,
                       integrability_predicate, monotonicity_criterion,
                       run_recursion, v_limit_pure, v_limit_log_corrected,
                       v_limit_weakened)
from .runio import (RunManifest, config_hash, dumps_json, make_manifest,
                    read_field_csv, read_manifest, read_trajectory_csv,
                    write_field_csv, write_json, write_trajectory_csv)

__version__ = "0.1.0"

__all__ = [
    "BisectionResult", "BracketError", "Branch", "CollapseError",
    "DecayFit", "DegenerateFitError", "DivergentTailError",
    "FastLimitReport", "IntegrationError", "KernelOperator",
    "NonConvergenceError", "NumericalError", "Outcome", "Params",
    "PreconditionError", "RadialField", "RadialGrid", "RecursionTrace",
    "Regime", "RegimeReport", "RieszLabError", "RunManifest", "ShotConfig",
    "ShotRecord", "SingularKernelError", "SolutionPair", "SolveConfig",
    "Trajectory", "TruncationWarning", "VFastCase", "ValidationError",
    "amplitude_b0",
    "angular_kernel", "apply_extended", "assemble", "bisect_ground_state",
    "check_fast_limits", "classify", "config_hash", "critical_q",
    "default_init", "default_window", "dumps_json", "envelope_bands",
    "envelope_check", "field_integral", "fit_tail", "integrability_predicate",
    "kernel_ratio", "make_grid", "make_manifest", "monotonicity_criterion",
    "power_law_constant", "read_field_csv", "read_manifest",
    "read_trajectory_csv", "riesz_normalization", "run_recursion", "shoot",
    "singular_amplitudes", "singular_solution", "solve_picard", "sphere_area",
    "tail_response", "v_limit_log_corrected", "v_limit_pure",
    "v_limit_weakened", "write_field_csv", "write_json",
    "write_trajectory_csv",
]

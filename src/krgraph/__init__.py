"""Kernel and linear regression for graph-smooth targets.

Library layout:
  graphs      adjacency/Laplacian algebra, random generators
  kernels     Gram matrices and test-point cross-kernels
  solver      LR/LRG/KR/KRG fits via the spectral Sylvester solve
  graphlearn  joint Laplacian + coefficient estimation
  synthdata   seeded synthetic-experiment data generation
  evaluation  NMSE, cross-validation, KRR baseline, benchmark harness
  cli         config-driven command-line front end
"""

from .graphs import (
    Graph,
    Laplacian,
    build_laplacian,
    barabasi_albert,
    erdos_renyi,
    geodesic_adjacency,
)
from .kernels import KernelSpec, gram_matrix, kernel_cross_matrix
from .solver import (
    Hyperparams,
    KrgModel,
    SpectralCache,
    fit_krg,
    fit_lrg,
    predict_krg,
    predict_lrg,
    shrinkage_factors,
    solve_sylvester_spectral,
)
from .graphlearn import GraphLearnConfig, alternating_fit, joint_cost
from .synthdata import Dataset, SynthConfig, make_synthetic_dataset, smooth_projection
from .evaluation import CvGrid, cross_validate, krr_baseline, nmse_db, run_benchmark

__version__ = "0.1.0"

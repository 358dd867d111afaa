"""Concomitant linear DAG estimation.

Learns the weighted adjacency matrix of a linear structural equation model
from observational data by jointly estimating the DAG and the exogenous
noise scale(s), using a smooth log-determinant acyclicity penalty and staged
first-order optimization. Includes synthetic data generation, an ordinary
least-squares baseline, the standard DAG-recovery metric suite, and a
seeded benchmark harness.
"""

from .errors import ConfigError, DataError
from .graphs import (
    Cpdag,
    GraphModelSpec,
    assign_edge_weights,
    cpdag_of,
    is_dag,
    load_adjacency_csv,
    sample_er_dag,
    sample_sf_dag,
    save_adjacency_csv,
)
from .metrics import MetricReport, evaluate, fdr, noise_error, posthoc_noise, shd, shd_c, sid, tpr
from .rng import stream
from .scores import DomainViolation, h_ldet
from .sem import (
    Dataset,
    NoiseSpec,
    draw_node_variances,
    sample_cov,
    sample_noise,
    simulate_sem,
    standardize,
)
from .solver import (
    FitError,
    FitResult,
    StageSchedule,
    default_schedule,
    fit,
    fit_online,
    threshold,
)

__version__ = "0.1.0"

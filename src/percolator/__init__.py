"""Percolation centrality, exact and approximate."""

from .bounds import (McEraState, Partition, empirical_peeling, eps_bound,
                     era_upper_bound, mcera, sufficient_sample_size,
                     vd_baseline_sample_size, xi_floor)
from .exact import ExactResult, exact_all, exact_vertex_diameter
from .graph import BfsWorkspace, EdgeListParseError, Graph, load_edge_list
from .percolation import (PercolationModel, load_states, percolation_differences,
                          random_states)
from .progressive import RunReport, ScheduleConfig, estimate
from .sampling import (Contribution, MeetResult, PathBag, bag_estimate,
                       balanced_bidirectional_bfs, pab_sample, prk_sample, sample_pair,
                       sample_paths)

__version__ = "0.1.0"

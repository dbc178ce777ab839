"""qpart: QUBO/HUBO encodings of graph partitioning problems, with verification tools.

Builds one-hot QUBO and logarithmic HUBO Hamiltonians for minimum graph
coloring (and general label-symmetric partitioning), quadratizes the HUBO
with provably sufficient penalties, estimates CNOT counts per QAOA layer,
and benchmarks a classical annealing stand-in with time-to-solution and
Kaplan-Meier aggregation.
"""

from .graphs import (
    Coloring,
    Graph,
    brooks_upper_bound,
    chromatic_number_exact,
    generate_random_connected,
    greedy_coloring,
    parse_graph,
    serialize_graph,
)
from .model import from_model_json, to_model_json
from .pbo import EncodedProblem, Polynomial, ground_states
from .onehot import encode_mgc_onehot, onehot_penalties
from .logenc import PartitionSpec, encode_general, encode_mgc_log, lex_penalties
from .quadratize import quadratize, qubit_advantage_predicate, verify_quadratization
from .gates import cnot_count_log_closed, cnot_count_onehot_closed, cnot_count_oracle
from .solve import AnnealParams, anneal
from .bench import BenchInstance, TimingModel, km_median, run_suite, tts

__version__ = "0.1.0"

__all__ = [
    "AnnealParams",
    "BenchInstance",
    "Coloring",
    "EncodedProblem",
    "Graph",
    "PartitionSpec",
    "Polynomial",
    "TimingModel",
    "anneal",
    "brooks_upper_bound",
    "chromatic_number_exact",
    "cnot_count_log_closed",
    "cnot_count_onehot_closed",
    "cnot_count_oracle",
    "encode_general",
    "encode_mgc_log",
    "encode_mgc_onehot",
    "from_model_json",
    "generate_random_connected",
    "greedy_coloring",
    "ground_states",
    "km_median",
    "lex_penalties",
    "onehot_penalties",
    "parse_graph",
    "quadratize",
    "qubit_advantage_predicate",
    "run_suite",
    "serialize_graph",
    "to_model_json",
    "tts",
    "verify_quadratization",
]

"""Succinct MDPs: circuit-represented models, exact evaluation, value
functions, hardness-instance generators, and brute-force oracles."""

from .bits import (
    bits_to_int,
    format_bitstring,
    int_to_bits,
    int_to_twos,
    parse_bitstring,
    twos_to_int,
    width_for_count,
)
from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    NetlistError,
    canonical_dnf,
    count_dnf_terms,
    circuit_from_values,
    equivalent,
    read_netlist,
    serialize,
    truth_table,
    write_netlist,
)
from .cnf import Cnf, CnfError, parse_dimacs, read_dimacs, to_dimacs
from .evaluator import McEstimate, RewardReport, expected_reward_exact, expected_reward_mc
from .mdp import (
    EnumerationLimitError,
    ExplicitMdp,
    ModelError,
    SuccinctMdp,
    expand,
    load_mdp,
    save_mdp,
    validate,
)
from .oracle import (
    OracleScaleError,
    best_next_action,
    bounded_policy_exists,
    emajsat_oracle,
    forall_exists_oracle,
    model_count,
    sat_oracle,
    solve_optimal,
)
from .policy import (
    ExplicitPolicy,
    HistoryPolicy,
    PolicyError,
    StationaryPolicy,
    TimedExplicitPolicy,
    compile_explicit,
    load_policy,
    save_policy,
)
from .reductions import (
    ReductionError,
    ReductionInstance,
    SequenceStateLayout,
    emajsat_to_bounded_policy,
    forallexists_to_valuefn,
    majsat_to_eval,
    sat_to_next_action,
    unsat_to_consistency,
    xy_sequential_policy,
)
from .valuefn import (
    ConsistencyResult,
    InconsistentValueError,
    ValueCircuit,
    ValueFunctionError,
    ValueTable,
    check_consistency,
    extract_policy,
    load_valuefn,
    save_valuefn,
    value_of_policy,
)

__version__ = "0.1.0"

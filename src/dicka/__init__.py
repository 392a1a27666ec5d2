"""Device-independent conference key agreement: simulator and key-rate workbench."""

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidInputError,
    LengthMismatchError,
    SizeOutOfRangeError,
)
from .game import (
    classical_value,
    conditioned_win_probabilities,
    honest_settings,
    quantum_win_probability,
)
from .hashing import ToeplitzSeed, bits_to_hex, random_seed, toeplitz_hash, verify_hash
from .keyrate import (
    CLASSICAL_BOUND,
    EpsilonBudget,
    KeyLengthBreakdown,
    RateParams,
    TSIRELSON_BOUND,
    asymptotic_rate_cka,
    asymptotic_rate_diqkd,
    binary_entropy,
    completeness_bound,
    finite_key_length,
    leak_ec_bounds,
    min_tradeoff_fhat,
    min_tradeoff_slope,
    pexp_formula,
    qber_to_pdep,
    tangent_f,
    v_tilde,
)
from .protocol import (
    ProtocolConfig,
    Transcript,
    amplify,
    estimate_parameters,
    reconcile,
    run_protocol,
)
from .quantum import (
    MAX_QUBITS,
    GHZState,
    Observable,
    depolarize_each,
    joint_distribution,
)

__version__ = "0.1.0"

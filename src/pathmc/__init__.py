"""Monte Carlo estimation of operator-chain traces by path sampling.

Operators expose cheap conditional transition laws instead of matrices;
states and density-like endpoints expose unconditional endpoint laws.
Certified sampling-cost bounds multiply along any composition, which turns
additive-accuracy trace estimation into a fixed, known number of cheap
path draws.

The package namespace holds the documented library API; every other name
is importable from its module (``pathmc.operators``, ``pathmc.states``,
``pathmc.engine``, ``pathmc.sampling``, ``pathmc.linalg``,
``pathmc.errors``).
"""

from .errors import (
    InvalidParameter,
    NonUnitPhase,
    OracleCapExceeded,
    PathmcError,
    ShapeMismatch,
)
from .linalg import NormPair, SparseEntries
from .sampling import RngStream, sample_count
from .operators import (
    block_diagonal,
    controlled,
    diagonal_unitary,
    exp_op,
    fourier_transform,
    from_dense_optimal,
    from_rowcol,
    from_sparse,
    grover_reflection,
    haar_wavelet,
    identity_op,
    pauli_string,
    permutation,
    product_ops,
    scale,
    shift_oracle,
    sum_ops,
    tensor_embed,
    walsh_hadamard,
)
from .states import (
    StateAsOperator,
    basis_state,
    dense_vector,
    density,
    dyad,
    low_rank,
    phase_state,
    product_state,
    projector_family,
    uniform_state,
)
from .engine import (
    Circuit,
    decoherence_matrix,
    estimate_amplitude,
    estimate_expectation,
    estimate_trace,
    expectation_exact,
    expression_interference,
    interference_capacity,
    stochastic_mode_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "InvalidParameter",
    "NonUnitPhase",
    "NormPair",
    "OracleCapExceeded",
    "PathmcError",
    "RngStream",
    "ShapeMismatch",
    "SparseEntries",
    "StateAsOperator",
    "basis_state",
    "block_diagonal",
    "controlled",
    "decoherence_matrix",
    "dense_vector",
    "density",
    "diagonal_unitary",
    "dyad",
    "estimate_amplitude",
    "estimate_expectation",
    "estimate_trace",
    "exp_op",
    "expectation_exact",
    "expression_interference",
    "fourier_transform",
    "from_dense_optimal",
    "from_rowcol",
    "from_sparse",
    "grover_reflection",
    "haar_wavelet",
    "identity_op",
    "interference_capacity",
    "low_rank",
    "pauli_string",
    "permutation",
    "phase_state",
    "product_ops",
    "product_state",
    "projector_family",
    "sample_count",
    "scale",
    "shift_oracle",
    "stochastic_mode_estimate",
    "sum_ops",
    "tensor_embed",
    "uniform_state",
    "walsh_hadamard",
]

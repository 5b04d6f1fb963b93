import math

import numpy as np
import pytest

from helpers import optimal_path_distribution, state_vector
from pathmc import (
    Circuit,
    NormPair,
    RngStream,
    StateAsOperator,
    basis_state,
    decoherence_matrix,
    dense_vector,
    diagonal_unitary,
    dyad,
    estimate_amplitude,
    estimate_expectation,
    estimate_trace,
    expectation_exact,
    expression_interference,
    fourier_transform,
    from_rowcol,
    grover_reflection,
    haar_wavelet,
    identity_op,
    interference_capacity,
    pauli_string,
    permutation,
    sample_count,
    scale,
    shift_oracle,
    stochastic_mode_estimate,
    uniform_state,
    walsh_hadamard,
)
from pathmc.engine import (
    PathLedger,
    draw_path,
    interference_exact,
    interference_state_exact,
)
from pathmc.errors import (
    DimensionMismatch,
    HistoryCapExceeded,
    InvalidParameter,
    NegativeMassOverflow,
    NormViolation,
    OracleCapExceeded,
)
from pathmc.linalg import SparseEntries, exact_oracle, induced_norm
from pathmc.operators import PathOperator, Transition, from_sparse
from pathmc.states import projector_family

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def projector(index, dim):
    s = basis_state(index, dim)
    return StateAsOperator(dyad(s, s))


def plus_circuit():
    """|+><+| evolved by H then Z, measured in |0><0|."""
    return Circuit(
        initial=dyad(uniform_state(2), uniform_state(2)),
        unitaries=[walsh_hadamard(1), diagonal_unitary([1.0, -1.0])],
        measurement=projector(0, 2),
    )


def test_circuit_validation():
    c = plus_circuit()
    assert c.dim == 2
    with pytest.raises(DimensionMismatch):
        Circuit(dyad(uniform_state(2), uniform_state(4)), [], projector(0, 2))
    with pytest.raises(DimensionMismatch):
        Circuit(dyad(uniform_state(2), uniform_state(2)), [walsh_hadamard(2)], projector(0, 2))
    with pytest.raises(DimensionMismatch):
        Circuit(dyad(uniform_state(2), uniform_state(2)), [], projector(0, 4))
    with pytest.raises(InvalidParameter):
        Circuit(
            dyad(uniform_state(2), uniform_state(2), NormPair.from_p(1.0)),
            [],
            projector(0, 2),
        )


def test_path_ledger_value():
    lp, lq = 3.0 + 4.0j, 1.0 - 2.0j
    led = PathLedger("forward", 0, 1, lp, lq)
    assert led.value(NormPair.from_p(1.0)) == lp
    assert led.value(NormPair.from_p(math.inf)) == lq
    balanced = led.value(NormPair())
    assert balanced == pytest.approx(1.0 / (0.5 / lp + 0.5 / lq))
    assert PathLedger("forward", 0, 1, 0j, 5.0 + 0j).value(NormPair()) == 0.0
    assert PathLedger("backward", 0, 1, 5.0 + 0j, 0j).value(NormPair()) == 0.0


def test_draw_path_values_stay_under_bound():
    sigma = dyad(dense_vector([0.8, 0.0, 0.6]), uniform_state(3))
    op = from_rowcol(np.array([[0.5, 1.0, 0.0], [2.0, 0.1, 0.3], [0.0, 1.0, 1.0]]))
    b = sigma.bound * op.bound
    pair = sigma.pair
    rng = RngStream(3)
    acc = 0.0 + 0j
    n = 40_000
    for _ in range(n):
        led = draw_path(sigma, op, pair, rng)
        val = led.value(pair)
        assert abs(val) <= b * (1.0 + 1e-9)
        assert led.direction in ("forward", "backward")
        acc += val
    exact = exact_oracle(sigma.dense(), [op.dense()])
    assert abs(acc / n - exact) < 5.0 * b / math.sqrt(n)


def test_direction_degenerates_with_the_pair():
    for p, expected in ((1.0, "forward"), (math.inf, "backward")):
        pair = NormPair.from_p(p)
        sigma = dyad(uniform_state(2), uniform_state(2), pair)
        op = identity_op(2, pair)
        rng = RngStream(0)
        dirs = {draw_path(sigma, op, pair, rng).direction for _ in range(200)}
        assert dirs == {expected}


def test_estimate_trace_accuracy():
    sigma = dyad(dense_vector([0.6, 0.8]), dense_vector(np.array([1.0, 1j]) / np.sqrt(2.0)))
    op = from_rowcol(np.array([[1.0, 0.5], [-0.5j, 1.0]]))
    exact = exact_oracle(sigma.dense(), [op.dense()])
    out = estimate_trace(sigma, op, epsilon=0.05, delta=0.01, seed=7)
    assert out.k == sample_count(0.05, 0.01, sigma.bound * op.bound)
    assert out.b == sigma.bound * op.bound
    assert abs(out.estimate - exact) <= 0.05
    assert out.method == "markov"


def test_estimate_trace_shape_and_pair_checks():
    sigma = dyad(uniform_state(2), uniform_state(2))
    with pytest.raises(DimensionMismatch):
        estimate_trace(sigma, identity_op(3), 0.1, 0.1)
    with pytest.raises(InvalidParameter):
        estimate_trace(sigma, identity_op(2, NormPair.from_p(1.0)), 0.1, 0.1)
    with pytest.raises(InvalidParameter):
        estimate_trace(sigma, identity_op(2), 0.1, 0.1, workers=0)


class _Understated(PathOperator):
    """The identity with a bound below its certificate."""

    rows = cols = 2
    bound = 0.5
    pair = NormPair()

    def sample_forward(self, m, rng):
        return Transition(m, None, 1.0 + 0j, 1.0 + 0j)

    def sample_backward(self, n, rng):
        return Transition(n, None, 1.0 + 0j, 1.0 + 0j)


def test_sampling_refuses_a_value_above_the_bound():
    sigma = dyad(basis_state(0, 2), basis_state(0, 2))
    with pytest.raises(NormViolation, match="certified bound"):
        estimate_trace(sigma, _Understated(), 0.5, 0.5)


def test_workers_split_is_deterministic():
    sigma = dyad(uniform_state(2), uniform_state(2))
    op = walsh_hadamard(1)
    one = estimate_trace(sigma, op, 0.1, 0.1, seed=5, workers=1)
    again = estimate_trace(sigma, op, 0.1, 0.1, seed=5, workers=1)
    assert one.estimate == again.estimate
    assert one.empirical_std == again.empirical_std
    four = estimate_trace(sigma, op, 0.1, 0.1, seed=5, workers=4)
    four_again = estimate_trace(sigma, op, 0.1, 0.1, seed=5, workers=4)
    assert four.estimate == four_again.estimate
    assert four.estimate != one.estimate  # distinct streams, same law
    exact = exact_oracle(sigma.dense(), [op.dense()])
    assert abs(four.estimate - exact) <= 0.1


def test_more_workers_than_samples():
    sigma = dyad(basis_state(0, 2), basis_state(0, 2))
    out = estimate_trace(sigma, identity_op(2), 1.0, 4.0 / math.e, workers=9)
    assert out.k == 4
    assert out.estimate == pytest.approx(1.0)


def test_estimate_expectation():
    circuit = plus_circuit()
    exact = expectation_exact(circuit)
    ref = np.full((2, 2), 0.5) @ (H @ np.diag([1.0, -1.0]) @ H).conj().T
    # sanity for the dense reference itself: Tr{U' M U sigma}
    u = np.diag([1.0, -1.0]) @ H
    m = np.zeros((2, 2))
    m[0, 0] = 1.0
    assert exact == pytest.approx(np.trace(u.conj().T @ m @ u @ np.full((2, 2), 0.5)))
    out = estimate_expectation(circuit, epsilon=0.05, delta=0.01, seed=3)
    want_b = circuit.initial.bound * circuit.measurement.bound
    for uop in circuit.unitaries:
        want_b *= uop.bound * uop.bound
    assert out.b == want_b
    assert out.k == sample_count(0.05, 0.01, want_b)
    assert abs(out.estimate - exact) <= 0.05


def test_estimate_amplitude():
    out = estimate_amplitude(
        basis_state(0, 2), [walsh_hadamard(1)], basis_state(0, 2),
        epsilon=0.05, delta=0.01, seed=2,
    )
    truth = 1.0 / math.sqrt(2.0)
    assert abs(out.amplitude - truth) <= 0.05
    assert out.probability == pytest.approx(abs(out.amplitude) ** 2)
    mag = abs(out.amplitude)
    assert out.probability_error == pytest.approx(2 * mag * 0.05 + 0.05**2)
    assert out.report.method == "amplitude"


def test_estimate_amplitude_takes_the_unitaries_pair():
    pair = NormPair.from_p(3.0)
    unitaries = [fourier_transform(2, pair), diagonal_unitary([1.0, 1j, -1.0, 1j], pair)]
    initial, final = basis_state(1, 4), dense_vector([0.5, 0.5j, -0.5, 0.5])
    out = estimate_amplitude(initial, unitaries, final, epsilon=0.1, delta=0.05, seed=3)
    truth = (state_vector(final).conj() @ unitaries[1].dense() @ unitaries[0].dense()
             @ state_vector(initial))
    assert out.report.b == pytest.approx(final.pnorm(3.0) * 2.0 * initial.pnorm(1.5))
    assert abs(out.amplitude - truth) <= 0.1


def test_estimate_amplitude_empty_chain():
    out = estimate_amplitude(basis_state(1, 3), [], basis_state(1, 3),
                             epsilon=0.5, delta=0.5)
    assert out.amplitude == 1.0 + 0j
    assert out.probability == 1.0


def test_exact_references_on_permutation_circuit():
    # permutation circuits never interfere: the absolute chain equals the
    # expectation and the history matrix is diagonal
    circuit = Circuit(
        initial=dyad(basis_state(0, 3), basis_state(0, 3)),
        unitaries=[permutation([1, 2, 0]), permutation([2, 0, 1])],
        measurement=projector(0, 3),
    )
    exact = expectation_exact(circuit)
    assert exact == pytest.approx(1.0)
    assert interference_exact(circuit) == pytest.approx(1.0)
    dmat, diag = decoherence_matrix(circuit)
    assert diag.max_offdiagonal == 0.0
    assert diag.path_sum == pytest.approx(exact)
    assert diag.abs_sum == pytest.approx(1.0)


def test_decoherence_matrix_identities():
    circuit = plus_circuit()
    dmat, diag = decoherence_matrix(circuit)
    assert dmat.shape == (8, 8)
    assert diag.path_sum == pytest.approx(diag.expectation, abs=1e-12)
    assert diag.abs_sum == pytest.approx(diag.interference, abs=1e-9)
    assert diag.expectation == pytest.approx(expectation_exact(circuit))
    assert diag.max_offdiagonal > 0.0
    # 2**13 histories, above the cap of 4096
    long = Circuit(circuit.initial, [walsh_hadamard(1)] * 12, circuit.measurement)
    with pytest.raises(HistoryCapExceeded):
        decoherence_matrix(long)


def test_interference_state_exact():
    # one Hadamard on |0> spreads to column magnitudes (1/sqrt2, 1/sqrt2),
    # so the absolute chain closes to exactly 1
    val = interference_state_exact([walsh_hadamard(1)], dyad(basis_state(0, 2), basis_state(0, 2)))
    assert val == pytest.approx(1.0)
    # the uniform dyad through the Fourier matrix: the doubled chain
    # C |sigma| C^T carries two absolute factors and closes to N, while the
    # single chain Tr{|F| |sigma|} gives sqrt(N)
    for n in (1, 2, 3):
        dim = 1 << n
        sig = dyad(uniform_state(dim), uniform_state(dim))
        doubled = interference_state_exact([fourier_transform(n)], sig)
        assert doubled == pytest.approx(float(dim), rel=1e-9)
        single = expression_interference(sig, [fourier_transform(n)])
        assert single == pytest.approx(math.sqrt(dim), rel=1e-9)


def test_expression_interference_matches_exhaustive_paths():
    sigma = dyad(dense_vector([0.6, 0.8j]), uniform_state(2))
    ops = [walsh_hadamard(1), diagonal_unitary([1.0, 1j]), walsh_hadamard(1)]
    ref = optimal_path_distribution(sigma, ops)
    assert sum(ref.probabilities) == pytest.approx(1.0)
    want = expression_interference(sigma, ops)
    assert ref.best_bound == pytest.approx(want, rel=1e-12)
    with pytest.raises(HistoryCapExceeded):
        optimal_path_distribution(sigma, ops, cap=3)


def test_interference_capacity_closed_forms():
    # every structured |A| but Haar's has equal row and column sums, so its
    # closed form is the induced q -> q norm at every pair; Haar exists at
    # (2, 2) alone, where its closed form sqrt(n + 1) is the 2-norm
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        pair = NormPair.from_p(p)
        family = projector_family([0, 3, 1], 3, 4, pair)
        cases = [
            permutation([2, 0, 1], [1j, -1.0, 1.0], pair),
            diagonal_unitary([1.0, -1.0, 1j], pair),
            pauli_string("XY", pair),
            shift_oracle([1, 2], 2, 3, pair),
            family,
        ]
        for n in range(1, 5):
            cases += [grover_reflection(n, pair), fourier_transform(n, pair),
                      walsh_hadamard(n, pair)]
            if p == 2.0:
                cases.append(haar_wavelet(n, pair))
        for op in cases:
            # the family's blocks are endpoints, which have no transpose
            flips = [op.adjoint()] if op is family else [op.adjoint(), op.transpose()]
            for each in (op, *flips):
                got = interference_capacity(each)
                dense = induced_norm(np.abs(each.dense()), pair.q)
                assert got == pytest.approx(dense, abs=1e-9), (p, type(op), op.capacity)
    assert interference_capacity(walsh_hadamard(2)) == pytest.approx(2.0)
    assert interference_capacity(grover_reflection(3)) == pytest.approx(3.0 - 4.0 / 8.0)
    assert interference_capacity(haar_wavelet(5)) == pytest.approx(math.sqrt(6.0))


def test_interference_capacity_dense_fallback_and_cap():
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert interference_capacity(from_rowcol(mat)) == pytest.approx(induced_norm(mat, 2.0))
    big = 5000
    entries = SparseEntries(big, big, [(i, i, 1.0) for i in range(big)])
    with pytest.raises(OracleCapExceeded):
        interference_capacity(from_sparse(entries))


def test_stochastic_mode_exact_chain():
    m1 = np.array([[0.25, 0.5, 0.0], [0.5, 0.25, 0.5], [0.25, 0.25, 0.5]])
    m2 = np.array([[0.5, 0.0, 0.25], [0.25, 0.75, 0.25], [0.25, 0.25, 0.5]])
    rho = np.array([0.25, 0.25, 0.5])
    f = np.array([1.0, -1.0, 2.0])
    out = stochastic_mode_estimate(rho, [m1, m2], f, epsilon=0.02, delta=0.01, seed=4)
    exact = float(f @ (m2 @ (m1 @ rho)))
    assert out.op_bounds == [1.0, 1.0]
    assert out.mana == [0.0, 0.0]
    assert out.report.b == 2.0  # max|f| * sum|rho| * product of bounds
    assert abs(out.estimate - exact) <= 0.02
    assert out.report.method == "stochastic"


def test_stochastic_mode_prices_negativity():
    # push 0.25 of mass below zero in the first column while keeping its
    # algebraic sum at one: the absolute column sum becomes exactly 1.5
    bent = np.array([[1.25, 0.5], [-0.25, 0.5]])
    out = stochastic_mode_estimate([1.0, 0.0], [bent], [1.0, -1.0],
                                   epsilon=0.1, delta=0.1)
    assert out.op_bounds == [1.5]
    assert out.mana == [math.log(1.5)]
    exact = float(np.array([1.0, -1.0]) @ bent @ np.array([1.0, 0.0]))
    assert abs(out.estimate - exact) <= 0.1


def test_stochastic_mode_dead_rows_and_columns():
    # a zero row is never reached by the column laws
    out = stochastic_mode_estimate([0.5, 0.5], [np.array([[1.0, 1.0], [0.0, 0.0]])],
                                   [1.0, 1.0], epsilon=0.05, delta=0.05, seed=1)
    assert out.estimate == pytest.approx(1.0)
    # a zero column kills the paths that start in it
    dead = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = stochastic_mode_estimate([0.5, 0.5], [dead], [1.0, 1.0],
                                   epsilon=0.05, delta=0.05, seed=2)
    assert abs(out.estimate - 0.5) <= 0.05
    with pytest.raises(InvalidParameter):
        stochastic_mode_estimate([0.5, 0.5], [np.zeros((2, 2))], [1.0, 1.0],
                                 epsilon=0.1, delta=0.1)


def test_stochastic_mode_takes_operators_and_matrices():
    pair = NormPair.from_p(math.inf)
    m = np.array([[0.5, 0.25], [0.5, 0.75]])
    rho = np.array([0.25, 0.75])
    f = np.array([1.0, 2.0])
    out = stochastic_mode_estimate(rho, [permutation([1, 0], pair=pair), m], f,
                                   epsilon=0.05, delta=0.05, seed=3)
    assert out.mana == [0.0, 0.0]
    assert abs(out.estimate - float(f @ m @ rho[::-1])) <= 0.05
    # a factor without weight is refused before its log(0) mana
    with pytest.raises(InvalidParameter, match="bound 0"):
        stochastic_mode_estimate(rho, [scale(0.0, permutation([1, 0], pair=pair))], f,
                                 epsilon=0.05, delta=0.05)


def test_stochastic_mode_refuses_runaway_cost():
    m = np.array([[-4.0, 5.0], [5.0, -4.0]])
    with pytest.raises(NegativeMassOverflow):
        stochastic_mode_estimate([0.5, 0.5], [m] * 8, [1.0, 1.0],
                                 epsilon=0.1, delta=0.1)
    with pytest.raises(DimensionMismatch):
        stochastic_mode_estimate([0.5, 0.5], [np.ones((2, 3))], [1.0, 1.0],
                                 epsilon=0.1, delta=0.1)


def test_fourier_circuit_away_from_the_balanced_pair():
    pair = NormPair.from_p(3.0)
    state = basis_state(1, 4)
    circuit = Circuit(
        dyad(state, state, pair),
        [fourier_transform(2, pair), diagonal_unitary([1.0, 1j, -1.0, 1j], pair=pair)],
        pauli_string("XZ", pair),
    )
    out = estimate_expectation(circuit, epsilon=0.15, delta=0.05, seed=6)
    assert out.b == pytest.approx(4.0)
    assert abs(out.estimate - expectation_exact(circuit)) <= 0.15


def test_sixteen_qubit_transform_sandwich():
    dim = 1 << 16
    u = uniform_state(dim)
    # H F |u> = H |0> = |u>, so the projector onto |u> reads one
    circuit = Circuit(dyad(u, u), [fourier_transform(16), walsh_hadamard(16)],
                      StateAsOperator(dyad(u, u)))
    b = 2.0 ** 32
    out = estimate_expectation(circuit, epsilon=b / 4, delta=0.05, seed=0)
    assert out.b == pytest.approx(b)
    assert abs(out.estimate - 1.0) <= b / 4

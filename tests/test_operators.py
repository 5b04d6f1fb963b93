import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_operator_certificate, dense_from_entries
from pathmc import (
    NormPair,
    RngStream,
    SparseEntries,
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
from pathmc import operators
from pathmc.errors import (
    DeadColumn,
    DeadRow,
    InvalidParameter,
    InvalidWeights,
    NonUnitPhase,
    ShapeMismatch,
)
from pathmc.linalg import dense_exp, induced_norm
from pathmc import states
from pathmc.operators import PathOperator, adjoint, transpose
from pathmc.states import ChainEndpoint, projector_family

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def test_identity_and_permutation():
    ident = identity_op(4)
    assert_operator_certificate(ident, np.eye(4))
    perm = permutation([2, 0, 3, 1], [1.0, 1j, -1.0, -1j])
    ref = np.zeros((4, 4), dtype=complex)
    for m, (n, ph) in enumerate(zip([2, 0, 3, 1], [1.0, 1j, -1.0, -1j])):
        ref[m, n] = ph
    assert_operator_certificate(perm, ref)
    assert np.allclose(perm.adjoint().dense(), ref.conj().T)
    assert np.allclose(perm.transpose().dense(), ref.T)
    assert np.allclose((perm.adjoint().dense() @ ref), np.eye(4))


def test_permutation_validation():
    with pytest.raises(InvalidParameter):
        permutation([0, 0, 1])
    with pytest.raises(InvalidParameter):
        permutation([])
    with pytest.raises(NonUnitPhase):
        permutation([1, 0], [0.5, 1.0])
    for bad in (math.nan, complex(math.nan, 0.0), math.inf):
        with pytest.raises(NonUnitPhase):
            permutation([1, 0], [bad, 1.0])
        with pytest.raises(NonUnitPhase):
            diagonal_unitary([1.0, bad])
    with pytest.raises(InvalidParameter):
        permutation([0, 1], [1.0])


def test_diagonal_unitary():
    vals = [1.0, -1.0, 1j, np.exp(0.3j)]
    op = diagonal_unitary(vals)
    assert_operator_certificate(op, np.diag(vals))


@pytest.mark.parametrize(
    "letters, ref",
    [
        ("X", X),
        ("Y", Y),
        ("Z", Z),
        ("I", I2),
        ("XZ", np.kron(X, Z)),
        ("YIY", np.kron(Y, np.kron(I2, Y))),
        ("ZXY", np.kron(Z, np.kron(X, Y))),
    ],
)
def test_pauli_string_matrices(letters, ref):
    op = pauli_string(letters)
    assert op.bound == 1.0
    assert_operator_certificate(op, ref)
    assert np.allclose(op.adjoint().dense(), ref.conj().T)
    assert np.allclose(op.transpose().dense(), ref.T)


def test_pauli_string_validation():
    with pytest.raises(InvalidParameter):
        pauli_string("")
    with pytest.raises(InvalidParameter):
        pauli_string("XQ")


def test_grover_reflection():
    for n in (1, 2, 3):
        dim = 1 << n
        op = grover_reflection(n)
        ref = np.eye(dim) - 2.0 / dim * np.ones((dim, dim))
        assert op.bound == 3.0
        assert_operator_certificate(op, ref, full_law=False)
    assert grover_reflection(2, NormPair.from_p(3.0)).bound == 3.0


def test_rowcol_bound_and_support():
    mat = np.array([[1.0, -2.0], [0.5j, 0.0 + 0j]])
    # rows and columns without weight are dead when a path reaches them
    with pytest.raises(DeadColumn):
        from_rowcol(np.array([[1.0, 0.0], [2.0, 0.0]])).sample_backward(1, RngStream(0))
    zero_row = np.array([[0.0, 0.0], [2.0, 1.0j]])
    with pytest.raises(DeadRow):
        from_rowcol(zero_row).sample_forward(0, RngStream(0))
    assert_operator_certificate(from_rowcol(zero_row), zero_row)
    with pytest.raises(InvalidParameter):
        from_rowcol(np.zeros((2, 2)))
    for pair in (NormPair.from_p(1.0), NormPair.from_p(1.5), NormPair(2.0), NormPair.from_p(4.0), NormPair.from_p(math.inf)):
        op = from_rowcol(mat, pair)
        r = 3.0  # largest absolute row sum
        c = 2.0  # largest absolute column sum
        assert op.bound == pytest.approx(r ** pair.inv_p * c ** pair.inv_q)
        assert_operator_certificate(op, mat)


def test_rowcol_rectangular():
    mat = np.array([[1.0, 0.0, 2.0], [0.0, 1.5, -1.0]])
    op = from_rowcol(mat)
    assert (op.rows, op.cols) == (2, 3)
    assert_operator_certificate(op, mat)


def test_from_sparse_matches_dense():
    entries = SparseEntries(3, 3, [(0, 1, 2.0), (1, 0, -1j), (2, 2, 0.5), (0, 0, 1.0)])
    op = from_sparse(entries)
    assert_operator_certificate(op, entries.dense())
    with pytest.raises(InvalidParameter):
        from_sparse([(0, 0, 1.0)])


def test_dense_optimal_bound_is_tight():
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    for p in (1.5, 2.0, 3.0):
        pair = NormPair.from_p(p)
        op = from_dense_optimal(mat, pair)
        assert op.bound == pytest.approx(induced_norm(np.abs(mat), pair.q), rel=1e-6)
        assert_operator_certificate(op, mat)
    with pytest.raises(InvalidParameter):
        from_dense_optimal(mat, NormPair.from_p(1.0))
    with pytest.raises(InvalidParameter):
        from_dense_optimal(mat, NormPair.from_p(math.inf))


def test_dense_optimal_beats_rowcol_on_lopsided_input():
    mat = np.array([[3.0, 1.0, 0.1], [0.2, 2.0, 1.0], [1.0, 0.1, 2.5]])
    assert from_dense_optimal(mat).bound < from_rowcol(mat).bound


def test_haar_wavelet_three_bit_matrix():
    s8 = 1.0 / math.sqrt(8.0)
    h = 0.5
    s2 = 1.0 / math.sqrt(2.0)
    ref = np.array(
        [
            [s8, s8, s8, s8, s8, s8, s8, s8],
            [s8, -s8, s8, -s8, s8, -s8, s8, -s8],
            [h, 0, -h, 0, h, 0, -h, 0],
            [0, h, 0, -h, 0, h, 0, -h],
            [s2, 0, 0, 0, -s2, 0, 0, 0],
            [0, s2, 0, 0, 0, -s2, 0, 0],
            [0, 0, s2, 0, 0, 0, -s2, 0],
            [0, 0, 0, s2, 0, 0, 0, -s2],
        ],
        dtype=complex,
    )
    op = haar_wavelet(3)
    assert_operator_certificate(op, ref)


def test_haar_wavelet_orthogonality_and_bound():
    for n in range(1, 5):
        op = haar_wavelet(n)
        g = op.dense()
        assert np.allclose(g @ g.conj().T, np.eye(1 << n), atol=1e-12)
        assert op.bound == pytest.approx(math.sqrt(n + 1.0), rel=1e-12)
        # every column holds one entry per scale plus the uniform row
        col_counts = (np.abs(g) > 1e-14).sum(axis=0)
        assert set(col_counts.tolist()) == {n + 1}
    with pytest.raises(InvalidParameter):
        haar_wavelet(0)


def test_shift_oracle_table_and_callable():
    table = [1, 3, 0, 2]
    op = shift_oracle(table, 4, 4)
    ref = np.zeros((16, 16), dtype=complex)
    for x in range(4):
        for y in range(4):
            ref[x * 4 + y, x * 4 + (y + table[x]) % 4] = 1.0
    assert_operator_certificate(op, ref)
    fn = shift_oracle(lambda x: table[x], 4, 4)
    assert np.allclose(fn.dense(), ref)
    with pytest.raises(InvalidParameter):
        shift_oracle([1, 2], 3, 4)
    with pytest.raises(InvalidParameter):
        shift_oracle(table, 0, 4)


def test_shift_oracle_counts_queries():
    op = shift_oracle([2, 1], 2, 4)
    rng = RngStream(0)
    op.sample_forward(3, rng)
    op.sample_forward(6, rng)
    assert op.query_counter.count == 2
    adj = op.adjoint()
    adj.sample_backward(1, rng)
    assert op.query_counter.count == 3
    assert np.allclose(adj.dense(), op.dense().conj().T)


def test_fourier_and_hadamard():
    for n in (1, 2, 3):
        dim = 1 << n
        f = fourier_transform(n)
        mat = f.dense()
        assert np.allclose(mat @ mat.conj().T, np.eye(dim), atol=1e-12)
        assert mat[1, 1] == pytest.approx(np.exp(2j * np.pi / dim) / math.sqrt(dim))
        assert f.bound == pytest.approx(dim / math.sqrt(dim))
        w = walsh_hadamard(n)
        hn = H
        for _ in range(n - 1):
            hn = np.kron(hn, H)
        assert np.allclose(w.dense(), hn, atol=1e-12)
    assert_operator_certificate(fourier_transform(2))
    assert_operator_certificate(walsh_hadamard(2))
    for p in (1.5, 2.0, 3.0):
        pair = NormPair.from_p(p)
        for op in (fourier_transform(2, pair), walsh_hadamard(2, pair)):
            mat = op.dense()
            assert np.allclose(op.adjoint().dense(), mat.conj().T, atol=1e-12)
            assert np.allclose(op.transpose().dense(), mat.T, atol=1e-12)
            assert_operator_certificate(op.adjoint(), mat.conj().T, draws=1000)


def test_transforms_build_without_dense_tables():
    for build in (fourier_transform, walsh_hadamard):
        started = time.perf_counter()
        op = build(16)
        assert time.perf_counter() - started < 1.0
        assert op.bound == pytest.approx(2.0 ** 8)
        t = op.sample_forward(12345, RngStream(0))
        assert abs(t.ratio_p) == pytest.approx(2.0 ** 8)


def test_scaled_operator():
    base = walsh_hadamard(1)
    op = scale(-2j, base)
    assert op.bound == pytest.approx(2.0 * base.bound)
    assert_operator_certificate(op, -2j * base.dense())
    assert np.allclose(op.adjoint().dense(), (-2j * base.dense()).conj().T)


_RECT = np.array([[1.0, 2.0j, 0.0, -0.5], [0.0, -3.0, 0.5 - 0.5j, 1.0j],
                  [0.25, 0.0, 0.0, 2.0 + 1.0j]])

# One instance of every operator class, built at a pair, and the exponents
# the class is certified at. Dyad is reached through a projector family,
# whose blocks it is; the other endpoints are certified at (2, 2) only.
FLIP_CASES = {
    operators.DenseOptimal: (lambda pair: from_dense_optimal(_RECT, pair), (2.0, 3.0)),
    operators.RowCol: (lambda pair: from_rowcol(_RECT, pair), (2.0, 3.0)),
    operators.PhasedPermutation: (
        lambda pair: permutation([2, 0, 1], [1j, -1.0, 0.6 + 0.8j], pair), (2.0, 3.0)),
    operators.PauliString: (lambda pair: pauli_string("XYZ", pair), (2.0, 3.0)),
    operators.FlatOperator: (lambda pair: fourier_transform(2, pair), (2.0, 3.0)),
    operators.HaarWavelet: (lambda pair: haar_wavelet(2, pair), (2.0,)),
    operators._TransposedHaar: (lambda pair: haar_wavelet(2, pair).transpose(), (2.0,)),
    operators.ShiftOracle: (lambda pair: shift_oracle([1, 2], 2, 3, pair), (2.0, 3.0)),
    operators.ScaledOp: (lambda pair: scale(0.6 - 0.8j, from_rowcol(_RECT, pair)), (2.0, 3.0)),
    operators.SumOp: (lambda pair: sum_ops(
        [(0.5j, pauli_string("XY", pair)), (-1.0, fourier_transform(2, pair))],
        weights=[0.3, 0.7]), (2.0, 3.0)),
    operators.ProductOp: (lambda pair: product_ops(
        [from_rowcol(_RECT, pair), pauli_string("YX", pair)]), (2.0, 3.0)),
    operators.ExpOp: (lambda pair: exp_op(scale(-0.4j, pauli_string("YX", pair))), (2.0, 3.0)),
    operators.BlockDiagonal: (lambda pair: block_diagonal(
        [pauli_string("Y", pair), from_rowcol(_RECT, pair)]), (2.0, 3.0)),
    operators.TensorEmbed: (lambda pair: tensor_embed(from_dense_optimal(_RECT, pair), 2, 1),
                            (2.0, 3.0)),
    states.Dyad: (lambda pair: projector_family([1, 0], 2, 3, pair), (2.0, 3.0)),
    states.DensityEndpoint: (lambda pair: states.density(
        np.array([[0.75, 0.25 - 0.125j], [0.25 + 0.125j, 0.25]]), pair), (2.0,)),
    states.LowRankEndpoint: (lambda pair: states.low_rank(
        [(0.5 + 0.5j, np.array([0.6, 0.8j]), np.array([0.8, -0.6j])),
         (-0.3, np.array([1.0, 1.0]) / math.sqrt(2), np.array([0.28, 0.96]))], pair),
                             (2.0,)),
}


def test_every_operator_samples_its_own_adjoint():
    classes = [c for c in vars(operators).values()
               if isinstance(c, type) and issubclass(c, PathOperator)
               and c not in (PathOperator, operators._TableOp)]
    classes += [states.Dyad, states.DensityEndpoint, states.LowRankEndpoint]
    assert set(FLIP_CASES) == set(classes)
    for cls in classes:
        # one flip per class, never the base class's refusal; adjoint() and
        # transpose() live on PathOperator alone
        assert cls._flipped is not PathOperator._flipped, cls.__name__
        assert not {"adjoint", "transpose"} & set(vars(cls)), cls.__name__
        op = FLIP_CASES[cls][0](NormPair())
        assert isinstance(op, cls) or all(isinstance(b, cls) for b in op.blocks), cls
    # away from the balanced pair too, and both are involutions in value
    mat = np.array([[1.0, 2.0j], [3.0, 4.0]])
    op = from_rowcol(mat, NormPair.from_p(3.0))
    assert np.allclose(adjoint(adjoint(op)).dense(), mat)
    assert np.allclose(transpose(transpose(op)).dense(), mat)


@pytest.mark.parametrize("cls, p", [(cls, p) for cls, (_, ps) in FLIP_CASES.items()
                                    for p in ps],
                         ids=lambda x: x.__name__ if isinstance(x, type) else f"p={x:g}")
def test_flips_are_the_adjoint_and_the_transpose(cls, p):
    build, _ = FLIP_CASES[cls]
    op = build(NormPair.from_p(p))
    ref = op.dense()
    adj = op.adjoint()
    assert adj.pair == op.pair
    assert np.allclose(adj.dense(), ref.conj().T, atol=1e-12)
    assert_operator_certificate(adj, ref.conj().T, draws=1000, full_law=cls is not operators.ExpOp)
    if issubclass(cls, ChainEndpoint):
        with pytest.raises(InvalidParameter):
            op.transpose()
        return
    tr = op.transpose()
    assert tr.pair == op.pair
    assert np.allclose(tr.dense(), ref.T, atol=1e-12)
    assert_operator_certificate(tr, ref.T, draws=1000, full_law=cls is not operators.ExpOp)


def test_table_operators_are_two_weightings_of_one_law():
    # the sampling, enumeration and table code lives on _TableOp alone;
    # DenseOptimal's flip only reweighs the flipped table operator
    shared = {"sample_forward", "sample_backward", "entries", "_table"}
    for cls in (operators.DenseOptimal, operators.RowCol):
        assert issubclass(cls, operators._TableOp)
        assert not shared & set(vars(cls)), cls.__name__
    assert "_flipped" not in vars(operators.RowCol)
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    mat[1, :] = 0.0
    mat[2, 3] = 0.0
    for op in (from_dense_optimal(mat), from_dense_optimal(mat).adjoint()):
        # O(nnz) state: no N x N table, not even |A|
        assert not any(isinstance(x, np.ndarray) and x.ndim == 2
                       for x in vars(op).values())
    # unit weights reduce the law to RowCol's row and column sums, equal
    # bit for bit to Python's abs summed in input order; the input is 25
    # distinct cells of an 8 x 5 matrix, out of row order
    values = {divmod(int(c), 5): complex(v) for c, v in zip(
        rng.permutation(40)[:25], rng.normal(size=25) + 1j * rng.normal(size=25))}
    row_sum, col_sum = [0.0] * 8, [0.0] * 5
    for (m, n), v in values.items():
        row_sum[m] += abs(v)
        col_sum[n] += abs(v)
    pair = NormPair.from_p(3.0)
    op = from_sparse(SparseEntries(8, 5, [(m, n, v) for (m, n), v in values.items()]), pair)
    assert op.bound == max(row_sum) ** pair.inv_p * max(col_sum) ** pair.inv_q
    stream = RngStream(0)
    for m, _ in values:
        t = op.sample_forward(m, stream)
        phase = values[m, t.index] / abs(values[m, t.index])
        assert (t.ratio_p, t.ratio_q) == (phase * row_sum[m], phase * col_sum[t.index])
    op = from_rowcol(mat)
    with pytest.raises(DeadRow):
        op.sample_forward(1, RngStream(0))
    with pytest.raises(DeadColumn):
        op.transpose().sample_backward(1, RngStream(0))


def _abs_sums(mat):
    mags = np.abs(mat)
    return float(mags.sum(axis=1).max()), float(mags.sum(axis=0).max())


def test_rowcol_adjoint_and_transpose_at_every_pair():
    mat = np.array([[1.0, 2.0j, 0.0], [-3.0, 0.0, 0.5 - 0.5j]])
    # triplets out of row order: the flipped operator keeps each row's and
    # column's input order
    sparse = SparseEntries(3, 2, [(2, 1, 1j), (0, 1, -2.0), (1, 0, 0.5), (0, 0, 1.0 + 1j)])
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        pair = NormPair.from_p(p)
        for op in (from_rowcol(mat, pair), from_sparse(sparse, pair)):
            ref = op.dense()
            r, c = _abs_sums(ref)
            adj, tr = op.adjoint(), op.transpose()
            assert (adj.rows, adj.cols) == (tr.rows, tr.cols) == (op.cols, op.rows)
            for flipped in (adj, tr):
                assert flipped.pair == pair
                assert flipped.bound == pytest.approx(c ** pair.inv_p * r ** pair.inv_q)
            assert_operator_certificate(adj, ref.conj().T, draws=1000)
            assert_operator_certificate(tr, ref.T, draws=1000)
            assert np.allclose(adj.adjoint().dense(), ref)
            assert np.allclose(tr.transpose().dense(), ref)


def test_sparse_adjoint_stays_sparse():
    # a dense 65536 x 65536 matrix would not fit in memory
    dim = 1 << 16
    op = from_sparse(SparseEntries(dim, dim, [(0, dim - 1, 2.0), (dim - 1, 0, -1j)]),
                     NormPair.from_p(3.0))
    started = time.perf_counter()
    adj = op.adjoint()
    assert time.perf_counter() - started < 5.0
    t = adj.sample_forward(0, RngStream(0))
    assert (t.index, t.ratio_p) == (dim - 1, 1j)


def test_dense_optimal_adjoint_and_transpose(monkeypatch):
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    mat[0, 2] = 0.0
    for p in (1.5, 2.0, 3.0):
        pair = NormPair.from_p(p)
        op = from_dense_optimal(mat, pair)
        adj, tr = op.adjoint(), op.transpose()
        for flipped in (adj, tr):
            assert flipped.pair == pair
            # the tight bound of the flipped magnitudes, not the operator's own
            assert flipped.bound == pytest.approx(
                induced_norm(np.abs(mat).T, pair.q), rel=1e-6)
        assert_operator_certificate(adj, mat.conj().T, draws=1000)
        assert_operator_certificate(tr, mat.T, draws=1000)
        assert np.allclose(adj.adjoint().dense(), mat)
    # at the balanced pair the flipped operator reuses the norming vectors:
    # no power iteration runs and the bound is the operator's own
    op = from_dense_optimal(mat)
    calls = []
    monkeypatch.setattr(operators, "generalized_singular_vectors",
                        lambda *a: calls.append(a))
    assert op.adjoint().bound == op.transpose().bound == op.bound
    assert calls == []


def test_haar_adjoint_is_its_transpose():
    for n in (1, 3):
        op = haar_wavelet(n)
        ref = op.dense()
        for flipped in (op.adjoint(), op.transpose()):
            assert flipped.bound == op.bound
            assert flipped.structure == op.structure
            assert_operator_certificate(flipped, ref.T, draws=1000)
            cells = [(x, y) for x in range(op.rows) for y in range(op.cols)]
            assert [flipped.entry(y, x) for x, y in cells] == [op.entry(x, y) for x, y in cells]
            back = flipped.adjoint()
            assert type(back) is type(op)
            assert np.allclose(back.dense(), ref)
            assert np.allclose(flipped.transpose().dense(), ref)


def test_sum_default_weights():
    a = pauli_string("X")
    b = pauli_string("Z")
    op = sum_ops([(0.5, a), (-2.0, b)])
    assert op.bound == pytest.approx(2.5)
    assert_operator_certificate(op, 0.5 * X - 2.0 * Z)
    assert np.allclose(op.adjoint().dense(), (0.5 * X - 2.0 * Z).conj().T)


def test_sum_explicit_weights():
    a = pauli_string("X")
    b = pauli_string("Z")
    op = sum_ops([(1.0, a), (1.0, b)], weights=[0.25, 0.75])
    assert op.bound == pytest.approx(4.0)  # worst load / weight ratio
    assert_operator_certificate(op, X + Z)


def test_sum_weight_validation():
    a = pauli_string("X")
    b = pauli_string("Z")
    with pytest.raises(InvalidParameter):
        sum_ops([])
    with pytest.raises(ShapeMismatch):
        sum_ops([(1.0, a), (1.0, pauli_string("ZZ"))])
    with pytest.raises(InvalidWeights):
        sum_ops([(1.0, a), (1.0, b)], weights=[1.0])
    with pytest.raises(InvalidWeights):
        sum_ops([(1.0, a), (1.0, b)], weights=[0.5, 0.6])
    with pytest.raises(InvalidWeights):
        sum_ops([(1.0, a), (1.0, b)], weights=[1.0, 0.0])
    with pytest.raises(InvalidWeights):
        sum_ops([(1.0, a), (1.0, b)], weights=[-0.5, 1.5])


def test_sum_drops_zero_scale_terms():
    op = sum_ops([(1.0, pauli_string("X")), (0.0, pauli_string("Z"))])
    assert op.bound == pytest.approx(1.0)
    assert np.allclose(dense_from_entries(op.entries(), 2, 2), X)


def test_product_chain():
    chain = product_ops([walsh_hadamard(1), diagonal_unitary([1.0, -1.0]), walsh_hadamard(1)])
    assert_operator_certificate(chain, X)
    assert chain.bound == pytest.approx(walsh_hadamard(1).bound ** 2)
    assert np.allclose(chain.adjoint().dense(), X.conj().T)
    with pytest.raises(InvalidParameter):
        product_ops([])


def test_product_dense_is_the_ordered_matmul(monkeypatch):
    a = from_rowcol(np.array([[1.0, 2.0j, 0.0], [0.0, 1.0, -1.0]]))
    b = from_dense_optimal(np.array([[1.0, 0.5], [1j, 1.0], [0.0, 2.0]]))
    chain = product_ops([a, b, pauli_string("Y")])
    ref = dense_from_entries(chain.entries(), 2, 2)
    # no chain enumeration: that grows as the product of the factors' nnz
    monkeypatch.setattr(operators.ProductOp, "entries", None)
    assert np.allclose(chain.dense(), ref, atol=1e-12)
    assert np.array_equal(chain.dense(), a.dense() @ b.dense() @ Y)
    wide = product_ops([fourier_transform(7), walsh_hadamard(7)])
    assert np.allclose(wide.dense(), fourier_transform(7).dense() @ walsh_hadamard(7).dense())


def test_product_rectangular_chain():
    a = from_rowcol(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]))
    b = from_rowcol(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
    chain = product_ops([a, b])
    assert (chain.rows, chain.cols) == (2, 2)
    assert_operator_certificate(chain, a.dense() @ b.dense())
    with pytest.raises(ShapeMismatch):
        product_ops([a, a])


def test_exp_of_scaled_diagonal():
    inner = scale(0.3, diagonal_unitary([1.0, -1.0, 1j, -1j]))
    op = exp_op(inner)
    assert op.bound == pytest.approx(math.exp(0.3))
    ref = dense_exp(inner.dense())
    assert_operator_certificate(op, ref, full_law=False, draws=6000)


def test_exp_of_scaled_permutation():
    inner = scale(0.5, permutation([1, 2, 0]))
    op = exp_op(inner)
    assert op.bound == pytest.approx(math.exp(0.5))
    assert_operator_certificate(op, dense_exp(inner.dense()), full_law=False, draws=6000)
    with pytest.raises(ShapeMismatch):
        exp_op(from_rowcol(np.ones((2, 3))))


def test_exp_of_a_zero_bound_operator_is_the_identity():
    op = exp_op(scale(0.0, permutation([1, 2, 0])))
    assert op.bound == 1.0
    assert_operator_certificate(op, np.eye(3), full_law=False, draws=500)


def test_block_diagonal_default_layout():
    blocks = [pauli_string("X"), diagonal_unitary([1j, -1j, 1.0])]
    op = block_diagonal(blocks)
    ref = np.zeros((5, 5), dtype=complex)
    ref[:2, :2] = X
    ref[2:, 2:] = np.diag([1j, -1j, 1.0])
    assert op.bound == 1.0
    assert_operator_certificate(op, ref)


def test_controlled_family():
    op = controlled([identity_op(2), pauli_string("X")])
    ref = np.eye(4, dtype=complex)
    ref[2:, 2:] = X
    assert_operator_certificate(op, ref)
    with pytest.raises(ShapeMismatch):
        controlled([identity_op(2), identity_op(3)])


def test_tensor_embed():
    inner = pauli_string("Y")
    op = tensor_embed(inner, 2, 3)
    ref = np.kron(np.eye(2), np.kron(Y, np.eye(3)))
    assert op.bound == inner.bound
    assert_operator_certificate(op, ref, sample_rows=range(0, 12, 3))
    with pytest.raises(InvalidParameter):
        tensor_embed(inner, 0, 3)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(0, 10_000),
)
def test_rowcol_certificate_on_random_matrices(dim, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op = from_rowcol(mat)
    dense = dense_from_entries(op.entries(), dim, dim)
    assert np.allclose(dense, mat, atol=1e-12)
    assert op.bound >= induced_norm(np.abs(mat), 2.0) - 1e-9

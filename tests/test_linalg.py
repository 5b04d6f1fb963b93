import math

import numpy as np
import pytest

import pathmc.linalg as linalg
from pathmc.errors import (
    DimensionMismatch,
    InvalidParameter,
    IterationLimit,
    NonFiniteResult,
    OracleCapExceeded,
)
from pathmc.linalg import (
    NormPair,
    SparseEntries,
    block_decompose,
    conjugate_exponent,
    dense_exp,
    entrywise_abs,
    exact_oracle,
    generalized_singular_vectors,
    induced_norm,
)


def test_conjugate_exponent_pairs():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(3.0) == pytest.approx(1.5)
    assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0)


def test_norm_pair_validation():
    pair = NormPair()
    assert pair.p == 2.0 and pair.q == 2.0
    assert NormPair(math.inf, 1.0).inv_p == 0.0
    assert NormPair(1.0, math.inf).inv_q == 0.0
    with pytest.raises(InvalidParameter):
        NormPair(2.0, 3.0)
    with pytest.raises(InvalidParameter):
        NormPair(0.5, 2.0)
    three = NormPair.from_p(3.0)
    assert three.q == pytest.approx(1.5)
    assert three.inv_p + three.inv_q == pytest.approx(1.0)


def test_sparse_entries_validation():
    s = SparseEntries(2, 3, ((0, 0, 1.0), (1, 2, -2j)))
    assert s.dense()[1, 2] == -2j
    with pytest.raises(InvalidParameter):
        SparseEntries(2, 2, ((0, 0, 1.0), (0, 0, 2.0)))
    with pytest.raises(DimensionMismatch):
        SparseEntries(2, 2, ((2, 0, 1.0),))
    with pytest.raises(InvalidParameter):
        SparseEntries(0, 2, ())


def test_block_decompose_connected_components():
    b = np.zeros((5, 5))
    b[0, 1] = 1.0
    b[2, 3] = 1.0
    b[2, 4] = 1.0
    blocks = block_decompose(b)
    as_sets = {(tuple(r), tuple(c)) for r, c in blocks}
    assert ((0,), (1,)) in as_sets
    assert ((2,), (3, 4)) in as_sets
    # rows and columns with no weight become singleton blocks
    assert ((1,), ()) in as_sets
    assert ((3,), ()) in as_sets or ((4,), ()) in as_sets
    assert ((), (0,)) in as_sets
    # ordered by smallest row, then smallest column, each side sorted
    assert blocks == [([0], [1]), ([1], []), ([2], [3, 4]), ([3], []), ([4], []),
                      ([], [0]), ([], [2])]


def test_induced_norm_closed_forms():
    rng = np.random.default_rng(5)
    for _ in range(6):
        b = rng.uniform(0.0, 2.0, size=(5, 4))
        assert induced_norm(b, 1.0) == pytest.approx(b.sum(axis=0).max())
        assert induced_norm(b, math.inf) == pytest.approx(b.sum(axis=1).max())
        spectral = np.linalg.norm(b, 2)
        assert induced_norm(b, 2.0) == pytest.approx(spectral, rel=1e-9)


def test_induced_norm_rank_one_oracle():
    # for B = u v^T with nonnegative u, v the induced q->q norm is
    # ||u||_q * ||v||_p with p the conjugate exponent
    rng = np.random.default_rng(11)
    for q in (1.5, 2.0, 3.0, 4.0):
        p = conjugate_exponent(q)
        u = rng.uniform(0.1, 1.0, size=6)
        v = rng.uniform(0.1, 1.0, size=6)
        expect = np.sum(u ** q) ** (1 / q) * np.sum(v ** p) ** (1 / p)
        got = induced_norm(np.outer(u, v), q)
        assert got == pytest.approx(expect, rel=1e-9)


def test_induced_norm_diagonal_and_scaling():
    d = np.diag([0.3, 2.5, 1.0])
    for q in (1.0, 1.5, 2.0, 3.0, math.inf):
        assert induced_norm(d, q) == pytest.approx(2.5, rel=1e-9)
    rng = np.random.default_rng(3)
    b = rng.uniform(0.0, 1.0, size=(4, 4))
    assert induced_norm(3.0 * b, 2.5) == pytest.approx(
        3.0 * induced_norm(b, 2.5), rel=1e-9
    )


def test_induced_norm_block_structure():
    # a block-diagonal of rank-one pieces takes the max over blocks
    u1, v1 = np.array([1.0, 2.0]), np.array([0.5, 0.5])
    u2, v2 = np.array([2.0, 1.0, 0.3]), np.array([1.0, 0.2, 0.7])
    q = 3.0
    p = conjugate_exponent(q)
    big = np.zeros((5, 5))
    big[:2, :2] = np.outer(u1, v1)
    big[2:, 2:] = np.outer(u2, v2)
    expect = max(
        np.sum(u1 ** q) ** (1 / q) * np.sum(v1 ** p) ** (1 / p),
        np.sum(u2 ** q) ** (1 / q) * np.sum(v2 ** p) ** (1 / p),
    )
    assert induced_norm(big, q) == pytest.approx(expect, rel=1e-9)


def test_generalized_singular_vectors_certificate():
    rng = np.random.default_rng(19)
    for p in (1.5, 2.0, 3.0):
        pair = NormPair.from_p(p)
        b = rng.uniform(0.0, 1.0, size=(6, 6))
        b[b < 0.3] = 0.0
        pv = generalized_singular_vectors(b, pair)
        assert np.all(pv.u > 0.0) and np.all(pv.v > 0.0)
        est = pv.norm_estimate
        assert est == pytest.approx(induced_norm(b, pair.q), rel=1e-8)
        # fixed-point identities that make the sampling bound work; the
        # half-updated side converges one step behind, hence the looser rel
        bv = b @ pv.v
        btu = b.T @ pv.u
        assert bv == pytest.approx(pv.u ** (pair.p / pair.q) * est, rel=1e-6)
        assert btu == pytest.approx(pv.v ** (pair.q / pair.p) * est, rel=1e-9)


def test_generalized_singular_vectors_requires_interior_p():
    with pytest.raises(InvalidParameter):
        generalized_singular_vectors(np.ones((2, 2)), NormPair(1.0, math.inf))


def test_extreme_exponents_are_refused():
    # at q = 1000 the power iteration's u = w**(q/p) underflows to zero,
    # which used to report a norm of 0.0 for this nonzero matrix
    b = np.array([[1, 2, 0, 0], [0, 1, 0, 3], [1, 0, 1, 0], [0, 0, 2, 1]], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteResult):
        induced_norm(b, 1000.0)
    for p in (1.002, 1.5, 3.0, 300.0):
        pv = generalized_singular_vectors(b, NormPair.from_p(p))
        assert math.isfinite(pv.norm_estimate)
        for w in (pv.u, pv.v):
            assert np.all(w > 0.0) and np.all(np.isfinite(w))


def test_power_iteration_limit_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(linalg, "POWER_MAX_ITERS", 2)
    b = np.random.default_rng(0).uniform(0.5, 1.0, size=(8, 8))
    with pytest.raises(IterationLimit) as info:
        generalized_singular_vectors(b, NormPair.from_p(3.0))
    assert info.value.best_estimate > 0.0


def test_exact_oracle_matches_dense_algebra():
    rng = np.random.default_rng(7)
    sigma = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    got = exact_oracle(sigma, [a, b])
    expect = np.trace(a @ b @ sigma)
    assert got == pytest.approx(expect, rel=1e-12)
    assert exact_oracle(sigma, []) == pytest.approx(np.trace(sigma), rel=1e-12)


def test_exact_oracle_shape_and_cap():
    with pytest.raises(DimensionMismatch):
        exact_oracle(np.eye(2), [np.ones((2, 3))])
    with pytest.raises(OracleCapExceeded):
        exact_oracle(np.eye(1025), [np.ones((1025, 1025))])


def test_dense_exp_against_series():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    got = dense_exp(a)
    term = np.eye(5, dtype=complex)
    expect = np.eye(5, dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        expect = expect + term
    assert np.allclose(got, expect, atol=1e-12)
    assert np.allclose(dense_exp(np.zeros((3, 3))), np.eye(3))


def test_entrywise_abs_rejects_bad_input():
    with pytest.raises(InvalidParameter):
        entrywise_abs(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        entrywise_abs(np.ones(3))

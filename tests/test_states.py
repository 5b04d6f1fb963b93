import math
from collections import Counter

import numpy as np
import pytest

from helpers import (
    assert_endpoint_certificate,
    assert_operator_certificate,
    dense_from_entries,
    state_vector,
)
from pathmc import (
    NormPair,
    RngStream,
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
from pathmc.errors import (
    InvalidParameter,
    NormViolation,
    NotNormalized,
    ZeroVector,
)


def check_state_laws(state, draws=40_000, seed=11, exponents=(1.0, 2.0, 4.0, math.inf)):
    """The sampling law at each exponent matches the advertised
    probabilities, which sum to one over the support."""
    vec = state_vector(state)
    for p in exponents:
        probs = {i: state.law_prob(i, p) for i in state.support()}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        if p == math.inf:
            mags = np.abs(vec)
            top = np.flatnonzero(mags >= mags.max() * (1.0 - 1e-12))
            expected = {int(i): 1.0 / top.size for i in top}
        else:
            raised = np.abs(vec) ** p
            expected = {
                int(i): float(raised[i] / raised.sum()) for i in np.flatnonzero(raised)
            }
        for i, want in expected.items():
            assert probs.get(i, 0.0) == pytest.approx(want, abs=1e-12)
        rng = RngStream(seed, int(p if p != math.inf else 99))
        counts = Counter(state.sample_index(p, rng) for _ in range(draws))
        for i, want in expected.items():
            got = counts.get(i, 0) / draws
            assert abs(got - want) <= 5 * math.sqrt(want * (1 - want) / draws) + 3 / draws
        assert not set(counts) - set(expected)


def test_basis_state():
    s = basis_state(2, 4)
    assert s.amplitude(2) == 1.0
    assert s.amplitude(0) == 0.0
    assert s.pnorm(1.0) == s.pnorm(math.inf) == 1.0
    assert s.support() == [2]
    check_state_laws(s, draws=200)
    with pytest.raises(InvalidParameter):
        basis_state(4, 4)
    with pytest.raises(InvalidParameter):
        basis_state(-1, 4)


def test_product_state():
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    skew = np.array([0.6, 0.8j])
    s = product_state([plus, skew, np.array([0.0, 1.0])])
    assert s.dim == 8
    ref = np.kron(plus, np.kron(skew, np.array([0.0, 1.0])))
    assert np.allclose(state_vector(s), ref)
    assert s.pnorm(2.0) == pytest.approx(1.0)
    assert s.pnorm(1.0) == pytest.approx(float(np.abs(ref).sum()))
    check_state_laws(s)
    with pytest.raises(NotNormalized):
        product_state([np.array([1.0, 1.0])])
    with pytest.raises(InvalidParameter):
        product_state([])


def test_phase_state():
    thetas = [0.0, 0.7, -1.1, 2.5]
    s = phase_state(thetas)
    assert s.dim == 4
    for i, t in enumerate(thetas):
        assert s.amplitude(i) == pytest.approx(np.exp(1j * t) / 2.0)
    for p in (1.0, 2.0, 3.0):
        assert s.pnorm(p) == pytest.approx(4.0 ** (1.0 / p) / 2.0)
    assert s.pnorm(math.inf) == pytest.approx(0.5)
    assert s.law_prob(0, 1.0) == pytest.approx(0.25)
    check_state_laws(s, draws=8000)
    for bad in (math.nan, math.inf, 10 ** 400):
        with pytest.raises(InvalidParameter, match="non-finite"):
            phase_state([0.0, bad])


def test_uniform_state():
    s = uniform_state(8)
    assert np.allclose(state_vector(s), np.full(8, 1.0 / math.sqrt(8.0)))
    assert s.law_prob(3, 2.0) == pytest.approx(0.125)


def test_dense_vector():
    amps = np.array([0.5, 0.0, -0.5j, 0.5 + 0.5j])
    s = dense_vector(amps)
    assert np.allclose(state_vector(s), amps)
    assert s.support() == [0, 2, 3]
    assert s.pnorm(2.0) == pytest.approx(float(np.linalg.norm(amps)))
    assert s.pnorm(math.inf) == pytest.approx(math.sqrt(0.5))
    check_state_laws(s)
    # zero entries at both ends and between: the law is 0.0 there and
    # outside the index range, and no draw lands on them
    edged = dense_vector([0, 0.6, 0, 0.8j, 0])
    for p in (1.0, 2.0, 3.0, math.inf):
        low, high = (0.0, 1.0) if p == math.inf else (0.6 ** p, 0.8 ** p)
        want = [0.0, 0.0, low / (low + high), 0.0, high / (low + high), 0.0, 0.0]
        got = [edged.law_prob(i, p) for i in range(-1, 6)]
        assert got == pytest.approx(want, abs=1e-15)
        assert [got[i] for i in (0, 1, 3, 5, 6)] == [0.0] * 5
    check_state_laws(edged, draws=20_000, exponents=(1.0, 2.0, 3.0, math.inf))
    # an all-zero vector constructs (its norm is a legitimate 0) but has
    # no sampling law to offer
    zero = dense_vector([0.0, 0.0])
    assert zero.pnorm(2.0) == 0.0
    with pytest.raises(ZeroVector):
        zero.sample_index(2.0, RngStream(0))
    with pytest.raises(InvalidParameter):
        dense_vector([])
    with pytest.raises(InvalidParameter):
        dense_vector([np.nan, 1.0])


def test_dyad_certificate_and_dense():
    ket = dense_vector([0.8, 0.0, 0.6j])
    bra = dense_vector([0.6, -0.8])
    for pair in (NormPair(), NormPair.from_p(1.0), NormPair.from_p(3.0), NormPair.from_p(math.inf)):
        sig = dyad(ket, bra, pair)
        assert (sig.rows, sig.cols) == (3, 2)
        assert sig.bound == pytest.approx(bra.pnorm(pair.p) * ket.pnorm(pair.q))
        ref = np.outer(state_vector(ket), state_vector(bra).conj())
        assert_endpoint_certificate(sig, ref)
    adj = dyad(ket, bra).adjoint()
    assert np.allclose(
        dense_from_entries(adj.entries(), 2, 3),
        np.outer(state_vector(bra), state_vector(ket).conj()),
    )


def test_dyad_rejects_zero_side():
    with pytest.raises(ZeroVector):
        dyad(dense_vector([0.0, 0.0]), dense_vector([1.0, -1.0]))
    with pytest.raises(ZeroVector):
        dyad(dense_vector([1.0, 0.0]), dense_vector([0.0, 0.0]))
    # a nonzero vector is fine on every exponent
    dyad(basis_state(0, 2), uniform_state(2))


def test_density_endpoint():
    vec = np.array([0.6, 0.8j])
    rho = np.outer(vec, vec.conj())
    sig = density(rho)
    assert sig.bound == 1.0
    assert_endpoint_certificate(sig, rho)
    mixed = 0.5 * np.diag([1.0, 0.0, 0.0]) + 0.5 * np.full((3, 3), 1.0 / 3.0)
    assert_endpoint_certificate(density(mixed), mixed)


def test_density_validation():
    with pytest.raises(InvalidParameter):
        density(np.ones((2, 3)))
    with pytest.raises(InvalidParameter):
        density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvalidParameter):
        density(np.diag([1.5, -0.5]))
    with pytest.raises(NotNormalized):
        density(np.diag([0.5, 0.4]))
    with pytest.raises(InvalidParameter):
        density(np.eye(2) / 2.0, NormPair.from_p(1.0))


def test_density_positivity_violation_is_caught():
    # hermitian with unit trace, but the off-diagonal entry exceeds the
    # geometric mean of the diagonal, so no positive matrix looks like this
    rho = np.array([[0.5, 0.9], [0.9, 0.5]])
    sig = density(rho)
    with pytest.raises(NormViolation):
        sig.ratios(0, 1)
    with pytest.raises(NormViolation):
        list(sig.entries())
    # the clean diagonal keeps working
    assert sig.ratios(0, 0)[0] == pytest.approx(1.0)


def test_low_rank_endpoint():
    u1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    v1 = np.array([0.6, 0.0, 0.8])
    u2 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0])
    sig = low_rank([(0.7, u1, v1), (-0.25j, u2, v2)])
    ref = 0.7 * np.outer(v1, u1) - 0.25j * np.outer(v2, u2)
    assert sig.bound == pytest.approx(0.95)
    assert (sig.rows, sig.cols) == (3, 2)
    assert_endpoint_certificate(sig, ref)


def test_low_rank_adjoint():
    u1 = np.array([1.0, 1j]) / math.sqrt(2.0)
    v1 = np.array([0.6, 0.0, -0.8j])
    u2 = np.array([0.0, 1.0])
    v2 = np.array([1j, 0.0, 0.0])
    sig = low_rank([(0.7 - 0.1j, u1, v1), (-0.25j, u2, v2)])
    ref = (0.7 - 0.1j) * np.outer(v1, u1) - 0.25j * np.outer(v2, u2)
    adj = sig.adjoint()
    assert (adj.rows, adj.cols) == (2, 3)
    assert adj.bound == pytest.approx(sig.bound)
    assert_endpoint_certificate(adj, ref.conj().T)
    assert np.allclose(StateAsOperator(sig).adjoint().dense(), ref.conj().T)
    # away from the balanced pair the conjugated factors are unit in the
    # wrong norms, so the adjoint is refused with a typed error
    skew = NormPair.from_p(3.0)
    u = np.array([1.0, 2.0]) / np.sum(np.array([1.0, 2.0]) ** 3.0) ** (1 / 3.0)
    v = np.array([1.0, 1.0]) / 2.0 ** (1 / skew.q)
    skewed = low_rank([(1.0, u, v)], skew)
    with pytest.raises(InvalidParameter):
        skewed.adjoint()
    with pytest.raises(InvalidParameter):
        StateAsOperator(skewed).adjoint()
    with pytest.raises(InvalidParameter):
        StateAsOperator(sig).transpose()


def test_low_rank_matches_dyad():
    ket = np.array([0.8, -0.6j])
    bra = np.array([1.0, 1j]) / math.sqrt(2.0)
    sig = low_rank([(1.0, bra.conj(), ket)])
    ref = dyad(dense_vector(ket), dense_vector(bra))
    assert np.allclose(
        dense_from_entries(sig.entries(), 2, 2),
        dense_from_entries(ref.entries(), 2, 2),
    )
    assert sig.bound == pytest.approx(ref.bound)


def test_low_rank_validation():
    unit = np.array([1.0, 0.0])
    with pytest.raises(InvalidParameter):
        low_rank([])
    with pytest.raises(NotNormalized):
        low_rank([(1.0, np.array([1.0, 1.0]), unit)])
    with pytest.raises(NotNormalized):
        low_rank([(1.0, unit, np.array([0.5, 0.5]))])
    with pytest.raises(InvalidParameter):
        low_rank([(1.0, unit, unit), (1.0, np.array([1.0, 0.0, 0.0]), unit)])
    with pytest.raises(ZeroVector):
        low_rank([(0.0, unit, unit)])


def test_state_as_operator():
    ket = dense_vector([0.6, 0.8])
    bra = uniform_state(2)
    op = StateAsOperator(dyad(ket, bra))
    ref = np.outer(state_vector(ket), state_vector(bra).conj())
    assert_operator_certificate(op, ref)
    assert np.allclose(op.adjoint().dense(), ref.conj().T)


def test_projector_family():
    table = [0, 2, 1]
    fam = projector_family(table, 3, 4)
    assert fam.rows == 12
    assert fam.bound == pytest.approx(1.0)
    blocks = []
    for g in table:
        phi = np.exp(-2j * np.pi * g * np.arange(4) / 4.0) / 2.0
        blocks.append(np.outer(phi, phi.conj()))
    ref = np.zeros((12, 12), dtype=complex)
    for x, blk in enumerate(blocks):
        ref[4 * x : 4 * x + 4, 4 * x : 4 * x + 4] = blk
        # each block squares to itself
        assert np.allclose(blk @ blk, blk)
    assert_operator_certificate(fam, ref, sample_rows=range(0, 12, 2))
    with pytest.raises(InvalidParameter):
        projector_family([0, 1], 3, 4)

"""Properties of the benchmark's own reference matrices.

Run from the repository root with ``python -m pytest bench``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads  # noqa: E402

SIZES = range(1, 7)


def assert_unitary(u):
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)


@pytest.mark.parametrize("n", SIZES)
def test_transforms_are_unitary(n):
    for build in (reference.haar_matrix, reference.fourier_matrix,
                  reference.hadamard_matrix, reference.grover_matrix):
        assert_unitary(build(n))


@pytest.mark.parametrize("n", SIZES)
def test_haar_columns_have_n_plus_one_entries(n):
    h = reference.haar_matrix(n)
    assert (np.count_nonzero(h, axis=0) == n + 1).all()
    assert np.allclose(h[0], 2.0 ** (-n / 2.0))
    # row x with leading bit at depth s has 2^(s+1) entries of size 2^-((s+1)/2)
    for x in range(1, 1 << n):
        s = n - x.bit_length()
        row = h[x][h[x] != 0]
        assert row.size == 1 << (s + 1)
        assert np.allclose(np.abs(row), 2.0 ** (-(s + 1) / 2.0))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_fourier_and_hadamard_match_their_formulas(n):
    dim = 1 << n
    f = reference.fourier_matrix(n)
    h = reference.hadamard_matrix(n)
    for j in range(dim):
        for k in range(dim):
            assert f[j, k] == pytest.approx(np.exp(2j * math.pi * j * k / dim) / math.sqrt(dim))
            assert h[j, k] == pytest.approx((-1) ** bin(j & k).count("1") / math.sqrt(dim))


@pytest.mark.parametrize("n", SIZES)
def test_grover_reflects_the_uniform_state(n):
    g = reference.grover_matrix(n)
    u = np.full(1 << n, (1 << n) ** -0.5)
    assert np.allclose(g @ u, -u)
    assert np.allclose(g @ g, np.eye(1 << n))


def test_oracle_is_a_shift_permutation():
    table = [3, 1, 0, 2]
    o = reference.oracle_matrix(table, 4, 4)
    assert_unitary(o)
    assert (o.sum(axis=1) == 1).all() and (o.sum(axis=0) == 1).all()
    for x, g in enumerate(table):
        for y in range(4):
            assert o[x * 4 + y, x * 4 + (y + g) % 4] == 1


def test_pauli_and_permutation_are_unitary():
    assert_unitary(reference.pauli_matrix("XYZI"))
    phases = np.exp(1j * np.arange(5))
    p = reference.permutation_matrix([2, 0, 4, 1, 3], phases)
    assert_unitary(p)
    assert p[0, 2] == phases[0]


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_stochastic_maps_keep_their_column_sums(seed):
    docs = [d.doc for d in workloads.mixed_zoo(seed, Path(__file__).resolve().parent.parent
                                              / "tests" / "fixtures")
            if d.label.startswith("stochastic")]
    assert docs
    for doc in docs:
        init = np.array(doc["state"]["amplitudes"])
        assert init.sum() == pytest.approx(1.0) and (init >= 0).all()
        for spec in doc["operators"]:
            m = reference.operator_matrix(spec, doc["n_levels"])
            assert np.allclose(m.sum(axis=0), 1.0)
            assert (m != 0).all()
        value, interference, b, mana = reference.stochastic_reference(doc)
        assert abs(value) <= interference <= b * (1 + 1e-12)
        assert b == pytest.approx(math.exp(sum(mana)))


def test_zoo_costs_do_not_depend_on_the_seed():
    fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    runs = [workloads.mixed_zoo(seed, fixtures) for seed in (0, 1)]
    for a, b in zip(*runs):
        assert a.label == b.label
        assert a.doc != b.doc or a.label.startswith("fixture")
        # epsilon is a fixed share of b, so equal epsilons mean equal b and K
        assert a.epsilon == pytest.approx(b.epsilon, rel=1e-9)


def test_zoo_unitaries_are_unitary():
    fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    for d in workloads.mixed_zoo(5, fixtures):
        if reference.is_stochastic(d.doc):
            continue
        for spec in d.doc["operators"]:
            if spec["kind"] in ("sparse", "exp") or spec.get("law"):
                assert_unitary(reference.operator_matrix(spec, d.doc["n_levels"]))

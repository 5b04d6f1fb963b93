"""Circuit documents for the three benchmark workloads, made from a seed.

The seed picks phases, permutations, oracle tables, basis indices and
vector values. Sizes and entry magnitudes come from fixed templates, so the
certified bound b of every document, and with it the path count K, is the
same for every seed: runs with different seeds do the same amount of work on
different numbers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

DELTA = 1e-3

# haar_sandwich: criterion 11's wavelet sandwich scaled up to n = 8
# (b = (n+1)^2 = 81); epsilon fixes K at 13,605 paths per document, short
# enough for many rounds, and so a steady median, in one run.
HAAR_BITS = 8
HAAR_EPSILON = 4.0

# fourier_wide: b = 2^(2n) = 2^20 at n = 10, so epsilon = b/6 gives
# K = 1,195 paths per document.
WIDE_QUBITS = 10
WIDE_EPSILON = 2.0 ** (2 * WIDE_QUBITS) / 6.0

# mixed_zoo: epsilon = b/6 per circuit, about 1,195 paths each.
ZOO_EPSILON_SHARE = 1.0 / 6.0

FIXTURES = ("bell_pair.json", "grover_iterate.json", "markov_chain.json")


@dataclass
class Document:
    """One estimate the workload runs: a circuit document and its targets."""

    label: str
    doc: dict
    epsilon: float
    delta: float
    workers: int
    seed: int


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cvec(v) -> list:
    return [_c(z) for z in v]


def _cmat(a) -> list:
    return [[_c(z) for z in row] for row in a]


def _doc(dim, state, operators, measurement, p=2) -> dict:
    return {"schema_version": 1, "n_levels": dim, "p": p, "state": state,
            "operators": operators, "measurement": measurement}


def _sandwich(kind, key, n, state, rng) -> dict:
    dim = 1 << n
    x_size = 1 << (n // 2)
    y_size = dim // x_size
    oracle = {"kind": "oracle", "x_size": x_size, "y_size": y_size,
              "table": [rng.randrange(y_size) for _ in range(x_size)]}
    transform = {"kind": kind, key: n}
    return _doc(dim, state, [transform, oracle, dict(transform)],
                {"kind": "state-projector", "state": {"kind": "uniform"}})


def haar_sandwich(seed: int) -> list:
    """Two Haar-oracle-Haar sandwiches between uniform states."""
    rng = random.Random(f"haar_sandwich:{seed}")
    return [Document(f"haar{HAAR_BITS}-oracle-{i}",
                     _sandwich("haar", "bits", HAAR_BITS, {"kind": "uniform"}, rng),
                     HAAR_EPSILON, DELTA, 2, rng.randrange(1 << 30))
            for i in range(2)]


def fourier_wide(seed: int) -> list:
    """A Fourier and a Hadamard sandwich on 10 qubits from a seeded phase
    state, so forward walks start on every row."""
    rng = random.Random(f"fourier_wide:{seed}")
    dim = 1 << WIDE_QUBITS
    out = []
    for kind in ("fourier", "hadamard"):
        state = {"kind": "phase",
                 "thetas": [rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim)]}
        out.append(Document(f"{kind}{WIDE_QUBITS}-oracle",
                            _sandwich(kind, "qubits", WIDE_QUBITS, state, rng),
                            WIDE_EPSILON, DELTA, 2, rng.randrange(1 << 30)))
    return out


# ---------------------------------------------------------------------------
# mixed_zoo: fixed templates, seeded values


def _template_unitary(dim: int, tag: int) -> np.ndarray:
    g = np.random.default_rng(10_000 + tag)
    z = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phases(rng, size) -> np.ndarray:
    return np.exp(2j * math.pi * rng.random(size))


def _unitary(rng, dim: int, tag: int) -> np.ndarray:
    """A seeded unitary whose entry magnitudes are a row and column
    permutation of a fixed template's."""
    u = _template_unitary(dim, tag)
    u = u[rng.permutation(dim)][:, rng.permutation(dim)]
    return _phases(rng, dim)[:, None] * u * _phases(rng, dim)[None, :]


def _hermitian(rng, dim: int, tag: int) -> np.ndarray:
    """A seeded hermitian matrix with permuted fixed template magnitudes."""
    g = np.random.default_rng(20_000 + tag)
    z = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    h = (z + z.conj().T) / 2.0
    perm = rng.permutation(dim)
    d = _phases(rng, dim)
    return (d[:, None] * h * d.conj()[None, :])[perm][:, perm]


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _vector_state(rng, dim):
    return {"kind": "vector", "amplitudes": _cvec(_unit(rng, dim))}


def _phase_state(rng, dim):
    return {"kind": "phase", "thetas": rng.uniform(0.0, 2.0 * math.pi, dim).tolist()}


def _product_state(rng, dims):
    return {"kind": "product", "factors": [_cvec(_unit(rng, d)) for d in dims]}


def _projector(state):
    return {"kind": "state-projector", "state": state}


def _diagonal(rng, dim):
    return {"kind": "diagonal", "values": _cvec(_phases(rng, dim))}


def _permutation(rng, dim):
    return {"kind": "permutation", "perm": [int(x) for x in rng.permutation(dim)],
            "phases": _cvec(_phases(rng, dim))}


def _sparse(rng, dim):
    """A direct sum of fixed-angle 2x2 rotations between seeded phases,
    rows and columns permuted: a unitary with two entries per row."""
    angle = 0.4
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    rows = rng.permutation(dim)
    cols = rng.permutation(dim)
    triplets = []
    for b in range(dim // 2):
        block = _phases(rng, 2)[:, None] * rot * _phases(rng, 2)[None, :]
        for i in range(2):
            for j in range(2):
                triplets.append([int(rows[2 * b + i]), int(cols[2 * b + j]), _c(block[i, j])])
    return {"kind": "sparse", "rows": dim, "cols": dim, "triplets": triplets}


def _density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return {"kind": "density", "matrix": _cmat(rho / np.trace(rho).real)}


def _low_rank(rng, dim, weights):
    return {"kind": "low-rank", "terms": [
        {"weight": _c(w * _phases(rng, 1)[0]), "col": _cvec(_unit(rng, dim)),
         "row": _cvec(_unit(rng, dim))} for w in weights]}


def _quasi_stochastic(rng, dim, column):
    """Columns that are seeded permutations of a fixed template column, so
    every column sums to one and has the same absolute sum. Templates have
    no zero entry: the stochastic mode refuses a map with an all-zero row."""
    mat = np.zeros((dim, dim))
    for n in range(dim):
        mat[:, n] = np.asarray(column)[rng.permutation(dim)]
    return {"kind": "dense", "matrix": mat.tolist()}


def _stochastic(rng, dim, columns):
    init = rng.dirichlet(np.ones(dim))
    payoff = np.asarray([1.0, -1.0] + [0.5] * (dim - 2))[rng.permutation(dim)]
    return _doc(dim, {"kind": "vector", "amplitudes": init.tolist()},
                [_quasi_stochastic(rng, dim, c) for c in columns],
                {"kind": "vector", "amplitudes": payoff.tolist()}, p="inf")


def _zoo_docs(rng) -> list:
    """(label, document) for every zoo circuit, in a fixed order."""
    def dense(u, law="optimal"):
        return {"kind": "dense", "matrix": _cmat(u), "law": law}

    exp_h = _hermitian(rng, 3, 0)
    exp_t = 0.5 / float(np.linalg.norm(np.abs(exp_h), 2))
    return [
        ("basis/dense-optimal/pauli",
         _doc(4, {"kind": "basis", "index": int(rng.integers(4))},
              [dense(_unitary(rng, 4, 1))], {"kind": "pauli", "letters": "XZ"})),
        ("uniform/dense-rowcol/diagonal",
         _doc(8, {"kind": "uniform"}, [dense(_unitary(rng, 8, 2), "rowcol")],
              _diagonal(rng, 8))),
        ("product/sparse",
         _doc(8, _product_state(rng, (2, 4)), [_sparse(rng, 8)],
              _projector(_product_state(rng, (4, 2))))),
        ("phase/grover",
         _doc(8, _phase_state(rng, 8), [{"kind": "grover", "qubits": 3}],
              _projector(_phase_state(rng, 8)))),
        ("vector/scaled-hadamard",
         _doc(16, _vector_state(rng, 16),
              [{"kind": "scaled", "scale": _c(_phases(rng, 1)[0]),
                "inner": {"kind": "hadamard", "qubits": 4}}],
              _projector({"kind": "basis", "index": int(rng.integers(16))}))),
        ("dyad/sum-default",
         _doc(8, {"kind": "dyad", "ket": _vector_state(rng, 8),
                  "bra": _vector_state(rng, 8)},
              [{"kind": "sum", "terms": [dense(_unitary(rng, 8, 3)), _permutation(rng, 8)],
                "scales": [0.6, _c(0.8j)]}],
              {"kind": "pauli", "letters": "ZXY"})),
        ("density/sum-weights",
         _doc(4, _density(rng, 4),
              [{"kind": "sum", "terms": [{"kind": "pauli", "letters": "XX"}, _diagonal(rng, 4)],
                "scales": [0.6, 0.8], "weights": [0.5, 0.5]}],
              _projector(_vector_state(rng, 4)))),
        ("low-rank/product-fourier",
         _doc(8, _low_rank(rng, 8, (0.7, 0.3)),
              [{"kind": "product", "factors": [{"kind": "fourier", "qubits": 3},
                                               _permutation(rng, 8)]}],
              {"kind": "pauli", "letters": "ZZI"})),
        ("basis/exp-dense",
         _doc(3, {"kind": "basis", "index": int(rng.integers(3))},
              [{"kind": "exp", "inner": {"kind": "scaled", "scale": [0.0, -exp_t],
                                         "inner": dense(exp_h)}}],
              _projector(_vector_state(rng, 3)))),
        ("uniform/controlled-haar",
         _doc(16, {"kind": "uniform"},
              [{"kind": "controlled", "blocks": [{"kind": "haar", "bits": 3},
                                                 {"kind": "hadamard", "qubits": 3}]}],
              _permutation(rng, 16))),
        ("phase/tensor-embed/projector-family",
         _doc(32, _phase_state(rng, 32),
              [{"kind": "tensor-embed", "inner": dense(_unitary(rng, 4, 4)),
                "left": 2, "right": 4}],
              {"kind": "projector-family", "x_size": 4, "y_size": 8,
               "table": [int(x) for x in rng.integers(8, size=4)]})),
        ("vector/oracle-haar",
         _doc(16, _vector_state(rng, 16),
              [{"kind": "oracle", "x_size": 4, "y_size": 4,
                "table": [int(x) for x in rng.integers(4, size=4)]},
               {"kind": "haar", "bits": 4}],
              _projector({"kind": "uniform"}))),
        ("dyad-basis-phase/permutation-hadamard",
         _doc(4, {"kind": "dyad", "ket": {"kind": "basis", "index": int(rng.integers(4))},
                  "bra": _phase_state(rng, 4)},
              [_permutation(rng, 4), {"kind": "hadamard", "qubits": 2}],
              _diagonal(rng, 4))),
        ("product/grover-pauli",
         _doc(32, _product_state(rng, (2, 2, 8)),
              [{"kind": "grover", "qubits": 5}, {"kind": "pauli", "letters": "YIXZI"}],
              _projector(_product_state(rng, (8, 4))))),
        ("stochastic-3",
         _stochastic(rng, 3, [(0.6, 0.3, 0.1), (0.7, 0.5, -0.2)])),
        ("stochastic-5",
         _stochastic(rng, 5, [(0.4, 0.3, 0.15, 0.1, 0.05), (0.6, 0.5, -0.1, -0.05, 0.05),
                              (0.4, 0.4, 0.2, 0.1, -0.1)])),
        ("stochastic-8",
         _stochastic(rng, 8, [(0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05),
                              (0.5, 0.4, 0.2, 0.1, -0.1, -0.1, 0.05, -0.05)])),
    ]


def mixed_zoo(seed: int, fixtures: Path) -> list:
    """Every endpoint kind, every operator kind and combinator, three
    stochastic chains and the loadable test fixtures, each estimated once
    with one stream at epsilon = b/6."""
    rng = np.random.default_rng([seed, 7])
    items = _zoo_docs(rng)
    for name in FIXTURES:
        items.append((f"fixture/{name[:-5]}", json.loads((fixtures / name).read_text())))
    out = []
    for label, doc in items:
        if reference.is_stochastic(doc):
            b = reference.stochastic_reference(doc)[2]
        else:
            b = reference.circuit_bound(doc)[0]
        out.append(Document(label, doc, b * ZOO_EPSILON_SHARE, DELTA, 1,
                            int(rng.integers(1 << 30))))
    return out


WORKLOADS = ("haar_sandwich", "fourier_wide", "mixed_zoo")


def documents(workload: str, seed: int, root: Path) -> list:
    if workload == "haar_sandwich":
        return haar_sandwich(seed)
    if workload == "fourier_wide":
        return fourier_wide(seed)
    return mixed_zoo(seed, root / "tests" / "fixtures")

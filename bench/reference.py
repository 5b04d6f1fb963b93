"""Independent dense references for the benchmark's circuit documents.

Everything here is built from the defining formulas with numpy (and
``scipy.linalg.expm`` for ``exp``); nothing is taken from pathmc. The
document semantics follow the circuit-file format: an operator matrix
``A[m, n]`` has rows m and columns n, a dyad endpoint is
``ket[row] * conj(bra[col])``, and a circuit's value is
``Tr{U1^H ... UT^H M UT ... U1 sigma}``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import block_diag, expm


# ---------------------------------------------------------------------------
# matrices from their definitions


def haar_matrix(n: int) -> np.ndarray:
    """The Haar wavelet transform on n bits, by the recursion
    ``H_n = [[1, 1] (x) H_{n-1}; [1, -1] (x) I] / sqrt(2)`` from ``H_0 = [1]``."""
    h = np.ones((1, 1))
    for k in range(n):
        half = 1 << k
        h = np.vstack([np.kron([1.0, 1.0], h),
                       np.kron([1.0, -1.0], np.eye(half))]) / math.sqrt(2.0)
    return h.astype(complex)


def fourier_matrix(n: int) -> np.ndarray:
    """``F[j, k] = exp(2 pi i j k / N) / sqrt(N)``, the unitary inverse DFT."""
    return np.fft.ifft(np.eye(1 << n), axis=0, norm="ortho")


def hadamard_matrix(n: int) -> np.ndarray:
    """Sylvester's construction ``H_n = H_1 (x) H_{n-1}``."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h = np.ones((1, 1))
    for _ in range(n):
        h = np.kron(h1, h)
    return h.astype(complex)


def grover_matrix(n: int) -> np.ndarray:
    """The reflection ``I - 2|u><u|`` about the uniform state on n qubits."""
    dim = 1 << n
    u = np.full(dim, 1.0 / math.sqrt(dim))
    return (np.eye(dim) - 2.0 * np.outer(u, u)).astype(complex)


def oracle_matrix(table, x_size: int, y_size: int) -> np.ndarray:
    """Row ``x*Y + y`` carries a one at column ``x*Y + (y + g(x)) mod Y``."""
    dim = x_size * y_size
    out = np.zeros((dim, dim), dtype=complex)
    for x, g in enumerate(table):
        for y in range(y_size):
            out[x * y_size + y, x * y_size + (y + g) % y_size] = 1.0
    return out


def permutation_matrix(perm, phases=None) -> np.ndarray:
    """Row m carries ``phases[m]`` at column ``perm[m]``."""
    dim = len(perm)
    out = np.zeros((dim, dim), dtype=complex)
    for m, n in enumerate(perm):
        out[m, n] = 1.0 if phases is None else phases[m]
    return out


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(letters: str) -> np.ndarray:
    """Kronecker product of Pauli matrices, first letter most significant."""
    out = np.ones((1, 1), dtype=complex)
    for c in letters:
        out = np.kron(out, _PAULI[c])
    return out


# ---------------------------------------------------------------------------
# document interpretation


def _num(x) -> complex:
    return complex(x[0], x[1]) if isinstance(x, list) else complex(x)


def _vec(xs) -> np.ndarray:
    return np.array([_num(x) for x in xs], dtype=complex)


def state_vector(spec, dim: int) -> np.ndarray:
    kind = spec["kind"]
    if kind == "basis":
        out = np.zeros(dim, dtype=complex)
        out[spec["index"]] = 1.0
        return out
    if kind == "uniform":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if kind == "product":
        out = np.ones(1, dtype=complex)
        for f in spec["factors"]:
            out = np.kron(out, _vec(f))
        return out
    if kind == "phase":
        return np.exp(1j * np.array(spec["thetas"], dtype=float)) / math.sqrt(dim)
    if kind == "vector":
        return _vec(spec["amplitudes"])
    raise ValueError(f"not a state kind: {kind}")


def endpoint_dyad(spec, dim: int):
    """``(ket, bra)`` when the endpoint is a single dyad, else None."""
    kind = spec["kind"]
    if kind == "dyad":
        return state_vector(spec["ket"], dim), state_vector(spec["bra"], dim)
    if kind in ("density", "low-rank"):
        return None
    v = state_vector(spec, dim)
    return v, v


def endpoint_matrix(spec, dim: int) -> np.ndarray:
    pair = endpoint_dyad(spec, dim)
    if pair is not None:
        ket, bra = pair
        return np.outer(ket, bra.conj())
    if spec["kind"] == "density":
        return np.array([[_num(x) for x in row] for row in spec["matrix"]], dtype=complex)
    out = np.zeros((dim, dim), dtype=complex)
    for term in spec["terms"]:
        out += _num(term["weight"]) * np.outer(_vec(term["row"]), _vec(term["col"]))
    return out


def operator_matrix(spec, dim: int) -> np.ndarray:
    kind = spec["kind"]
    if kind == "dense":
        return np.array([[_num(x) for x in row] for row in spec["matrix"]], dtype=complex)
    if kind == "sparse":
        out = np.zeros((spec["rows"], spec["cols"]), dtype=complex)
        for m, n, v in spec["triplets"]:
            out[m, n] = _num(v)
        return out
    if kind == "permutation":
        phases = _vec(spec["phases"]) if "phases" in spec else None
        return permutation_matrix(spec["perm"], phases)
    if kind == "diagonal":
        return np.diag(_vec(spec["values"]))
    if kind == "pauli":
        return pauli_matrix(spec["letters"])
    if kind == "grover":
        return grover_matrix(spec["qubits"])
    if kind == "haar":
        return haar_matrix(spec["bits"])
    if kind == "fourier":
        return fourier_matrix(spec["qubits"])
    if kind == "hadamard":
        return hadamard_matrix(spec["qubits"])
    if kind == "oracle":
        return oracle_matrix(spec["table"], spec["x_size"], spec["y_size"])
    if kind == "scaled":
        return _num(spec["scale"]) * operator_matrix(spec["inner"], dim)
    if kind == "sum":
        scales = [_num(s) for s in spec.get("scales", [1.0] * len(spec["terms"]))]
        return sum(s * operator_matrix(t, dim) for s, t in zip(scales, spec["terms"]))
    if kind == "product":
        out = None
        for f in spec["factors"]:
            m = operator_matrix(f, dim)
            out = m if out is None else out @ m
        return out
    if kind == "exp":
        return expm(operator_matrix(spec["inner"], dim))
    if kind == "controlled":
        return block_diag(*[operator_matrix(b, dim) for b in spec["blocks"]])
    if kind == "tensor-embed":
        inner = operator_matrix(spec["inner"], dim)
        return np.kron(np.kron(np.eye(spec["left"]), inner), np.eye(spec["right"]))
    if kind == "projector-family":
        y = spec["y_size"]
        blocks = []
        for g in spec["table"]:
            phi = np.exp(-2j * math.pi * g * np.arange(y) / y) / math.sqrt(y)
            blocks.append(np.outer(phi, phi.conj()))
        return block_diag(*blocks)
    raise ValueError(f"not an operator kind: {kind}")


def measurement_matrix(spec, dim: int) -> np.ndarray:
    if spec["kind"] == "state-projector":
        v = state_vector(spec["state"], dim)
        return np.outer(v, v.conj())
    return operator_matrix(spec, dim)


# ---------------------------------------------------------------------------
# certified bounds by the closed forms of the paper and the combinator rules


def _rowcol_bound(mat: np.ndarray) -> float:
    a = np.abs(mat)
    return math.sqrt(float(a.sum(axis=1).max()) * float(a.sum(axis=0).max()))


def operator_bound(spec, dim: int):
    """``(bound, exact)`` at the balanced pair. ``exact`` is False where no
    closed form exists (the optimal dense law); the value is then the
    spectral norm of ``|A|``, the fixed point that law converges to."""
    kind = spec["kind"]
    if kind in ("permutation", "diagonal", "pauli", "oracle", "projector-family"):
        return 1.0, True
    if kind == "grover":
        return 3.0, True
    if kind == "haar":
        return math.sqrt(spec["bits"] + 1), True
    if kind in ("fourier", "hadamard"):
        return 2.0 ** (spec["qubits"] / 2.0), True
    if kind == "sparse" or (kind == "dense" and spec.get("law") == "rowcol"):
        return _rowcol_bound(operator_matrix(spec, dim)), True
    if kind == "dense":
        return float(np.linalg.norm(np.abs(operator_matrix(spec, dim)), 2)), False
    if kind in ("scaled", "exp", "tensor-embed"):
        b, exact = operator_bound(spec["inner"], dim)
        if kind == "scaled":
            return abs(_num(spec["scale"])) * b, exact
        return (math.exp(b) if kind == "exp" else b), exact
    parts = [operator_bound(s, dim) for s in
             spec.get("terms") or spec.get("factors") or spec.get("blocks")]
    exact = all(e for _, e in parts)
    bounds = [b for b, _ in parts]
    if kind == "product":
        return math.prod(bounds), exact
    if kind == "controlled":
        return max(bounds), exact
    scales = [abs(_num(s)) for s in spec.get("scales", [1.0] * len(bounds))]
    loads = [s * b for s, b in zip(scales, bounds)]
    if "weights" in spec:
        return max(l / w for l, w in zip(loads, spec["weights"]) if w > 0.0), exact
    return sum(loads), exact


def endpoint_bound(spec, dim: int) -> float:
    pair = endpoint_dyad(spec, dim)
    if pair is not None:
        ket, bra = pair
        return float(np.linalg.norm(bra) * np.linalg.norm(ket))
    if spec["kind"] == "density":
        return 1.0
    return sum(abs(_num(t["weight"])) for t in spec["terms"])


def circuit_bound(doc):
    """``(b, exact)`` for a quantum-mode document: the endpoint bound times
    the measurement bound times the square of each unitary's bound."""
    dim = doc["n_levels"]
    b = endpoint_bound(doc["state"], dim)
    exact = True
    meas = doc["measurement"]
    if meas["kind"] == "state-projector":
        b *= float(np.linalg.norm(state_vector(meas["state"], dim))) ** 2
    else:
        mb, e = operator_bound(meas, dim)
        b *= mb
        exact &= e
    for spec in doc["operators"]:
        ub, e = operator_bound(spec, dim)
        b *= ub * ub
        exact &= e
    return b, exact


# ---------------------------------------------------------------------------
# expectation values and interference


def circuit_reference(doc):
    """``(expectation, interference)`` of a quantum-mode document.

    The interference is ``Tr{|U1|^T ... |M| ... |U1| |sigma|}``, the sum of
    path magnitudes, which no certified bound can undercut. Single-dyad
    endpoints are pushed through the chain as vectors, so wide circuits
    need no dense chain product.
    """
    dim = doc["n_levels"]
    units = [operator_matrix(s, dim) for s in doc["operators"]]
    meas = measurement_matrix(doc["measurement"], dim)
    pair = endpoint_dyad(doc["state"], dim)
    if pair is not None:
        ket, bra = pair
        k, b, ak, ab = ket, bra, np.abs(ket), np.abs(bra)
        for u in units:
            au = np.abs(u)
            k, b, ak, ab = u @ k, u @ b, au @ ak, au @ ab
        return complex(b.conj() @ meas @ k), float(ab @ np.abs(meas) @ ak)
    sigma = endpoint_matrix(doc["state"], dim)
    chain = np.eye(dim, dtype=complex)
    achain = np.eye(dim)
    for u in units:
        chain = u @ chain
        achain = np.abs(u) @ achain
    value = np.trace(chain.conj().T @ meas @ chain @ sigma)
    interference = np.trace(achain.T @ np.abs(meas) @ achain @ np.abs(sigma))
    return complex(value), float(interference.real)


def stochastic_reference(doc):
    """``(value, interference, b, mana)`` of a p = inf document: the payoff
    of the pushed-forward distribution, its path-magnitude sum, the bound
    ``max|f| * prod(max column sum) * sum|initial|`` and the log column-sum
    price of each map."""
    init = _vec(doc["state"]["amplitudes"])
    final = _vec(doc["measurement"]["amplitudes"])
    acc, aacc = init, np.abs(init)
    colsums = []
    for spec in doc["operators"]:
        m = operator_matrix(spec, doc["n_levels"])
        acc = m @ acc
        aacc = np.abs(m) @ aacc
        colsums.append(float(np.abs(m).sum(axis=0).max()))
    b = float(np.abs(final).max()) * math.prod(colsums) * float(np.abs(init).sum())
    return (complex(final @ acc), float(np.abs(final) @ aacc), b,
            [math.log(c) for c in colsums])


def is_stochastic(doc) -> bool:
    return doc["measurement"].get("kind") == "vector"


def path_count(epsilon: float, delta: float, b: float) -> int:
    """``ceil(4 ln(4/delta) eps^-2 b^2)``, at least one."""
    return max(1, math.ceil(4.0 * math.log(4.0 / delta) * epsilon ** -2.0 * b * b))

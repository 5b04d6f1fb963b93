"""Dense linear-algebra utilities: norm pairs, induced matrix norms, and
the small exact references the samplers are audited against.

Matrices are plain ``numpy`` arrays in row-major layout. Everything here is
deterministic; the only randomness (power-method restarts) comes from a
generator seeded with a fixed constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    IterationLimit,
    NonFiniteResult,
    OracleCapExceeded,
)

#: Largest dimension accepted by the dense reference routines.
ORACLE_CAP = 1 << 10

#: Tolerance on successive norm estimates in the power iteration.
POWER_TOL = 1e-12

#: Iteration budget of the power iteration.
POWER_MAX_ITERS = 10_000

_DUALITY_TOL = 1e-12


def conjugate_exponent(p: float) -> float:
    """Return the Hoelder conjugate q with 1/p + 1/q = 1."""
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    if not (1.0 < p < math.inf):
        raise InvalidParameter(f"exponent must lie in [1, inf], got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormPair:
    """A conjugate exponent pair (p, q) with 1/p + 1/q = 1.

    The pair fixes which norms price the two sampling directions: forward
    transition ratios are weighted with exponent 1/p, backward ones with 1/q.
    The default is the balanced pair (2, 2).
    """

    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        p, q = float(self.p), float(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        for name, val in (("p", p), ("q", q)):
            if math.isnan(val) or val < 1.0:
                raise InvalidParameter(f"{name} must be >= 1, got {val}")
        if abs(self.inv_p + self.inv_q - 1.0) > _DUALITY_TOL:
            raise InvalidParameter(f"exponents are not conjugate: p={p}, q={q}")

    @classmethod
    def from_p(cls, p: float) -> "NormPair":
        return cls(float(p), conjugate_exponent(float(p)))

    @property
    def inv_p(self) -> float:
        """1/p, with the convention 1/inf = 0."""
        return 0.0 if self.p == math.inf else 1.0 / self.p

    @property
    def inv_q(self) -> float:
        return 0.0 if self.q == math.inf else 1.0 / self.q


@dataclass(frozen=True)
class SparseEntries:
    """A matrix given as (row, col, value) triplets.

    Duplicate (row, col) coordinates are rejected; entries equal to zero are
    allowed but carry no weight.
    """

    rows: int
    cols: int
    triplets: tuple = ()

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise InvalidParameter("sparse matrix needs positive dimensions")
        seen = set()
        norm = []
        for m, n, v in self.triplets:
            m, n = int(m), int(n)
            if not (0 <= m < self.rows and 0 <= n < self.cols):
                raise DimensionMismatch(
                    f"triplet ({m}, {n}) outside a {self.rows}x{self.cols} matrix"
                )
            if (m, n) in seen:
                raise InvalidParameter(f"duplicate triplet at ({m}, {n})")
            seen.add((m, n))
            norm.append((m, n, complex(v)))
        object.__setattr__(self, "triplets", tuple(norm))

    def dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for m, n, v in self.triplets:
            out[m, n] = v
        return out


@dataclass(frozen=True)
class PositiveVectorPair:
    """Strictly positive left/right vectors certifying an induced norm.

    At the fixed point of the alternating power iteration the pair satisfies
    ``<u, B v> == norm_estimate`` on every connected block, and the one-sided
    inequalities ``(B v)_m <= u_m**(p/q) * norm_estimate`` and
    ``(B^T u)_n <= v_n**(q/p) * norm_estimate`` hold everywhere (rows and
    columns with no support are padded with ones).
    """

    u: np.ndarray
    v: np.ndarray
    norm_estimate: float


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise InvalidParameter("matrix contains non-finite entries")
    return arr


def entrywise_abs(a) -> np.ndarray:
    """Entrywise absolute value as a real matrix."""
    return np.abs(as_complex_matrix(a))


def _vec_norm(x: np.ndarray, p: float) -> float:
    if p == math.inf:
        return float(np.max(np.abs(x))) if x.size else 0.0
    if p == 1:
        return float(np.sum(np.abs(x)))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def block_decompose(b) -> list:
    """Split a nonnegative matrix into connected bipartite blocks.

    Returns a list of ``(row_indices, col_indices)`` pairs, each side sorted,
    ordered by the smallest row they contain and then by the smallest
    column. Rows and columns with no support come back as singleton blocks
    with an empty other side.
    """
    mat = entrywise_abs(b)
    n_rows, n_cols = mat.shape
    # union-find over rows 0..n_rows-1 and columns n_rows..; every root is
    # the smallest member of its set, so blocks first meet in output order
    parent = list(range(n_rows + n_cols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    ms, ns = np.nonzero(mat)
    for m, n in zip(ms.tolist(), (ns + n_rows).tolist()):
        if parent[m] != parent[n]:
            a, c = find(m), find(n)
            parent[max(a, c)] = min(a, c)
    blocks: dict = {}
    for x in range(n_rows + n_cols):
        rows, cols = blocks.setdefault(find(x), ([], []))
        if x < n_rows:
            rows.append(x)
        else:
            cols.append(x - n_rows)
    return list(blocks.values())


def _power_fixed_point(block: np.ndarray, p: float, q: float, v0: np.ndarray):
    """Alternating fixed-point iteration for the q->q induced norm of a
    nonnegative connected block. Returns (estimate, u, v, iterations) or
    raises IterationLimit carrying the best estimate."""
    v = v0 / _vec_norm(v0, q)
    est = 0.0
    u = np.ones(block.shape[0])
    for it in range(POWER_MAX_ITERS):
        w = block @ v
        nw = _vec_norm(w, q)
        if nw == 0.0:
            return 0.0, u, v, it
        u = (w / nw) ** (q / p)          # automatically unit in the p-norm
        z = block.T @ u
        nz = _vec_norm(z, p)
        v = (z / nz) ** (p / q)          # unit in the q-norm
        prev, est = est, nz
        if abs(est - prev) <= POWER_TOL * max(1.0, est):
            return est, u, v, it + 1
    raise IterationLimit(
        f"power iteration did not converge in {POWER_MAX_ITERS} steps",
        best_estimate=est,
    )


def _block_norm(block: np.ndarray, p: float, q: float):
    """Norm of one connected block, with random restarts away from p = 2."""
    starts = [np.ones(block.shape[1])]
    if p not in (1.0, 2.0, math.inf):
        rng = np.random.default_rng(0)
        starts += [rng.uniform(0.5, 1.5, block.shape[1]) for _ in range(3)]
    best = None
    for v0 in starts:
        est, u, v, _ = _power_fixed_point(block, p, q, v0)
        if best is None or est > best[0]:
            best = (est, u, v)
    return best


def induced_norm(b, q: float) -> float:
    """The induced q -> q operator norm of a nonnegative matrix.

    Exact closed forms are used for q = 1 (max column sum) and q = inf
    (max row sum). Otherwise it is the norm estimate of the generalized
    singular vectors: the largest value over the connected blocks.
    """
    mat = entrywise_abs(b)
    if math.isnan(q) or q < 1.0:
        raise InvalidParameter(f"q must be >= 1, got {q}")
    if mat.size == 0:
        return 0.0
    if q == 1:
        return float(np.max(mat.sum(axis=0)))
    if q == math.inf:
        return float(np.max(mat.sum(axis=1)))
    return generalized_singular_vectors(mat, NormPair(conjugate_exponent(q), q)).norm_estimate


def generalized_singular_vectors(b, pair: NormPair) -> PositiveVectorPair:
    """Strictly positive norming vectors for a nonnegative matrix.

    Solves the alternating fixed-point problem on every connected block
    (each block's pair is normalised within the block) and pads rows and
    columns without support with ones. ``norm_estimate`` is the induced
    q -> q norm, i.e. the largest block value. At an exponent so extreme
    that the vectors under- or overflow (a zero, an infinity or a NaN in
    ``u`` or ``v``, or an infinite norm), the result is refused with
    :class:`NonFiniteResult` rather than returned.
    """
    mat = entrywise_abs(b)
    if not (1.0 < pair.p < math.inf):
        raise InvalidParameter(f"p must lie in (1, inf), got {pair.p}")
    u = np.ones(mat.shape[0])
    v = np.ones(mat.shape[1])
    norm = 0.0
    for rows, cols in block_decompose(mat):
        if not rows or not cols:
            continue
        block = mat[np.ix_(rows, cols)]
        est, bu, bv = _block_norm(block, pair.p, pair.q)
        u[rows] = bu
        v[cols] = bv
        norm = max(norm, est)
    # NaN fails every comparison, so this also refuses NaN entries
    if not (norm < math.inf and ((u > 0.0) & (u < math.inf)).all()
            and ((v > 0.0) & (v < math.inf)).all()):
        raise NonFiniteResult(
            f"the norming vectors at p = {pair.p} are not finite and strictly positive")
    return PositiveVectorPair(u=u, v=v, norm_estimate=norm)


def require_dense(dim: int) -> None:
    """Refuse a dimension above the dense cap, before anything is densified."""
    if dim > ORACLE_CAP:
        raise OracleCapExceeded(f"dimension {dim} above the dense cap of {ORACLE_CAP}")


def exact_oracle(sigma, ops) -> complex:
    """Dense reference value of ``Tr{A1 A2 ... AS sigma}``.

    ``ops`` is the factor list in written order; ``sigma`` closes the chain,
    so its column index meets the first factor and its row index the last.
    The product is accumulated right to left. Any dimension above
    ``ORACLE_CAP`` raises :class:`OracleCapExceeded`.
    """
    sigma = as_complex_matrix(sigma)
    mats = [as_complex_matrix(a) for a in ops]
    dims = set(sigma.shape)
    for a in mats:
        dims |= set(a.shape)
    require_dense(max(dims))
    inner = sigma.shape[1]
    for s, a in enumerate(mats):
        if a.shape[1] != (mats[s + 1].shape[0] if s + 1 < len(mats) else sigma.shape[0]):
            raise DimensionMismatch(f"factor {s} does not chain: {a.shape}")
    if mats and mats[0].shape[0] != inner:
        raise DimensionMismatch(
            f"sigma columns ({inner}) never meet the first factor {mats[0].shape}"
        )
    if not mats and sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch("empty chain needs a square sigma")
    acc = sigma
    for a in reversed(mats):
        acc = a @ acc
    return complex(np.trace(acc))


def dense_exp(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated series.

    The scaled matrix has norm at most one half, where the Taylor series
    converges rapidly; the result is then squared back up. Accuracy is far
    inside 1e-10 relative error for desk-scale inputs.
    """
    mat = as_complex_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"matrix exponential needs a square input, got {mat.shape}")
    require_dense(mat.shape[0])
    norm = float(np.max(np.abs(mat).sum(axis=1))) if mat.size else 0.0
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    scaled = mat / (2.0 ** squarings)
    eye = np.eye(mat.shape[0], dtype=complex)
    term = eye.copy()
    out = eye.copy()
    for k in range(1, 64):
        term = term @ scaled / k
        out = out + term
        if float(np.max(np.abs(term))) <= 1e-18 * max(1.0, float(np.max(np.abs(out)))):
            break
    for _ in range(squarings):
        out = out @ out
    return out

"""Operators that can be sampled along transition paths.

A :class:`PathOperator` represents a matrix A together with a decomposition
``A[m, n] = sum_k alpha[m, n, k]`` and a pair of transition laws: a forward
law P(n, k | m) over (column, branch) given a row, and a backward law
Q(m, k | n) over (row, branch) given a column. Each sampled transition
reports the two importance ratios ``alpha / P`` and ``alpha / Q``; the
certified ``bound`` promises ``|alpha| <= bound * P**(1/p) * Q**(1/q)``
on the whole support, which is what the estimators' sample-count rule
relies on.

Every operator also supports full-support enumeration through
:meth:`PathOperator.entries`, which is how the test suite audits the
decomposition, the transition laws, and the bound at small dimensions.
"""

from __future__ import annotations

import cmath
import copy
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

import numpy as np

from .errors import (
    DeadColumn,
    DeadRow,
    InvalidParameter,
    InvalidWeights,
    NonUnitPhase,
    ShapeMismatch,
)
from .linalg import (
    NormPair,
    SparseEntries,
    as_complex_matrix,
    dense_exp,
    generalized_singular_vectors,
)
from .sampling import CumulativeTable, sample_poisson

_PHASE_TOL = 1e-12


class Transition(NamedTuple):
    """One sampled step. ``ratio_p`` is alpha/P, ``ratio_q`` is alpha/Q.

    Both ratios are finite, and they vanish together (exactly when the
    sampled branch carries no weight).
    """

    index: int
    tag: Any
    ratio_p: complex
    ratio_q: complex


class SupportEntry(NamedTuple):
    """One (row, col, branch) element of the support, with its weight and
    both transition probabilities."""

    row: int
    col: int
    tag: Any
    alpha: complex
    prob_p: float
    prob_q: float


class PathOperator:
    """Base class: a matrix with sampleable forward/backward transitions.

    Every subclass flips itself once, in ``_flipped(conjugate)``: it returns
    its transpose, or with ``conjugate`` its adjoint, sampling its own laws
    certified for the same exponent pair. ``adjoint()`` and ``transpose()``
    are that one method; no generic flip swaps another operator's laws.

    ``capacity`` is the operator's interference capacity, the induced
    q -> q norm of ``|A|``, when its builder knows a closed form for it, and
    None otherwise."""

    rows: int
    cols: int
    bound: float
    pair: NormPair
    capacity: float | None = None

    def sample_forward(self, m: int, rng) -> Transition:
        raise NotImplementedError

    def sample_backward(self, n: int, rng) -> Transition:
        raise NotImplementedError

    def entries(self) -> Iterator[SupportEntry]:
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """Assemble the represented matrix by summing the support."""
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for e in self.entries():
            out[e.row, e.col] += e.alpha
        return out

    def adjoint(self) -> "PathOperator":
        return self._flip(True)

    def transpose(self) -> "PathOperator":
        return self._flip(False)

    def _flip(self, conjugate: bool) -> "PathOperator":
        out = self._flipped(conjugate)
        # a combinator's flip is a fresh instance without the capacity its
        # builder set; every closed form (equal row and column sums of |A|,
        # or Haar's 2-norm at (2, 2)) is unchanged by transposing |A|
        out.capacity = self.capacity
        return out

    def _flipped(self, conjugate: bool) -> "PathOperator":
        raise NotImplementedError


def _require_same_pair(ops) -> NormPair:
    pairs = {op.pair for op in ops}
    if len(pairs) != 1:
        raise InvalidParameter(f"operands disagree on the exponent pair: {pairs}")
    return next(iter(pairs))


# ---------------------------------------------------------------------------
# dense constructions


class _Group(NamedTuple):
    """Nonzero entries grouped by line (row or column), CSR-style: line k
    holds entries ``ptr[k]:ptr[k + 1]``, each with the index on the other
    axis, its value and its magnitude, in input order within the line."""

    ptr: np.ndarray
    other: np.ndarray
    value: np.ndarray
    magnitude: np.ndarray


def _group(lines, others, values, magnitudes, count: int) -> _Group:
    order = np.argsort(lines, kind="stable")
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(lines, minlength=count), out=ptr[1:])
    return _Group(ptr, others[order], values[order], magnitudes[order])


class _TableOp(PathOperator):
    """Singleton-branch laws of an explicitly stored matrix, weighted by
    positive vectors u (rows) and v (columns).

    Forward probabilities are ``|A[m, n]| v[n] / w_row[m]`` and backward ones
    ``|A[m, n]| u[m] / w_col[n]`` with ``w_row = |A| v`` and
    ``w_col = |A|^T u``, so the ratios are ``phase * w_row[m] / v[n]`` and
    ``phase * w_col[n] / u[m]``. The nonzero entries are held grouped by row
    and by column, O(nnz); a row's or column's draw table is built the first
    time a path reaches it. Rows and columns without entries are dead.
    Subclasses choose the weights and certify the bound.
    """

    def _store(self, shape, ms, ns, values, magnitudes, pair: NormPair) -> None:
        self.rows, self.cols = shape
        self.pair = pair
        self._by_row = _group(ms, ns, values, magnitudes, self.rows)
        self._by_col = _group(ns, ms, values, magnitudes, self.cols)
        self._row_tables: dict = {}
        self._col_tables: dict = {}

    def _certify(self) -> float:
        raise NotImplementedError

    def _table(self, line: int, forward: bool):
        """Draw table, other-axis indices and ratio pairs of one row
        (``forward``) or column, or False for a dead one."""
        if forward:
            group, w_line, norm_other = self._by_row, self._w_row, self._v
            w_other, norm_line = self._w_col, self._u
        else:
            group, w_line, norm_other = self._by_col, self._w_col, self._u
            w_other, norm_line = self._w_row, self._v
        k0, k1 = group.ptr[line], group.ptr[line + 1]
        if k0 == k1:
            return False
        others = group.other[k0:k1]
        probs = group.magnitude[k0:k1] * norm_other[others] / w_line[line]
        own = (w_line[line] / norm_other[others]).tolist()
        cross = (w_other[others] / norm_line[line]).tolist()
        phases = [a / abs(a) for a in group.value[k0:k1].tolist()]
        pairs = zip(own, cross) if forward else zip(cross, own)
        ratios = [(ph * rp, ph * rq) for ph, (rp, rq) in zip(phases, pairs)]
        return CumulativeTable(probs.tolist()), others.tolist(), ratios

    def sample_forward(self, m: int, rng) -> Transition:
        if not 0 <= m < self.rows:
            raise InvalidParameter(f"row {m} outside 0..{self.rows - 1}")
        hit = self._row_tables.get(m)
        if hit is None:
            hit = self._row_tables[m] = self._table(m, True)
        if hit is False:
            raise DeadRow(f"row {m} carries no weight")
        table, cols, ratios = hit
        j = table.draw(rng)
        rp, rq = ratios[j]
        return Transition(cols[j], None, rp, rq)

    def sample_backward(self, n: int, rng) -> Transition:
        if not 0 <= n < self.cols:
            raise InvalidParameter(f"column {n} outside 0..{self.cols - 1}")
        hit = self._col_tables.get(n)
        if hit is None:
            hit = self._col_tables[n] = self._table(n, False)
        if hit is False:
            raise DeadColumn(f"column {n} carries no weight")
        table, rows, ratios = hit
        j = table.draw(rng)
        rp, rq = ratios[j]
        return Transition(rows[j], None, rp, rq)

    def _entry_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.rows), np.diff(self._by_row.ptr))

    def entries(self) -> Iterator[SupportEntry]:
        g = self._by_row
        ms = self._entry_rows()
        probs_p = g.magnitude * self._v[g.other] / self._w_row[ms]
        probs_q = g.magnitude * self._u[ms] / self._w_col[g.other]
        for m, n, a, pp, pq in zip(ms.tolist(), g.other.tolist(), g.value.tolist(),
                                   probs_p.tolist(), probs_q.tolist()):
            yield SupportEntry(m, n, None, a, pp, pq)

    def _flipped(self, conjugate: bool) -> "_TableOp":
        """The transpose, or with ``conjugate`` the adjoint: rows and columns
        trade their groups and their weights, and the bound is certified
        again for the exchanged weights."""
        out = object.__new__(type(self))
        out.rows, out.cols, out.pair = self.cols, self.rows, self.pair
        out._by_row, out._by_col = self._by_col, self._by_row
        if conjugate:
            out._by_row = out._by_row._replace(value=out._by_row.value.conj())
            out._by_col = out._by_col._replace(value=out._by_col.value.conj())
        out._u, out._v = self._v, self._u
        out._w_row, out._w_col = self._w_col, self._w_row
        out._row_tables, out._col_tables = {}, {}
        out.bound = out._certify()
        return out


class DenseOptimal(_TableOp):
    """Transition laws weighted by the generalized singular vectors of |A|.

    At the fixed point the certified bound equals the induced q -> q norm of
    |A|, which no decomposition with singleton branches can beat.
    """

    def __init__(self, matrix, pair: NormPair = NormPair()):
        if not (1.0 < pair.p < math.inf):
            raise InvalidParameter(
                f"optimal dense transitions need p in (1, inf), got {pair.p}"
            )
        a = as_complex_matrix(matrix)
        magnitudes = np.abs(a)
        ms, ns = np.nonzero(magnitudes)
        self._store(a.shape, ms, ns, a[ms, ns], magnitudes[ms, ns], pair)
        vectors = generalized_singular_vectors(magnitudes, pair)
        self._weigh(magnitudes, vectors.u, vectors.v)

    def _weigh(self, magnitudes, u, v) -> None:
        self._u, self._v = u, v
        self._w_row = magnitudes @ v
        self._w_col = magnitudes.T @ u
        self.bound = self._certify()

    def _certify(self) -> float:
        # The exact supremum of the per-entry cost ratio, which any valid
        # decomposition dominates the induced norm with; at the fixed point
        # it collapses to the norm estimate, so taking the supremum only
        # absorbs the iteration residual.
        ms, ns = self._entry_rows(), self._by_row.other
        if not ns.size:
            return 0.0
        ratios = (self._w_row[ms] / self._v[ns]) ** self.pair.inv_p * (
            self._w_col[ns] / self._u[ms]) ** self.pair.inv_q
        return float(ratios.max())

    def _flipped(self, conjugate: bool) -> "DenseOptimal":
        """The flipped magnitudes are |A|^T: at p = q this operator's own
        weights, exchanged, stay optimal; elsewhere the power iteration runs
        on |A| at the pair (q, p)."""
        out = super()._flipped(conjugate)
        if self.pair.p != self.pair.q:
            magnitudes = np.zeros((self.rows, self.cols))
            magnitudes[self._entry_rows(), self._by_row.other] = self._by_row.magnitude
            vectors = generalized_singular_vectors(
                magnitudes, NormPair(self.pair.q, self.pair.p))
            out._weigh(magnitudes.T, vectors.v, vectors.u)
        return out


class RowCol(_TableOp):
    """Transition laws proportional to |A| row- and column-wise: unit
    weights, so ``w_row`` and ``w_col`` are the absolute row and column sums.

    The certified bound is ``r**(1/p) * c**(1/q)`` where r and c are the
    largest absolute row and column sums. Rows or columns with no weight are
    dead: a path that reaches one carries no weight. A matrix with no weight
    at all is rejected at construction.
    """

    def __init__(self, matrix, pair: NormPair = NormPair()):
        if isinstance(matrix, SparseEntries):
            shape = (matrix.rows, matrix.cols)
            items = [(m, n, v) for (m, n, v) in matrix.triplets if v != 0]
            ms = np.array([m for m, _, _ in items], dtype=np.int64)
            ns = np.array([n for _, n, _ in items], dtype=np.int64)
            values = np.array([v for _, _, v in items], dtype=complex)
        else:
            a = as_complex_matrix(matrix)
            shape = a.shape
            ms, ns = np.nonzero(a)
            values = a[ms, ns]
        if not values.size:
            raise InvalidParameter("the matrix carries no weight anywhere")
        # Python's abs, not numpy's, which differs in the last bit on about a
        # third of complex entries; bincount sums in input order
        magnitudes = np.array([abs(v) for v in values.tolist()])
        self._store(shape, ms, ns, values, magnitudes, pair)
        self._u, self._v = np.ones(self.rows), np.ones(self.cols)
        self._w_row = np.bincount(ms, magnitudes, minlength=self.rows)
        self._w_col = np.bincount(ns, magnitudes, minlength=self.cols)
        self.bound = self._certify()

    def _certify(self) -> float:
        return (float(self._w_row.max()) ** self.pair.inv_p
                * float(self._w_col.max()) ** self.pair.inv_q)


def from_dense_optimal(matrix, pair: NormPair = NormPair()) -> DenseOptimal:
    """Optimal singleton-branch transitions for a dense matrix."""
    return DenseOptimal(matrix, pair)


def from_rowcol(matrix, pair: NormPair = NormPair()) -> RowCol:
    """Row/column-sum transitions for a dense matrix or sparse triplets."""
    return RowCol(matrix, pair)


def from_sparse(entries: SparseEntries, pair: NormPair = NormPair()) -> RowCol:
    """Row/column-sum transitions taken directly from sparse triplets."""
    if not isinstance(entries, SparseEntries):
        raise InvalidParameter("from_sparse expects SparseEntries")
    return RowCol(entries, pair)


# ---------------------------------------------------------------------------
# structured unitaries


class PhasedPermutation(PathOperator):
    """One unit-modulus entry in every row and every column, given by two
    closed-form maps: ``forward(m)`` is the column and phase of row m's
    entry, ``backward(n)`` the row and phase of column n's.

    Both laws are deterministic, so both ratios are the phase and the bound
    is 1 at every exponent pair, as is the capacity. The maps are all the
    operator holds: lists for a general permutation or diagonal, a bit mask
    for a Pauli string, the shift function for an oracle, nothing for the
    identity. The transpose swaps the maps; the adjoint also conjugates the
    phase.
    """

    capacity = 1.0

    def __init__(self, dim: int, forward, backward, pair: NormPair):
        self.rows = self.cols = dim
        self._forward = forward
        self._backward = backward
        self._conjugate = False
        self.pair = pair
        self.bound = 1.0

    def sample_forward(self, m, rng):
        n, ph = self._forward(m)
        if self._conjugate:
            ph = ph.conjugate()
        return Transition(n, None, ph, ph)

    def sample_backward(self, n, rng):
        m, ph = self._backward(n)
        if self._conjugate:
            ph = ph.conjugate()
        return Transition(m, None, ph, ph)

    def entries(self):
        for m in range(self.rows):
            n, ph = self._forward(m)
            yield SupportEntry(m, n, None, ph.conjugate() if self._conjugate else ph,
                               1.0, 1.0)

    def _flipped(self, conjugate):
        out = copy.copy(self)
        out._forward, out._backward = self._backward, self._forward
        out._conjugate = self._conjugate != conjugate
        return out


_ONE = 1.0 + 0.0j


def _listed(perm, phases, pair: NormPair) -> PhasedPermutation:
    """A permutation with phases, held as one (index, phase) list per axis."""
    perm = [int(x) for x in perm]
    dim = len(perm)
    if dim == 0:
        raise InvalidParameter("empty permutation")
    if sorted(perm) != list(range(dim)):
        raise InvalidParameter("perm is not a bijection on 0..dim-1")
    phases = [_ONE] * dim if phases is None else [complex(x) for x in phases]
    if len(phases) != dim:
        raise InvalidParameter("need one phase per index")
    for ph in phases:
        # written so that a NaN phase fails it
        if not abs(abs(ph) - 1.0) <= _PHASE_TOL:
            raise NonUnitPhase(f"phase {ph} is off the unit circle")
    by_row = list(zip(perm, phases))
    by_col = [None] * dim
    for m, (n, ph) in enumerate(by_row):
        by_col[n] = (m, ph)
    return PhasedPermutation(dim, by_row.__getitem__, by_col.__getitem__, pair)


def _unit_phase(m: int):
    return m, _ONE


def identity_op(dim: int, pair: NormPair = NormPair()) -> PhasedPermutation:
    if dim <= 0:
        raise InvalidParameter("empty permutation")
    return PhasedPermutation(dim, _unit_phase, _unit_phase, pair)


def permutation(perm, phases=None, pair: NormPair = NormPair()) -> PhasedPermutation:
    return _listed(perm, phases, pair)


def diagonal_unitary(values, pair: NormPair = NormPair()) -> PhasedPermutation:
    """Diagonal matrix of a sequence of unit-modulus values."""
    values = list(values)
    return _listed(range(len(values)), values, pair)


_PAULI_LETTERS = frozenset("IXYZ")
_I_POWERS = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)


def _xor_map(flip: int, signs: int, phases: tuple):
    """m -> (m ^ flip, the phase indexed by the parity of m on ``signs``)."""
    return lambda m: (m ^ flip, phases[(m & signs).bit_count() & 1])


def pauli_string(letters: str, pair: NormPair = NormPair()) -> PhasedPermutation:
    """Tensor product of single-qubit Pauli matrices, e.g. "XIZ". Row m has
    its entry at column ``m ^ flip``, X and Y flipping their bits, with
    phase ``(-i)**#Y`` times -1 per set Y or Z bit of m."""
    if not letters or set(letters) - _PAULI_LETTERS:
        raise InvalidParameter(f"Pauli string must be nonempty over IXYZ, got {letters!r}")
    flip = signs = 0
    for c in letters:
        flip = flip << 1 | (c in "XY")
        signs = signs << 1 | (c in "YZ")
    ys = letters.count("Y")
    even, odd = _I_POWERS[-ys % 4], _I_POWERS[(2 - ys) % 4]
    forward = _xor_map(flip, signs, (even, odd))
    # column n's entry sits in row n ^ flip, whose sign parity differs by #Y
    backward = forward if ys % 2 == 0 else _xor_map(flip, signs, (odd, even))
    return PhasedPermutation(1 << len(letters), forward, backward, pair)


class FlatOperator(PathOperator):
    """A square matrix whose entries share one magnitude ``s`` and carry a
    symmetric unit-modulus phase: ``A[m, n] = s * phases[key(m, n)]``.

    Both transition laws are uniform, so every ratio is ``N * s`` times the
    phase and the certified bound is ``N * s`` for every exponent pair. The
    operator holds its phase table, never the N x N matrix. Symmetry makes
    the transpose the operator itself; the adjoint conjugates the table.
    Every row and column sum of ``|A|`` is ``N * s``, which the builder
    passes as the ``capacity`` in its own closed form.
    """

    def __init__(self, dim: int, magnitude: float, phases, key, capacity: float,
                 pair: NormPair = NormPair()):
        self.rows = self.cols = dim
        self.pair = pair
        self.bound = dim * magnitude
        self.capacity = capacity
        self._magnitude = magnitude
        self._phases = [complex(ph) for ph in phases]
        self._key = key
        self._ratios = [self.bound * ph for ph in self._phases]

    def sample_forward(self, m, rng):
        n = int(rng.random() * self.rows)
        r = self._ratios[self._key(m, n)]
        return Transition(n, None, r, r)

    def sample_backward(self, n, rng):
        m = int(rng.random() * self.rows)
        r = self._ratios[self._key(m, n)]
        return Transition(m, None, r, r)

    def entries(self):
        inv = 1.0 / self.rows
        s, phases, key = self._magnitude, self._phases, self._key
        for m in range(self.rows):
            for n in range(self.cols):
                yield SupportEntry(m, n, None, s * phases[key(m, n)], inv, inv)

    def _flipped(self, conjugate):
        if not conjugate or all(ph.imag == 0.0 for ph in self._phases):
            return self
        return FlatOperator(self.rows, self._magnitude,
                            [ph.conjugate() for ph in self._phases], self._key,
                            self.capacity, self.pair)


def grover_reflection(n_qubits: int, pair: NormPair = NormPair()) -> PathOperator:
    """The reflection 1 - 2|u><u| about the uniform state on n qubits,
    expressed as a two-term mixture with certified bound 3."""
    dim = 1 << n_qubits
    uniform = FlatOperator(dim, 1.0 / dim, [1.0], lambda m, n: 0, 1.0, pair)
    op = sum_ops([(1.0, identity_op(dim, pair)), (-2.0, uniform)])
    # |A| has every row and column sum 1 - 2/N + (N - 1) * 2/N
    op.capacity = 3.0 - 4.0 / dim
    return op


class HaarWavelet(PathOperator):
    """The discrete Haar wavelet transform on n bits, or its transpose.

    One scale rule gives every row. Row x keeps its ``low`` trailing bits,
    where ``low`` is one less than the bit length of x, and frees the other
    ``free = n - low``: it carries ``+-2**(-free/2)`` on the 2**free columns
    whose trailing bits agree with x, with the sign of column bit ``low``.
    Row 0, the uniform average, is the coarsest scale (``low = 0``,
    ``free = n``) with sign +1. Every column has exactly n+1 nonzero
    entries, so backward transitions are uniform over n+1 candidates and
    the certified bound is sqrt(n+1). The adjoint is the transpose, a flag:
    each step takes the other direction's law and exchanges the two ratios,
    which keeps the bound at the pair (2, 2).
    """

    def __init__(self, n_bits: int, pair: NormPair = NormPair()):
        if n_bits <= 0:
            raise InvalidParameter("need at least one bit")
        if pair.p != 2.0:
            raise InvalidParameter("wavelet transitions are certified for the balanced pair only")
        self._n = n_bits
        self._transposed = False
        self.rows = self.cols = 1 << n_bits
        self.pair = pair
        self.bound = self.capacity = math.sqrt(n_bits + 1)

    def _scale(self, x: int):
        """Row x's (low, free): its fixed trailing bits and its free ones."""
        low = max(x.bit_length() - 1, 0)
        return low, self._n - low

    def entry(self, x: int, y: int) -> float:
        if self._transposed:
            x, y = y, x
        low, free = self._scale(x)
        if (y ^ x) & ((1 << low) - 1):
            return 0.0
        sign = -1.0 if x and (y >> low) & 1 else 1.0
        return sign * 2.0 ** (-free / 2.0)

    def _step(self, i: int, rng, along_row: bool) -> Transition:
        """A step of the transform's law along row i to a column, or along
        column i to a row; the transpose exchanges the two ratios."""
        n = self._n
        if along_row:
            low, free = self._scale(i)
            r = int(rng.random() * (1 << free))
            j = (r << low) | (i & ((1 << low) - 1))
            sign = -1.0 if i and (j >> low) & 1 else 1.0
            rp = sign * 2.0 ** (free / 2.0)
            rq = sign * (n + 1) * 2.0 ** (-free / 2.0)
        else:
            # candidate c = n frees n bits too, so the column law keeps
            # row 0 as its own case
            c = int(rng.random() * (n + 1))
            if c == 0:
                j = 0
                a = 2.0 ** (-n / 2.0)
                rp, rq = a * self.rows, (n + 1) * a
            else:
                s = c - 1
                low = n - 1 - s
                j = (1 << low) | (i & ((1 << low) - 1))
                sign = -1.0 if (i >> low) & 1 else 1.0
                a = sign * 2.0 ** (-(s + 1) / 2.0)
                rp, rq = a * (1 << (s + 1)), (n + 1) * a
        if self._transposed:
            rp, rq = rq, rp
        return Transition(j, None, rp, rq)

    def sample_forward(self, x, rng):
        return self._step(x, rng, not self._transposed)

    def sample_backward(self, y, rng):
        return self._step(y, rng, self._transposed)

    def entries(self):
        if self._transposed:
            for e in self._flipped(False).entries():
                yield SupportEntry(e.col, e.row, None, e.alpha, e.prob_q, e.prob_p)
            return
        inv_q = 1.0 / (self._n + 1)
        for x in range(self.rows):
            low, free = self._scale(x)
            prob_p = 2.0 ** (-free)
            tail = x & ((1 << low) - 1)
            for r in range(1 << free):
                y = (r << low) | tail
                yield SupportEntry(x, y, None, complex(self.entry(x, y)), prob_p, inv_q)

    def _flipped(self, conjugate):
        out = copy.copy(self)
        out._transposed = not self._transposed
        return out


def haar_wavelet(n_bits: int, pair: NormPair = NormPair()) -> HaarWavelet:
    return HaarWavelet(n_bits, pair)


@dataclass
class QueryCounter:
    """Mutable counter threaded through oracle operators."""

    count: int = 0


def shift_oracle(g, x_size: int, y_size: int,
                 pair: NormPair = NormPair()) -> PhasedPermutation:
    """The permutation (x, y) -> (x, y + g(x) mod y_size) on a split index.

    The global index is ``x * y_size + y``. Every transition evaluates g
    exactly once and increments the operator's ``query_counter``, which
    both flips share: the count lives in the maps.
    """
    if x_size <= 0 or y_size <= 0:
        raise InvalidParameter("oracle needs positive register sizes")
    if not callable(g):
        table = [int(v) for v in g]
        if len(table) != x_size:
            raise InvalidParameter(
                f"oracle table has {len(table)} entries for x_size={x_size}"
            )
        g = table.__getitem__
    counter = QueryCounter()

    def shift(sign: int):
        def step(m: int):
            counter.count += 1
            x, y = divmod(m, y_size)
            return x * y_size + (y + sign * int(g(x))) % y_size, _ONE
        return step

    op = PhasedPermutation(x_size * y_size, shift(1), shift(-1), pair)
    op.query_counter = counter
    return op


def fourier_transform(n_qubits: int, pair: NormPair = NormPair()) -> FlatOperator:
    """The discrete Fourier matrix F[j, k] = exp(2 pi i j k / N) / sqrt(N),
    held as its N roots of unity, indexed by ``j * k mod N``."""
    dim = 1 << n_qubits
    roots = [cmath.exp(2j * math.pi * k / dim) for k in range(dim)]
    return FlatOperator(dim, 1.0 / math.sqrt(dim), roots, lambda j, k: j * k % dim,
                        2.0 ** (n_qubits / 2.0), pair)


def walsh_hadamard(n_qubits: int, pair: NormPair = NormPair()) -> FlatOperator:
    """The n-qubit Hadamard transform: the sign of entry (j, k) is the
    parity of ``j & k``."""
    dim = 1 << n_qubits
    return FlatOperator(dim, 1.0 / math.sqrt(dim), [1.0, -1.0],
                        lambda j, k: (j & k).bit_count() & 1,
                        2.0 ** (n_qubits / 2.0), pair)


# ---------------------------------------------------------------------------
# combinators


class ScaledOp(PathOperator):
    """s * A: ratios and weights scale by s, the bound by |s|."""

    def __init__(self, s, inner: PathOperator):
        self._s = complex(s)
        self._inner = inner
        self.rows, self.cols = inner.rows, inner.cols
        self.pair = inner.pair
        self.bound = abs(self._s) * inner.bound

    def sample_forward(self, m, rng):
        t = self._inner.sample_forward(m, rng)
        return Transition(t.index, t.tag, self._s * t.ratio_p, self._s * t.ratio_q)

    def sample_backward(self, n, rng):
        t = self._inner.sample_backward(n, rng)
        return Transition(t.index, t.tag, self._s * t.ratio_p, self._s * t.ratio_q)

    def entries(self):
        for e in self._inner.entries():
            yield SupportEntry(e.row, e.col, e.tag, self._s * e.alpha, e.prob_p, e.prob_q)

    def _flipped(self, conjugate):
        s = self._s.conjugate() if conjugate else self._s
        return ScaledOp(s, self._inner._flipped(conjugate))


def scale(s, op: PathOperator) -> ScaledOp:
    return ScaledOp(s, op)


def adjoint(op: PathOperator) -> PathOperator:
    return op.adjoint()


def transpose(op: PathOperator) -> PathOperator:
    return op.transpose()


class SumOp(PathOperator):
    """A weighted mixture ``sum_l s_l A_l`` over same-shape operators.

    The branch tag is extended with the term index. Default mixture weights
    are proportional to ``|s_l| * b_l``, which makes the certified bound the
    plain sum of those loads; explicit weights must cover every term that
    carries weight.
    """

    def __init__(self, terms, weights=None):
        if not terms:
            raise InvalidParameter("sum of zero terms")
        self._terms = [(complex(s), op) for s, op in terms]
        ops = [op for _, op in self._terms]
        self.pair = _require_same_pair(ops)
        shapes = {(op.rows, op.cols) for op in ops}
        if len(shapes) != 1:
            raise ShapeMismatch(f"sum terms disagree on shape: {shapes}")
        self.rows, self.cols = shapes.pop()
        loads = [abs(s) * op.bound for s, op in self._terms]
        self._explicit_weights = None if weights is None else [float(w) for w in weights]
        if weights is None:
            total = sum(loads)
            if total == 0.0:
                self._weights = [0.0] * len(loads)
                self.bound = 0.0
            else:
                self._weights = [load / total for load in loads]
                self.bound = total
        else:
            w = self._explicit_weights
            if len(w) != len(loads):
                raise InvalidWeights("need one weight per term")
            for x in w:
                if not (x >= 0.0) or math.isinf(x):
                    raise InvalidWeights(f"weights must be finite and nonnegative, got {x}")
            if abs(sum(w) - 1.0) > 1e-9:
                raise InvalidWeights(f"weights sum to {sum(w)}, not 1")
            for x, load in zip(w, loads):
                if x == 0.0 and load > 0.0:
                    raise InvalidWeights("a term with weight cannot get zero mixture mass")
            self._weights = w
            self.bound = max(
                (load / x for x, load in zip(w, loads) if x > 0.0), default=0.0
            )
        kept = [l for l, x in enumerate(self._weights) if x > 0.0]
        if kept:
            self._table = CumulativeTable([self._weights[l] for l in kept])
            self._kept = [
                (l, self._terms[l][0] / self._weights[l], self._terms[l][1]) for l in kept
            ]
        else:
            self._table = None
            self._kept = []

    def _draw_term(self, rng):
        if self._table is None:
            raise DeadRow("mixture with no weight anywhere")
        return self._kept[self._table.draw(rng)]

    def sample_forward(self, m, rng):
        l, fac, op = self._draw_term(rng)
        t = op.sample_forward(m, rng)
        return Transition(t.index, (l, t.tag), fac * t.ratio_p, fac * t.ratio_q)

    def sample_backward(self, n, rng):
        l, fac, op = self._draw_term(rng)
        t = op.sample_backward(n, rng)
        return Transition(t.index, (l, t.tag), fac * t.ratio_p, fac * t.ratio_q)

    def entries(self):
        for l, (s, op) in enumerate(self._terms):
            w = self._weights[l]
            if w == 0.0 or s == 0:
                continue
            for e in op.entries():
                yield SupportEntry(e.row, e.col, (l, e.tag), s * e.alpha,
                                   w * e.prob_p, w * e.prob_q)

    def _flipped(self, conjugate):
        return SumOp([(s.conjugate() if conjugate else s, op._flipped(conjugate))
                      for s, op in self._terms], self._explicit_weights)


def sum_ops(terms, weights=None) -> SumOp:
    return SumOp(terms, weights)


def _group_by_row(op: PathOperator) -> dict:
    grouped: dict = {}
    for e in op.entries():
        grouped.setdefault(e.row, []).append(e)
    return grouped


def _chain_entries(row_maps):
    """Enumerate full chains through a list of row-grouped supports.

    Yields (start_row, end_col, tag_pairs, alpha, prob_p, prob_q) where
    alpha and the probabilities are products along the chain and tag_pairs
    mirrors the tags produced by chained sampling.
    """

    def walk(j, row):
        if j == len(row_maps):
            yield row, (), 1.0 + 0j, 1.0, 1.0
            return
        for e in row_maps[j].get(row, ()):
            for col, tags, a, pp, qq in walk(j + 1, e.col):
                yield (col, ((e.col, e.tag),) + tags,
                       e.alpha * a, e.prob_p * pp, e.prob_q * qq)

    starts = sorted(row_maps[0]) if row_maps else []
    for row in starts:
        for col, tags, a, pp, qq in walk(0, row):
            yield row, col, tags, a, pp, qq


def _walk_forward(factors, m: int, rng, start: complex) -> Transition:
    """Walk a chain of factors forward from row m, both ratios starting at
    ``start``; the tag records each reached index with the factor's tag."""
    cur = m
    rp = rq = start
    pairs = []
    for f in factors:
        t = f.sample_forward(cur, rng)
        rp *= t.ratio_p
        rq *= t.ratio_q
        cur = t.index
        pairs.append((cur, t.tag))
    return Transition(cur, tuple(pairs), rp, rq)


def _walk_backward(factors, n: int, rng, start: complex) -> Transition:
    """Walk a chain of factors backward from column n; the tag matches the
    forward walk's."""
    cur = n
    rp = rq = start
    pairs = []
    for f in reversed(factors):
        t = f.sample_backward(cur, rng)
        rp *= t.ratio_p
        rq *= t.ratio_q
        pairs.append((cur, t.tag))
        cur = t.index
    pairs.reverse()
    return Transition(cur, tuple(pairs), rp, rq)


class ProductOp(PathOperator):
    """The matrix product of a chain of factors, left to right.

    Forward sampling walks the factors in order, backward sampling in
    reverse; ratios multiply and the branch tag records each intermediate
    index alongside the factor's own tag. The certified bound is the product
    of the factor bounds.
    """

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise InvalidParameter("product of zero factors")
        self.pair = _require_same_pair(factors)
        for left, right in zip(factors, factors[1:]):
            if left.cols != right.rows:
                raise ShapeMismatch(
                    f"factors do not chain: {left.rows}x{left.cols} then "
                    f"{right.rows}x{right.cols}"
                )
        self.factors = factors
        self.rows = factors[0].rows
        self.cols = factors[-1].cols
        self.bound = math.prod(f.bound for f in factors)

    def sample_forward(self, m, rng):
        return _walk_forward(self.factors, m, rng, 1.0 + 0j)

    def sample_backward(self, n, rng):
        return _walk_backward(self.factors, n, rng, 1.0 + 0j)

    def entries(self):
        row_maps = [_group_by_row(f) for f in self.factors]
        for row, col, tags, a, pp, qq in _chain_entries(row_maps):
            yield SupportEntry(row, col, tags, a, pp, qq)

    def dense(self):
        out = self.factors[0].dense()
        for f in self.factors[1:]:
            out = out @ f.dense()
        return out

    def _flipped(self, conjugate):
        return ProductOp([f._flipped(conjugate) for f in reversed(self.factors)])


def product_ops(factors) -> ProductOp:
    return ProductOp(factors)


class ExpOp(PathOperator):
    """The matrix exponential of a square operator.

    The series length is drawn from a Poisson distribution with mean equal
    to the inner bound (by sequential conditional coins, so no truncation is
    applied anywhere in sampling); a draw of l chains l inner transitions,
    walked as a product of l factors. The certified bound is exp(inner
    bound). Support enumeration, used only by small-dimension audits, cuts
    the series where the remaining weight drops below 1e-18; the dense
    matrix is the exponential of the inner dense matrix.
    """

    def __init__(self, inner: PathOperator):
        if inner.rows != inner.cols:
            raise ShapeMismatch(f"exponential needs a square operator, got {inner.rows}x{inner.cols}")
        try:
            self.bound = math.exp(inner.bound)
        except OverflowError:
            raise InvalidParameter(f"exp of an operator with bound {inner.bound} overflows") from None
        self._inner = inner
        self._rate = inner.bound
        # A walk of l steps starts at exp(rate) and divides each step's
        # ratios by the rate, so no rate**l is ever formed. A zero rate
        # draws l = 0 only: the exponential is the identity.
        self._start = complex(self.bound)
        self._step = ScaledOp(1.0 / self._rate, inner) if self._rate > 0.0 else inner
        self.rows = self.cols = inner.rows
        self.pair = inner.pair

    def sample_forward(self, m, rng):
        length = sample_poisson(self._rate, rng)
        t = _walk_forward([self._step] * length, m, rng, self._start)
        return Transition(t.index, (length, t.tag), t.ratio_p, t.ratio_q)

    def sample_backward(self, n, rng):
        length = sample_poisson(self._rate, rng)
        t = _walk_backward([self._step] * length, n, rng, self._start)
        return Transition(t.index, (length, t.tag), t.ratio_p, t.ratio_q)

    def dense(self):
        return dense_exp(self._inner.dense())

    def entries(self):
        rate = self._rate
        level_weight = math.exp(-rate)          # Poisson mass at l = 0
        for m in range(self.rows):
            yield SupportEntry(m, m, (0, ()), 1.0 + 0j, level_weight, level_weight)
        row_map = _group_by_row(self._inner)
        length = 0
        series = 1.0                            # rate**l / l!
        while True:
            length += 1
            series *= rate / length
            if series == 0.0 or (length > rate and series < 1e-18):
                break
            level_weight = series * math.exp(-rate)
            inv_factorial = 1.0 / math.factorial(length)
            for row, col, tags, a, pp, qq in _chain_entries([row_map] * length):
                yield SupportEntry(row, col, (length, tags), a * inv_factorial,
                                   level_weight * pp, level_weight * qq)

    def _flipped(self, conjugate):
        return ExpOp(self._inner._flipped(conjugate))


def exp_op(inner: PathOperator) -> ExpOp:
    return ExpOp(inner)


class BlockDiagonal(PathOperator):
    """A direct sum of blocks laid out contiguously: block r holds the
    global rows (columns) that follow those of blocks 0..r-1, and an index
    finds its block by bisection on the block offsets. Transitions never
    leave the block of the incoming index, so the certified bound is the
    largest block bound.
    """

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise InvalidParameter("need at least one block")
        self.pair = _require_same_pair(blocks)
        self.blocks = blocks
        # the first global index of every block, then the total
        self._row_start = list(itertools.accumulate((b.rows for b in blocks), initial=0))
        self._col_start = list(itertools.accumulate((b.cols for b in blocks), initial=0))
        self.rows = self._row_start[-1]
        self.cols = self._col_start[-1]
        self.bound = max(b.bound for b in blocks)

    def sample_forward(self, m, rng):
        r = bisect_right(self._row_start, m) - 1
        t = self.blocks[r].sample_forward(m - self._row_start[r], rng)
        return Transition(self._col_start[r] + t.index, t.tag, t.ratio_p, t.ratio_q)

    def sample_backward(self, n, rng):
        r = bisect_right(self._col_start, n) - 1
        t = self.blocks[r].sample_backward(n - self._col_start[r], rng)
        return Transition(self._row_start[r] + t.index, t.tag, t.ratio_p, t.ratio_q)

    def entries(self):
        for block, row0, col0 in zip(self.blocks, self._row_start, self._col_start):
            for e in block.entries():
                yield SupportEntry(row0 + e.row, col0 + e.col, e.tag,
                                   e.alpha, e.prob_p, e.prob_q)

    def _flipped(self, conjugate):
        return BlockDiagonal([b._flipped(conjugate) for b in self.blocks])


def block_diagonal(blocks) -> BlockDiagonal:
    return BlockDiagonal(blocks)


def controlled(blocks) -> BlockDiagonal:
    """``sum_r |r><r| (x) A_r`` for a list of same-size square blocks. The
    global index is r * N + i."""
    blocks = list(blocks)
    if not blocks:
        raise InvalidParameter("empty control family")
    dims = {(b.rows, b.cols) for b in blocks}
    if len(dims) != 1 or blocks[0].rows != blocks[0].cols:
        raise ShapeMismatch(f"control family must share one square shape, got {dims}")
    return BlockDiagonal(blocks)


class TensorEmbed(PathOperator):
    """``I(dim_left) (x) A (x) I(dim_right)``: the operator acts on the
    middle slot of a split index and spectates on the outer ones."""

    def __init__(self, inner: PathOperator, dim_left: int, dim_right: int):
        if dim_left <= 0 or dim_right <= 0:
            raise InvalidParameter("embedding dimensions must be positive")
        self._inner = inner
        self._left = dim_left
        self._right = dim_right
        self.rows = dim_left * inner.rows * dim_right
        self.cols = dim_left * inner.cols * dim_right
        self.pair = inner.pair
        self.bound = inner.bound

    def sample_forward(self, m, rng):
        rest, i2 = divmod(m, self._right)
        i1, a = divmod(rest, self._inner.rows)
        t = self._inner.sample_forward(a, rng)
        n = (i1 * self._inner.cols + t.index) * self._right + i2
        return Transition(n, t.tag, t.ratio_p, t.ratio_q)

    def sample_backward(self, n, rng):
        rest, i2 = divmod(n, self._right)
        i1, a = divmod(rest, self._inner.cols)
        t = self._inner.sample_backward(a, rng)
        m = (i1 * self._inner.rows + t.index) * self._right + i2
        return Transition(m, t.tag, t.ratio_p, t.ratio_q)

    def entries(self):
        for i1 in range(self._left):
            for e in self._inner.entries():
                for i2 in range(self._right):
                    yield SupportEntry(
                        (i1 * self._inner.rows + e.row) * self._right + i2,
                        (i1 * self._inner.cols + e.col) * self._right + i2,
                        e.tag, e.alpha, e.prob_p, e.prob_q,
                    )

    def _flipped(self, conjugate):
        return TensorEmbed(self._inner._flipped(conjugate), self._left, self._right)


def tensor_embed(inner: PathOperator, dim_left: int, dim_right: int) -> TensorEmbed:
    return TensorEmbed(inner, dim_left, dim_right)

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
import itertools
import math
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
    are that one method; no generic flip swaps another operator's laws."""

    rows: int
    cols: int
    bound: float
    pair: NormPair
    #: Optional declaration of special structure, used for closed-form
    #: interference capacities (e.g. ("haar", n)).
    structure: tuple | None = None

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
        return self._flipped(True)

    def transpose(self) -> "PathOperator":
        return self._flipped(False)

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
    """A permutation matrix with unit-modulus phases: row m carries its
    whole weight at column perm[m]."""

    def __init__(self, perm, phases=None, pair: NormPair = NormPair(),
                 structure: tuple = ("permutation",)):
        perm = [int(x) for x in perm]
        dim = len(perm)
        if dim == 0:
            raise InvalidParameter("empty permutation")
        if sorted(perm) != list(range(dim)):
            raise InvalidParameter("perm is not a bijection on 0..dim-1")
        if phases is None:
            phases = [1.0 + 0.0j] * dim
        phases = [complex(x) for x in phases]
        if len(phases) != dim:
            raise InvalidParameter("need one phase per index")
        for ph in phases:
            # written so that a NaN phase fails it
            if not abs(abs(ph) - 1.0) <= _PHASE_TOL:
                raise NonUnitPhase(f"phase {ph} is off the unit circle")
        inv = [0] * dim
        for m, n in enumerate(perm):
            inv[n] = m
        self._perm = perm
        self._inv = inv
        self._phases = phases
        self.rows = self.cols = dim
        self.pair = pair
        self.bound = 1.0
        self.structure = structure

    def sample_forward(self, m, rng):
        ph = self._phases[m]
        return Transition(self._perm[m], None, ph, ph)

    def sample_backward(self, n, rng):
        m = self._inv[n]
        ph = self._phases[m]
        return Transition(m, None, ph, ph)

    def entries(self):
        for m in range(self.rows):
            yield SupportEntry(m, self._perm[m], None, self._phases[m], 1.0, 1.0)

    def _flipped(self, conjugate):
        phases = [self._phases[m] for m in self._inv]
        if conjugate:
            phases = [ph.conjugate() for ph in phases]
        return PhasedPermutation(self._inv, phases, self.pair, self.structure)


def identity_op(dim: int, pair: NormPair = NormPair()) -> PhasedPermutation:
    return PhasedPermutation(range(dim), pair=pair)


def permutation(perm, phases=None, pair: NormPair = NormPair()) -> PhasedPermutation:
    return PhasedPermutation(perm, phases, pair)


def diagonal_unitary(values, pair: NormPair = NormPair()) -> PhasedPermutation:
    """Diagonal matrix of a sequence of unit-modulus values."""
    values = list(values)
    return PhasedPermutation(range(len(values)), values, pair, structure=("diagonal",))


_PAULI_LETTERS = frozenset("IXYZ")


class PauliString(PathOperator):
    """Tensor product of single-qubit Pauli matrices, e.g. "XIZ"."""

    def __init__(self, letters: str, pair: NormPair = NormPair()):
        if not letters or set(letters) - _PAULI_LETTERS:
            raise InvalidParameter(f"Pauli string must be nonempty over IXYZ, got {letters!r}")
        self._letters = letters
        n = len(letters)
        self._n = n
        mask = 0
        for j, c in enumerate(letters):
            if c in "XY":
                mask |= 1 << (n - 1 - j)
        self._mask = mask
        self.rows = self.cols = 1 << n
        self.pair = pair
        self.bound = 1.0
        self.structure = ("pauli",)

    def _value(self, m: int) -> complex:
        """The single nonzero entry of row m, at column m ^ mask."""
        val = 1.0 + 0.0j
        n = self._n
        for j, c in enumerate(self._letters):
            bit = (m >> (n - 1 - j)) & 1
            if c == "Z":
                if bit:
                    val = -val
            elif c == "Y":
                val *= 1j if bit else -1j
        return val

    def sample_forward(self, m, rng):
        v = self._value(m)
        return Transition(m ^ self._mask, None, v, v)

    def sample_backward(self, n, rng):
        m = n ^ self._mask
        v = self._value(m)
        return Transition(m, None, v, v)

    def entries(self):
        for m in range(self.rows):
            yield SupportEntry(m, m ^ self._mask, None, self._value(m), 1.0, 1.0)

    def _flipped(self, conjugate):
        # Hermitian; the transpose negates every Y
        if conjugate or self._letters.count("Y") % 2 == 0:
            return self
        return ScaledOp(-1.0, self)


def pauli_string(letters: str, pair: NormPair = NormPair()) -> PauliString:
    return PauliString(letters, pair)


class FlatOperator(PathOperator):
    """A square matrix whose entries share one magnitude ``s`` and carry a
    symmetric unit-modulus phase: ``A[m, n] = s * phases[key(m, n)]``.

    Both transition laws are uniform, so every ratio is ``N * s`` times the
    phase and the certified bound is ``N * s`` for every exponent pair. The
    operator holds its phase table, never the N x N matrix. Symmetry makes
    the transpose the operator itself; the adjoint conjugates the table.
    """

    def __init__(self, dim: int, magnitude: float, phases, key, structure: tuple,
                 pair: NormPair = NormPair()):
        self.rows = self.cols = dim
        self.pair = pair
        self.bound = dim * magnitude
        self.structure = structure
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
                            self.structure, self.pair)


def grover_reflection(n_qubits: int, pair: NormPair = NormPair()) -> PathOperator:
    """The reflection 1 - 2|u><u| about the uniform state on n qubits,
    expressed as a two-term mixture with certified bound 3."""
    dim = 1 << n_qubits
    uniform = FlatOperator(dim, 1.0 / dim, [1.0], lambda m, n: 0,
                           ("uniform_dyad", dim), pair)
    op = sum_ops([(1.0, identity_op(dim, pair)), (-2.0, uniform)])
    op.structure = ("grover", n_qubits)
    return op


class HaarWavelet(PathOperator):
    """The discrete Haar wavelet transform on n bits.

    Row 0 is the uniform average; row x with leading set bit at position s
    (counted from the most significant bit) carries ``+-2**-((s+1)/2)`` on
    the 2**(s+1) columns whose trailing bits agree with x. Every column has
    exactly n+1 nonzero entries, so backward transitions are uniform over
    n+1 candidates and the certified bound is sqrt(n+1).
    """

    def __init__(self, n_bits: int, pair: NormPair = NormPair()):
        if n_bits <= 0:
            raise InvalidParameter("need at least one bit")
        if pair.p != 2.0:
            raise InvalidParameter("wavelet transitions are certified for the balanced pair only")
        self._n = n_bits
        self.rows = self.cols = 1 << n_bits
        self.pair = pair
        self.bound = math.sqrt(n_bits + 1)
        self.structure = ("haar", n_bits)

    def _leading(self, x: int) -> int:
        """Position of the leading set bit, counted from the top (x > 0)."""
        return self._n - x.bit_length()

    def entry(self, x: int, y: int) -> float:
        n = self._n
        if x == 0:
            return 2.0 ** (-n / 2.0)
        s = self._leading(x)
        low = n - 1 - s
        if (y ^ x) & ((1 << low) - 1):
            return 0.0
        sign = -1.0 if (y >> low) & 1 else 1.0
        return sign * 2.0 ** (-(s + 1) / 2.0)

    def sample_forward(self, x, rng):
        n = self._n
        if x == 0:
            y = int(rng.random() * self.rows)
            rp = 2.0 ** (n / 2.0)
            rq = (n + 1) * 2.0 ** (-n / 2.0)
            return Transition(y, None, rp, rq)
        s = self._leading(x)
        low = n - 1 - s
        free = s + 1
        r = int(rng.random() * (1 << free))
        y = (r << low) | (x & ((1 << low) - 1))
        sign = -1.0 if (y >> low) & 1 else 1.0
        rp = sign * 2.0 ** (free / 2.0)
        rq = sign * (n + 1) * 2.0 ** (-free / 2.0)
        return Transition(y, None, rp, rq)

    def sample_backward(self, y, rng):
        n = self._n
        c = int(rng.random() * (n + 1))
        if c == 0:
            a = 2.0 ** (-n / 2.0)
            return Transition(0, None, a * self.rows, (n + 1) * a)
        s = c - 1
        low = n - 1 - s
        x = (1 << low) | (y & ((1 << low) - 1))
        sign = -1.0 if (y >> low) & 1 else 1.0
        a = sign * 2.0 ** (-(s + 1) / 2.0)
        return Transition(x, None, a * (1 << (s + 1)), (n + 1) * a)

    def entries(self):
        n = self._n
        inv_q = 1.0 / (n + 1)
        for y in range(self.cols):
            yield SupportEntry(0, y, None, complex(2.0 ** (-n / 2.0)), 2.0 ** (-n), inv_q)
        for x in range(1, self.rows):
            s = self._leading(x)
            low = n - 1 - s
            prob_p = 2.0 ** (-(s + 1))
            tail = x & ((1 << low) - 1)
            for r in range(1 << (s + 1)):
                y = (r << low) | tail
                a = self.entry(x, y)
                yield SupportEntry(x, y, None, complex(a), prob_p, inv_q)

    def _flipped(self, conjugate):
        return _TransposedHaar(self._n, self.pair)


class _TransposedHaar(HaarWavelet):
    """The transpose, and so the adjoint, of the real Haar transform: each
    step takes the other direction's law of the transform and exchanges the
    two ratios, which keeps the bound because the pair is (2, 2)."""

    def entry(self, x: int, y: int) -> float:
        return HaarWavelet.entry(self, y, x)

    def sample_forward(self, x, rng):
        t = HaarWavelet.sample_backward(self, x, rng)
        return Transition(t.index, None, t.ratio_q, t.ratio_p)

    def sample_backward(self, y, rng):
        t = HaarWavelet.sample_forward(self, y, rng)
        return Transition(t.index, None, t.ratio_q, t.ratio_p)

    def entries(self):
        for e in self.adjoint().entries():
            yield SupportEntry(e.col, e.row, None, e.alpha, e.prob_q, e.prob_p)

    def _flipped(self, conjugate):
        return HaarWavelet(self._n, self.pair)


def haar_wavelet(n_bits: int, pair: NormPair = NormPair()) -> HaarWavelet:
    return HaarWavelet(n_bits, pair)


@dataclass
class QueryCounter:
    """Mutable counter threaded through oracle operators."""

    count: int = 0


class ShiftOracle(PathOperator):
    """The permutation (x, y) -> (x, y + g(x) mod y_size) on a split index.

    The global index is ``x * y_size + y``. Every transition evaluates g
    exactly once and increments the shared query counter.
    """

    def __init__(self, g, x_size: int, y_size: int, pair: NormPair = NormPair()):
        if x_size <= 0 or y_size <= 0:
            raise InvalidParameter("oracle needs positive register sizes")
        if callable(g):
            self._g = g
        else:
            table = [int(v) for v in g]
            if len(table) != x_size:
                raise InvalidParameter(
                    f"oracle table has {len(table)} entries for x_size={x_size}"
                )
            self._g = table.__getitem__
        self._x_size = x_size
        self._y_size = y_size
        self._sign = 1
        self.rows = self.cols = x_size * y_size
        self.pair = pair
        self.bound = 1.0
        self.structure = ("oracle",)
        self.query_counter = QueryCounter()

    def _eval(self, x: int) -> int:
        self.query_counter.count += 1
        return self._sign * int(self._g(x))

    def sample_forward(self, m, rng):
        x, y = divmod(m, self._y_size)
        n = x * self._y_size + (y + self._eval(x)) % self._y_size
        return Transition(n, None, 1.0 + 0j, 1.0 + 0j)

    def sample_backward(self, n, rng):
        x, y_out = divmod(n, self._y_size)
        m = x * self._y_size + (y_out - self._eval(x)) % self._y_size
        return Transition(m, None, 1.0 + 0j, 1.0 + 0j)

    def entries(self):
        for x in range(self._x_size):
            shift = self._eval(x)
            for y in range(self._y_size):
                m = x * self._y_size + y
                n = x * self._y_size + (y + shift) % self._y_size
                yield SupportEntry(m, n, None, 1.0 + 0j, 1.0, 1.0)

    def _flipped(self, conjugate):
        # a real permutation: both flips are the inverse shift, and they
        # count their queries with the original
        flip = ShiftOracle(self._g, self._x_size, self._y_size, self.pair)
        flip._sign = -self._sign
        flip.query_counter = self.query_counter
        return flip


def shift_oracle(g, x_size: int, y_size: int, pair: NormPair = NormPair()) -> ShiftOracle:
    return ShiftOracle(g, x_size, y_size, pair)


def fourier_transform(n_qubits: int, pair: NormPair = NormPair()) -> FlatOperator:
    """The discrete Fourier matrix F[j, k] = exp(2 pi i j k / N) / sqrt(N),
    held as its N roots of unity, indexed by ``j * k mod N``."""
    dim = 1 << n_qubits
    roots = [cmath.exp(2j * math.pi * k / dim) for k in range(dim)]
    return FlatOperator(dim, 1.0 / math.sqrt(dim), roots, lambda j, k: j * k % dim,
                        ("fourier", n_qubits), pair)


def walsh_hadamard(n_qubits: int, pair: NormPair = NormPair()) -> FlatOperator:
    """The n-qubit Hadamard transform: the sign of entry (j, k) is the
    parity of ``j & k``."""
    dim = 1 << n_qubits
    return FlatOperator(dim, 1.0 / math.sqrt(dim), [1.0, -1.0],
                        lambda j, k: (j & k).bit_count() & 1,
                        ("hadamard", n_qubits), pair)


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
    global rows (columns) that follow those of blocks 0..r-1. Transitions
    never leave the block of the incoming index, so the certified bound is
    the largest block bound.
    """

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise InvalidParameter("need at least one block")
        self.pair = _require_same_pair(blocks)
        self.blocks = blocks
        self._row_map, self._row_start = self._layout([b.rows for b in blocks])
        self._col_map, self._col_start = self._layout([b.cols for b in blocks])
        self.rows = len(self._row_map)
        self.cols = len(self._col_map)
        self.bound = max(b.bound for b in blocks)

    @staticmethod
    def _layout(sizes):
        """The (block, local index) of every global index, and the first
        global index of every block."""
        mapping = [(r, i) for r, size in enumerate(sizes) for i in range(size)]
        return mapping, list(itertools.accumulate(sizes[:-1], initial=0))

    def sample_forward(self, m, rng):
        r, i = self._row_map[m]
        t = self.blocks[r].sample_forward(i, rng)
        return Transition(self._col_start[r] + t.index, t.tag, t.ratio_p, t.ratio_q)

    def sample_backward(self, n, rng):
        r, j = self._col_map[n]
        t = self.blocks[r].sample_backward(j, rng)
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

"""States: amplitude-accessible vectors and sampleable chain endpoints.

A :class:`SampleableState` is a vector whose amplitudes can be read off and
whose index can be drawn from the ``|psi_i|**p`` law for any exponent. A
:class:`ChainEndpoint` is a matrix sigma that closes a trace
``Tr{A1 ... AS sigma}``: its column index is the head of the chain (where
forward walks start) and its row index the tail (where backward walks
start), and it can sample either endpoint unconditionally. An endpoint is
itself a :class:`PathOperator`, the last matrix of the chain: a forward step
ignores the incoming row and draws the head, a backward step draws the
tail, with the endpoint's own certified bound. So it serves as a
measurement or a block wherever an operator is expected.
"""

from __future__ import annotations

import cmath
import math
import numpy as np

from .errors import (
    InvalidParameter,
    NormViolation,
    NotNormalized,
    ZeroVector,
)
from .linalg import NormPair, as_complex_matrix
from .operators import (
    BlockDiagonal,
    PathOperator,
    SupportEntry,
    Transition,
)
from .sampling import CumulativeTable

_NORM_TOL = 1e-9


def _law(weights: np.ndarray, p: float) -> list:
    """|amplitude|**p law as one probability per index, 0.0 off the support;
    p = inf means the uniform law on the set of maximal entries. An empty
    list means the vector has no weight."""
    mags = np.abs(weights)
    if p == math.inf:
        top = float(mags.max()) if mags.size else 0.0
        if top == 0.0:
            return []
        hit = mags >= top * (1.0 - 1e-15)
        return np.where(hit, 1.0 / np.count_nonzero(hit), 0.0).tolist()
    raised = mags ** p
    total = float(raised.sum())
    if total == 0.0:
        return []
    return (raised / total).tolist()


class SampleableState:
    """Base class for vectors with amplitude access and power-law sampling."""

    dim: int

    def amplitude(self, i: int) -> complex:
        raise NotImplementedError

    def pnorm(self, p: float) -> float:
        """The vector p-norm, 1 <= p <= inf."""
        raise NotImplementedError

    def law_prob(self, i: int, p: float) -> float:
        """Probability of index i under the |amplitude|**p law."""
        raise NotImplementedError

    def sample_index(self, p: float, rng) -> int:
        raise NotImplementedError

    def support(self):
        """Indices with nonzero amplitude."""
        return [i for i in range(self.dim) if self.amplitude(i) != 0]


class BasisState(SampleableState):
    """The computational basis vector |index> in the given dimension."""

    def __init__(self, index: int, dim: int):
        if not 0 <= index < dim:
            raise InvalidParameter(f"basis index {index} outside dimension {dim}")
        self.index = index
        self.dim = dim

    def amplitude(self, i):
        return 1.0 + 0j if i == self.index else 0.0 + 0j

    def pnorm(self, p):
        return 1.0

    def law_prob(self, i, p):
        return 1.0 if i == self.index else 0.0

    def sample_index(self, p, rng):
        return self.index

    def support(self):
        return [self.index]


class ProductState(SampleableState):
    """A tensor product of per-subsystem vectors, each unit in the 2-norm.

    The first factor is the most significant digit of the global index,
    matching the layout used by the tensor-embedding operator.
    """

    def __init__(self, factors):
        vecs = [np.asarray(f, dtype=complex).ravel() for f in factors]
        if not vecs:
            raise InvalidParameter("product state needs at least one factor")
        for k, f in enumerate(vecs):
            if abs(float(np.sum(np.abs(f) ** 2)) - 1.0) > _NORM_TOL:
                raise NotNormalized(f"factor {k} is not unit in the 2-norm")
        # DenseVector refuses empty and non-finite factors and caches each
        # factor's power laws
        self._factors = [DenseVector(f) for f in vecs]
        self.dims = [f.dim for f in self._factors]
        self.dim = math.prod(self.dims)

    def _digits(self, i: int):
        out = []
        for d in reversed(self.dims):
            i, r = divmod(i, d)
            out.append(r)
        return list(reversed(out))

    def amplitude(self, i):
        val = 1.0 + 0j
        # the product of the numpy entries, whose rounding every ratio
        # computed from this amplitude inherits
        for f, d in zip(self._factors, self._digits(i)):
            val *= f._vec[d]
        return val

    def pnorm(self, p):
        out = 1.0
        for f in self._factors:
            out *= f.pnorm(p)
        return out

    def law_prob(self, i, p):
        prob = 1.0
        for f, d in zip(self._factors, self._digits(i)):
            prob *= f.law_prob(d, p)
        return prob

    def sample_index(self, p, rng):
        out = 0
        for f in self._factors:
            out = out * f.dim + f.sample_index(p, rng)
        return out


class PhaseState(SampleableState):
    """Uniform-magnitude state ``exp(i theta(x)) / sqrt(dim)``.

    Every power law is the uniform distribution, which is what makes these
    states cheap to sample regardless of the phase profile. The state holds
    the angle map ``theta``: a list's lookup for given angles, a closed form
    that holds no per-index state for the uniform state and the Fourier
    phase states of a projector family.
    """

    def __init__(self, thetas):
        try:
            angles = list(map(float, thetas))
            # a finite sum means finite angles, and costs a quarter of the
            # check per angle, which runs only if finite angles overflow it
            finite = math.isfinite(sum(angles)) or all(map(math.isfinite, angles))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise InvalidParameter("phase state has a non-finite angle")
        self._hold_angles(len(angles), angles.__getitem__)

    def _hold_angles(self, dim: int, theta) -> None:
        if dim <= 0:
            raise InvalidParameter("empty phase state")
        self.dim = dim
        self._theta = theta
        self._scale = 1.0 / math.sqrt(dim)

    def amplitude(self, i):
        return cmath.exp(1j * self._theta(i)) * self._scale

    def pnorm(self, p):
        if p == math.inf:
            return self._scale
        return self.dim ** (1.0 / p) * self._scale

    def law_prob(self, i, p):
        return 1.0 / self.dim if 0 <= i < self.dim else 0.0

    def sample_index(self, p, rng):
        return int(rng.random() * self.dim)

    def support(self):
        return list(range(self.dim))


def _closed_phase_state(dim: int, theta) -> PhaseState:
    """The phase state with the closed-form angle map ``theta`` on ``dim``
    levels; it holds no per-index state."""
    state = PhaseState.__new__(PhaseState)
    state._hold_angles(dim, theta)
    return state


def uniform_state(dim: int) -> PhaseState:
    """The uniform superposition with all-zero phases."""
    return _closed_phase_state(dim, lambda i: 0.0)


def basis_state(index: int, dim: int) -> BasisState:
    return BasisState(index, dim)


def product_state(factors) -> ProductState:
    return ProductState(factors)


def phase_state(thetas) -> PhaseState:
    return PhaseState(thetas)


class DenseVector(SampleableState):
    """An explicit amplitude vector with no normalisation requirement."""

    def __init__(self, amplitudes):
        vec = np.asarray(amplitudes, dtype=complex).ravel()
        if vec.size == 0:
            raise InvalidParameter("empty vector")
        if not np.all(np.isfinite(vec.view(float))):
            raise InvalidParameter("vector contains non-finite entries")
        self._vec = vec
        self.dim = vec.size
        self._laws: dict = {}

    def amplitude(self, i):
        return complex(self._vec[i])

    def pnorm(self, p):
        mags = np.abs(self._vec)
        if p == math.inf:
            return float(mags.max())
        return float(np.sum(mags ** p) ** (1.0 / p))

    def _lawfor(self, p):
        """The law at exponent p as (probabilities, their cumulative table)."""
        hit = self._laws.get(p)
        if hit is None:
            probs = _law(self._vec, p)
            if not probs:
                raise ZeroVector("the vector has no weight")
            hit = (probs, CumulativeTable(probs))
            self._laws[p] = hit
        return hit

    def law_prob(self, i, p):
        probs = self._lawfor(p)[0]
        return probs[i] if 0 <= i < self.dim else 0.0

    def sample_index(self, p, rng):
        return self._lawfor(p)[1].draw(rng)

    def support(self):
        return [int(i) for i in np.flatnonzero(self._vec)]


def dense_vector(amplitudes) -> DenseVector:
    return DenseVector(amplitudes)


# ---------------------------------------------------------------------------
# chain endpoints


class ChainEndpoint(PathOperator):
    """A matrix sigma with unconditional endpoint sampling.

    ``sample_head`` draws sigma's column index (where forward chain walks
    begin), ``sample_tail`` its row index (where backward walks begin), and
    ``ratios(row, col)`` reports alpha/P and alpha/Q for the entry. As an
    operator, a forward step from any row draws the head and a backward step
    from any column draws the tail. Its one flip is the adjoint; an endpoint
    has no transpose.
    """

    def sample_head(self, rng) -> int:
        raise NotImplementedError

    def sample_tail(self, rng) -> int:
        raise NotImplementedError

    def ratios(self, row: int, col: int) -> tuple:
        raise NotImplementedError

    def sample_forward(self, m, rng):
        col = self.sample_head(rng)
        rp, rq = self.ratios(m, col)
        return Transition(col, None, rp, rq)

    def sample_backward(self, n, rng):
        row = self.sample_tail(rng)
        rp, rq = self.ratios(row, n)
        return Transition(row, None, rp, rq)

    def _flipped(self, conjugate):
        if not conjugate:
            raise InvalidParameter("an endpoint used as an operator has no transpose")
        return self._adjoint()

    def _adjoint(self) -> "ChainEndpoint":
        raise NotImplementedError


def StateAsOperator(state: ChainEndpoint) -> ChainEndpoint:
    """The endpoint itself, which is already an operator; kept for callers
    that still wrap one."""
    return state


class Dyad(ChainEndpoint):
    """The rank-one endpoint |ket><bra|.

    Head draws follow the bra's ``p``-power law, tail draws the ket's
    ``q``-power law, and the certified bound is
    ``bra.pnorm(p) * ket.pnorm(q)``.
    """

    def __init__(self, ket: SampleableState, bra: SampleableState,
                 pair: NormPair = NormPair()):
        self.ket = ket
        self.bra = bra
        self.pair = pair
        self.rows = ket.dim
        self.cols = bra.dim
        bra_norm = bra.pnorm(pair.p)
        ket_norm = ket.pnorm(pair.q)
        if bra_norm == 0.0 or ket_norm == 0.0:
            raise ZeroVector("a dyad needs nonzero vectors on both sides")
        self.bound = bra_norm * ket_norm

    def sample_head(self, rng):
        return self.bra.sample_index(self.pair.p, rng)

    def sample_tail(self, rng):
        return self.ket.sample_index(self.pair.q, rng)

    def ratios(self, row, col):
        alpha = self.ket.amplitude(row) * self.bra.amplitude(col).conjugate()
        if alpha == 0:
            return 0.0 + 0j, 0.0 + 0j
        pp = self.bra.law_prob(col, self.pair.p)
        qq = self.ket.law_prob(row, self.pair.q)
        rp = alpha / pp if pp > 0.0 else 0.0 + 0j
        rq = alpha / qq if qq > 0.0 else 0.0 + 0j
        return rp, rq

    def entries(self):
        p, q = self.pair.p, self.pair.q
        for row in self.ket.support():
            krow = self.ket.amplitude(row)
            qq = self.ket.law_prob(row, q)
            for col in self.bra.support():
                alpha = krow * self.bra.amplitude(col).conjugate()
                yield SupportEntry(row, col, None, alpha,
                                   self.bra.law_prob(col, p), qq)

    def _adjoint(self):
        return Dyad(self.bra, self.ket, self.pair)


def dyad(ket: SampleableState, bra: SampleableState,
         pair: NormPair = NormPair()) -> Dyad:
    return Dyad(ket, bra, pair)


class DensityEndpoint(ChainEndpoint):
    """A density matrix sampled through its diagonal.

    Both endpoint laws equal the diagonal and the certified bound is one;
    this relies on the balanced pair and on positivity, whose entrywise
    consequence ``|rho[m, n]| <= sqrt(rho[m, m] rho[n, n])`` is checked on
    every branch actually touched.
    """

    def __init__(self, rho, pair: NormPair = NormPair()):
        if pair.p != 2.0:
            raise InvalidParameter("density endpoints are certified for the balanced pair only")
        mat = as_complex_matrix(rho)
        if mat.shape[0] != mat.shape[1]:
            raise InvalidParameter(f"density matrix must be square, got {mat.shape}")
        if float(np.max(np.abs(mat - mat.conj().T))) > _NORM_TOL:
            raise InvalidParameter("density matrix is not hermitian")
        diag = np.real(np.diag(mat)).copy()
        if float(np.min(diag)) < -_NORM_TOL:
            raise InvalidParameter("density matrix has a negative diagonal entry")
        diag[diag < 0.0] = 0.0
        if abs(float(diag.sum()) - 1.0) > _NORM_TOL:
            raise NotNormalized(f"density trace is {float(diag.sum())}, not 1")
        self._rho = mat
        self._diag = diag
        self.rows = self.cols = mat.shape[0]
        self.pair = pair
        self.bound = 1.0
        self._table = CumulativeTable(diag.tolist())

    def sample_head(self, rng):
        return self._table.draw(rng)

    def sample_tail(self, rng):
        return self._table.draw(rng)

    def _check(self, row, col, alpha):
        cap = math.sqrt(self._diag[row] * self._diag[col])
        if abs(alpha) > cap * (1.0 + _NORM_TOL) + 1e-300:
            raise NormViolation(
                f"entry ({row}, {col}) breaks the positivity bound: |{alpha}| > {cap}"
            )

    def ratios(self, row, col):
        alpha = complex(self._rho[row, col])
        if alpha == 0:
            return 0.0 + 0j, 0.0 + 0j
        self._check(row, col, alpha)
        return alpha / self._diag[col], alpha / self._diag[row]

    def entries(self):
        ms, ns = np.nonzero(self._rho)
        for m, n in zip(ms, ns):
            alpha = complex(self._rho[m, n])
            self._check(int(m), int(n), alpha)
            yield SupportEntry(int(m), int(n), None, alpha,
                               float(self._diag[n]), float(self._diag[m]))

    def _adjoint(self):
        return self


def density(rho, pair: NormPair = NormPair()) -> DensityEndpoint:
    return DensityEndpoint(rho, pair)


class LowRankEndpoint(ChainEndpoint):
    """``sigma = sum_i s_i v_i u_i^T`` with unit factors (no conjugation).

    Each ``u_i`` must be unit in the p-norm and each ``v_i`` unit in the
    q-norm; endpoints are drawn from the ``|s|``-mixture of the factors'
    power laws and the certified bound is ``sum_i |s_i|``.
    """

    def __init__(self, terms, pair: NormPair = NormPair()):
        if not terms:
            raise InvalidParameter("low-rank endpoint needs at least one term")
        self.pair = pair
        # DenseVector refuses non-finite factors and caches their power laws
        self._heads = [DenseVector(u) for _, u, _ in terms]
        self._tails = [DenseVector(v) for _, _, v in terms]
        for i, (u, v) in enumerate(zip(self._heads, self._tails)):
            nu = u.pnorm(pair.p)
            nv = v.pnorm(pair.q)
            if abs(nu - 1.0) > _NORM_TOL:
                raise NotNormalized(f"term {i}: u is not unit in the p-norm ({nu})")
            if abs(nv - 1.0) > _NORM_TOL:
                raise NotNormalized(f"term {i}: v is not unit in the q-norm ({nv})")
        self._terms = [(complex(s), u._vec, v._vec)
                       for (s, _, _), u, v in zip(terms, self._heads, self._tails)]
        rows = {v.size for _, _, v in self._terms}
        cols = {u.size for _, u, _ in self._terms}
        if len(rows) != 1 or len(cols) != 1:
            raise InvalidParameter("low-rank terms disagree on dimensions")
        self.rows = rows.pop()
        self.cols = cols.pop()
        weights = [abs(s) for s, _, _ in self._terms]
        total = sum(weights)
        if total == 0.0:
            raise ZeroVector("all low-rank weights vanish")
        self.bound = total
        self._mix = CumulativeTable(weights)
        self._share = [w / total for w in weights]

    def head_prob(self, col: int) -> float:
        p = self.pair.p
        return sum(share * u.law_prob(col, p)
                   for share, u in zip(self._share, self._heads))

    def tail_prob(self, row: int) -> float:
        q = self.pair.q
        return sum(share * v.law_prob(row, q)
                   for share, v in zip(self._share, self._tails))

    def _alpha(self, row, col):
        return sum(s * v[row] * u[col] for s, u, v in self._terms)

    def sample_head(self, rng):
        return self._heads[self._mix.draw(rng)].sample_index(self.pair.p, rng)

    def sample_tail(self, rng):
        return self._tails[self._mix.draw(rng)].sample_index(self.pair.q, rng)

    def ratios(self, row, col):
        alpha = self._alpha(row, col)
        if alpha == 0:
            return 0.0 + 0j, 0.0 + 0j
        pp = self.head_prob(col)
        qq = self.tail_prob(row)
        rp = alpha / pp if pp > 0.0 else 0.0 + 0j
        rq = alpha / qq if qq > 0.0 else 0.0 + 0j
        return rp, rq

    def entries(self):
        rows = sorted({i for _, _, v in self._terms for i in np.flatnonzero(v)})
        cols = sorted({i for _, u, _ in self._terms for i in np.flatnonzero(u)})
        for m in rows:
            for n in cols:
                alpha = self._alpha(int(m), int(n))
                if alpha == 0:
                    continue
                yield SupportEntry(int(m), int(n), None, complex(alpha),
                                   self.head_prob(int(n)), self.tail_prob(int(m)))

    def _adjoint(self):
        """``sum_i conj(s_i) conj(u_i) conj(v_i)^T``: its head factors conj(v_i)
        are unit in the p-norm only at the balanced pair."""
        if self.pair.p != self.pair.q:
            raise InvalidParameter("a low-rank adjoint is certified only at the balanced pair")
        return LowRankEndpoint(
            [(s.conjugate(), v.conj(), u.conj()) for s, u, v in self._terms], self.pair)


def low_rank(terms, pair: NormPair = NormPair()) -> LowRankEndpoint:
    return LowRankEndpoint(terms, pair)


def projector_family(table, x_size: int, y_size: int,
                     pair: NormPair = NormPair()) -> BlockDiagonal:
    """``sum_x |x><x| (x) |f(x)><f(x)|`` with Fourier-rotated marks.

    Each block projects onto the Fourier phase state whose frequency is the
    table value at x, so every block is a rank-one projector with bound 1
    and the whole family keeps bound 1. Every row and column of ``|A|``
    sums to 1, which is its capacity.
    """
    marks = [int(v) for v in table]
    if len(marks) != x_size:
        raise InvalidParameter(f"table has {len(marks)} entries for x_size={x_size}")
    blocks = []
    for g in marks:
        phi = _closed_phase_state(y_size, lambda k, g=g: -2.0 * math.pi * g * k / y_size)
        blocks.append(Dyad(phi, phi, pair))
    family = BlockDiagonal(blocks)
    family.capacity = 1.0
    return family

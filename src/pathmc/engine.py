"""Estimators and exact references for operator-chain traces.

The central quantity is ``Tr{A1 ... AS sigma}`` for a chain of path
operators closed by a chain endpoint. A path is drawn either forward (head
index from the endpoint's column law, then each factor's forward law) or
backward (tail index, then backward laws in reverse), the direction chosen
by a coin with probability 1/p for forward. The path's two ratio products
combine into a single value whose mean over paths is the trace and whose
magnitude never exceeds the product of the certified bounds, which fixes
the number of samples up front; a run that draws a larger value stops with
``NormViolation``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DeadColumn,
    DeadRow,
    DimensionMismatch,
    HistoryCapExceeded,
    InvalidParameter,
    NegativeMassOverflow,
    NormViolation,
)
from .linalg import (
    NormPair,
    entrywise_abs,
    exact_oracle,
    induced_norm,
    require_dense,
)
from .operators import PathOperator, ProductOp, from_rowcol, identity_op
from .sampling import EstimateReport, RngStream, StreamingMoments, sample_count
from .states import ChainEndpoint, DenseVector, Dyad, SampleableState

#: Largest path count a run may draw; a larger K is refused before sampling.
PATH_CAP = 10 ** 9

#: Largest number of histories a decoherence matrix enumerates.
HISTORY_CAP = 4096

#: Largest sampling cost b a stochastic-mode chain may have.
NEGATIVITY_CAP = 1e6


@dataclass
class Circuit:
    """An initial endpoint, a tower of square operators applied in order,
    and a measurement operator, all on one dimension and exponent pair,
    which the components fix."""

    initial: ChainEndpoint
    unitaries: list
    measurement: PathOperator

    def __post_init__(self):
        dim = self.initial.rows
        if self.initial.cols != dim:
            raise DimensionMismatch("the initial endpoint must be square")
        for t, u in enumerate(self.unitaries):
            if (u.rows, u.cols) != (dim, dim):
                raise DimensionMismatch(
                    f"operator {t} is {u.rows}x{u.cols}, circuit dimension is {dim}"
                )
        m = self.measurement
        if (m.rows, m.cols) != (dim, dim):
            raise DimensionMismatch(
                f"measurement is {m.rows}x{m.cols}, circuit dimension is {dim}"
            )
        pairs = {self.initial.pair, m.pair} | {u.pair for u in self.unitaries}
        if len(pairs) != 1:
            raise InvalidParameter(f"circuit components disagree on the exponent pair: {pairs}")

    @property
    def dim(self) -> int:
        return self.initial.rows


class PathLedger(NamedTuple):
    """One sampled path: direction, endpoints, and both ratio products."""

    direction: str
    head: int
    tail: int
    ratio_p: complex
    ratio_q: complex

    def value(self, pair: NormPair) -> complex:
        """The estimator value of this path under the given pair."""
        if pair.p == 1.0:
            return self.ratio_p
        if pair.q == 1.0:
            return self.ratio_q
        if self.ratio_p == 0 or self.ratio_q == 0:
            return 0.0 + 0j
        return 1.0 / (pair.inv_p / self.ratio_p + pair.inv_q / self.ratio_q)


def draw_path(sigma: ChainEndpoint, op: PathOperator, pair: NormPair,
              rng) -> PathLedger:
    """Sample one path of ``Tr{A sigma}`` and return its ledger.

    Paths that run into a row or column with no weight are returned with
    zero ratios; they carry no weight and the estimator scores them as
    exact zeros.
    """
    if rng.random() < pair.inv_p:
        head = sigma.sample_head(rng)
        try:
            t = op.sample_forward(head, rng)
        except (DeadRow, DeadColumn):
            return PathLedger("forward", head, -1, 0j, 0j)
        sp, sq = sigma.ratios(t.index, head)
        return PathLedger("forward", head, t.index,
                          t.ratio_p * sp, t.ratio_q * sq)
    tail = sigma.sample_tail(rng)
    try:
        t = op.sample_backward(tail, rng)
    except (DeadRow, DeadColumn):
        return PathLedger("backward", -1, tail, 0j, 0j)
    sp, sq = sigma.ratios(tail, t.index)
    return PathLedger("backward", t.index, tail,
                      t.ratio_p * sp, t.ratio_q * sq)


def _check_trace_shapes(sigma: ChainEndpoint, op: PathOperator) -> None:
    if sigma.cols != op.rows or sigma.rows != op.cols:
        raise DimensionMismatch(
            f"endpoint {sigma.rows}x{sigma.cols} does not close an "
            f"{op.rows}x{op.cols} operator chain"
        )
    if sigma.pair != op.pair:
        raise InvalidParameter("endpoint and operator disagree on the exponent pair")


def _estimate(sigma: ChainEndpoint, op: PathOperator, b: float,
              epsilon: float, delta: float, seed: int, workers: int,
              method: str) -> EstimateReport:
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")
    _check_trace_shapes(sigma, op)
    pair = sigma.pair
    k = sample_count(epsilon, delta, b)
    if k > PATH_CAP:
        raise InvalidParameter(
            f"the run needs K = {k} paths, above the path-count cap of {PATH_CAP}")
    # a value beyond b means some bound understates its operator, and the
    # (epsilon, delta) promise no longer holds
    limit = b * (1.0 + 1e-9)
    started = time.perf_counter()
    base, extra = divmod(k, workers)
    merged = StreamingMoments()
    # streams past the K-th draw no path, so none of them is visited
    for w in range(min(workers, k)):
        count = base + (1 if w < extra else 0)
        rng = RngStream(seed, w)
        chunk = StreamingMoments()
        for _ in range(count):
            value = draw_path(sigma, op, pair, rng).value(pair)
            if abs(value) > limit:
                raise NormViolation(
                    f"a path value of magnitude {abs(value)} exceeds the certified bound {b}")
            chunk.add(value)
        merged.merge(chunk)
    return EstimateReport(
        estimate=merged.mean,
        k=k,
        empirical_std=merged.std,
        b=b,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        elapsed_s=time.perf_counter() - started,
        workers=workers,
        method=method,
    )


def estimate_trace(sigma: ChainEndpoint, op: PathOperator, epsilon: float,
                   delta: float, seed: int = 0, workers: int = 1) -> EstimateReport:
    """Estimate ``Tr{A sigma}`` to additive accuracy epsilon with failure
    probability delta. The sample count is fixed up front from the two
    certified bounds; the empirical spread is reported but never used to
    stop early."""
    return _estimate(sigma, op, sigma.bound * op.bound, epsilon, delta,
                     seed, workers, "markov")


def estimate_expectation(circuit: Circuit, epsilon: float, delta: float,
                         seed: int = 0, workers: int = 1) -> EstimateReport:
    """Estimate ``Tr{U1' ... UT' M UT ... U1 sigma}`` (primes are adjoints).

    The chain is assembled with the product combinator and traced against
    the circuit's initial endpoint; the reported bound is exactly the
    product of the sampled factors' bounds, ``b_sigma * b_M * prod(b_t * b_t')``,
    which is ``b_sigma * b_M * prod(b_t ** 2)`` at the balanced pair.
    """
    ups = [u.adjoint() for u in circuit.unitaries]
    op = ProductOp(ups + [circuit.measurement] + list(reversed(circuit.unitaries)))
    b = circuit.initial.bound * circuit.measurement.bound
    for u, up in zip(circuit.unitaries, ups):
        b *= u.bound * up.bound
    report = _estimate(circuit.initial, op, b, epsilon, delta, seed, workers,
                       "markov")
    return report


@dataclass
class AmplitudeReport:
    """An amplitude estimate plus the derived squared magnitude.

    If the amplitude is within epsilon of the truth, the squared value is
    within ``2 |a| epsilon + epsilon**2``; that bound is reported alongside.
    """

    report: EstimateReport
    probability: float
    probability_error: float

    @property
    def amplitude(self) -> complex:
        return self.report.estimate


def _amplitude_chain(ket: SampleableState, factors: list, bra: SampleableState,
                     pair: NormPair) -> tuple:
    """The dyad ``|ket><bra|``, the product ``A_S ... A_1`` of ``factors``
    given in application order, and the bound b of the trace, multiplied in
    application order."""
    sigma = Dyad(ket=ket, bra=bra, pair=pair)
    op = ProductOp(factors[::-1]) if factors else identity_op(sigma.rows, pair)
    b = sigma.bound
    for f in factors:
        b *= f.bound
    return sigma, op, b


def estimate_amplitude(initial: SampleableState, unitaries: Sequence[PathOperator],
                       final: SampleableState, epsilon: float, delta: float,
                       seed: int = 0, workers: int = 1) -> AmplitudeReport:
    """Estimate ``<final| UT ... U1 |initial>`` through a single dyad trace,
    at the unitaries' exponent pair (the balanced pair for an empty tower)."""
    unitaries = list(unitaries)
    pair = unitaries[0].pair if unitaries else NormPair()
    sigma, op, b = _amplitude_chain(initial, unitaries, final, pair)
    report = _estimate(sigma, op, b, epsilon, delta, seed, workers, "amplitude")
    mag = abs(report.estimate)
    return AmplitudeReport(
        report=report,
        probability=mag * mag,
        probability_error=2.0 * mag * epsilon + epsilon * epsilon,
    )


# ---------------------------------------------------------------------------
# exact references


def expression_interference(sigma, ops) -> float:
    """Interference of a bare chain: ``Tr{|A1| ... |AS| |sigma|}``.

    This prices the chain exactly as written, one factor per operator; use
    :func:`interference_exact` for the conjugated chain of a circuit.
    """
    abs_sigma = entrywise_abs(sigma.dense())
    abs_ops = [entrywise_abs(a.dense()) for a in ops]
    return float(exact_oracle(abs_sigma, abs_ops).real)


def _densify(circuit: Circuit) -> tuple:
    require_dense(circuit.dim)
    return (circuit.initial.dense(), [u.dense() for u in circuit.unitaries],
            circuit.measurement.dense())


def _expectation(sigma, units, meas) -> complex:
    return exact_oracle(sigma, [u.conj().T for u in units] + [meas] + units[::-1])


def _interference(sigma, units, meas) -> float:
    abs_units = [entrywise_abs(u) for u in units]
    factors = [a.T for a in abs_units] + [entrywise_abs(meas)] + abs_units[::-1]
    return float(exact_oracle(entrywise_abs(sigma), factors).real)


def expectation_exact(circuit: Circuit) -> complex:
    """Dense reference value of the circuit's conjugated-chain trace."""
    return _expectation(*_densify(circuit))


def interference_exact(circuit: Circuit) -> float:
    """Interference of a circuit's conjugated chain.

    Equals ``Tr{|U1|^T ... |UT|^T |M| |UT| ... |U1| |sigma|}`` because the
    entrywise magnitudes of an adjoint are the transposed magnitudes.
    """
    return _interference(*_densify(circuit))


def exact_references(circuit: Circuit) -> tuple:
    """``(expectation_exact, interference_exact, interference_state_exact)``
    of a circuit, densifying each component once."""
    sigma, units, meas = _densify(circuit)
    return (_expectation(sigma, units, meas), _interference(sigma, units, meas),
            _interference_state(units, sigma))


def interference_state_exact(unitaries, initial: ChainEndpoint) -> float:
    """State interference after a tower of operators: the circuit
    interference with the measurement replaced by the all-ones-diagonal,
    i.e. ``Tr{C |sigma| C^T}`` with ``C = |UT| ... |U1|``."""
    return _interference_state([u.dense() for u in unitaries], initial.dense())


def _interference_state(units, sigma) -> float:
    mats = [entrywise_abs(u) for u in units]
    sigma = entrywise_abs(sigma)
    dim = sigma.shape[0]
    chain = np.eye(dim)
    for m in mats:
        chain = m @ chain
    return float(np.trace(chain @ sigma @ chain.T).real)


def interference_capacity(target: PathOperator) -> float:
    """The largest interference a single insertion of the operator can
    contribute: the induced q -> q norm of its entrywise magnitudes.

    An operator whose builder set its ``capacity`` reports that closed form,
    as do its flips. Each such ``|A|`` other than Haar's has every row and
    column sum equal to one value, which is its induced norm at every q.
    Haar's row sums differ; its closed form sqrt(n + 1) is the 2-norm, and
    (2, 2) is the only pair it supports. Everything else is priced densely,
    subject to the dense cap.
    """
    if target.capacity is not None:
        return target.capacity
    require_dense(max(target.rows, target.cols))
    return induced_norm(entrywise_abs(target.dense()), target.pair.q)


@dataclass
class DecoherenceDiagnostics:
    """Cross-checks attached to a history matrix."""

    path_sum: complex
    abs_sum: float
    expectation: complex
    interference: float
    max_offdiagonal: float


def decoherence_matrix(circuit: Circuit):
    """The full history matrix ``D[j, k]`` of a circuit.

    Histories are tuples (j0, ..., jT) of basis indices between the
    operators; ``D[j, k] = M[kT, jT] * amp(j) * conj(amp(k)) * sigma[j0, k0]``
    with ``amp(j)`` the product of the operator matrix elements along j.
    Row/column order is lexicographic in the history tuple. Raises
    :class:`HistoryCapExceeded` when there are more than ``HISTORY_CAP``
    histories.
    """
    dim = circuit.dim
    steps = len(circuit.unitaries)
    count = dim ** (steps + 1)
    if count > HISTORY_CAP:
        raise HistoryCapExceeded(f"{count} histories exceed the cap of {HISTORY_CAP}")
    sigma, units, meas = _densify(circuit)

    histories = list(itertools.product(range(dim), repeat=steps + 1))
    amps = np.ones(count, dtype=complex)
    for h, hist in enumerate(histories):
        a = 1.0 + 0j
        for t, u in enumerate(units):
            a *= u[hist[t + 1], hist[t]]
        amps[h] = a
    first = np.array([h[0] for h in histories])
    last = np.array([h[-1] for h in histories])
    dmat = (
        amps[:, None]
        * amps.conj()[None, :]
        * sigma[first[:, None], first[None, :]]
        * meas[last[None, :], last[:, None]]
    )
    off = dmat - np.diag(np.diag(dmat))
    diagnostics = DecoherenceDiagnostics(
        path_sum=complex(dmat.sum()),
        abs_sum=float(np.abs(dmat).sum()),
        expectation=_expectation(sigma, units, meas),
        interference=_interference(sigma, units, meas),
        max_offdiagonal=float(np.max(np.abs(off))) if count > 1 else 0.0,
    )
    return dmat, diagnostics


# ---------------------------------------------------------------------------
# stochastic mode


@dataclass
class StochasticReport:
    """Estimate of a final-function average over a chain of quasi-stochastic
    maps, with the per-operator negativity prices."""

    report: EstimateReport
    op_bounds: list = field(default_factory=list)
    mana: list = field(default_factory=list)

    @property
    def estimate(self) -> complex:
        return self.report.estimate


def stochastic_mode_estimate(initial, ops, final, epsilon: float, delta: float,
                             seed: int = 0, workers: int = 1) -> StochasticReport:
    """Estimate ``<final, A_S ... A_1 initial>`` with the (inf, 1) pair.

    ``ops`` are operators built at that pair, or matrices, which get
    row/column laws. Only the backward direction is ever sampled: the tail
    is drawn from ``|initial|`` and each operator steps along its backward
    law, which for a column-stochastic matrix is exactly the forward-in-time
    Markov walk. Each operator's bound is its largest absolute column sum;
    its logarithm (the negativity price, zero for genuinely stochastic maps)
    is reported per operator. A factor with bound 0 is refused, and the
    total bound ``max|final| * prod(bounds) * sum|initial|`` must stay under
    ``NEGATIVITY_CAP``.
    """
    pair = NormPair(math.inf, 1.0)
    factors = [a if isinstance(a, PathOperator)
               else from_rowcol(np.asarray(a, dtype=complex), pair) for a in ops]
    shapes = {(f.rows, f.cols) for f in factors}
    if len(shapes) > 1 or any(r != c for r, c in shapes):
        raise DimensionMismatch(f"chain operators must share one square shape, got {shapes}")
    for t, f in enumerate(factors):
        if f.bound == 0.0:
            raise InvalidParameter(f"operator {t} has bound 0: no path through it carries weight")
    fin = np.asarray(final, dtype=complex).ravel()
    sigma, op, b = _amplitude_chain(DenseVector(initial), factors,
                                    DenseVector(fin.conj()), pair)
    if b > NEGATIVITY_CAP:
        raise NegativeMassOverflow(
            f"sampling cost {b} exceeds the cap {NEGATIVITY_CAP}; the chain is too negative"
        )
    report = _estimate(sigma, op, b, epsilon, delta, seed, workers, "stochastic")
    return StochasticReport(
        report=report,
        op_bounds=[f.bound for f in factors],
        mana=[math.log(f.bound) for f in factors],
    )

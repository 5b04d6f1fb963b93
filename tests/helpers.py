"""Audit helpers shared across the test modules.

The central routine enumerates an operator's full support and checks, in
one sweep, everything the sampling contract promises: the support sums to
the represented matrix, each transition law is a probability distribution
over the branches of its row or column, the cost certificate holds on
every branch, the stated bound dominates the induced norm of the absolute
matrix, and actual sampling agrees with the enumerated laws both in
frequency and, exactly, in the reported importance ratios.
"""

import itertools
import math
import resource
import subprocess
import types
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from pathmc import RngStream
from pathmc.errors import DeadColumn, DeadRow, HistoryCapExceeded
from pathmc.linalg import entrywise_abs, induced_norm

SUM_TOL = 1e-12
COST_TOL = 1e-9
NORM_SLACK = 1e-6
RATIO_RTOL = 1e-9


def run_capped(argv, address_mib: int, timeout: float = 120, **kwargs):
    """Run a command with its address space capped at ``address_mib`` MiB, so
    that an allocation without bound ends in MemoryError inside the child
    rather than exhausting the machine."""
    limit = address_mib << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return subprocess.run(argv, preexec_fn=cap, capture_output=True, text=True,
                          timeout=timeout, **kwargs)


def longest_held_sequence(obj, seen=None) -> int:
    """The length of the longest list or tuple that ``obj`` holds, through
    its attributes, the owners of its bound methods and the cells of its
    closures."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
        return 0
    seen.add(id(obj))
    if isinstance(obj, (list, tuple)):
        return max([len(obj)] + [longest_held_sequence(x, seen) for x in obj])
    if isinstance(obj, types.FunctionType):
        held = [c.cell_contents for c in obj.__closure__ or ()]
    elif isinstance(obj, types.BuiltinMethodType):
        held = [obj.__self__]
    else:
        held = list(getattr(obj, "__dict__", {}).values())
    return max([0] + [longest_held_sequence(x, seen) for x in held])


def state_vector(state) -> np.ndarray:
    """A state's amplitudes as a dense vector."""
    return np.array([state.amplitude(i) for i in range(state.dim)], dtype=complex)


def dense_from_entries(entries, rows, cols):
    out = np.zeros((rows, cols), dtype=complex)
    for e in entries:
        out[e.row, e.col] += e.alpha
    return out


def _assert_close(actual, expected, rtol=RATIO_RTOL, context=""):
    scale = max(1.0, abs(expected))
    assert abs(actual - expected) <= rtol * scale, (
        f"{context}: got {actual!r}, expected {expected!r}"
    )


def _check_frequencies(counts, probs, draws, context):
    for key, prob in probs.items():
        got = counts.get(key, 0) / draws
        slack = 5.0 * math.sqrt(prob * (1.0 - prob) / draws) + 3.0 / draws
        assert abs(got - prob) <= slack, (
            f"{context}: branch {key} frequency {got} vs probability {prob}"
        )
    stray = set(counts) - set(probs)
    assert not stray, f"{context}: sampled branches outside the law: {stray}"


def assert_operator_certificate(op, dense_ref=None, draws=3000, seed=0,
                                full_law=True, sample_rows=None):
    """Audit a path operator against its own support enumeration.

    ``dense_ref`` is an independently computed matrix to compare against;
    ``full_law`` asserts the transition laws put all their mass on
    enumerated branches (leave False for mixtures that deliberately waste
    mass on zero-weight branches). ``sample_rows`` caps how many rows and
    columns get the sampling comparison.
    """
    entries = list(op.entries())
    keyed = {}
    for e in entries:
        key = (e.row, e.col, e.tag)
        assert key not in keyed, f"duplicate support branch {key}"
        keyed[key] = e

    dense = dense_from_entries(entries, op.rows, op.cols)
    if dense_ref is not None:
        ref = np.asarray(dense_ref, dtype=complex)
        scale = max(1.0, float(np.max(np.abs(ref))) if ref.size else 1.0)
        gap = float(np.max(np.abs(dense - ref))) if ref.size else 0.0
        assert gap <= SUM_TOL * scale, f"support does not sum to the matrix (gap {gap})"

    inv_p, inv_q = op.pair.inv_p, op.pair.inv_q
    row_mass = defaultdict(float)
    col_mass = defaultdict(float)
    for e in entries:
        row_mass[e.row] += e.prob_p
        col_mass[e.col] += e.prob_q
        if e.alpha == 0:
            continue
        assert e.prob_p > 0.0 or inv_p == 0.0, f"unreachable forward branch {e}"
        assert e.prob_q > 0.0 or inv_q == 0.0, f"unreachable backward branch {e}"
        denom = (e.prob_p ** inv_p) * (e.prob_q ** inv_q)
        assert abs(e.alpha) <= op.bound * denom * (1.0 + COST_TOL) + 1e-15, (
            f"cost certificate fails on {e}: |alpha|={abs(e.alpha)}, "
            f"b*P^(1/p)*Q^(1/q)={op.bound * denom}"
        )
    if full_law:
        for m, mass in row_mass.items():
            assert abs(mass - 1.0) <= max(op.rows, 4) * SUM_TOL, (
                f"forward law of row {m} sums to {mass}"
            )
        for n, mass in col_mass.items():
            assert abs(mass - 1.0) <= max(op.cols, 4) * SUM_TOL, (
                f"backward law of column {n} sums to {mass}"
            )

    norm = induced_norm(entrywise_abs(dense), op.pair.q)
    assert op.bound >= norm - NORM_SLACK, (
        f"bound {op.bound} is below the induced norm {norm}"
    )

    if draws:
        _check_sampling(op, keyed, draws, seed, sample_rows)
    return dense


def _check_sampling(op, keyed, draws, seed, sample_rows):
    rng = RngStream(seed, 9001)
    by_row = defaultdict(dict)
    by_col = defaultdict(dict)
    for (row, col, tag), e in keyed.items():
        by_row[row][(col, tag)] = e
        by_col[col][(row, tag)] = e

    rows = range(op.rows) if sample_rows is None else list(sample_rows)
    for m in rows:
        branches = by_row.get(m, {})
        counts = Counter()
        try:
            for _ in range(draws):
                t = op.sample_forward(m, rng)
                key = (t.index, t.tag)
                e = branches.get(key)
                if e is None:
                    assert t.ratio_p == 0 and t.ratio_q == 0, (
                        f"row {m}: sampled unenumerated branch {key} with "
                        f"nonzero ratios"
                    )
                    continue
                counts[key] += 1
                if e.prob_p > 0.0:
                    _assert_close(t.ratio_p, e.alpha / e.prob_p,
                                  context=f"forward ratio_p at {key}")
                if e.prob_q > 0.0:
                    _assert_close(t.ratio_q, e.alpha / e.prob_q,
                                  context=f"forward ratio_q at {key}")
        except (DeadRow, DeadColumn):
            assert not branches, f"row {m} raised dead but has support"
            continue
        probs = {k: e.prob_p for k, e in branches.items()}
        if probs:
            _check_frequencies(counts, probs, draws, f"row {m}")

    cols = range(op.cols) if sample_rows is None else list(sample_rows)
    for n in cols:
        branches = by_col.get(n, {})
        counts = Counter()
        try:
            for _ in range(draws):
                t = op.sample_backward(n, rng)
                key = (t.index, t.tag)
                e = branches.get(key)
                if e is None:
                    assert t.ratio_p == 0 and t.ratio_q == 0, (
                        f"column {n}: sampled unenumerated branch {key} with "
                        f"nonzero ratios"
                    )
                    continue
                counts[key] += 1
                if e.prob_p > 0.0:
                    _assert_close(t.ratio_p, e.alpha / e.prob_p,
                                  context=f"backward ratio_p at {key}")
                if e.prob_q > 0.0:
                    _assert_close(t.ratio_q, e.alpha / e.prob_q,
                                  context=f"backward ratio_q at {key}")
        except (DeadRow, DeadColumn):
            assert not branches, f"column {n} raised dead but has support"
            continue
        probs = {k: e.prob_q for k, e in branches.items()}
        if probs:
            _check_frequencies(counts, probs, draws, f"column {n}")


def assert_endpoint_certificate(sigma, dense_ref=None, draws=3000, seed=0):
    """Audit a chain endpoint: support, endpoint laws, cost, ratios."""
    entries = list(sigma.entries())
    keyed = {}
    for e in entries:
        key = (e.row, e.col, e.tag)
        assert key not in keyed, f"duplicate endpoint branch {key}"
        keyed[key] = e

    dense = dense_from_entries(entries, sigma.rows, sigma.cols)
    if dense_ref is not None:
        ref = np.asarray(dense_ref, dtype=complex)
        gap = float(np.max(np.abs(dense - ref)))
        assert gap <= SUM_TOL * max(1.0, float(np.max(np.abs(ref)))), (
            f"endpoint support does not sum to the matrix (gap {gap})"
        )

    inv_p, inv_q = sigma.pair.inv_p, sigma.pair.inv_q
    head_prob = {}
    tail_prob = {}
    for e in entries:
        if e.col in head_prob:
            assert abs(head_prob[e.col] - e.prob_p) <= SUM_TOL, (
                f"column {e.col} reports inconsistent head probabilities"
            )
        else:
            head_prob[e.col] = e.prob_p
        if e.row in tail_prob:
            assert abs(tail_prob[e.row] - e.prob_q) <= SUM_TOL, (
                f"row {e.row} reports inconsistent tail probabilities"
            )
        else:
            tail_prob[e.row] = e.prob_q
        if e.alpha == 0:
            continue
        assert e.prob_p > 0.0 or inv_p == 0.0, f"unreachable head branch {e}"
        assert e.prob_q > 0.0 or inv_q == 0.0, f"unreachable tail branch {e}"
        denom = (e.prob_p ** inv_p) * (e.prob_q ** inv_q)
        assert abs(e.alpha) <= sigma.bound * denom * (1.0 + COST_TOL) + 1e-15, (
            f"endpoint cost certificate fails on {e}"
        )
    assert abs(sum(head_prob.values()) - 1.0) <= max(sigma.cols, 4) * SUM_TOL
    assert abs(sum(tail_prob.values()) - 1.0) <= max(sigma.rows, 4) * SUM_TOL

    norm = induced_norm(entrywise_abs(dense), sigma.pair.q)
    assert sigma.bound >= norm - NORM_SLACK, (
        f"endpoint bound {sigma.bound} is below the induced norm {norm}"
    )

    if draws:
        rng = RngStream(seed, 417)
        heads = Counter()
        tails = Counter()
        for _ in range(draws):
            col = sigma.sample_head(rng)
            heads[col] += 1
            row = sigma.sample_tail(rng)
            tails[row] += 1
            rp, rq = sigma.ratios(row, col)
            e = keyed.get((row, col, None))
            if e is None or e.alpha == 0:
                continue
            if e.prob_p > 0.0:
                _assert_close(rp, e.alpha / e.prob_p,
                              context=f"head ratio at ({row}, {col})")
            if e.prob_q > 0.0:
                _assert_close(rq, e.alpha / e.prob_q,
                              context=f"tail ratio at ({row}, {col})")
        _check_frequencies(heads, {c: p for c, p in head_prob.items() if p > 0},
                           draws, "head law")
        _check_frequencies(tails, {r: p for r, p in tail_prob.items() if p > 0},
                           draws, "tail law")
    return dense


@dataclass
class OptimalPathReference:
    """Exhaustive path table: values, the variance-optimal one-chain
    distribution proportional to |value|, and its cost, which equals the
    expression interference."""

    paths: list
    values: list
    probabilities: list
    best_bound: float


def optimal_path_distribution(sigma, ops, cap: int = 4096) -> OptimalPathReference:
    """Enumerate every path of ``Tr{A1 ... AS sigma}`` at small dimensions.

    The distribution proportional to |V(path)| is the best any single-chain
    sampler can do; its bound ``sum |V|`` is the expression interference and
    is reported for comparison against certified bounds.
    """
    sig = sigma.dense()
    mats = [a.dense() for a in ops]
    dims = [m.shape[0] for m in mats] + [sig.shape[0]]
    total = math.prod(dims)
    if total > cap:
        raise HistoryCapExceeded(f"{total} paths exceed the cap of {cap}")
    paths = []
    values = []
    for path in itertools.product(*(range(d) for d in dims)):
        v = sig[path[-1], path[0]]
        for t, m in enumerate(mats):
            v *= m[path[t], path[t + 1]]
        paths.append(path)
        values.append(complex(v))
    mass = sum(abs(v) for v in values)
    if mass > 0.0:
        probabilities = [abs(v) / mass for v in values]
    else:
        probabilities = [0.0] * len(values)
    return OptimalPathReference(paths, values, probabilities, mass)

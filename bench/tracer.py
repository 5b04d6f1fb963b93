"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps public callables of pathmc's modules (constructors the CLI
calls, operator and endpoint transition methods, the engine's path draw and
the sampling primitives) with timed spans. Spans nest on one stack, so each
span's self time is its duration minus the time of the spans it caused.
Aggregates are kept per span name; the first ``SPAN_CAP`` raw spans are kept
with their parent for the trace file. ``uninstall`` restores every
attribute, so traced and untraced rounds can alternate in one process.
"""

from __future__ import annotations

import itertools
import random
import sys
import time

SPAN_CAP = 20_000

# cli name -> document kind, for operators.build_s.<kind>
CONSTRUCTORS = {
    "from_dense_optimal": "dense.optimal", "from_rowcol": "dense.rowcol",
    "from_sparse": "sparse", "permutation": "permutation",
    "diagonal_unitary": "diagonal", "pauli_string": "pauli",
    "grover_reflection": "grover", "haar_wavelet": "haar",
    "fourier_transform": "fourier", "walsh_hadamard": "hadamard",
    "shift_oracle": "oracle", "scale": "scaled", "sum_ops": "sum",
    "product_ops": "product", "exp_op": "exp", "controlled": "controlled",
    "tensor_embed": "tensor-embed", "projector_family": "projector-family",
}
STATE_CONSTRUCTORS = ("BasisState", "ProductState", "PhaseState", "DenseVector",
                  "uniform_state", "Dyad", "DensityEndpoint", "LowRankEndpoint",
                  "StateAsOperator")

OPERATOR_CLASSES = ("DenseOptimal", "RowCol", "PhasedPermutation", "PauliString",
                    "UniformDyad", "HaarWavelet", "ShiftOracle", "StateAsOperator",
                    "ScaledOp", "AdjointOp", "SumOp", "ProductOp", "ExpOp",
                    "BlockDiagonal", "TensorEmbed")
# classes that take a step themselves rather than delegating to an inner one
LEAF_CLASSES = OPERATOR_CLASSES[:8]
ENDPOINTS = ("Dyad.BasisState", "Dyad.PhaseState", "Dyad.ProductState",
             "Dyad.DenseVector", "DensityEndpoint", "LowRankEndpoint")
STATES = ("BasisState", "PhaseState", "ProductState", "DenseVector")

# Bytes one transition-table entry holds: three list slots, the cumulative
# float, and the (ratio_p, ratio_q) tuple of two complex numbers. Column
# indices are shared with the operator's own support lists.
_ENTRY_BYTES = (3 * 8 + sys.getsizeof(0.5) + sys.getsizeof((0j, 0j))
                + 2 * sys.getsizeof(1j))
_TABLE_BYTES = 3 * sys.getsizeof([]) + sys.getsizeof((None, None, None)) + 64


def _table_bytes(entry) -> int:
    return _TABLE_BYTES + _ENTRY_BYTES * len(entry[1])


class Tracer:
    """Timed spans around pathmc callables; see the module docstring."""

    def __init__(self, modules, calibrate=True):
        self.m = modules            # name -> imported pathmc module
        self.stats: dict = {}       # span name -> [calls, total_s, self_s, children]
        self.spans: list = []       # (id, parent, name, start, end)
        self.table_sizes: dict = {}
        self.counts = {"random": 0, "paths": 0, "forward": 0, "backward": 0,
                       "dead": 0, "tables_built": 0, "table_bytes": 0,
                       "cold_s": 0.0, "cold": 0, "warm_s": 0.0, "warm": 0}
        self.stream_s = [0.0, 0.0]
        self._stream = None
        self._stack: list = []
        self._ids = itertools.count(1)
        self._patches: list = []
        self._names: dict = {}
        self.span_added_s = self.own_cost_s = self.child_cost_s = 0.0
        if calibrate:
            self.calibrate()

    # -- span bookkeeping -------------------------------------------------

    def _timed(self, fn, name_of):
        """Wrap ``fn``; ``name_of(args, result)`` names the span.

        A frame is ``[child_s, children, id, parent_id]``; stats per name are
        ``[calls, total_s, self_s, children]``.
        """
        clock = time.perf_counter
        stack, stats, spans, ids = self._stack, self.stats, self.spans, self._ids

        def wrapper(*args, **kwargs):
            frame = [0.0, 0, next(ids), stack[-1][2] if stack else 0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += 1
                name = name_of(args, result)
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0.0, 0.0, 0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[0]
                s[3] += frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[2], frame[3], name, t0, t1))
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
        setattr(owner, attr, value)

    def _by_class(self, prefix, of=lambda obj: obj):
        """Name a span ``<prefix>.<class of of(args[0])>``."""
        names = self._names

        def name_of(args, result):
            cls = type(of(args[0]))
            key = (prefix, cls)
            name = names.get(key)
            if name is None:
                name = names[key] = f"{prefix}.{cls.__name__}"
            return name
        return name_of

    @staticmethod
    def _fixed(name):
        return lambda args, result: name

    # -- installation -----------------------------------------------------

    def install(self):
        cli, engine, operators = self.m["cli"], self.m["engine"], self.m["operators"]
        states, sampling, linalg = self.m["states"], self.m["sampling"], self.m["linalg"]

        self._patch(cli, "load_document",
                    self._timed(cli.load_document, self._fixed("cli.load")))
        for name, kind in CONSTRUCTORS.items():
            self._patch(cli, name, self._timed(getattr(cli, name),
                                               self._fixed(f"operators.build.{kind}")))
        for name in STATE_CONSTRUCTORS:
            self._patch(cli, name, self._timed(getattr(cli, name),
                                               self._fixed(f"states.build.{name}")))

        for name in ("estimate_expectation", "stochastic_mode_estimate"):
            self._patch(engine, name, self._timed(getattr(engine, name),
                                                  self._fixed("engine.estimate")))
        self._patch(engine, "draw_path", self._path_wrapper(engine.draw_path))
        self._patch(engine, "RngStream", self._stream_factory(engine.RngStream))

        classes = [c for c in vars(operators).values()
                   if isinstance(c, type) and issubclass(c, operators.PathOperator)]
        classes.append(states.StateAsOperator)
        for cls in classes:
            for method, prefix in (("sample_forward", "operators.forward"),
                                   ("sample_backward", "operators.backward")):
                if method not in vars(cls) or cls is operators.PathOperator:
                    continue
                fn = vars(cls)[method]
                if cls is operators._TableOp:
                    wrapped = self._table_wrapper(fn, prefix, method == "sample_forward")
                else:
                    wrapped = self._timed(fn, self._by_class(prefix))
                self._patch(cls, method, wrapped)

        for cls in (states.Dyad, states.DensityEndpoint, states.LowRankEndpoint):
            for method, prefix in (("sample_head", "states.head"),
                                   ("sample_tail", "states.tail"),
                                   ("ratios", "states.ratios")):
                # dyads are named by the class of their ket: Dyad.PhaseState
                name_of = (self._by_class(prefix + ".Dyad", lambda d: d.ket)
                           if cls is states.Dyad else self._by_class(prefix))
                self._patch(cls, method, self._timed(vars(cls)[method], name_of))
        for cls in (states.BasisState, states.PhaseState, states.ProductState,
                    states.DenseVector):
            self._patch(cls, "law_prob",
                        self._timed(vars(cls)["law_prob"], self._by_class("states.law_prob")))

        self._patch(sampling.RngStream, "random", self._counting_random())
        self._patch(sampling.CumulativeTable, "draw",
                    self._table_draw(sampling.CumulativeTable.draw))
        self._patch(operators, "sample_poisson",
                    self._timed(operators.sample_poisson, self._fixed("sampling.poisson")))
        self._patch(sampling.StreamingMoments, "add",
                    self._timed(sampling.StreamingMoments.add,
                                self._fixed("sampling.moments_add")))
        self._patch(sampling.StreamingMoments, "merge",
                    self._merge_wrapper(sampling.StreamingMoments.merge))

        self._patch(operators, "generalized_singular_vectors",
                    self._timed(operators.generalized_singular_vectors,
                                self._fixed("linalg.gsv")))
        coerce = linalg.as_complex_matrix
        for mod in (linalg, operators, states):
            self._patch(mod, "as_complex_matrix",
                        self._timed(coerce, self._fixed("linalg.coerce")))

    def uninstall(self):
        for owner, attr, own, value in reversed(self._patches):
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- special wrappers -------------------------------------------------

    def _path_wrapper(self, fn):
        counts = self.counts

        def name_of(args, ledger):
            counts["paths"] += 1
            if ledger is None:
                return "engine.path.failed"
            if ledger.head < 0 or ledger.tail < 0:
                counts["dead"] += 1
            counts[ledger.direction] += 1
            return "engine.path." + ledger.direction
        return self._timed(fn, name_of)

    def _table_wrapper(self, fn, prefix, forward):
        """Transition-table operators: split first-touch draws, which build
        a row or column table, from draws that reuse one."""
        timed = self._timed(fn, self._by_class(prefix))
        counts = self.counts
        clock = time.perf_counter

        def wrapper(op, index, rng):
            tables = op._row_tables if forward else op._col_tables
            cold = index not in tables
            t0 = clock()
            try:
                return timed(op, index, rng)
            finally:
                dur = clock() - t0
                if cold:
                    counts["cold"] += 1
                    counts["cold_s"] += dur
                    entry = tables.get(index)
                    if entry:
                        counts["tables_built"] += 1
                        counts["table_bytes"] += _table_bytes(entry)
                else:
                    counts["warm"] += 1
                    counts["warm_s"] += dur
        return wrapper

    def _counting_random(self):
        counts = self.counts
        draw = random.Random.random

        def counted(rng):
            counts["random"] += 1
            return draw(rng)
        return counted

    def _table_draw(self, fn):
        sizes = self.table_sizes

        def name_of(args, result):
            n = len(args[0]._cum)
            sizes[n] = sizes.get(n, 0) + 1
            return "sampling.table_draw"
        return self._timed(fn, name_of)

    def _stream_factory(self, cls):
        def make(seed, stream_id=0):
            self._stream = (int(stream_id), time.perf_counter())
            return cls(seed, stream_id)
        return make

    def _merge_wrapper(self, fn):
        timed = self._timed(fn, self._fixed("sampling.merge"))

        def merge(acc, other):
            if self._stream is not None:
                w, started = self._stream
                if w < len(self.stream_s):
                    self.stream_s[w] += time.perf_counter() - started
                self._stream = None
            return timed(acc, other)
        return merge

    def calibrate(self, n: int = 50_000) -> None:
        """Measure what one span costs: the time a wrapped no-op call adds
        over the bare call, split into the part booked to the span's own
        self time and the part that lands in its caller's."""
        probe = Tracer(self.m, calibrate=False)

        def noop():
            return None
        wrapped = probe._timed(noop, probe._fixed("noop"))
        clock = time.perf_counter
        t0 = clock()
        for _ in range(n):
            noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(n):
            wrapped()
        full = clock() - t0
        self.span_added_s = (full - bare) / n
        self.own_cost_s = probe.stats["noop"][2] / n
        self.child_cost_s = max(0.0, self.span_added_s - self.own_cost_s)

    # -- reporting --------------------------------------------------------

    def _self(self, name) -> float:
        """Self time net of tracing: the calibrated cost of the span itself
        and of each of its child spans is taken out."""
        s = self.stats.get(name)
        if not s:
            return 0.0
        return max(0.0, s[2] - s[0] * self.own_cost_s - s[3] * self.child_cost_s)

    def _per_call(self, name, scale):
        s = self.stats.get(name)
        return self._self(name) / s[0] * scale if s else 0.0

    def _total(self, name, field=1):
        s = self.stats.get(name)
        return s[field] if s else 0.0

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics; ``*_s`` are seconds per round, ``*_us`` and
        ``*_ns`` self time per call, counts are per round or per path."""
        c = self.counts
        paths = max(c["paths"], 1)
        out = {
            "cli.load_s": (self._total("cli.load") / rounds, "s"),
            "cli.self_s": (self._self("cli.load") / rounds, "s"),
        }
        for kind in CONSTRUCTORS.values():
            out[f"operators.build_s.{kind}"] = (
                self._total(f"operators.build.{kind}") / rounds, "s")
        for cls in OPERATOR_CLASSES:
            for d in ("forward", "backward"):
                out[f"operators.{d}_us.{cls}"] = (
                    self._per_call(f"operators.{d}.{cls}", 1e6), "us")
        leaf = sum(self._total(f"operators.{d}.{cls}", 0)
                   for cls in LEAF_CLASSES for d in ("forward", "backward"))
        out.update({
            "operators.cold_draw_us": (c["cold_s"] / max(c["cold"], 1) * 1e6, "us"),
            "operators.warm_draw_us": (c["warm_s"] / max(c["warm"], 1) * 1e6, "us"),
            "operators.tables_built": (c["tables_built"] / rounds, "count"),
            "operators.table_bytes": (c["table_bytes"] / rounds, "bytes"),
            "operators.transitions_per_path": (leaf / paths, "count"),
        })
        for e in ENDPOINTS:
            for part in ("head", "tail", "ratios"):
                out[f"states.{part}_us.{e}"] = (self._per_call(f"states.{part}.{e}", 1e6), "us")
        for s in STATES:
            out[f"states.law_prob_us.{s}"] = (self._per_call(f"states.law_prob.{s}", 1e6), "us")
        out["states.build_s"] = (sum(self._total(f"states.build.{n}")
                                     for n in STATE_CONSTRUCTORS) / rounds, "s")
        out.update({
            "sampling.draws_per_path": (c["random"] / paths, "count"),
            "sampling.table_draw_us": (self._per_call("sampling.table_draw", 1e6), "us"),
            "sampling.poisson_us": (self._per_call("sampling.poisson", 1e6), "us"),
            "sampling.moments_add_ns": (self._per_call("sampling.moments_add", 1e9), "ns"),
            "sampling.merge_us": (self._per_call("sampling.merge", 1e6), "us"),
            "engine.forward_path_us": (self._per_call("engine.path.forward", 1e6), "us"),
            "engine.backward_path_us": (self._per_call("engine.path.backward", 1e6), "us"),
            "engine.forward_paths": (c["forward"] / rounds, "count"),
            "engine.backward_paths": (c["backward"] / rounds, "count"),
            "engine.dead_paths": (c["dead"] / rounds, "count"),
            "engine.live_path_ratio": ((c["paths"] - c["dead"]) / paths, "ratio"),
            "engine.loop_self_us": (self._self("engine.estimate") / paths * 1e6, "us"),
            "engine.stream_s.0": (self.stream_s[0] / rounds, "s"),
            "engine.stream_s.1": (self.stream_s[1] / rounds, "s"),
            "linalg.gsv_s": (self._total("linalg.gsv") / rounds, "s"),
            "linalg.coerce_s": (self._total("linalg.coerce") / rounds, "s"),
        })
        return out

    def dump(self) -> dict:
        """Everything the trace file holds besides the metrics."""
        return {
            "span_cost_us": {"added": self.span_added_s * 1e6,
                             "own": self.own_cost_s * 1e6,
                             "booked_to_parent": self.child_cost_s * 1e6},
            "spans_by_name": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                                     "children": s[3], "self_corrected_s": self._self(name)}
                              for name, s in sorted(self.stats.items())},
            "counts": self.counts,
            "table_draws_by_size": {str(k): v for k, v in sorted(self.table_sizes.items())},
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }

"""Command line front end: estimate, exact, imax, and samples.

Circuit files are strict JSON; anything the schema does not recognize is
rejected with a message naming the offending location, as are non-finite
numbers and components larger than the circuit. Exit code 2 means the file
or the arguments are malformed, exit code 3 means the computation itself
refused (caps, negativity overflow, certification failures at sample time,
a non-finite result) or ran out of memory. Reports are printed as JSON with
a fixed key order so that repeated runs are byte-identical apart from the
elapsed time.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .engine import (
    Circuit,
    estimate_expectation,
    exact_references,
    interference_capacity,
    stochastic_mode_estimate,
)
from .errors import NonFiniteResult, PathmcError, SchemaError
from .linalg import NormPair, SparseEntries, require_dense
from .operators import (
    diagonal_unitary,
    exp_op,
    controlled,
    fourier_transform,
    from_dense_optimal,
    from_rowcol,
    from_sparse,
    grover_reflection,
    haar_wavelet,
    pauli_string,
    permutation,
    product_ops,
    scale,
    shift_oracle,
    sum_ops,
    tensor_embed,
    walsh_hadamard,
)
from .sampling import sample_count
from .states import (
    BasisState,
    DenseVector,
    DensityEndpoint,
    Dyad,
    LowRankEndpoint,
    PhaseState,
    ProductState,
    SampleableState,
    StateAsOperator,  # noqa: F401  (kept importable for callers that wrap endpoints)
    projector_family,
    uniform_state,
)

SCHEMA_VERSION = 1

_SAMPLEABLE_KINDS = ("basis", "uniform", "product", "phase", "vector")
_FLOAT_MAX = sys.float_info.max
_PLAIN = (int, float)
_ENDPOINT_KINDS = _SAMPLEABLE_KINDS + ("dyad", "density", "low-rank")


def _fail(path: str, msg: str):
    raise SchemaError(f"{path}: {msg}")


def _require_keys(spec: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(spec, dict):
        _fail(path, f"expected an object, got {type(spec).__name__}")
    for key in required:
        if key not in spec:
            _fail(path, f"missing required key '{key}'")
    allowed = set(required) | set(optional) | {"kind"}
    extra = sorted(set(spec) - allowed)
    if extra:
        _fail(path, f"unknown keys {extra}")


def _real(x, path: str) -> float:
    """A JSON number as a finite float. The range test is False for NaN, the
    infinities and integers beyond the float range."""
    if isinstance(x, bool):
        _fail(path, "booleans are not numbers")
    if not isinstance(x, (int, float)):
        _fail(path, "expected a real number")
    if not -_FLOAT_MAX <= x <= _FLOAT_MAX:
        _fail(path, f"non-finite number {x}" if isinstance(x, float)
              else "integer outside the float range")
    return float(x)


def _scalar(x, path: str) -> complex:
    # plain JSON numbers in the float range take the inline test, as this
    # runs for every matrix entry; the rest goes through _real, which
    # converts other real types and words each refusal
    if isinstance(x, list) and len(x) == 2:
        re, im = x
        if type(re) in _PLAIN and type(im) in _PLAIN \
                and -_FLOAT_MAX <= re <= _FLOAT_MAX and -_FLOAT_MAX <= im <= _FLOAT_MAX:
            return complex(re, im)
        return complex(_real(re, f"{path}[0]"), _real(im, f"{path}[1]"))
    if type(x) in _PLAIN and -_FLOAT_MAX <= x <= _FLOAT_MAX:
        return complex(x)
    if isinstance(x, (int, float)):
        return complex(_real(x, path))
    _fail(path, "expected a number or a [re, im] pair")


def _numbers(x, path: str) -> list:
    if not isinstance(x, list) or not x:
        _fail(path, "expected a nonempty list of numbers")
    return [_scalar(v, f"{path}[{i}]") for i, v in enumerate(x)]


def _vector(x, path: str) -> np.ndarray:
    return np.array(_numbers(x, path), dtype=complex)


def _matrix(x, path: str) -> np.ndarray:
    # one array for the whole matrix, not one per row
    if not isinstance(x, list) or not x:
        _fail(path, "expected a nonempty list of rows")
    rows = [_numbers(row, f"{path}[{i}]") for i, row in enumerate(x)]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        _fail(path, f"rows have inconsistent lengths {sorted(widths)}")
    return np.array(rows, dtype=complex)


def _int_list(x, path: str) -> list:
    if not isinstance(x, list) or not x:
        _fail(path, "expected a nonempty list of integers")
    out = []
    for i, v in enumerate(x):
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(path, f"entry {i} is not an integer")
        if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            _fail(path, f"entry {i} is an integer outside the float range")
        out.append(v)
    return out


def _positive_int(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        _fail(path, "expected a positive integer")
    return x


def _size(x, path: str, dim: int) -> int:
    """A positive integer no larger than the circuit dimension: no component
    acts on more levels than the circuit has."""
    n = _positive_int(x, path)
    if n > dim:
        _fail(path, f"{n} levels exceed the circuit, which needs {dim}x{dim}")
    return n


def _qubits(x, path: str, dim: int) -> int:
    """A positive register width whose 2**n levels fit in the circuit,
    compared through the bit length so that no 1 << n is built."""
    n = _positive_int(x, path)
    if n >= dim.bit_length():
        _fail(path, f"{n} qubits exceed the circuit, which needs {dim}x{dim}")
    return n


def _kind(spec, path: str, allowed) -> str:
    if not isinstance(spec, dict):
        _fail(path, f"expected an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in allowed:
        _fail(path, f"kind must be one of {sorted(allowed)}, got {kind!r}")
    return kind


def _build_state(spec, dim: int, path: str) -> SampleableState:
    kind = _kind(spec, path, _SAMPLEABLE_KINDS)
    if kind == "basis":
        _require_keys(spec, path, ("index",))
        index = spec["index"]
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < dim:
            _fail(f"{path}.index", f"expected an integer in [0, {dim})")
        return BasisState(index, dim)
    if kind == "uniform":
        _require_keys(spec, path, ())
        return uniform_state(dim)
    if kind == "product":
        _require_keys(spec, path, ("factors",))
        if not isinstance(spec["factors"], list) or not spec["factors"]:
            _fail(f"{path}.factors", "expected a nonempty list of vectors")
        factors = [_vector(f, f"{path}.factors[{i}]")
                   for i, f in enumerate(spec["factors"])]
        if math.prod(f.size for f in factors) != dim:
            _fail(f"{path}.factors", f"factor dimensions do not multiply to {dim}")
        return ProductState(factors)
    if kind == "phase":
        _require_keys(spec, path, ("thetas",))
        thetas = spec["thetas"]
        if not isinstance(thetas, list) or len(thetas) != dim:
            _fail(f"{path}.thetas", f"expected a list of {dim} angles")
        for i, t in enumerate(thetas):
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                _fail(f"{path}.thetas[{i}]", "expected a real angle")
        # PhaseState refuses non-finite angles in the pass that converts them
        return PhaseState(thetas)
    _require_keys(spec, path, ("amplitudes",))
    amps = _vector(spec["amplitudes"], f"{path}.amplitudes")
    if amps.size != dim:
        _fail(f"{path}.amplitudes", f"expected {dim} entries, got {amps.size}")
    return DenseVector(amps)


def _build_endpoint(spec, dim: int, pair: NormPair, path: str):
    kind = _kind(spec, path, _ENDPOINT_KINDS)
    if kind in _SAMPLEABLE_KINDS:
        state = _build_state(spec, dim, path)
        return Dyad(ket=state, bra=state, pair=pair)
    if kind == "dyad":
        _require_keys(spec, path, ("ket", "bra"))
        return Dyad(
            ket=_build_state(spec["ket"], dim, f"{path}.ket"),
            bra=_build_state(spec["bra"], dim, f"{path}.bra"),
            pair=pair,
        )
    if kind == "density":
        _require_keys(spec, path, ("matrix",))
        rho = _matrix(spec["matrix"], f"{path}.matrix")
        if rho.shape != (dim, dim):
            _fail(path, f"density must be {dim}x{dim}, got {rho.shape}")
        return DensityEndpoint(rho, pair)
    _require_keys(spec, path, ("terms",))
    if not isinstance(spec["terms"], list) or not spec["terms"]:
        _fail(f"{path}.terms", "expected a nonempty list of terms")
    terms = []
    for i, term in enumerate(spec["terms"]):
        tpath = f"{path}.terms[{i}]"
        _require_keys(term, tpath, ("weight", "col", "row"))
        terms.append((
            _scalar(term["weight"], f"{tpath}.weight"),
            _vector(term["col"], f"{tpath}.col"),
            _vector(term["row"], f"{tpath}.row"),
        ))
    for i, (_, u, v) in enumerate(terms):
        if u.size != dim or v.size != dim:
            _fail(f"{path}.terms[{i}]", f"vectors must have {dim} entries")
    return LowRankEndpoint(terms, pair)


# operator specs may nest (scaled, sum, product, exp, controlled,
# tensor-embed) at most this deep, which keeps every recursive walk over the
# built operator far from the interpreter's recursion limit
_MAX_NESTING = 64

_OP_KINDS = (
    "dense", "sparse", "permutation", "diagonal", "pauli", "grover", "haar",
    "fourier", "hadamard", "oracle", "scaled", "sum", "product", "exp",
    "controlled", "tensor-embed", "projector-family",
)


def _build_operator(spec, dim: int, pair: NormPair, path: str, depth: int = 0):
    if depth > _MAX_NESTING:
        _fail(path, f"operators nest more than {_MAX_NESTING} levels deep")
    kind = _kind(spec, path, _OP_KINDS)

    def inner(sub, at):
        return _build_operator(sub, dim, pair, at, depth + 1)

    if kind == "dense":
        _require_keys(spec, path, ("matrix",), ("law",))
        mat = _matrix(spec["matrix"], f"{path}.matrix")
        # the optimal law needs 1 < p < inf
        law = spec.get("law", "rowcol" if pair.p in (1.0, math.inf) else "optimal")
        if law not in ("optimal", "rowcol"):
            _fail(f"{path}.law", f"law must be 'optimal' or 'rowcol', got {law!r}")
        build = from_dense_optimal if law == "optimal" else from_rowcol
        return build(mat, pair)
    if kind == "sparse":
        _require_keys(spec, path, ("rows", "cols", "triplets"), ("law",))
        rows = _size(spec["rows"], f"{path}.rows", dim)
        cols = _size(spec["cols"], f"{path}.cols", dim)
        if not isinstance(spec["triplets"], list):
            _fail(f"{path}.triplets", "expected a list of [row, col, value] triplets")
        triplets = []
        for i, t in enumerate(spec["triplets"]):
            if not isinstance(t, list) or len(t) != 3:
                _fail(f"{path}.triplets[{i}]", "expected [row, col, value]")
            r, c, v = t
            if isinstance(r, bool) or isinstance(c, bool) or \
                    not isinstance(r, int) or not isinstance(c, int):
                _fail(f"{path}.triplets[{i}]", "row and col must be integers")
            triplets.append((r, c, _scalar(v, f"{path}.triplets[{i}][2]")))
        entries = SparseEntries(rows, cols, tuple(triplets))
        law = spec.get("law", "rowcol")
        if law != "rowcol":
            _fail(f"{path}.law", "sparse operators only support the 'rowcol' law")
        return from_sparse(entries, pair)
    if kind == "permutation":
        _require_keys(spec, path, ("perm",), ("phases",))
        perm = _int_list(spec["perm"], f"{path}.perm")
        phases = None
        if "phases" in spec:
            phases = _vector(spec["phases"], f"{path}.phases")
        return permutation(perm, phases, pair)
    if kind == "diagonal":
        _require_keys(spec, path, ("values",))
        return diagonal_unitary(_vector(spec["values"], f"{path}.values"), pair=pair)
    if kind == "pauli":
        _require_keys(spec, path, ("letters",))
        if not isinstance(spec["letters"], str) or not spec["letters"]:
            _fail(f"{path}.letters", "expected a nonempty string over IXYZ")
        return pauli_string(spec["letters"], pair)
    if kind == "grover":
        _require_keys(spec, path, ("qubits",))
        return grover_reflection(_qubits(spec["qubits"], f"{path}.qubits", dim), pair)
    if kind == "haar":
        _require_keys(spec, path, ("bits",))
        return haar_wavelet(_qubits(spec["bits"], f"{path}.bits", dim), pair)
    if kind == "fourier":
        _require_keys(spec, path, ("qubits",))
        return fourier_transform(_qubits(spec["qubits"], f"{path}.qubits", dim), pair)
    if kind == "hadamard":
        _require_keys(spec, path, ("qubits",))
        return walsh_hadamard(_qubits(spec["qubits"], f"{path}.qubits", dim), pair)
    if kind in ("oracle", "projector-family"):
        _require_keys(spec, path, ("table", "x_size", "y_size"))
        table = _int_list(spec["table"], f"{path}.table")
        x_size = _size(spec["x_size"], f"{path}.x_size", dim)
        y_size = _size(spec["y_size"], f"{path}.y_size", dim)
        if len(table) != x_size:
            _fail(f"{path}.table", f"expected {x_size} entries, got {len(table)}")
        build = shift_oracle if kind == "oracle" else projector_family
        return build(table, x_size, y_size, pair)
    if kind == "scaled":
        _require_keys(spec, path, ("scale", "inner"))
        return scale(
            _scalar(spec["scale"], f"{path}.scale"),
            inner(spec["inner"], f"{path}.inner"),
        )
    if kind == "sum":
        _require_keys(spec, path, ("terms",), ("scales", "weights"))
        if not isinstance(spec["terms"], list) or not spec["terms"]:
            _fail(f"{path}.terms", "expected a nonempty list of operators")
        ops = [inner(t, f"{path}.terms[{i}]") for i, t in enumerate(spec["terms"])]
        scales = [1.0 + 0j] * len(ops)
        if "scales" in spec:
            if not isinstance(spec["scales"], list) or len(spec["scales"]) != len(ops):
                _fail(f"{path}.scales", f"expected {len(ops)} scale factors")
            scales = [_scalar(s, f"{path}.scales[{i}]")
                      for i, s in enumerate(spec["scales"])]
        weights = None
        if "weights" in spec:
            if not isinstance(spec["weights"], list):
                _fail(f"{path}.weights", "expected a list of numbers")
            weights = [_real(w, f"{path}.weights[{i}]")
                       for i, w in enumerate(spec["weights"])]
        return sum_ops(list(zip(scales, ops)), weights)
    if kind == "product":
        _require_keys(spec, path, ("factors",))
        if not isinstance(spec["factors"], list) or not spec["factors"]:
            _fail(f"{path}.factors", "expected a nonempty list of operators")
        return product_ops([inner(f, f"{path}.factors[{i}]")
                            for i, f in enumerate(spec["factors"])])
    if kind == "exp":
        _require_keys(spec, path, ("inner",))
        return exp_op(inner(spec["inner"], f"{path}.inner"))
    if kind == "controlled":
        _require_keys(spec, path, ("blocks",))
        if not isinstance(spec["blocks"], list) or not spec["blocks"]:
            _fail(f"{path}.blocks", "expected a nonempty list of operators")
        return controlled([inner(b, f"{path}.blocks[{i}]")
                           for i, b in enumerate(spec["blocks"])])
    _require_keys(spec, path, ("inner", "left", "right"))
    return tensor_embed(
        inner(spec["inner"], f"{path}.inner"),
        _size(spec["left"], f"{path}.left", dim),
        _size(spec["right"], f"{path}.right", dim),
    )


def _build_measurement(spec, dim: int, pair: NormPair, path: str):
    if isinstance(spec, dict) and spec.get("kind") == "state-projector":
        _require_keys(spec, path, ("state",))
        state = _build_state(spec["state"], dim, f"{path}.state")
        return Dyad(ket=state, bra=state, pair=pair)
    return _build_operator(spec, dim, pair, path)


@dataclass
class StochasticFile:
    """A parsed stochastic-mode input: distribution, (inf, 1) operators, payoff."""

    initial: np.ndarray
    mats: list
    final: np.ndarray


def _parse_p(raw, path: str) -> float:
    if raw == "inf":
        return math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(path, "expected a number >= 1 or the string \"inf\"")
    p = _real(raw, path)
    if p < 1:
        _fail(path, f"p must be at least 1, got {raw}")
    return p


def load_document(doc):
    """Turn a parsed JSON document into a Circuit or a StochasticFile."""
    _require_keys(doc, "$", ("schema_version", "n_levels", "p", "state",
                            "operators", "measurement"))
    if doc["schema_version"] != SCHEMA_VERSION:
        _fail("$.schema_version", f"expected {SCHEMA_VERSION}, got {doc['schema_version']!r}")
    dim = _positive_int(doc["n_levels"], "$.n_levels")
    if dim > _FLOAT_MAX:
        _fail("$.n_levels", "integer outside the float range")
    p = _parse_p(doc["p"], "$.p")
    if not isinstance(doc["operators"], list):
        _fail("$.operators", "expected a list of operator specs")

    meas = doc["measurement"]
    stochastic = isinstance(meas, dict) and meas.get("kind") == "vector"
    if stochastic:
        if p != math.inf:
            _fail("$.p", "a vector measurement requires p = \"inf\"")
        if _kind(doc["state"], "$.state", _ENDPOINT_KINDS) != "vector":
            _fail("$.state", "a vector measurement requires a vector state")
        _require_keys(doc["state"], "$.state", ("amplitudes",))
        initial = _vector(doc["state"]["amplitudes"], "$.state.amplitudes")
        _require_keys(meas, "$.measurement", ("amplitudes",))
        final = _vector(meas["amplitudes"], "$.measurement.amplitudes")
        if initial.size != dim or final.size != dim:
            _fail("$", f"state and measurement vectors must have {dim} entries")

    pair = NormPair.from_p(p)
    try:
        if not stochastic:
            state = _build_endpoint(doc["state"], dim, pair, "$.state")
        ops = []
        for i, spec in enumerate(doc["operators"]):
            op = _build_operator(spec, dim, pair, f"$.operators[{i}]")
            if (op.rows, op.cols) != (dim, dim):
                _fail(f"$.operators[{i}]",
                      f"operator is {op.rows}x{op.cols}, circuit needs {dim}x{dim}")
            ops.append(op)
        if stochastic:
            return StochasticFile(initial, ops, final)
        measurement = _build_measurement(meas, dim, pair, "$.measurement")
        if (measurement.rows, measurement.cols) != (dim, dim):
            _fail("$.measurement",
                  f"measurement is {measurement.rows}x{measurement.cols}, "
                  f"circuit needs {dim}x{dim}")
        return Circuit(state, ops, measurement)
    except SchemaError:
        raise
    except PathmcError as exc:
        raise SchemaError(f"the file describes an invalid component: {exc}") from exc


def load_file(path: str):
    if path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read '{path}': {exc}") from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal too long to convert
        raise SchemaError(f"'{path}' is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"'{path}' nests too deeply to decode") from None
    return load_document(doc)


def _print_json(doc) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteResult(f"the result is not finite: {doc}") from None
    print(text)


def _report_doc(report, extra=None) -> dict:
    doc = {
        "estimate_re": float(report.estimate.real),
        "estimate_im": float(report.estimate.imag),
        "K": report.k,
        "b": float(report.b),
        "epsilon": report.epsilon,
        "delta": report.delta,
        "seed": report.seed,
        "workers": report.workers,
        "elapsed_s": report.elapsed_s,
        "method": report.method,
    }
    if extra:
        doc.update(extra)
    return doc


def cmd_estimate(args) -> int:
    loaded = load_file(args.circuit)
    if isinstance(loaded, StochasticFile):
        result = stochastic_mode_estimate(
            loaded.initial, loaded.mats, loaded.final,
            args.epsilon, args.delta, seed=args.seed, workers=args.workers,
        )
        _print_json(_report_doc(result.report, {"mana": result.mana}))
        return 0
    report = estimate_expectation(loaded, args.epsilon, args.delta,
                                  seed=args.seed, workers=args.workers)
    _print_json(_report_doc(report))
    return 0


def cmd_exact(args) -> int:
    loaded = load_file(args.circuit)
    if isinstance(loaded, StochasticFile):
        require_dense(loaded.initial.size)
        acc = loaded.initial.copy()
        abs_acc = np.abs(loaded.initial)
        for op in loaded.mats:
            m = op.dense()
            acc = m @ acc
            abs_acc = np.abs(m) @ abs_acc
        expectation = complex(loaded.final @ acc)
        interference = float(np.abs(loaded.final) @ abs_acc)
        _print_json({
            "expectation": [expectation.real, expectation.imag],
            "interference": interference,
        })
        return 0
    expectation, interference, interference_state = exact_references(loaded)
    _print_json({
        "expectation": [float(expectation.real), float(expectation.imag)],
        "interference": interference,
        "interference_state": interference_state,
    })
    return 0


def cmd_imax(args) -> int:
    loaded = load_file(args.circuit)
    if isinstance(loaded, StochasticFile):
        caps = [float(interference_capacity(op)) for op in loaded.mats]
        _print_json({"operators": caps, "chain": float(math.prod(caps))})
        return 0
    caps = [float(interference_capacity(u)) for u in loaded.unitaries]
    meas_cap = float(interference_capacity(loaded.measurement))
    chain = meas_cap * math.prod(c * c for c in caps)
    _print_json({"operators": caps, "measurement": meas_cap, "chain": float(chain)})
    return 0


def cmd_samples(args) -> int:
    print(sample_count(args.epsilon, args.delta, args.bound))
    return 0


def _finite(text: str) -> float:
    """A finite float flag value: NaN or an infinity is malformed input."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathmc",
        description="Monte Carlo trace estimation over operator chains.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="sample a circuit file's expectation")
    est.add_argument("circuit", help="path to a circuit JSON file ('-' for stdin)")
    est.add_argument("--epsilon", type=_finite, default=0.05,
                     help="additive accuracy target (default 0.05)")
    est.add_argument("--delta", type=_finite, default=0.05,
                     help="failure probability (default 0.05)")
    est.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    est.add_argument("--workers", type=int, default=1,
                     help="number of deterministic sampling streams (default 1)")
    est.set_defaults(func=cmd_estimate)

    exa = sub.add_parser("exact", help="dense reference values for a circuit file")
    exa.add_argument("circuit", help="path to a circuit JSON file ('-' for stdin)")
    exa.set_defaults(func=cmd_exact)

    ima = sub.add_parser("imax", help="per-operator interference capacities")
    ima.add_argument("circuit", help="path to a circuit JSON file ('-' for stdin)")
    ima.set_defaults(func=cmd_imax)

    sam = sub.add_parser("samples", help="print the path count for given targets")
    sam.add_argument("--epsilon", type=_finite, required=True)
    sam.add_argument("--delta", type=_finite, required=True)
    sam.add_argument("--bound", type=_finite, required=True)
    sam.set_defaults(func=cmd_samples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite intermediate ends in a typed refusal or in
        # NonFiniteResult, so numpy's floating-point warnings carry nothing
        with np.errstate(all="ignore"):
            return args.func(args)
    except SchemaError as exc:
        print(f"pathmc: {exc}", file=sys.stderr)
        return 2
    except PathmcError as exc:
        print(f"pathmc: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("pathmc: the computation ran out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

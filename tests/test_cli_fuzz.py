"""Contract fuzz of ``pathmc exact`` and ``pathmc imax``.

Each example takes a small valid circuit file (at most 8 levels) and
replaces a few of its nodes with non-finite numbers, huge integers, values
of the wrong type or unknown kinds. Whatever the file says, the command
must exit 0, 2 or 3 without an exception escaping, and on exit 0 print
strict JSON, with no NaN or Infinity.

``estimate`` stays out: its path count K is capped at 10**9, but a mutated
file can still ask for a run that takes hours.
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathmc.cli import _ENDPOINT_KINDS, _OP_KINDS, main

FIXTURES = Path(__file__).parent / "fixtures"

STATES = [
    {"kind": "uniform"},
    {"kind": "product", "factors": [[0.6, 0.8], [[0.0, 1.0], 0.0]]},
    {"kind": "phase", "thetas": [0.0, 1.0, 2.5, -3.0]},
    {"kind": "dyad", "ket": {"kind": "basis", "index": 1},
     "bra": {"kind": "vector", "amplitudes": [0.5, 0.5, [0.0, 0.5], 0.5]}},
    {"kind": "density", "matrix": [[0.5, 0.0, 0.0, [0.0, 0.5]], [0.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 0.0], [[0.0, -0.5], 0.0, 0.0, 0.5]]},
    {"kind": "low-rank", "terms": [{"weight": [0.0, 2.0], "col": [0.5, 0.5, 0.5, 0.5],
                                    "row": [1.0, 0.0, 0.0, 0.0]}]},
]


def _with_state(state):
    return {"schema_version": 1, "n_levels": 4, "p": 2, "state": state,
            "operators": [{"kind": "grover", "qubits": 2},
                          {"kind": "exp", "inner": {"kind": "scaled", "scale": 0.3,
                                                    "inner": {"kind": "pauli", "letters": "XY"}}}],
            "measurement": {"kind": "sum", "terms": [{"kind": "haar", "bits": 2},
                                                    {"kind": "fourier", "qubits": 2}],
                            "scales": [1.0, [0.0, -1.0]], "weights": [0.5, 0.5]}}


BASES = [json.loads((FIXTURES / name).read_text()) for name in (
    "bell_pair.json", "grover_iterate.json", "markov_chain.json",
    "dense_laws.json", "flip_kinds.json", "stochastic_kinds.json")]
FLIPS, CHAIN = BASES[-2:]
# each operator of flip_kinds.json and of the stochastic chain alone in a
# short file too, so that mutations reach its fields often; the flip kinds
# also at p = 3 and p = inf, where closed forms price them and a kind the
# pair refuses exits 2
BASES += [{"schema_version": 1, "n_levels": 8, "p": p, "state": {"kind": "basis", "index": 3},
           "operators": [op], "measurement": {"kind": "pauli", "letters": "ZIZ"}}
          for p in (2, 3, "inf") for op in FLIPS["operators"]]
BASES += [dict(CHAIN, operators=[op]) for op in CHAIN["operators"]]
BASES += [_with_state(s) for s in STATES]

ODD = [math.nan, math.inf, -math.inf, 2 ** 63, -2 ** 63, 10 ** 400, -10 ** 400,
       1e308, -1e308, 5e-324, 0, -1, 0.5, True, None, "inf", "x", [], {},
       [math.nan, 0.0], [0.0, 10 ** 400], [1, 2, 3], {"kind": "nope"}]
KINDS = sorted(set(_OP_KINDS) | set(_ENDPOINT_KINDS)) + ["nope", "state-projector", "vector"]


def _nodes(node, at=()):
    yield at
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, at + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, at + (i,))


def _set(doc, at, value):
    if not at:
        return value
    node = doc
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = value
    return doc


@st.composite
def mutated_documents(draw):
    # a seeded Random picks the mutations: Hypothesis's own choices favour
    # the first nodes of a file and repeat one value across mutations
    rnd = draw(st.randoms(use_true_random=False))
    doc = copy.deepcopy(rnd.choice(BASES))
    for _ in range(rnd.randint(1, 3)):
        at = rnd.choice(list(_nodes(doc)))
        value = copy.deepcopy(rnd.choice(KINDS if at and at[-1] == "kind" else ODD))
        doc = _set(doc, at, value)
    return doc


def _strict(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=2500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents(), st.sampled_from(["exact", "imax"]))
def test_exact_and_imax_keep_the_exit_code_contract(doc, command):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-"])
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_strict)

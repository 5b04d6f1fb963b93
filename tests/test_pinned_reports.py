"""Exact pins of ``pathmc estimate`` reports.

Each case runs the CLI on a fixture (``dense_laws.json`` at two exponent
pairs, the three loadable fixtures, ``flip_kinds.json``, whose estimate
samples the adjoint of one unitary of every kind, and
``stochastic_kinds.json``, a stochastic chain of structured kinds) at two
seeds and two worker counts, and compares every report key except
``elapsed_s`` with ``fixtures/pinned_reports.json`` exactly. A change that is meant to move
these values regenerates the pins with

    PYTHONPATH=src python tests/test_pinned_reports.py

and says which cases moved and why.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pathmc.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
PINS = FIXTURES / "pinned_reports.json"

# (fixture, p override or None, epsilon, delta)
FILES = [
    ("dense_laws.json", 2, 0.4, 0.05),
    ("dense_laws.json", 3, 0.4, 0.05),
    ("bell_pair.json", None, 0.1, 0.05),
    ("grover_iterate.json", None, 2.0, 0.05),
    ("markov_chain.json", None, 0.1, 0.05),
    ("flip_kinds.json", None, 100_000.0, 0.05),
    ("stochastic_kinds.json", None, 0.47, 0.05),
]
SEEDS = (1, 2)
WORKERS = (1, 3)

CASES = {
    f"{name} p={p or 'file'} seed={seed} workers={workers}":
        (name, p, epsilon, delta, seed, workers)
    for name, p, epsilon, delta in FILES
    for seed in SEEDS
    for workers in WORKERS
}


def report(name, p, epsilon, delta, seed, workers) -> dict:
    """The parsed ``pathmc estimate`` report without ``elapsed_s``."""
    doc = json.loads((FIXTURES / name).read_text())
    if p is not None:
        doc["p"] = p
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out):
            code = main(["estimate", str(path), "--epsilon", str(epsilon),
                         "--delta", str(delta), "--seed", str(seed),
                         "--workers", str(workers)])
    assert code == 0
    doc = json.loads(out.getvalue())
    del doc["elapsed_s"]
    return doc


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_its_pin(case):
    pins = json.loads(PINS.read_text())
    assert report(*CASES[case]) == pins[case]


if __name__ == "__main__":
    pins = {case: report(*CASES[case]) for case in sorted(CASES)}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}", file=sys.stderr)

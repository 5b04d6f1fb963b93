import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import run_capped
from pathmc import cli, sample_count
from pathmc.cli import load_file, main
from pathmc.engine import (
    estimate_expectation,
    expectation_exact,
    interference_capacity,
    interference_exact,
    interference_state_exact,
)

FIXTURES = Path(__file__).parent / "fixtures"
BELL = str(FIXTURES / "bell_pair.json")
GROVER = str(FIXTURES / "grover_iterate.json")
MARKOV = str(FIXTURES / "markov_chain.json")
STOCHASTIC_KINDS = str(FIXTURES / "stochastic_kinds.json")

REPORT_KEYS = ["estimate_re", "estimate_im", "K", "b", "epsilon", "delta",
               "seed", "workers", "elapsed_s", "method"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mask_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_s": [-+0-9.e]+', '"elapsed_s": <T>', text)


def test_samples_command(capsys):
    code, out, err = run_cli(capsys, "samples", "--epsilon", "0.05",
                             "--delta", "0.01", "--bound", "1")
    assert code == 0
    assert out.strip() == "9587"
    assert err == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "pathmc" in capsys.readouterr().out


def test_estimate_report_layout(capsys):
    code, out, _ = run_cli(capsys, "estimate", BELL,
                           "--epsilon", "0.1", "--delta", "0.05", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == REPORT_KEYS
    assert doc["K"] == sample_count(0.1, 0.05, doc["b"])
    assert doc["epsilon"] == 0.1
    assert doc["delta"] == 0.05
    assert doc["seed"] == 1
    assert doc["workers"] == 1
    assert doc["method"] == "markov"
    # the file prepares a Bell pair and projects back onto it
    assert abs(complex(doc["estimate_re"], doc["estimate_im"]) - 1.0) <= 0.1


def test_estimate_matches_library(capsys):
    code, out, _ = run_cli(capsys, "estimate", BELL,
                           "--epsilon", "0.1", "--delta", "0.05",
                           "--seed", "3", "--workers", "2")
    assert code == 0
    doc = json.loads(out)
    report = estimate_expectation(load_file(BELL), 0.1, 0.05, seed=3, workers=2)
    assert doc["estimate_re"] == report.estimate.real
    assert doc["estimate_im"] == report.estimate.imag
    assert doc["K"] == report.k
    assert doc["b"] == report.b


def test_estimate_reruns_are_byte_identical(capsys):
    args = ("estimate", BELL, "--epsilon", "0.1", "--delta", "0.05",
            "--seed", "9", "--workers", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert mask_elapsed(first) == mask_elapsed(second)
    assert "<T>" in mask_elapsed(first)


def test_exact_command(capsys):
    code, out, _ = run_cli(capsys, "exact", GROVER)
    assert code == 0
    doc = json.loads(out)
    circuit = load_file(GROVER)
    want = expectation_exact(circuit)
    assert doc["expectation"][0] == pytest.approx(want.real, abs=1e-12)
    assert doc["expectation"][1] == pytest.approx(want.imag, abs=1e-12)
    assert doc["expectation"][0] == pytest.approx(1.0)
    assert doc["interference"] == pytest.approx(interference_exact(circuit))
    assert doc["interference_state"] == pytest.approx(
        interference_state_exact(circuit.unitaries, circuit.initial))


def test_imax_command(capsys):
    code, out, _ = run_cli(capsys, "imax", GROVER)
    assert code == 0
    doc = json.loads(out)
    circuit = load_file(GROVER)
    caps = [interference_capacity(u) for u in circuit.unitaries]
    meas = interference_capacity(circuit.measurement)
    assert doc["operators"] == pytest.approx(caps)
    assert doc["operators"][0] == pytest.approx(2.0)  # two-qubit Hadamard
    assert doc["operators"][1] == pytest.approx(2.0)  # reflection at N=4
    assert doc["measurement"] == pytest.approx(meas)
    assert doc["chain"] == pytest.approx(meas * math.prod(c * c for c in caps))


def test_stochastic_estimate(capsys):
    code, out, _ = run_cli(capsys, "estimate", MARKOV, "--epsilon", "0.02",
                           "--delta", "0.01", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == REPORT_KEYS + ["mana"]
    assert doc["method"] == "stochastic"
    assert doc["mana"] == [0.0, 0.0]
    assert doc["b"] == 2.0
    spec = json.loads(Path(MARKOV).read_text())
    m1, m2 = (np.array(op["matrix"]) for op in spec["operators"])
    rho = np.array(spec["state"]["amplitudes"])
    f = np.array(spec["measurement"]["amplitudes"])
    exact = float(f @ (m2 @ (m1 @ rho)))
    assert abs(doc["estimate_re"] - exact) <= 0.02
    assert doc["estimate_im"] == 0.0


def test_stochastic_exact_and_imax(capsys):
    code, out, _ = run_cli(capsys, "exact", MARKOV)
    assert code == 0
    doc = json.loads(out)
    spec = json.loads(Path(MARKOV).read_text())
    m1, m2 = (np.array(op["matrix"]) for op in spec["operators"])
    rho = np.array(spec["state"]["amplitudes"])
    f = np.array(spec["measurement"]["amplitudes"])
    assert doc["expectation"][0] == pytest.approx(float(f @ m2 @ m1 @ rho))
    assert doc["expectation"][1] == 0.0
    assert doc["interference"] == pytest.approx(
        float(np.abs(f) @ np.abs(m2) @ np.abs(m1) @ np.abs(rho)))

    code, out, _ = run_cli(capsys, "imax", MARKOV)
    assert code == 0
    doc = json.loads(out)
    assert doc["operators"] == [1.0, 1.0]
    assert doc["chain"] == 1.0


def test_stochastic_chain_of_structured_kinds(capsys):
    # a permutation, an embedded column-stochastic dense map (rowcol by
    # default at p = inf), a sparse map with one negative entry and a Pauli
    # flip, applied in file order
    perm = np.zeros((4, 4))
    perm[range(4), [1, 2, 3, 0]] = 1.0
    embed = np.kron([[0.9, 0.3], [0.1, 0.7]], np.eye(2))
    negative = np.eye(4)
    negative[:2, 0] = [1.2, -0.2]
    flip = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    rho = np.array([0.1, 0.2, 0.3, 0.4])
    f = np.array([1.0, 2.0, -0.5, 0.5])
    want = float(f @ flip @ negative @ embed @ perm @ rho)

    code, out, _ = run_cli(capsys, "exact", STOCHASTIC_KINDS)
    assert code == 0
    exact = json.loads(out)["expectation"]
    assert exact == pytest.approx([want, 0.0], abs=1e-12)

    code, out, _ = run_cli(capsys, "imax", STOCHASTIC_KINDS)
    assert code == 0
    assert json.loads(out)["operators"] == [1.0, 1.0, 1.4, 1.0]

    code, out, _ = run_cli(capsys, "estimate", STOCHASTIC_KINDS, "--epsilon", "0.05",
                           "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["mana"] == [0.0, 0.0, math.log(1.4), 0.0]
    assert doc["b"] == pytest.approx(2.8)
    assert abs(doc["estimate_re"] - exact[0]) <= 0.05


def _stochastic_with(op, state=None):
    doc = json.loads(Path(STOCHASTIC_KINDS).read_text())
    doc["operators"] = [op]
    if state is not None:
        doc["state"] = state
    return doc


_HALVES = [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("doc, command, want", [
    # the Haar transform and the optimal law need 1 < p < inf, and a
    # density endpoint is no vector
    (_stochastic_with({"kind": "haar", "bits": 2}), "exact", 2),
    (_stochastic_with({"kind": "dense", "matrix": [[1.0, 0.0, 0.0, 0.0]] * 4,
                       "law": "optimal"}), "estimate", 2),
    (_stochastic_with({"kind": "tensor-embed", "left": 2, "right": 1,
                       "inner": {"kind": "dense", "matrix": _HALVES, "law": "optimal"}}),
     "exact", 2),
    (_stochastic_with({"kind": "pauli", "letters": "XI"},
                      {"kind": "density", "matrix": np.eye(4).tolist()}), "exact", 2),
    # a factor without weight has no finite mana
    (_stochastic_with({"kind": "scaled", "scale": 0, "inner": {"kind": "pauli",
                                                               "letters": "XI"}}),
     "estimate", 3),
], ids=["haar", "optimal", "embedded-optimal", "density", "scaled-zero"])
def test_stochastic_refusals(capsys, tmp_path, doc, command, want):
    code, out, err = run_cli(capsys, command, write(tmp_path, doc))
    assert (code, out) == (want, "")
    assert err.startswith("pathmc: ")


def test_dense_cap_is_checked_before_densifying(capsys, tmp_path):
    # each component of either file has a closed form, but its dense matrix
    # has millions of entries
    circuit = {"schema_version": 1, "n_levels": 4096, "p": 2,
               "state": {"kind": "basis", "index": 0},
               "operators": [{"kind": "hadamard", "qubits": 12}],
               "measurement": {"kind": "pauli", "letters": "Z" * 12}}
    chain = {"schema_version": 1, "n_levels": 2048, "p": "inf",
             "state": {"kind": "vector", "amplitudes": [1.0] + [0.0] * 2047},
             "operators": [{"kind": "hadamard", "qubits": 11}],
             "measurement": {"kind": "vector", "amplitudes": [1.0] * 2048}}
    for doc in (circuit, chain):
        path = write(tmp_path, doc)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "exact", path)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (3, "")
        assert f"dimension {doc['n_levels']} above the dense cap of 1024" in err


def test_stochastic_imax_uses_closed_forms_above_the_dense_cap(capsys, tmp_path):
    # |A| of each structured kind other than Haar has equal row and column
    # sums, so its closed form holds at q = 1 and nothing is densified; Haar
    # exists at (2, 2) alone, where its closed form is the 2-norm
    chain = {"schema_version": 1, "n_levels": 2048, "p": "inf",
             "state": {"kind": "vector", "amplitudes": [1.0] + [0.0] * 2047},
             "operators": [{"kind": "hadamard", "qubits": 11},
                           {"kind": "permutation", "perm": list(range(1, 2048)) + [0]}],
             "measurement": {"kind": "vector", "amplitudes": [1.0] * 2048}}
    code, out, err = run_cli(capsys, "imax", write(tmp_path, chain))
    assert (code, err) == (0, "")
    assert json.loads(out)["operators"] == [45.254833995939045, 1.0]


def test_flag_values_non_finite_exit_two_out_of_domain_exit_three(capsys):
    for argv in (["estimate", BELL, "--epsilon", "nan"],
                 ["estimate", BELL, "--epsilon", "inf"],
                 ["estimate", BELL, "--delta", "nan"],
                 ["samples", "--epsilon", "0.1", "--delta", "0.1", "--bound", "nan"],
                 ["samples", "--epsilon=-inf", "--delta", "0.1", "--bound", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "expected a finite number" in capsys.readouterr().err
    for argv in (["estimate", BELL, "--epsilon", "0"],
                 ["estimate", BELL, "--epsilon=-0.1"],
                 ["estimate", BELL, "--delta", "4"],
                 ["estimate", BELL, "--delta", "0"],
                 ["estimate", BELL, "--workers", "0"],
                 ["samples", "--epsilon", "0.1", "--delta", "0.1", "--bound", "-1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("pathmc: ")


def test_path_count_cap_refuses_before_sampling(capsys, tmp_path):
    # b is about 8.5e37, so K is about 1.3e53
    doc = _circuit({"kind": "vector", "amplitudes": [-2 ** 63, 0]}, [], _Z)
    path = write(tmp_path, doc)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "estimate", path, "--epsilon", "1e12")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert "K = 1268" in err and "above the path-count cap of 1000000000" in err


def test_thirty_qubit_grover_estimates_in_constant_memory(tmp_path):
    # the identity inside the reflection is a fixed map, not a list of 2**30
    # indices; a 1 GiB address space turns an O(N) list into a failure
    doc = {"schema_version": 1, "n_levels": 1 << 30, "p": 2,
           "state": {"kind": "basis", "index": 5},
           "operators": [{"kind": "grover", "qubits": 30}],
           "measurement": {"kind": "pauli", "letters": "Z" * 30}}
    out = run_capped([sys.executable, "-m", "pathmc", "estimate", write(tmp_path, doc),
                      "--epsilon", "0.5", "--delta", "0.1"], 1024)
    assert out.returncode == 0, out.stderr[-2000:]
    report = json.loads(out.stdout)
    assert report["b"] == 9.0
    # <5| G Z G |5> with G = 1 - 2|u><u| is 1 up to terms of order 2**-30
    assert abs(report["estimate_re"] - 1.0) <= 0.5


def test_running_out_of_memory_exits_three(tmp_path):
    # the 40-qubit Fourier transform's O(N) root table cannot be allocated
    # under a 1 GiB address space: one pathmc line and exit 3, not a traceback
    doc = {"schema_version": 1, "n_levels": 1 << 40, "p": 2,
           "state": {"kind": "uniform"}, "operators": [{"kind": "fourier", "qubits": 40}],
           "measurement": {"kind": "pauli", "letters": "Z" * 40}}
    path = write(tmp_path, doc)
    for command in ("exact", "estimate"):
        out = run_capped([sys.executable, "-m", "pathmc", command, path], 1024)
        assert (out.returncode, out.stdout) == (3, ""), out.stderr[-2000:]
        assert out.stderr == "pathmc: the computation ran out of memory\n"


def test_forty_qubit_uniform_state_estimates_in_constant_memory(tmp_path):
    # the uniform state holds its angle as a closed form, not a list of 2**40
    # zeros; a 1 GiB address space turns an O(N) list into a failure
    doc = {"schema_version": 1, "n_levels": 1 << 40, "p": 2,
           "state": {"kind": "uniform"}, "operators": [{"kind": "pauli", "letters": "XY" * 20}],
           "measurement": {"kind": "pauli", "letters": "Z" * 40}}
    path = write(tmp_path, doc)
    out = run_capped([sys.executable, "-m", "pathmc", "estimate", path,
                      "--epsilon", "0.5", "--delta", "0.1"], 1024)
    assert out.returncode == 0, out.stderr[-2000:]
    report = json.loads(out.stdout)
    assert (report["K"], report["b"]) == (60, 1.0)
    # the Pauli string maps Z^40 to +-Z^40, whose uniform-state mean is 0
    assert abs(report["estimate_re"]) <= 0.5
    out = run_capped([sys.executable, "-m", "pathmc", "exact", path], 1024)
    assert (out.returncode, out.stdout) == (3, ""), out.stderr[-2000:]
    assert f"dimension {1 << 40} above the dense cap of 1024" in out.stderr


def test_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(MARKOV).read_text()))
    code, out, _ = run_cli(capsys, "exact", "-")
    assert code == 0
    assert "expectation" in json.loads(out)


def write(tmp_path, doc):
    target = tmp_path / "circuit.json"
    target.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(target)


def valid_doc():
    return {
        "schema_version": 1,
        "n_levels": 2,
        "p": 2,
        "state": {"kind": "basis", "index": 0},
        "operators": [{"kind": "hadamard", "qubits": 1}],
        "measurement": {"kind": "pauli", "letters": "Z"},
    }


def test_schema_rejections(capsys, tmp_path):
    broken = []

    doc = valid_doc()
    doc["schema_version"] = 2
    broken.append((doc, "schema_version"))

    doc = valid_doc()
    del doc["measurement"]
    broken.append((doc, "missing required key"))

    doc = valid_doc()
    doc["stray"] = True
    broken.append((doc, "unknown keys"))

    doc = valid_doc()
    doc["operators"] = [{"kind": "hadamard", "qubits": 2}]
    broken.append((doc, "2x2"))

    doc = valid_doc()
    doc["state"] = {"kind": "basis", "index": True}
    broken.append((doc, "integer"))

    doc = valid_doc()
    doc["state"] = {"kind": "vector", "amplitudes": [1.0, "x"]}
    broken.append((doc, "number"))

    doc = valid_doc()
    doc["p"] = 0.5
    broken.append((doc, "p must be at least 1"))

    doc = valid_doc()
    doc["operators"] = [{"kind": "permutation", "perm": [0, 0]}]
    broken.append((doc, "invalid component"))

    doc = valid_doc()
    doc["state"] = {"kind": "density", "matrix": [[1, 0], [0, 0]], "path": "x.npy"}
    broken.append((doc, "unknown keys"))

    doc = valid_doc()
    doc["measurement"] = {"kind": "vector", "amplitudes": [1, 0]}
    broken.append((doc, "inf"))

    for doc, needle in broken:
        code, out, err = run_cli(capsys, "exact", write(tmp_path, doc))
        assert code == 2, f"expected rejection for {needle!r}"
        assert needle in err

    code, _, err = run_cli(capsys, "exact", write(tmp_path, "{not json"))
    assert code == 2
    assert "JSON" in err

    code, _, err = run_cli(capsys, "exact", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err

    code, _, err = run_cli(capsys, "exact", str(FIXTURES / "bad_unknown_kind.json"))
    assert code == 2
    assert "teleport" in err


def test_runtime_refusals_exit_three(capsys, tmp_path):
    # a long chain of heavily negative maps blows the sampling budget
    hot = {
        "schema_version": 1,
        "n_levels": 2,
        "p": "inf",
        "state": {"kind": "vector", "amplitudes": [0.5, 0.5]},
        "operators": [
            {"kind": "dense", "matrix": [[3.0, -2.0], [-2.0, 3.0]]}
        ] * 9,
        "measurement": {"kind": "vector", "amplitudes": [1.0, 1.0]},
    }
    code, _, err = run_cli(capsys, "estimate", write(tmp_path, hot))
    assert code == 3
    assert "cap" in err

    # a hermitian unit-trace matrix that no density operator matches is
    # only caught when sampling touches the bad entry
    fake = {
        "schema_version": 1,
        "n_levels": 2,
        "p": 2,
        "state": {"kind": "density", "matrix": [[0.5, 0.9], [0.9, 0.5]]},
        "operators": [{"kind": "hadamard", "qubits": 1}],
        "measurement": {"kind": "pauli", "letters": "Z"},
    }
    code, _, err = run_cli(capsys, "estimate", write(tmp_path, fake),
                           "--epsilon", "0.5", "--delta", "0.5")
    assert code == 3
    assert "positivity" in err


def test_exact_exponential_of_dense(capsys, tmp_path):
    h = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.25], [0.0, 0.25, 0.5]])
    doc = {
        "schema_version": 1,
        "n_levels": 3,
        "p": 2,
        "state": {"kind": "basis", "index": 0},
        "operators": [{
            "kind": "exp",
            "inner": {"kind": "scaled", "scale": [0.0, -1.0],
                      "inner": {"kind": "dense", "matrix": h.tolist()}},
        }],
        "measurement": {"kind": "diagonal", "values": [1.0, -1.0, 1.0]},
    }
    code, out, _ = run_cli(capsys, "exact", write(tmp_path, doc))
    assert code == 0
    u = expm(-1j * h)
    want = (u.conj().T @ np.diag([1.0, -1.0, 1.0]) @ u)[0, 0]
    got = json.loads(out)["expectation"]
    assert complex(*got) == pytest.approx(want, abs=1e-12)


def test_non_finite_product_factor_exits_two(capsys, tmp_path):
    doc = {
        "schema_version": 1,
        "n_levels": 4,
        "p": 2,
        "state": {"kind": "product", "factors": [[math.nan, 1.0], [1.0, 0.0]]},
        "operators": [],
        "measurement": {"kind": "pauli", "letters": "ZZ"},
    }
    code, _, err = run_cli(capsys, "estimate", write(tmp_path, doc))
    assert code == 2
    assert "non-finite" in err


def _three_level_unitary():
    gen = np.random.default_rng(3)
    q, _ = np.linalg.qr(gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)))
    return q


def _cmat(a):
    return [[[z.real, z.imag] for z in row] for row in a]


@pytest.mark.parametrize("kind", ["optimal", "rowcol", "sparse"])
def test_dense_and_sparse_unitaries_away_from_the_balanced_pair(capsys, tmp_path, kind):
    u = _three_level_unitary()
    if kind == "sparse":
        spec = {"kind": "sparse", "rows": 3, "cols": 3,
                "triplets": [[m, n, [u[m, n].real, u[m, n].imag]]
                             for m in range(3) for n in range(3)]}
    else:
        spec = {"kind": "dense", "law": kind, "matrix": _cmat(u)}
    doc = {
        "schema_version": 1,
        "n_levels": 3,
        "p": 3,
        "state": {"kind": "vector", "amplitudes": [0.6, [0.0, 0.8], 0.0]},
        "operators": [spec],
        "measurement": {"kind": "diagonal", "values": [1.0, -1.0, 1.0]},
    }
    path = write(tmp_path, doc)
    code, out, err = run_cli(capsys, "estimate", path, "--epsilon", "0.2",
                             "--delta", "0.01", "--seed", "4")
    assert code == 0, err
    report = json.loads(out)
    code, out, _ = run_cli(capsys, "exact", path)
    assert code == 0
    exact = complex(*json.loads(out)["expectation"])
    assert abs(complex(report["estimate_re"], report["estimate_im"]) - exact) <= 0.2
    # b prices the chain actually sampled, U' M U closed by sigma, which
    # away from p = 2 is not the square of U's bound
    circuit = load_file(path)
    ends = circuit.initial.bound * circuit.measurement.bound
    op = circuit.unitaries[0]
    assert report["b"] == pytest.approx(ends * op.bound * op.adjoint().bound, rel=1e-12)
    assert report["b"] != pytest.approx(ends * op.bound ** 2, rel=1e-12)


def test_overflowing_exponentials_exit_with_typed_errors(tmp_path):
    # exp(800) overflows when the file loads (exit 2); exp(200) loads, but
    # its b**2 overflows the path count when the run starts (exit 3). Each
    # runs in a subprocess with a timeout, so a hang fails instead of stalling.
    for scale, want in ((800.0, 2), (200.0, 3)):
        doc = {
            "schema_version": 1,
            "n_levels": 2,
            "p": 2,
            "state": {"kind": "basis", "index": 0},
            "operators": [{"kind": "exp", "inner": {
                "kind": "scaled", "scale": scale,
                "inner": {"kind": "permutation", "perm": [0, 1]}}}],
            "measurement": {"kind": "pauli", "letters": "Z"},
        }
        out = subprocess.run(
            [sys.executable, "-m", "pathmc", "estimate", write(tmp_path, doc)],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == want, out.stderr
        assert "Traceback" not in out.stderr
        assert "overflows" in out.stderr


def test_large_exponential_rates_estimate(tmp_path):
    # exp(150 X) used to overflow rate**length once the run started; the
    # subprocess timeout turns a hang into a failure
    doc = {
        "schema_version": 1,
        "n_levels": 2,
        "p": 2,
        "state": {"kind": "basis", "index": 0},
        "operators": [{"kind": "exp", "inner": {
            "kind": "scaled", "scale": 150,
            "inner": {"kind": "permutation", "perm": [1, 0]}}}],
        "measurement": {"kind": "pauli", "letters": "Z"},
    }
    out = subprocess.run(
        [sys.executable, "-m", "pathmc", "estimate", write(tmp_path, doc),
         "--epsilon", "1e200"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert math.isfinite(report["estimate_re"]) and math.isfinite(report["estimate_im"])


def test_exact_densifies_each_component_once(capsys, monkeypatch):
    circuit = load_file(GROVER)
    components = [circuit.initial, circuit.measurement, *circuit.unitaries]
    calls = []
    for c in components:
        c.dense = lambda dense=c.dense, c=c: calls.append(c) or dense()
    monkeypatch.setattr(cli, "load_file", lambda path: circuit)
    code, out, _ = run_cli(capsys, "exact", GROVER)
    assert code == 0
    assert json.loads(out)["expectation"][0] == pytest.approx(1.0)
    assert sorted(map(id, calls)) == sorted(map(id, components))


def test_argparse_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_module_entrypoint_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "pathmc", "samples", "--epsilon", "0.05",
         "--delta", "0.01", "--bound", "1"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "9587"


def _circuit(state, operators, measurement, p=2):
    return {"schema_version": 1, "n_levels": 2, "p": p, "state": state,
            "operators": operators, "measurement": measurement}


def _chain(matrix, initial=(1.0, 0.0)):
    return {"schema_version": 1, "n_levels": 2, "p": "inf",
            "state": {"kind": "vector", "amplitudes": list(initial)},
            "operators": [{"kind": "dense", "matrix": matrix}],
            "measurement": {"kind": "vector", "amplitudes": [1.0, 1.0]}}


_BASIS = {"kind": "basis", "index": 0}
_Z = {"kind": "pauli", "letters": "Z"}

NON_FINITE_INPUTS = {
    "diagonal": _circuit(_BASIS, [{"kind": "diagonal", "values": [math.nan, 1.0]}], _Z),
    "phase": _circuit({"kind": "phase", "thetas": [math.nan, 0.0]}, [], _Z),
    "permutation": _circuit(_BASIS, [{"kind": "permutation", "perm": [1, 0],
                                      "phases": [math.nan, 1.0]}], _Z),
    "p": _circuit(_BASIS, [], _Z, p=math.nan),
    "p-infinity": _circuit(_BASIS, [], _Z, p=math.inf),
    "scaled": _circuit(_BASIS, [{"kind": "scaled", "scale": [0.0, math.nan], "inner": _Z}], _Z),
    "sum": _circuit(_BASIS, [{"kind": "sum", "terms": [_Z], "scales": [math.nan]}], _Z),
    "sum-weights": _circuit(_BASIS, [{"kind": "sum", "terms": [_Z], "weights": [math.inf]}], _Z),
    "chain-matrix": _chain([[math.nan, 0.5], [0.5, 0.5]]),
    "chain-vector": _chain([[0.5, 0.5], [0.5, 0.5]], initial=(math.inf, 0.0)),
    "huge-integer": _circuit(_BASIS, [{"kind": "diagonal", "values": [10 ** 400, 1.0]}], _Z),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
@pytest.mark.parametrize("command", ["estimate", "exact", "imax"])
def test_non_finite_input_exits_two(capsys, tmp_path, name, command):
    code, out, err = run_cli(capsys, command, write(tmp_path, NON_FINITE_INPUTS[name]))
    assert (code, out) == (2, "")
    assert "non-finite" in err or "outside the float range" in err


@pytest.mark.parametrize("command", ["exact", "imax"])
def test_non_finite_result_exits_three(capsys, tmp_path, command):
    # each column sums to -2e308, which overflows
    doc = _chain([[-1e308, 0.5], [-1e308, 0.5]])
    code, out, err = run_cli(capsys, command, write(tmp_path, doc))
    assert (code, out) == (3, "")
    assert "not finite" in err


def _extreme_dense(p, law="optimal"):
    # the norming vectors of this |A| underflow at p = 1.001 and overflow
    # at p = 10**6
    op = {"kind": "dense", "law": law,
          "matrix": [[1, 2, 0, 0], [0, 1, 0, 3], [1, 0, 1, 0], [0, 0, 2, 1]]}
    return {"schema_version": 1, "n_levels": 4, "p": p, "state": _BASIS,
            "operators": [op], "measurement": {"kind": "pauli", "letters": "ZZ"}}


@pytest.mark.parametrize("p", [1.001, 1000000])
def test_extreme_exponents_refuse_the_norming_vectors(capsys, tmp_path, p):
    # the optimal law builds from the vectors, so its file is refused at load
    path = write(tmp_path, _extreme_dense(p))
    for command in ("estimate", "exact", "imax"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, ""), command
        assert "not finite and strictly positive" in err
    # the row/column law estimates; only its dense capacity needs the vectors,
    # where it used to print 0.0 at p = 1.001
    path = write(tmp_path, _extreme_dense(p, "rowcol"))
    code, out, err = run_cli(capsys, "imax", path)
    assert (code, out) == (3, "")
    assert "not finite and strictly positive" in err
    assert run_cli(capsys, "estimate", path, "--epsilon", "1")[0] == 0


def _wide(bits, measurement):
    # a uniform state on 2**bits levels measured by one structured operator
    return {"schema_version": 1, "n_levels": 1 << bits, "p": 2,
            "state": {"kind": "uniform"}, "operators": [], "measurement": measurement}


_WIDE_MEASUREMENTS = {
    "uniform": lambda n: {"kind": "pauli", "letters": "Z" * n},
    "hadamard": lambda n: {"kind": "hadamard", "qubits": n},
    "grover": lambda n: {"kind": "grover", "qubits": n},
    "haar": lambda n: {"kind": "haar", "bits": n},
}


@pytest.mark.parametrize("kind", sorted(_WIDE_MEASUREMENTS))
def test_level_count_beyond_the_float_range_exits_two(capsys, tmp_path, kind):
    bits = 1500 if kind == "haar" else 1100
    path = write(tmp_path, _wide(bits, _WIDE_MEASUREMENTS[kind](bits)))
    for command in ("estimate", "exact", "imax"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, ""), command
        assert err == "pathmc: $.n_levels: integer outside the float range\n"
    # 2**1023 levels are still a float: the closed forms run, the dense
    # reference is refused at its cap
    path = write(tmp_path, _wide(1023, _WIDE_MEASUREMENTS[kind](1023)))
    assert run_cli(capsys, "estimate", path, "--epsilon", "1e300")[0] == 0
    assert run_cli(capsys, "imax", path)[0] == 0
    code, out, err = run_cli(capsys, "exact", path)
    assert (code, out) == (3, "") and "above the dense cap" in err


def _nested_scaled(depth):
    # written as text: the encoder would recurse once per level
    spec = '{"kind": "scaled", "scale": 1.0, "inner": ' * depth \
        + '{"kind": "pauli", "letters": "X"}' + "}" * depth
    return json.dumps(_circuit(_BASIS, ["OP"], _Z)).replace('"OP"', spec)


def test_deep_nesting_exits_two(capsys, tmp_path):
    # past the decoder's recursion limit
    path = write(tmp_path, "[" * 100_000)
    for command in ("estimate", "exact", "imax"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, "") and err.startswith("pathmc: ")
        assert "nests too deeply" in err
    # decodable from a fresh interpreter, but deeper than the loader's
    # operator nesting limit
    path = write(tmp_path, _nested_scaled(985))
    at = "$.operators[0]" + ".inner" * (cli._MAX_NESTING + 1)
    for command in ("estimate", "exact", "imax"):
        done = subprocess.run([sys.executable, "-m", "pathmc", command, path],
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr[-2000:]
        assert done.stderr == \
            f"pathmc: {at}: operators nest more than {cli._MAX_NESTING} levels deep\n"
    code, out, _ = run_cli(capsys, "estimate", write(tmp_path, _nested_scaled(20)),
                           "--epsilon", "0.2")
    assert code == 0
    assert abs(json.loads(out)["estimate_re"] + 1.0) <= 0.2


_ESTIMATE_STREAMS = """
import json, sys
from pathmc.cli import load_file
from pathmc.engine import estimate_expectation
r = estimate_expectation(load_file(sys.argv[1]), 0.05, 0.05, seed=4, workers=int(sys.argv[2]))
print(json.dumps([r.estimate.real, r.estimate.imag, r.k, r.empirical_std]))
"""


def test_workers_above_k_run_k_streams():
    # streams past the K-th draw no path, so 10**12 requested streams cost
    # what K streams cost and report the same numbers
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))

    def run(workers):
        done = subprocess.run([sys.executable, "-c", _ESTIMATE_STREAMS, BELL, str(workers)],
                              capture_output=True, text=True, timeout=20, env=env)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    many = run(10 ** 12)
    assert many == run(many[2])


_OVERSIZED = {
    "hadamard": {"kind": "hadamard", "qubits": 10 ** 6},
    "haar": {"kind": "haar", "bits": 10 ** 6},
    "fourier": {"kind": "fourier", "qubits": 64},
    "grover": {"kind": "grover", "qubits": 70},
    "projector-family": {"kind": "projector-family", "table": [0], "x_size": 1,
                         "y_size": 10 ** 12},
    "sparse": {"kind": "sparse", "rows": 10 ** 12, "cols": 2, "triplets": []},
    "oracle": {"kind": "oracle", "table": [0], "x_size": 1, "y_size": 3},
    "tensor-embed": {"kind": "tensor-embed", "inner": _Z, "left": 1, "right": 10 ** 12},
}

_RUN_UNDER_LIMIT = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from pathmc.cli import main
codes = {}
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        codes[path] = [main(["exact", path]), err.getvalue()]
print(json.dumps(codes))
"""


def test_oversized_components_exit_two(tmp_path):
    # a component larger than the circuit is refused before anything of its
    # size is built; the address-space limit turns a regression into a
    # MemoryError instead of exhausting the machine
    paths = {}
    for name, spec in _OVERSIZED.items():
        (tmp_path / name).mkdir()
        paths[name] = write(tmp_path / name, _circuit(_BASIS, [spec], _Z))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _RUN_UNDER_LIMIT, *paths.values()],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout)
    for name, path in paths.items():
        code, err = codes[path]
        assert code == 2, (name, err)
        assert "exceed the circuit, which needs 2x2" in err, (name, err)

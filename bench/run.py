"""pathmc benchmark: time to an (epsilon, delta) estimate, paths/s, set-up
time and peak memory, end to end through the calls ``pathmc estimate`` makes.

Run from the repository root:

    python3 bench/run.py --workload haar_sandwich --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

A run repeats whole rounds of its workload's documents (load, estimate,
check) until ``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds are
done. It reports the slowest round's time and rate and the median set-up.
``--trace 1`` alternates untraced and traced rounds, prints the per-layer
metrics and writes them, with span aggregates and the first spans, to
``bench/traces/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 2


@dataclass
class Reference:
    value: complex
    interference: float
    closed_b: float | None      # None where no closed form exists
    mana: list | None           # stochastic mode only


@dataclass
class Round:
    estimate_s: float
    setup_s: float
    sample_s: float
    paths: int
    attempted: int
    failed: int
    wrong: int
    per_doc: list

    @property
    def paths_per_s(self) -> float:
        return self.paths / self.sample_s if self.sample_s else 0.0


def import_pathmc():
    """Import the package from this checkout's ``src``, not an installed copy."""
    src = ROOT / "src"
    if not (src / "pathmc" / "__init__.py").is_file():
        sys.exit(f"bench: no pathmc sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    from pathmc import cli, engine, linalg, operators, sampling, states
    return {"cli": cli, "engine": engine, "linalg": linalg, "operators": operators,
            "sampling": sampling, "states": states}


def compute_reference(doc) -> Reference:
    if reference.is_stochastic(doc):
        value, interference, b, mana = reference.stochastic_reference(doc)
        return Reference(value, interference, b, mana)
    value, interference = reference.circuit_reference(doc)
    b, exact = reference.circuit_bound(doc)
    return Reference(value, interference, b if exact else None, None)


def check(d, ref: Reference, report, mana) -> list:
    """Every property an estimate must have; returns the ones that fail."""
    bad = []
    if report.k != reference.path_count(d.epsilon, d.delta, report.b):
        bad.append(f"K={report.k} does not follow from b={report.b}")
    if ref.closed_b is not None and not math.isclose(report.b, ref.closed_b, rel_tol=1e-9):
        bad.append(f"b={report.b} differs from the closed form {ref.closed_b}")
    if report.b < ref.interference * (1.0 - 1e-9):
        bad.append(f"b={report.b} is below the interference {ref.interference}")
    if not abs(report.estimate - ref.value) <= d.epsilon:
        bad.append(f"estimate {report.estimate} is not within {d.epsilon} of {ref.value}")
    if ref.mana is not None:
        if mana is None or len(mana) != len(ref.mana) or not all(
                math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                for a, b in zip(mana, ref.mana)):
            bad.append(f"mana {mana} differs from {ref.mana}")
    return bad


def run_round(docs, refs, mods) -> Round:
    cli, engine = mods["cli"], mods["engine"]
    clock = time.perf_counter
    setup = sample = 0.0
    paths = failed = wrong = 0
    per_doc = []
    for d, ref in zip(docs, refs):
        try:
            t0 = clock()
            loaded = cli.load_document(d.doc)
            t1 = clock()
            if isinstance(loaded, cli.StochasticFile):
                out = engine.stochastic_mode_estimate(
                    loaded.initial, loaded.mats, loaded.final, d.epsilon, d.delta,
                    seed=d.seed, workers=d.workers)
                report, mana = out.report, out.mana
            else:
                report = engine.estimate_expectation(
                    loaded, d.epsilon, d.delta, seed=d.seed, workers=d.workers)
                mana = None
            t2 = clock()
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        finally:
            loaded = None
            gc.collect()
        bad = check(d, ref, report, mana)
        if bad:
            print(f"bench: {d.label}: " + "; ".join(bad), file=sys.stderr)
            failed += 1
            wrong += 1
        setup += t1 - t0
        sample += t2 - t1
        paths += report.k
        per_doc.append((d.label, report.k, float(report.b), t1 - t0, t2 - t1))
    return Round(setup + sample, setup, sample, paths, len(docs), failed, wrong, per_doc)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs) -> float:
    return statistics.median(xs)


def end_to_end(rounds) -> dict:
    """Times and rates come from the run's slowest round. A shared 2-vCPU
    host can switch every few seconds between two speeds about 1.6x apart
    (seen on haar_sandwich), so a run's median lands on either speed; its
    slowest round lands on the slow one and repeats within a few percent."""
    return {
        "estimate_s": (max(r.estimate_s for r in rounds), "s"),
        "setup_s": (median([r.setup_s for r in rounds]), "s"),
        "paths_per_s": (min(r.paths_per_s for r in rounds), "paths/s"),
        "paths": (median([r.paths for r in rounds]), "paths"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def per_doc_table(rounds) -> list:
    out = []
    for i, (label, k, b, _, _) in enumerate(rounds[0].per_doc):
        out.append({"label": label, "K": k, "b": b,
                    "load_s": median([r.per_doc[i][3] for r in rounds]),
                    "estimate_s": median([r.per_doc[i][4] for r in rounds])})
    return out


def random_draw_ns(sampling) -> float:
    """Cost of one ``RngStream.random()`` call from Python, untraced."""
    draw = sampling.RngStream(0, 0).random
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        draw()
    return (time.perf_counter() - t0) / n * 1e9


def print_metrics(workload, metrics, attempted, failed):
    for name, (value, unit) in metrics.items():
        print(f"{workload:14s} {name:44s} {value:16.6g} {unit}")
    print(f"{workload:14s} estimates attempted {attempted}, failed {failed}")


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(args) -> int:
    mods = import_pathmc()
    docs = workloads.documents(args.workload, args.seed, ROOT)
    refs = [compute_reference(d.doc) for d in docs]
    gc.collect()

    started = time.perf_counter()
    plain, traced, warmup = [], [], []
    tracer = None
    if args.trace:
        tracer = Tracer(mods)
        # The first round in a process pays for first-touch memory; keep it
        # out of the traced-against-untraced comparison.
        warmup.append(run_round(docs, refs, mods))
    while True:
        plain.append(run_round(docs, refs, mods))
        r = plain[-1]
        print(f"bench: round {len(plain)}: estimate {r.estimate_s:.4f} s, set-up "
              f"{r.setup_s:.5f} s, {r.paths_per_s:.0f} paths/s", file=sys.stderr)
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_round(docs, refs, mods))
            finally:
                tracer.uninstall()
        done = len(plain) >= (1 if tracer else MIN_ROUNDS)
        if done and time.perf_counter() - started >= args.seconds:
            break

    rounds = warmup + plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not any(r.wrong for r in rounds)
    if tracer is None:
        metrics = end_to_end(plain)
    else:
        metrics = tracer.metrics(len(traced))
        metrics["sampling.random_ns"] = (random_draw_ns(mods["sampling"]), "ns")
        metrics["trace.span_us"] = (tracer.span_added_s * 1e6, "us")
        untraced_s = median([r.estimate_s for r in plain])
        traced_s = median([r.estimate_s for r in traced])
        metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
        out_dir = BENCH / "traces"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "rounds": {"untraced": len(plain), "traced": len(traced)},
            "estimate_s": {"untraced": untraced_s, "traced": traced_s},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "documents": per_doc_table(plain),
            **tracer.dump(),
        }))
        print(f"{args.workload:14s} trace written to {path.relative_to(ROOT)}")
    print_metrics(args.workload, metrics, attempted, failed)
    print(result_line(correct, attempted, failed, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    summary = {}
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: {w} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[w] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("haar_sandwich", "fourier_wide", "mixed_zoo", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

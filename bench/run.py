"""jordanflow benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The inputs come from ``--seed``.  The workload runs in
its own process (``bench/worker.py``) so its peak RSS and import cost are
its own.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run, and writes its spans and layer table to
``.bench_out/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh-process set-up samples per run, half before and half after the
#: workload process, after one untimed start that fills the bytecode and
#: file caches; setup_s is their median
SETUP_SAMPLES = 4

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import numpy, scipy.linalg, scipy.sparse, scipy.sparse.csgraph
t1 = time.perf_counter()
import jordanflow.cli
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, flush=True)
"""

#: BLAS threads are pinned so that runs on a small shared machine are steady
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: metric names and units, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def setup_sample(env):
    """(wall, deps, own): fresh-process seconds until ``import
    jordanflow.cli`` has returned, and the dependency and jordanflow shares
    measured inside the process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError("set-up probe failed to import jordanflow.cli")
    deps, own = (float(x) for x in line.split())
    return wall, deps, own


def summarize_setup(samples):
    return {
        "setup_s": statistics.median(s[0] for s in samples),
        "deps_import_s": statistics.median(s[1] for s in samples),
        "jordanflow_import_s": statistics.median(s[2] for s in samples),
    }


def run_worker(args, env, workdir, result_path):
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
        str(args.seconds), str(args.trace), str(workdir), str(result_path),
    ]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=args.seconds + 120)
    with open(result_path) as fh:
        return json.load(fh)


def tail(latencies):
    """(value, percentile, samples above it): the highest order statistic with at least ten
    samples above it."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * k / len(xs), len(xs) - 1 - k


def end_to_end(res, setup):
    lat = res["latencies"]
    timed_failures = sum(1 for f in res["failures"] if f["pass"] != "warm-up")
    tail_s, pct, above = tail(lat)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "jobs_per_s": ((len(lat) - timed_failures) / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }
    notes = {
        "job_tail_ms": f"p{pct:.2f} of {len(lat)} timed jobs, {above} above it",
        "failed_frac": f"{len(res['failures']) / res['attempted']:.6g} ratio "
        f"({len(res['failures'])} of {res['attempted']} jobs, warm-up included)",
        "passes": f"{res['passes']} timed passes of {res['jobs_per_pass']} jobs",
    }
    return metrics, notes


def _per_pass(layers, fn):
    return statistics.median(fn(p) for p in layers)


def per_layer(res, setup):
    layers = res["layers"]

    def calls(span):
        return lambda p: p["totals"].get(span, (0, 0.0))[0]

    def self_s(span):
        return lambda p: p["totals"].get(span, (0, 0.0))[1]

    def count(key):
        return lambda p: p["counts"][key]

    def ratio(num, den):
        return lambda p: num(p) / den(p) if den(p) else 0.0

    fns = {
        "matrixcore.schur_calls": count("schur"),
        "matrixcore.schur_per_spectrum": ratio(count("schur"), calls("matrixcore.complex_spectrum")),
        "matrixcore.principal_log.errors": count("principal_log_errors"),
        "flags.components_enumerated": count("components_enumerated"),
        "flags.defects_per_classification": ratio(
            calls("flags.component_defect"), calls("flags.bruhat_cell")
        ),
        "projective.chain_oracle.peak_mb": lambda p: max(p["chain_peaks"], default=0) / 2**20,
        "floquet.coefficient_evals": count("coefficient_evals"),
        "report.bytes": count("report_bytes"),
        "cli.self_s": self_s("cli.main"),
    }
    metrics = {
        "setup.deps_import_s": (setup["deps_import_s"], "s"),
        "setup.jordanflow_import_s": (setup["jordanflow_import_s"], "s"),
    }
    for name, unit in LAYER_UNITS.items():
        if name in metrics or name.startswith("trace."):
            continue
        if name in fns:
            fn = fns[name]
        else:
            span, _, field = name.rpartition(".")
            fn = calls(span) if field == "calls" else self_s(span)
        metrics[name] = (_per_pass(layers, fn), unit)
    untraced = statistics.median(res["pass_walls"])
    overhead = statistics.median(res["traced_pass_walls"]) - untraced
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced, "ratio")
    return metrics


def missing_spans(res, workload):
    """Spans expected on this workload that never fired in a traced pass."""
    return [
        span
        for span, workloads in tracing.EXPECTED.items()
        if workload in workloads
        and not any(span in p["totals"] for p in res["layers"])
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jordanflow" / "cli.py").is_file():
        return fail(f"no jordanflow sources under {ROOT / 'src'}; run from a source checkout")
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_sample(env)
        samples = [setup_sample(env) for _ in range(SETUP_SAMPLES // 2)]
        res = run_worker(args, env, workdir, workdir / "result.json")
        samples += [setup_sample(env) for _ in range(SETUP_SAMPLES - len(samples))]
        setup = summarize_setup(samples)
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            os.replace(workdir / "spans.json", out_dir / f"spans-{stem}.json")
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(f"workload {args.workload} did not complete: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed}: {res['passes']} passes "
          f"of {res['jobs_per_pass']} jobs, closed loop, one client")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in res["machine"].items()))
    for f in res["failures"]:
        print(f"FAILED {f['job']} (pass {f['pass']}, exit {f['exit']}): "
              + "; ".join(f["problems"]))
    if args.trace:
        metrics = per_layer(res, setup)
        with open(out_dir / f"layers-{stem}.json", "w") as fh:
            json.dump({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, fh, indent=1)
        for span in missing_spans(res, args.workload):
            print(f"MISSING SPAN {span}: listed for {args.workload} but never fired")
        print("per layer, per pass of the job list (median over traced passes):")
    else:
        metrics, notes = end_to_end(res, setup)
        for key, text in notes.items():
            print(f"  {key}: {text}")
    for k, (v, u) in metrics.items():
        print(f"  {k:42s} {v:14.6g} {u}")
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in its own process: warm-up pass, then timed passes.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT

Run by ``bench/run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The warm-up pass runs every job once, untimed, checks each output
in full and records its sha256.  Timed passes then sweep the job list in a
closed loop with one client (a job starts when the previous one returned)
until SECONDS of wall time have passed, ending on a pass boundary; every
timed output must reproduce its warm-up bytes exactly.  With TRACE=1,
untraced and traced passes alternate and the traced ones record spans.
The result is written as JSON to RESULT.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import jsonschema
import numpy as np
import scipy

import jobs as jobs_mod
import tracing

from jordanflow import cli
from jordanflow.report import load_schema


def run_job(job):
    """(exit code, output bytes or None, seconds).  The clock covers the CLI
    call or library call only: reading the output and checks are outside."""
    if job.out and os.path.exists(job.out):
        os.remove(job.out)
    t0 = time.perf_counter()
    try:
        if job.call is not None:
            data = job.call()
            code = 0
        else:
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = "exception"
    dt = time.perf_counter() - t0
    if job.call is None:
        data = None
        if code == 0 and os.path.exists(job.out):
            with open(job.out, "rb") as fh:
                data = fh.read()
    return code, data, dt


def full_check(job, code, data):
    """Problems with a warm-up output (empty list when it passes)."""
    if code != 0:
        return [f"exit code {code}"]
    if data is None:
        return ["no output written"]
    try:
        rep = json.loads(data)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if job.schema:
        try:
            jsonschema.validate(rep, load_schema(job.schema))
        except jsonschema.ValidationError as exc:
            return [f"schema: {exc.message}"]
    return job.check(rep, job)


def main(argv):
    workload, seed, seconds, trace, workdir, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    joblist = jobs_mod.build(workload, seed, workdir)

    failures = []
    attempted = 0
    digests = {}
    for job in joblist:
        attempted += 1
        code, data, _ = run_job(job)
        problems = full_check(job, code, data)
        if problems:
            failures.append({"job": job.name, "pass": "warm-up", "exit": code,
                             "problems": problems})
        else:
            digests[job.name] = hashlib.sha256(data).hexdigest()

    tracer = tracing.Tracer() if trace else None
    latencies = []
    pass_walls = {False: [], True: []}
    layer_passes = []
    started = time.perf_counter()
    npass = 0
    while npass < 2 or time.perf_counter() - started < seconds:
        traced = trace and npass % 2 == 1
        if traced:
            tracer.install()
            before = tracer.snapshot()
        pass_wall = 0.0
        for job in joblist:
            attempted += 1
            if tracer is not None:
                tracer.job = f"{npass}:{job.name}"
            code, data, dt = run_job(job)
            pass_wall += dt
            if not traced:
                latencies.append(dt)
            if code != 0:
                problem = f"exit code {code}"
            elif job.name not in digests:
                problem = "its warm-up output failed the checks"
            elif data is None or hashlib.sha256(data).hexdigest() != digests[job.name]:
                problem = "output bytes differ from the warm-up pass"
            else:
                continue
            failures.append({"job": job.name, "pass": npass, "exit": code,
                             "problems": [problem]})
        if traced:
            tracer.uninstall()
            after = tracer.snapshot()
            layer_passes.append((before, after, tracer.layer_totals(before, after)))
        pass_walls[traced].append(pass_wall)
        npass += 1

    result = {
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": len(joblist),
        "passes": npass,
        "attempted": attempted,
        "failures": failures,
        "latencies": latencies,
        "pass_walls": pass_walls[False],
        "traced_pass_walls": pass_walls[True],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if trace:
        result["layers"] = [
            {"counts": {k: after[k] - before[k] for k in after}, "totals": totals,
             "chain_peaks": tracer.chain_peak[before["chain_peak"]:after["chain_peak"]]}
            for before, after, totals in layer_passes
        ]
        tracer.write(os.path.join(workdir, "spans.json"),
                     {"workload": workload, "seed": seed})
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

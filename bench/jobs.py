"""Seeded job lists for the benchmark workloads, and their output checks.

A job is one CLI invocation (``jordanflow.cli.main(argv)``) on input files
written here, or, in the ``spectral`` group, one library Lyapunov sweep.
Jobs come in four groups (spectral, census, chain-oracle, floquet); a
workload runs two of them.  ``build(workload, seed, workdir)`` returns the
same jobs, with byte-identical input files, for the same seed.  Each group
has a fixed shape (families, n, flag signatures, resolutions, steps, K),
listed in the README; the seed draws the matrix entries and coefficients.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# ---------------------------------------------------------------------------
# generator parameters
# ---------------------------------------------------------------------------

SPECTRAL_N = (3, 6, 9, 12)
SPECTRAL_DRAWS = 2
LYAPUNOV_TIMES = np.arange(2.0, 21.0, 2.0)
CHAIN_EPS = 0.05

# ---------------------------------------------------------------------------
# output checks (criteria bars from the acceptance suite)
# ---------------------------------------------------------------------------

AGREEMENT_BAR = 0.95  # criterion 8
GENERATOR_BAR = 1e-9  # criterion 9
RECONSTRUCTION_BAR = 1e-6  # criterion 9
LYAPUNOV_SLACK = 1e-12  # criterion 10


@dataclass
class Job:
    """One unit of work.  ``argv`` runs through the CLI; ``call`` is a
    library job returning the bytes it produced.  ``check`` maps the parsed
    report to a list of problems; ``schema`` names the report's schema."""

    name: str
    argv: list = None
    out: str = None
    call: object = None
    schema: str = None
    check: object = None
    expect: dict = field(default_factory=dict)


def check_analyze(rep, job):
    problems = []
    total = job.expect["manifold_dim"]
    comps = rep["components"]
    for c in comps:
        if c["dim"] + c["n_w"] + c["stable_dim"] != total:
            problems.append(f"component {c['index']} dimensions do not sum to {total}")
    if sum(c["attractor"] for c in comps) != 1:
        problems.append("not exactly one attractor")
    if sum(c["repeller"] for c in comps) != 1:
        problems.append("not exactly one repeller")
    k = job.expect.get("simulate")
    if k:
        sim = rep["simulation"]
        if sim["forward_matches"] != k or sim["reverse_matches"] != k:
            problems.append(
                f"simulation matched {sim['forward_matches']}/{k} forward, "
                f"{sim['reverse_matches']}/{k} reverse"
            )
    return problems


def check_chain(rep, job):
    if rep["agreement"] < AGREEMENT_BAR:
        return [f"agreement {rep['agreement']} below {AGREEMENT_BAR}"]
    return []


def check_floquet(rep, job):
    res = rep["residuals"]
    problems = []
    if res["generator"] > GENERATOR_BAR:
        problems.append(f"generator residual {res['generator']:.3e}")
    if res["reconstruction"] > RECONSTRUCTION_BAR:
        problems.append(f"reconstruction residual {res['reconstruction']:.3e}")
    if job.expect.get("m") and rep["m"] != job.expect["m"]:
        problems.append(f"m = {rep['m']}, expected {job.expect['m']}")
    return problems


def check_lyapunov(rep, job):
    vals = rep["values"]
    return [
        f"Lyapunov value rose by {b - a:.3e} at sample {k + 1}"
        for k, (a, b) in enumerate(zip(vals, vals[1:]))
        if b - a > LYAPUNOV_SLACK
    ]


def check_none(rep, job):
    return []


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def _rows(m):
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _rates(mat, discrete):
    ev = np.linalg.eigvals(mat)
    rates = np.log(np.abs(ev)) if discrete else ev.real
    return np.sort(rates)[::-1]


def rate_gap(mat, discrete, cluster_tol=1e-8):
    """Smallest gap between adjacent distinct rates (None for one rate).
    Rates within the CLI's relative cluster tolerance count as one."""
    r = _rates(mat, discrete)
    gaps = [
        a - b
        for a, b in zip(r, r[1:])
        if a - b >= cluster_tol * max(1.0, abs(a), abs(b))
    ]
    return min(gaps) if gaps else None


def horizon_for(mat, discrete):
    """max(25, 30 / smallest adjacent rate gap), from the input's eigenvalues
    as a user would compute it.  At the CLI's fixed default of 25, inputs
    with close rates exit 4: the subdominant direction has not decayed below
    sim_tol by t = 25."""
    gap = rate_gap(mat, discrete)
    return 25.0 if gap is None else float(max(25.0, 30.0 / gap))


def _traceless(rng, n):
    m = rng.normal(size=(n, n))
    return m - np.trace(m) / n * np.eye(n)


def _spectral_matrix(rng, n, discrete):
    """Random matrix with a controlled spectrum: n // 3 rotation pairs and
    real eigenvalues at distinct rates, so that cluster count and rate gaps
    (hence the analyze horizon) have the same shape for every seed."""
    pairs = n // 3
    k = n - pairs  # distinct rates
    rates = 0.4 * np.arange(k, 0, -1, dtype=float) + rng.uniform(-0.1, 0.1, k)
    order = rng.permutation(k)
    mult = np.where(order < pairs, 2, 1)
    rates -= np.dot(mult, rates) / n
    d = np.zeros((n, n))
    i = 0
    for r, m in zip(rates, mult):
        if m == 2:
            w = rng.uniform(0.5, 2.0)
            d[i:i + 2, i:i + 2] = [[r, -w], [w, r]]
        else:
            d[i, i] = r
        i += m
    if discrete:
        d = scipy.linalg.expm(d)
        reals = [j for j in range(n) if np.count_nonzero(d[j]) == 1]
        for j in reals[: 2 if len(reals) >= 2 else 0]:
            d[j, j] = -d[j, j]
    c = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    return c @ d @ np.linalg.inv(c)


def _jittered_rates(rng, n, spacing=0.5, jitter=0.2):
    r = spacing * np.arange(n, 0, -1, dtype=float)
    r += rng.uniform(-jitter, jitter, n)
    r = np.sort(r)[::-1]
    return r - r.mean()


def _manifold_dim(n, dims):
    inc = np.diff([0, *dims, n])
    return int(sum(inc[i] * inc[j] for i in range(len(inc)) for j in range(i + 1, len(inc))))


def _flag_text(dims):
    return ",".join(str(d) for d in dims)


def _analyze(name, path, out, mat, dims, simulate=0, discrete=False):
    n = len(mat)
    argv = ["analyze", path, "--flag", _flag_text(dims), "-o", out]
    if discrete:
        argv += ["--time", "discrete"]
    if simulate:
        argv += ["--simulate", str(simulate), "--horizon", repr(horizon_for(mat, discrete))]
    return Job(
        name=name,
        argv=argv,
        out=out,
        schema="analyze",
        check=check_analyze,
        expect={"manifold_dim": _manifold_dim(n, dims), "simulate": simulate},
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _lyapunov_job(name, mat, flag, ts):
    """simulate_flag along ts, then height_lyapunov at every sample, as in
    acceptance criterion 10.  Library functions are looked up at call time
    so that the tracer's wrappers see the calls."""

    def call():
        import jordanflow.flags as fl
        import jordanflow.jordan as jd
        from jordanflow.report import dumps_canonical

        dec = jd.additive_jordan(mat)
        traj = [flag] + fl.simulate_flag(dec, flag, ts)
        values = [fl.height_lyapunov(g, dec.H) for g in traj]
        return dumps_canonical({"values": values}).encode()

    return Job(name=name, call=call, check=check_lyapunov)


def _spectral(rng, d):
    from jordanflow.flags import random_flag

    jobs = []
    for n in SPECTRAL_N:
        for i in range(SPECTRAL_DRAWS):
            x = _spectral_matrix(rng, n, False)
            g = _spectral_matrix(rng, n, True)
            px = _write(os.path.join(d, f"x{n}-{i}.json"), {"n": n, "rows": _rows(x)})
            pg = _write(os.path.join(d, f"g{n}-{i}.json"), {"n": n, "rows": _rows(g)})
            o = os.path.join(d, f"out{n}-{i}")
            tag = f"n{n}-{i}"
            jobs.append(Job(f"decompose-{tag}", ["decompose", px, "-o", o + "a.json"],
                            o + "a.json", schema="decompose", check=check_none))
            jobs.append(Job(f"decompose-discrete-{tag}",
                            ["decompose", pg, "--time", "discrete", "-o", o + "b.json"],
                            o + "b.json", schema="decompose", check=check_none))
            jobs.append(_analyze(f"analyze-{tag}", px, o + "c.json", x, (1,), simulate=4))
            jobs.append(_analyze(f"analyze-discrete-{tag}", pg, o + "d.json", g, (1,),
                                 simulate=4, discrete=True))
        for i in range(SPECTRAL_DRAWS):
            rates = 0.3 * np.arange(n, 0, -1) + rng.uniform(0.0, 0.1, n)
            rates -= rates.mean()
            c = np.eye(n) + 0.3 * rng.normal(size=(n, n))
            real = c @ np.diag(rates) @ np.linalg.inv(c)
            jobs.append(_lyapunov_job(f"lyapunov-n{n}-{i}", real,
                                      random_flag(n, (1, 2), rng), LYAPUNOV_TIMES))
    return jobs


def _census(rng, d):
    jobs = []

    def diag(name, rates, dims, simulate=0, nil=False):
        mat = np.diag(rates)
        if nil:
            mat[0, 1] = 1.0
        path = _write(os.path.join(d, f"{name}.json"), {"n": len(rates), "rows": _rows(mat)})
        jobs.append(_analyze(name, path, os.path.join(d, f"{name}.out.json"),
                             mat, dims, simulate=simulate))

    diag("full-n6", _jittered_rates(rng, 6), (1, 2, 3, 4, 5))
    diag("full-n7", _jittered_rates(rng, 7), (1, 2, 3, 4, 5, 6))
    diag("flag24-n6-sim4", _jittered_rates(rng, 6), (2, 4), simulate=4)
    diag("grass6-n12-sim2-a", _jittered_rates(rng, 12), (6,), simulate=2)
    diag("grass6-n12-sim2-b", _jittered_rates(rng, 12), (6,), simulate=2)
    diag("grass4-n8-sim2", _jittered_rates(rng, 8), (4,), simulate=2)
    diag("full-n5-sim4", _jittered_rates(rng, 5), (1, 2, 3, 4), simulate=4)
    rep = np.repeat(_jittered_rates(rng, 3, spacing=1.5, jitter=0.4), 2)
    diag("repeated-n6-sim4", rep, (1, 2, 3, 4, 5), simulate=4)
    top = _jittered_rates(rng, 4)
    diag("jordan-n5-sim4", np.concatenate([[top[0]], top]) - top[0] / 5,
         (1, 2, 3), simulate=4, nil=True)
    return jobs


def _x1(a, b):
    return np.diag([-a, -b, a + b])


def _x4(a, b):
    return np.array([[-a, -b, 0.0], [b, -a, 0.0], [0.0, 0.0, 2 * a]])


def _x5(a):
    return np.array([[-a, 1.0, 0.0], [0.0, -a, 0.0], [0.0, 0.0, 2 * a]])


def _chain(rng, d):
    u = rng.uniform
    systems = [
        ("p1-unipotent", [[1.0, u(0.5, 2.0)], [0.0, 1.0]], "discrete", 2000),
        ("p1-hyperbolic", np.diag([lam := u(1.5, 3.0), 1.0 / lam]), "discrete", 2000),
        ("p1-rotation", [[0.0, -(w := u(0.5, 2.0))], [w, 0.0]], "continuous", 2000),
        ("p2-x5", _x5(u(0.7, 1.3)), "continuous", 2000),
        ("p2-x1", _x1(u(0.7, 1.3), u(1.7, 2.3)), "continuous", 2000),
        ("p2-x4", _x4(u(0.7, 1.3), u(1.5, 2.5)), "continuous", 2000),
        ("p2-x5-res3000", _x5(u(0.7, 1.3)), "continuous", 3000),
    ]
    jobs = []
    for name, mat, time, res in systems:
        mat = np.asarray(mat, dtype=float)
        path = _write(os.path.join(d, f"{name}.json"), {"n": len(mat), "rows": _rows(mat)})
        out = os.path.join(d, f"{name}.out.json")
        argv = ["chain-oracle", path, "--time", time, "--resolution", str(res),
                "--eps", str(CHAIN_EPS), "-o", out]
        jobs.append(Job(name, argv, out, schema="chain_oracle", check=check_chain))
    return jobs


def _floquet(rng, d):
    jobs = []

    def coef(name, n, harmonics, steps, a0=None, harm=None, m=None):
        a0 = 0.5 * _traceless(rng, n) if a0 is None else a0
        if harm is None:
            harm = [
                {"k": k, "A": _rows(0.3 * _traceless(rng, n)),
                 "B": _rows(0.3 * _traceless(rng, n))}
                for k in range(1, harmonics + 1)
            ]
        path = _write(os.path.join(d, f"{name}.json"),
                      {"T": 1.0, "A0": _rows(a0), "harmonics": harm})
        out = os.path.join(d, f"{name}.out.json")
        flag = "1" if n == 2 else "1,2"
        argv = ["floquet", path, "--steps", str(steps), "--flag", flag, "-o", out]
        jobs.append(Job(name, argv, out, schema="floquet", check=check_floquet,
                        expect={"m": m}))

    def rotation_by_pi(n):
        # X(t) = (1 + c cos 2 pi t) X0 commutes with itself, so the monodromy
        # is exp(X0): a rotation by pi in the first plane
        x0 = np.zeros((n, n))
        x0[0, 1], x0[1, 0] = -math.pi, math.pi
        if n == 3:
            a = rng.uniform(0.2, 0.6)
            x0 += np.diag([-a, -a, 2 * a])
        c = rng.uniform(0.2, 0.6)
        return x0, [{"k": 1, "A": _rows(c * x0), "B": _rows(np.zeros((n, n)))}]

    coef("n2-h0-s1024", 2, 0, 1024)
    coef("n2-h1-s2048", 2, 1, 2048)
    x0, harm = rotation_by_pi(2)
    coef("n2-rotpi-s2048", 2, 1, 2048, a0=x0, harm=harm, m=2)
    coef("n3-h0-s1024", 3, 0, 1024)
    coef("n3-h2-s2048", 3, 2, 2048)
    coef("n3-h3-s2048", 3, 3, 2048)
    x0, harm = rotation_by_pi(3)
    coef("n3-rotpi-s2048", 3, 1, 2048, a0=x0, harm=harm, m=2)
    coef("n4-h1-s4096", 4, 1, 4096)
    coef("n4-h3-s1024", 4, 3, 1024)
    return jobs


GROUPS = (_spectral, _census, _chain, _floquet)

#: workload -> job groups.  Two workloads rather than four, so that each run
#: is long enough to average over the speed swings of a small shared machine;
#: each group's layers are still measured on one workload, and the other
#: workload bypasses them.
WORKLOADS = {
    "spectral-census": (_spectral, _census),
    "chain-floquet": (_chain, _floquet),
}


def build(workload, seed, workdir):
    """The workload's job list for this seed; inputs are written to workdir.
    Each group draws from its own stream of the seed."""
    return [
        job
        for group in WORKLOADS[workload]
        for job in group(np.random.default_rng([seed, GROUPS.index(group)]), workdir)
    ]

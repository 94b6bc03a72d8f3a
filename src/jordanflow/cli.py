"""Command-line surface: decompose / analyze / chain-oracle / floquet.

Exit codes are part of the contract: 0 success, 2 parse or validation
error, 3 ill-conditioned clustering, 4 simulation contradicts prediction,
5 input exceeds a stated budget (chain grid size, pair count or leg
doublings, Floquet sample memory, simulation substeps or trajectory rows),
6 no real logarithm in the Floquet budget, 1 anything else.  Identical
inputs and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from .errors import (
    GridTooLarge,
    IllConditioned,
    InputError,
    JordanFlowError,
    NoRealLog,
)
from .flags import (
    Flag,
    FlagType,
    bruhat_cell,
    classify_flow,
    flag_recurrent_membership,
    rate_filtration,
    simulation_check,
    stable_set_index,
)
from .floquet import (
    PeriodicCoefficient,
    floquet_data,
    floquet_morse_components,
    integrate_fundamental,
)
from .jordan import additive_jordan, multiplicative_jordan
from .matrixcore import TolerancePolicy
from .projective import (
    SUBSTEP_BUDGET,
    ProjectivePoint,
    chain_oracle,
    simulate_projective,
)
from .report import (
    CONVENTIONS,
    SCHEMA_VERSION,
    components_table,
    dumps_canonical,
    matrix_rows,
    sha256_of,
    spectrum_dict,
    tolerances_dict,
)


class SimulationContradiction(JordanFlowError):
    """Numerical simulation disagreed with the combinatorial prediction."""


#: (error, exit code, stderr label); the first match wins, so every other
#: library error (``RankAmbiguous``, ``StiffnessSuspected``, ...) exits 1
_EXIT_CODES = (
    (InputError, 2, "input error"),
    (IllConditioned, 3, "ill-conditioned"),
    (SimulationContradiction, 4, "simulation contradicts prediction"),
    (GridTooLarge, 5, "input exceeds a stated budget"),
    (NoRealLog, 6, "no real logarithm"),
    (JordanFlowError, 1, "error"),
)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw.decode()), raw
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON input {path}: {exc}") from exc


def _require_number_rows(rows, n, what):
    if (
        not isinstance(rows, list)
        or len(rows) != n
        or any(not isinstance(r, list) or len(r) != n for r in rows)
    ):
        raise InputError(f"{what} must be an {n}x{n} array of numbers")
    for r in rows:
        for x in r:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise InputError(f"{what} entries must be plain numbers, got {x!r}")
    try:
        return np.array(rows, dtype=float)
    except OverflowError as exc:
        raise InputError(f"{what} has an integer entry beyond the float range") from exc


def parse_matrix_input(path):
    doc, raw = _load_json(path)
    if not isinstance(doc, dict) or "n" not in doc or "rows" not in doc:
        raise InputError('matrix input needs {"n": ..., "rows": [[...], ...]}')
    n = doc["n"]
    if not isinstance(n, int) or not 2 <= n <= 12:
        raise InputError(f"matrix dimension n={n!r} outside 2..12")
    mat = _require_number_rows(doc["rows"], n, "rows")
    return mat, {"sha256": sha256_of(raw), "n": n, "rows": matrix_rows(mat)}


def parse_periodic_input(path):
    doc, raw = _load_json(path)
    if not isinstance(doc, dict) or "T" not in doc or "A0" not in doc:
        raise InputError('periodic input needs {"T": ..., "A0": [[...]], "harmonics": [...]}')
    period = doc["T"]
    if (
        isinstance(period, bool)
        or not isinstance(period, (int, float))
        or not 0 < period <= sys.float_info.max
    ):
        raise InputError(f"period T={period!r} must be a positive finite number")
    a0 = doc["A0"]
    if not isinstance(a0, list) or not a0:
        raise InputError("A0 must be a matrix")
    n = len(a0)
    if not 2 <= n <= 12:
        raise InputError(f"periodic input dimension n={n} outside 2..12")
    a0 = _require_number_rows(a0, n, "A0")
    items = doc.get("harmonics", [])
    if not isinstance(items, list):
        raise InputError(f"harmonics must be a list, got {items!r}")
    harmonics = []
    for item in items:
        if not isinstance(item, dict) or not {"k", "A", "B"} <= set(item):
            raise InputError('each harmonic needs {"k": ..., "A": [[...]], "B": [[...]]}')
        k = item["k"]
        if type(k) is not int or k < 1:
            raise InputError(f"harmonic index {k!r} must be a positive integer")
        harmonics.append(
            (
                k,
                _require_number_rows(item["A"], n, f"A_{k}"),
                _require_number_rows(item["B"], n, f"B_{k}"),
            )
        )
    coef = PeriodicCoefficient(period=float(period), a0=a0, harmonics=tuple(harmonics))
    return coef, {"sha256": sha256_of(raw), "n": n}


def _parse_dims(text):
    try:
        dims = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise InputError(f"bad flag signature {text!r}: {exc}") from exc
    return FlagType(dims)


def parse_flag_input(path, n):
    """Flag JSON: {"dims": [...], "basis": [[row], ...]} with n rows whose
    columns are orthonormal within 1e-8 (re-orthonormalized with a warning
    otherwise)."""
    doc, raw = _load_json(path)
    if not isinstance(doc, dict) or "dims" not in doc or "basis" not in doc:
        raise InputError('flag input needs {"dims": [...], "basis": [[...], ...]}')
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise InputError("flag dims must be a list of integers")
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != n:
        raise InputError(f"flag basis must have {n} rows")
    width = dims[-1] if dims else 0
    rows = []
    for r in basis:
        if not isinstance(r, list) or len(r) != width:
            raise InputError(f"each basis row must have {width} entries")
        for x in r:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise InputError(f"basis entries must be plain numbers, got {x!r}")
        rows.append([float(x) for x in r])
    flag = Flag(np.array(rows), FlagType(tuple(dims)))
    return flag, sha256_of(raw)


def _policy(args):
    return TolerancePolicy(
        cluster_tol=args.cluster_tol,
        residual_tol=args.residual_tol,
        sim_tol=args.sim_tol,
    )


def _emit(report, args):
    text = dumps_canonical(report) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(args, input_echo, pol):
    """The keys every report starts with, in report order; ``time`` only
    for the subcommands that take ``--time``."""
    head = {
        "schema": f"{SCHEMA_VERSION}/{args.command.replace('-', '_')}",
        "command": args.command,
    }
    if "time" in args:
        head["time"] = args.time
    head["input"] = input_echo
    head["tolerances"] = tolerances_dict(pol)
    head["conventions"] = CONVENTIONS
    return head


def _decompose(mat, pol, time_mode):
    if time_mode == "continuous":
        return additive_jordan(mat, pol)
    return multiplicative_jordan(mat, pol)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args):
    pol = _policy(args)
    mat, input_echo = parse_matrix_input(args.input)
    warnings = []
    if args.time == "discrete":
        det = float(np.linalg.det(mat))
        if abs(det - 1.0) > 1e-6:
            warnings.append(
                f"determinant {det:.12g} differs from 1; SL normalization "
                "relaxed to invertibility"
            )
    dec = _decompose(mat, pol, args.time)
    if args.time == "continuous":
        factors = {
            "E": matrix_rows(dec.E),
            "H": matrix_rows(dec.H),
            "N": matrix_rows(dec.N),
        }
    else:
        factors = {
            "e": matrix_rows(dec.e),
            "h": matrix_rows(dec.h),
            "u": matrix_rows(dec.u),
            "logH": matrix_rows(dec.logH),
        }
    report = {
        **_header(args, input_echo, pol),
        "spectrum": spectrum_dict(dec.spectral),
        "factors": factors,
        "residuals": {k: float(v) for k, v in dec.residuals.items()},
        "warnings": warnings,
    }
    _emit(report, args)
    return 0


def _write_trajectory_csv(path, dec, filt, pol, seed, horizon, step):
    rng = np.random.default_rng(seed)
    n = dec.spectral.n
    p0 = ProjectivePoint(rng.normal(size=n))
    target = stable_set_index(p0, filt, pol)
    ts = np.arange(0.0, horizon + step / 2, step)
    traj = simulate_projective(dec, p0, ts)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(n)] + ["dist_to_predicted"])
        for t, p in zip(ts, traj):
            writer.writerow(
                [f"{t:.17g}"]
                + [f"{x:.17g}" for x in p.rep]
                + [f"{filt.distances(p.rep)[target, 0]:.17g}"]
            )


def cmd_analyze(args):
    pol = _policy(args)
    mat, input_echo = parse_matrix_input(args.input)
    dims = _parse_dims(args.flag)
    dims.validate_for(input_echo["n"])
    input_echo["flag_dims"] = list(dims.dims)
    if args.simulate < 0:
        raise InputError(f"--simulate K={args.simulate} must be nonnegative")
    if args.seed < 0:
        raise InputError(f"--seed {args.seed} must be nonnegative")
    if not 0 < args.horizon < np.inf:
        raise InputError(f"--horizon {args.horizon} must be positive and finite")
    step = 0.5 if args.time == "continuous" else 1
    if args.trajectory_out and (args.horizon + step / 2) / step > SUBSTEP_BUDGET:
        raise GridTooLarge(
            f"--horizon {args.horizon:g} needs more than {SUBSTEP_BUDGET} trajectory rows"
        )
    flag = None
    if args.classify_flag:
        flag, flag_hash = parse_flag_input(args.classify_flag, input_echo["n"])
        if flag.dims.dims != dims.dims:
            raise InputError(
                f"flag file signature {flag.dims.dims} differs from --flag "
                f"{dims.dims}"
            )
    warnings = []

    dec = _decompose(mat, pol, args.time)
    cls = classify_flow(dec, dims, pol)
    if cls.rate_margin < 10.0:
        warnings.append(
            f"rate clustering margin {cls.rate_margin:.3g} is within 10x of "
            "the threshold; the stability verdict sits near the "
            "discretization boundary"
        )
    if cls.pair_margin < 10.0:
        warnings.append(
            f"conjugate-pair margin {cls.pair_margin:.3g} is within 10x of the "
            "threshold; the split between the elliptic and the nilpotent "
            "part sits near the discretization boundary"
        )

    simulation = None
    if args.simulate:
        horizon = args.horizon if dec.continuous else max(1, int(args.horizon))
        forward, reverse, worst = simulation_check(
            dec, cls, dims, args.simulate, args.seed, horizon, pol
        )
        simulation = {
            "requested": args.simulate,
            "forward_matches": forward,
            "reverse_matches": reverse,
            "worst_defect": float(worst),
            "seed": args.seed,
            "horizon": float(horizon),
        }

    flag_classification = None
    if flag is not None:
        if flag.was_reorthonormalized:
            warnings.append(
                "flag basis was not orthonormal within 1e-8; re-orthonormalized"
            )
        cell = bruhat_cell(flag, cls.filtration, dims, pol, components=cls.components)
        flag_classification = {
            "sha256": flag_hash,
            "cell_index": cell + 1,
            "reorthonormalized": flag.was_reorthonormalized,
            "recurrent": flag_recurrent_membership(flag, dec, pol),
        }

    if args.trajectory_out:
        _write_trajectory_csv(
            args.trajectory_out, dec, cls.filtration, pol, args.seed, args.horizon, step
        )

    report = {
        **_header(args, input_echo, pol),
        "spectrum": spectrum_dict(dec.spectral),
        "classification": {
            "h_regular": cls.h_regular,
            "conformal": cls.conformal,
            "rate_margin": cls.rate_margin if np.isfinite(cls.rate_margin) else 1e308,
            "conformal_margin": cls.conformal_margin,
            "eigen_rates": list(cls.eigen_rates),
        },
        "components": components_table(cls.components),
        "flag_classification": flag_classification,
        "simulation": simulation,
        "warnings": warnings,
    }
    _emit(report, args)
    if simulation is not None and (
        simulation["forward_matches"] < args.simulate
        or simulation["reverse_matches"] < args.simulate
    ):
        raise SimulationContradiction(
            f"simulation matched {simulation['forward_matches']}/{args.simulate} "
            f"forward and {simulation['reverse_matches']}/{args.simulate} reverse"
        )
    return 0


def cmd_chain_oracle(args):
    pol = _policy(args)
    mat, input_echo = parse_matrix_input(args.input)
    if input_echo["n"] > 3:
        raise GridTooLarge("chain oracle supports n in (2, 3)")
    dec = _decompose(mat, pol, args.time)
    graph = chain_oracle(
        dec,
        args.resolution,
        args.eps,
        args.min_time,
        pol,
        leg_doublings=args.leg_doublings,
    )
    member_tol = args.eps / 2.0
    member = rate_filtration(dec, pol).distances(graph.points).min(axis=0) <= member_tol
    agreement = float(np.mean(member == graph.marked))

    report = {
        **_header(args, input_echo, pol),
        "grid": {
            "n": input_echo["n"],
            "resolution": args.resolution,
            "covering_radius": graph.covering_radius,
        },
        "eps": graph.eps,
        "min_time": graph.min_time,
        "leg_times": list(graph.leg_times),
        "marked_count": int(graph.marked.sum()),
        "marked_points": [
            [float(x) for x in row] for row in graph.points[graph.marked]
        ],
        "membership_tolerance": member_tol,
        "agreement": agreement,
        "warnings": [],
    }
    _emit(report, args)
    return 0


def cmd_floquet(args):
    pol = _policy(args)
    coef, input_echo = parse_periodic_input(args.input)
    dims = None
    if args.flag:
        dims = _parse_dims(args.flag)
        dims.validate_for(input_echo["n"])
    fund = integrate_fundamental(coef, args.steps)
    fd = floquet_data(fund, pol)

    components = eigen_rates = None
    if dims is not None:
        cls = floquet_morse_components(fd, dims, pol).classification
        components = components_table(cls.components)
        eigen_rates = list(cls.eigen_rates)

    report = {
        **_header(args, input_echo, pol),
        "period": coef.period,
        "steps": args.steps,
        "monodromy": matrix_rows(fd.monodromy),
        "m": fd.m,
        "generator": matrix_rows(fd.X),
        "jordan": {
            "E": matrix_rows(fd.dec.E),
            "H": matrix_rows(fd.dec.H),
            "N": matrix_rows(fd.dec.N),
        },
        "residuals": {
            "generator": fd.generator_residual,
            "reconstruction": fund.dense_output_residual(),
            "det_drift": fund.det_drift,
            "integration_error": fund.error_estimate,
        },
        "eigen_rates": eigen_rates,
        "components": components,
        "warnings": [],
    }
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("input", help="input JSON file")
    sub.add_argument("--cluster-tol", type=float, default=1e-8)
    sub.add_argument("--residual-tol", type=float, default=1e-9)
    sub.add_argument("--sim-tol", type=float, default=1e-6)
    sub.add_argument("-o", "--output", default=None, help="write report here")


def build_parser():
    # each command is looked up when it runs, not when the parser is built,
    # so a parser kept across calls runs the module's current functions
    parser = argparse.ArgumentParser(
        prog="jordanflow",
        description="Jordan-decomposition analysis of linear flows on "
        "projective spaces and flag manifolds",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="Jordan factors with residuals")
    _add_common(p)
    p.add_argument("--time", choices=["continuous", "discrete"], default="continuous")
    p.set_defaults(func=lambda args: cmd_decompose(args))

    p = subs.add_parser("analyze", help="Morse components, stability verdict")
    _add_common(p)
    p.add_argument("--time", choices=["continuous", "discrete"], default="continuous")
    p.add_argument("--flag", required=True, help="flag signature, e.g. 1,2")
    p.add_argument("--simulate", type=int, default=0, metavar="K",
                   help="cross-check predictions with K random starts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=25.0)
    p.add_argument("--classify-flag", default=None, metavar="JSON",
                   help="classify a specific flag (JSON with dims and basis)")
    p.add_argument("--trajectory-out", default=None, metavar="CSV",
                   help="write one seeded projective trajectory as CSV")
    p.set_defaults(func=lambda args: cmd_analyze(args))

    p = subs.add_parser("chain-oracle", help="brute-force chain recurrence on a grid")
    _add_common(p)
    p.add_argument("--time", choices=["continuous", "discrete"], default="continuous")
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--min-time", type=float, default=1.0)
    p.add_argument("--leg-doublings", type=int, default=11)
    p.set_defaults(func=lambda args: cmd_chain_oracle(args))

    p = subs.add_parser("floquet", help="periodic coefficients: monodromy and generator")
    _add_common(p)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--flag", default=None, help="optional flag signature for the skew census")
    p.set_defaults(func=lambda args: cmd_floquet(args))

    return parser


@functools.cache
def _parser():
    """The parser of ``main``, built on first use and kept for the process:
    parsing leaves it unchanged, and building it costs about a millisecond."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except JordanFlowError as exc:
        code, label = next(
            (code, label) for kind, code, label in _EXIT_CODES if isinstance(exc, kind)
        )
        print(f"jordanflow: {label}: {exc}", file=sys.stderr)
        if getattr(exc, "margins", None):
            print(f"jordanflow: margins: {exc.margins}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

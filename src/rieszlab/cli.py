"""Command-line interface.

Subcommands
-----------
- ``exponents``   classify parameters; print the regime report as JSON
- ``solve``       Picard iteration for the regular decaying pair
- ``singular``    exact singular power-law pair
- ``shoot``       one shot of the radial second-order system
- ``bisect``      secant search on the shooting parameter for the separatrix
- ``analyze``     tail fits, monotonicity ratio and claim checks on a
                  finished run directory
- ``verify-all``  run the acceptance criteria and print a table

Exit codes: 0 success; 1 numerical failure (non-convergence, invalid
bracket, inapplicable regime); 2 validation failure (malformed request).

Every command with ``--out DIR`` writes its ``report.json`` there.  The
five run commands add a ``manifest.json`` whose ``configHash``
identifies the inputs, and all but ``exponents`` a full-precision CSV,
byte-identical across reruns with one hash on one host and numpy build.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, runio
from .errors import RieszLabError, ValidationError, real_number
from .exponents import Params, classify
from .grid import make_grid
from .shooting import ShotConfig, bisect_ground_state, shoot
from .solver import (Branch, SolveConfig, SolutionPair, singular_amplitudes,
                     singular_solution, solve_picard)
from .riesz import RadialField, check_dense_count

DEFAULT_GRID = "1e-4:1e4:512"

#: JSON keys accepted in a ``--config`` file for ``solve``.
_SOLVE_KEYS = {
    "damping": "damping",
    "maxIters": "max_iters",
    "tol": "tol",
}


# ---------------------------------------------------------------------------
# argument plumbing


def _add_param_flags(parser, with_grid=True):
    parser.add_argument("--n", type=int, required=True,
                        help="space dimension (integer >= 3)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="potential order, 0 < alpha < n")
    parser.add_argument("--k", type=int, default=None,
                        help="polyharmonic order; shorthand for alpha = 2k")
    parser.add_argument("--p", type=float, required=True, help="exponent p")
    parser.add_argument("--q", type=float, required=True, help="exponent q")
    if with_grid:
        parser.add_argument("--grid", default=DEFAULT_GRID, metavar="RMIN:RMAX:COUNT",
                            help="log-radial grid (default %(default)s)")


def _resolve_params(args):
    if args.k is not None:
        if args.alpha is not None:
            raise ValidationError("pass either --alpha or --k, not both")
        return Params.from_order_k(args.n, args.k, args.p, args.q)
    if args.alpha is None:
        raise ValidationError("one of --alpha or --k is required")
    return Params(n=args.n, alpha=args.alpha, p=args.p, q=args.q)


def _resolve_grid(args, params):
    parts = str(args.grid).split(":")
    if len(parts) != 3:
        raise ValidationError(
            "--grid must look like RMIN:RMAX:COUNT, got %r" % (args.grid,))
    try:
        r_min, r_max, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError("malformed --grid %r: %s" % (args.grid, exc)) from exc
    # refused on the count alone, before any array of the grid exists
    check_dense_count(count)
    return make_grid(r_min=r_min, r_max=r_max, count=count, n=params.n)


def _fit_dict(fit):
    return {"exponent": fit.exponent, "logPower": fit.log_power,
            "amplitude": fit.amplitude, "windowLo": fit.window_lo,
            "windowHi": fit.window_hi, "r2": fit.r2}


def _print_json(payload):
    sys.stdout.write(runio.dumps_json(payload) + "\n")


def _write_report(args, report):
    """Write ``report.json`` into ``--out``; the directory, or None
    without ``--out``."""
    if args.out is None:
        return None
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    runio.write_json(outdir / runio.REPORT_NAME, report)
    return outdir


def _emit_run(args, command, params, grid, settings, report, csv=None):
    """Write the report, the CSV and the manifest into ``--out`` when
    requested.  ``csv`` is ``(name, writer, columns)``: the file name,
    the :mod:`runio` writer and the arrays it takes after the path."""
    outdir = _write_report(args, report)
    if outdir is None:
        return
    outputs = [runio.REPORT_NAME]
    if csv is not None:
        name, writer, columns = csv
        writer(outdir / name, *columns)
        outputs.insert(0, name)
    runio.write_json(outdir / runio.MANIFEST_NAME, runio.make_manifest(
        command, dataclasses.asdict(params),
        grid_spec=None if grid is None else runio.grid_spec_of(grid),
        settings=settings, outputs=outputs))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exponents(args):
    params = _resolve_params(args)
    report = classify(params).to_dict()
    _print_json(report)
    _emit_run(args, "exponents", params, None, {}, report)
    return 0


def _solve_settings(args):
    defaults = {f.name: f.default for f in dataclasses.fields(SolveConfig)}
    settings = {key: defaults[name] for key, name in _SOLVE_KEYS.items()}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ValidationError("config file not found: %s" % path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError("malformed config %s: %s" % (path, exc)) from exc
        if not isinstance(data, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(_SOLVE_KEYS))
        if unknown:
            raise ValidationError(
                "unknown config keys %s; known keys: %s"
                % (unknown, sorted(_SOLVE_KEYS)))
        settings.update(data)
    if args.damping is not None:
        settings["damping"] = args.damping
    if args.max_iters is not None:
        settings["maxIters"] = args.max_iters
    if args.tol is not None:
        settings["tol"] = args.tol
    return settings


def _solution_report(pair: SolutionPair):
    report = {
        "branch": pair.branch.value,
        "iterations": pair.iterations,
        "residualU": pair.residual_u,
        "residualV": pair.residual_v,
        "tailExponentU": pair.u.tail_exponent,
        "tailExponentV": pair.v.tail_exponent,
        "epsilon0U": analysis.monotonicity_criterion(pair.u.values),
        "epsilon0V": analysis.monotonicity_criterion(pair.v.values),
        "regime": classify(pair.params).to_dict(),
    }
    return report


def _cmd_solve(args):
    params = _resolve_params(args)
    grid = _resolve_grid(args, params)
    settings = _solve_settings(args)
    config = SolveConfig(**{name: settings[key]
                             for key, name in _SOLVE_KEYS.items()})
    pair = solve_picard(params, grid, config)
    report = _solution_report(pair)
    _print_json(report)
    _emit_run(args, "solve", params, grid, settings, report,
              (runio.FIELD_CSV_NAME, runio.write_field_csv,
               (pair.u.grid.nodes, pair.u.values, pair.v.values)))
    return 0


def _cmd_singular(args):
    params = _resolve_params(args)
    grid = _resolve_grid(args, params)
    pair = singular_solution(params, grid)
    amp_u, amp_v = singular_amplitudes(params)
    regime = classify(params)
    report = {
        "branch": pair.branch.value,
        "amplitudeU": amp_u,
        "amplitudeV": amp_v,
        "slowRateU": regime.slow_rate_u,
        "slowRateV": regime.slow_rate_v,
        "residualU": pair.residual_u,
        "residualV": pair.residual_v,
        "regime": regime.to_dict(),
    }
    _print_json(report)
    _emit_run(args, "singular", params, grid, {}, report,
              (runio.FIELD_CSV_NAME, runio.write_field_csv,
               (pair.u.grid.nodes, pair.u.values, pair.v.values)))
    return 0


def _shot_settings(args, xi):
    return {"u0": args.u0, "xi": xi, "rStart": args.r_start,
            "rEnd": args.r_end}


def _trajectory_report(traj, extra=None):
    report = {
        "outcome": traj.outcome.value,
        "crossingRadius": traj.crossing_radius,
        "sampleCount": int(traj.samples.shape[0]),
        "finalRadius": float(traj.samples[-1, 0]),
    }
    if extra:
        report.update(extra)
    return report


def _cmd_shoot(args):
    params = _resolve_params(args)
    config = ShotConfig(u0=args.u0, xi=args.xi, r_start=args.r_start,
                        r_end=args.r_end)
    traj = shoot(params, config)
    report = _trajectory_report(traj)
    _print_json(report)
    _emit_run(args, "shoot", params, None, _shot_settings(args, args.xi),
              report, (runio.TRAJECTORY_CSV_NAME, runio.write_trajectory_csv,
                       (traj.samples,)))
    return 0


def _cmd_bisect(args):
    params = _resolve_params(args)
    config = ShotConfig(u0=args.u0, xi=args.lo, r_start=args.r_start,
                        r_end=args.r_end)
    result = bisect_ground_state(params, args.lo, args.hi, config=config,
                                 iters=args.iters)
    traj = result.trajectory
    # per-shot records without their wall times, so reruns stay identical
    shots = [{"xi": shot.xi, "outcome": shot.outcome.value,
              "crossingRadius": shot.crossing_radius,
              "rhsEvaluations": shot.rhs_evals} for shot in result.shots]
    extra = {"xi": result.xi, "bracketLo": result.lo, "bracketHi": result.hi,
             "iters": args.iters, "shots": shots}
    report = _trajectory_report(traj, extra)
    _print_json(report)
    settings = _shot_settings(args, result.xi)
    settings.update({"lo": args.lo, "hi": args.hi, "iters": args.iters})
    _emit_run(args, "bisect", params, None, settings, report,
              (runio.TRAJECTORY_CSV_NAME, runio.write_trajectory_csv,
               (traj.samples,)))
    return 0


# ---------------------------------------------------------------------------
# analyze


def _manifest_numbers(spec, keys, where):
    """The entries ``keys`` of the manifest object ``spec`` as floats;
    :class:`ValidationError` unless each is a finite JSON number (not a
    bool, and no integer past the double range)."""
    return [real_number(spec.get(key) if isinstance(spec, dict) else None,
                        "%s: %s" % (where, key)) for key in keys]


def _load_run(rundir):
    """Read a run directory back: params, kind and (r, u, v) samples."""
    manifest = runio.read_manifest(rundir)
    n, alpha, p, q = _manifest_numbers(
        manifest.get("params") or {}, ("n", "alpha", "p", "q"),
        "the manifest in %s" % rundir)
    # Params reads n through whole_number: 5.5 is refused, not cut to 5
    params = Params(n=n, alpha=alpha, p=p, q=q)
    outputs = manifest.get("outputs") or []
    field_path = Path(rundir) / runio.FIELD_CSV_NAME
    traj_path = Path(rundir) / runio.TRAJECTORY_CSV_NAME
    if runio.FIELD_CSV_NAME in outputs or field_path.is_file():
        radii, u, v = runio.read_field_csv(field_path)
        kind = "field"
    elif runio.TRAJECTORY_CSV_NAME in outputs or traj_path.is_file():
        samples = runio.read_trajectory_csv(traj_path)
        radii, u, v = samples[:, 0], samples[:, 1], samples[:, 3]
        kind = "trajectory"
    else:
        raise ValidationError(
            "run directory %s holds neither %s nor %s"
            % (rundir, runio.FIELD_CSV_NAME, runio.TRAJECTORY_CSV_NAME))
    return manifest, params, kind, radii, u, v


def _claim_slow_decay(ctx):
    rep = ctx["regime"]
    fu, fv = ctx["fit_u"], ctx["fit_v"]
    dev_u = abs(fu.exponent - rep.slow_rate_u) / rep.slow_rate_u
    dev_v = abs(fv.exponent - rep.slow_rate_v) / rep.slow_rate_v
    confirmed = max(dev_u, dev_v) <= 0.05
    return confirmed, ("slow rates confirmed" if confirmed
                       else "slow rates not confirmed"), {
        "expected": [rep.slow_rate_u, rep.slow_rate_v],
        "fitted": [fu.exponent, fv.exponent],
        "relativeDeviation": [dev_u, dev_v],
    }


def _claim_fast_decay(ctx):
    rep = ctx["regime"]
    fu, fv = ctx["fit_u"], ctx["fit_v"]
    dev_u = abs(fu.exponent - rep.fast_rate_u) / rep.fast_rate_u
    dev_v = abs(fv.exponent - rep.fast_rate_v) / rep.fast_rate_v
    integrable_u = analysis.integrability_predicate(fu.exponent, rep.r0,
                                                    ctx["params"].n)
    integrable_v = analysis.integrability_predicate(fv.exponent, rep.s0,
                                                    ctx["params"].n)
    confirmed = (max(dev_u, dev_v) <= 0.05 and integrable_u and integrable_v)
    return confirmed, ("fast rates confirmed" if confirmed
                       else "fast rates not confirmed"), {
        "expected": [rep.fast_rate_u, rep.fast_rate_v],
        "fitted": [fu.exponent, fv.exponent],
        "relativeDeviation": [dev_u, dev_v],
        "integrable": [integrable_u, integrable_v],
    }


def _claim_envelope(ctx):
    fu, fv = ctx["fit_u"], ctx["fit_v"]
    inside = analysis.envelope_check(ctx["params"], fu.exponent, fv.exponent)
    band_u, band_v = analysis.envelope_bands(ctx["regime"])
    eps = [ctx["eps_u"], ctx["eps_v"]]
    confirmed = inside and min(eps) > 0.0
    return confirmed, ("decay envelope confirmed" if confirmed
                       else "decay envelope violated"), {
        "bandsU": list(band_u),
        "bandsV": list(band_v),
        "fitted": [fu.exponent, fv.exponent],
        "epsilon0": eps,
    }


def _claim_fast_limits(ctx):
    if ctx["kind"] != "field" or ctx["grid_spec"] is None:
        raise ValidationError(
            "the fast-limits claim needs a field run on a stored grid")
    r_min, r_max, count = _manifest_numbers(
        ctx["grid_spec"], ("rMin", "rMax", "count"), "the manifest gridSpec")
    params = ctx["params"]
    # a count off the samples' is refused before any grid is built
    grid = (make_grid(r_min, r_max, count, params.n)
            if count == ctx["radii"].size else None)
    if grid is None or not np.allclose(grid.nodes, ctx["radii"], rtol=1e-12,
                                       atol=0.0):
        raise ValidationError("stored samples do not sit on the manifest grid")
    fu, fv = ctx["fit_u"], ctx["fit_v"]
    pair = SolutionPair(
        u=RadialField(grid, ctx["u"], tail_exponent=fu.exponent),
        v=RadialField(grid, ctx["v"], tail_exponent=fv.exponent),
        params=params, iterations=0, residual_u=0.0, residual_v=0.0,
        branch=Branch.PICARD)
    limits = analysis.check_fast_limits(pair)
    confirmed = max(limits.u_deviation, limits.v_deviation) <= 0.05
    return confirmed, ("fast-limit amplitudes confirmed" if confirmed
                       else "fast-limit amplitudes not confirmed"), {
        "case": limits.case.value,
        "b0": limits.b0,
        "uAmplitude": limits.u_amplitude,
        "uDeviation": limits.u_deviation,
        "vPrediction": limits.v_prediction,
        "vAmplitude": limits.v_amplitude,
        "vDeviation": limits.v_deviation,
    }


def _claim_blowup_recursion(ctx):
    params = ctx["params"]
    rep = ctx["regime"]
    b0 = ctx["fit_u"].exponent
    trace = analysis.run_recursion(b0, params.alpha, params.p, params.q)
    blew_up = trace.blowup_index is not None
    below = b0 < rep.slow_rate_u
    boundary = abs(b0 - rep.slow_rate_u) <= 1e-10 * rep.slow_rate_u
    confirmed = boundary or (blew_up == below)
    if blew_up:
        verdict = ("decay below the slow rate: recursion exponent turns "
                   "negative at step %d" % trace.blowup_index)
    else:
        verdict = "decay at or above the slow rate: recursion stays positive"
    return confirmed, verdict, {
        "b0": b0,
        "slowRateU": rep.slow_rate_u,
        "blowupIndex": trace.blowup_index,
        "bSeq": list(trace.b_seq[:8]),
    }


_CLAIMS = {
    "slow-decay": _claim_slow_decay,
    "fast-decay": _claim_fast_decay,
    "envelope": _claim_envelope,
    "fast-limits": _claim_fast_limits,
    "blowup-recursion": _claim_blowup_recursion,
}


def _cmd_analyze(args):
    manifest, params, kind, radii, u, v = _load_run(args.rundir)
    rep = classify(params)
    fit_u = analysis.fit_tail(radii, u)
    fit_v = analysis.fit_tail(radii, v)
    eps_u = analysis.monotonicity_criterion(u)
    eps_v = analysis.monotonicity_criterion(v)
    notes = []
    for label, fit in (("u", fit_u), ("v", fit_v)):
        if fit.r2 < 0.99:
            notes.append(
                "%s: fit r2=%.4f < 0.99; low-confidence fit — the profile "
                "may not follow a single power law over this window"
                % (label, fit.r2))
    report = {
        "source": str(args.rundir),
        "kind": kind,
        "params": dataclasses.asdict(params),
        "regime": rep.to_dict(),
        "fits": {"u": _fit_dict(fit_u), "v": _fit_dict(fit_v)},
        "epsilon0": {"u": eps_u, "v": eps_v},
        "integrable": {
            "u": analysis.integrability_predicate(fit_u.exponent, rep.r0,
                                                  params.n),
            "v": analysis.integrability_predicate(fit_v.exponent, rep.s0,
                                                  params.n),
        },
        "notes": notes,
    }
    if args.claim is not None:
        checker = _CLAIMS.get(args.claim)
        if checker is None:
            raise ValidationError(
                "unknown claim %r; known claims: %s"
                % (args.claim, sorted(_CLAIMS)))
        ctx = {"params": params, "regime": rep, "kind": kind,
               "grid_spec": manifest.get("gridSpec"), "radii": radii,
               "u": u, "v": v, "fit_u": fit_u, "fit_v": fit_v,
               "eps_u": eps_u, "eps_v": eps_v}
        confirmed, verdict, details = checker(ctx)
        report["claim"] = {"key": args.claim, "confirmed": confirmed,
                           "verdict": verdict, "details": details}
    _print_json(report)
    _write_report(args, report)
    return 0


# ---------------------------------------------------------------------------
# verify-all


def _cmd_verify_all(args):
    from . import acceptance

    started = time.monotonic()
    results = acceptance.run_all(only=args.only, seed=args.seed)
    headers = ("criterion", "expected", "measured", "tolerance", "result")
    rows = [(r.key, r.expected, r.measured, r.tolerance,
             "PASS" if r.passed else "FAIL") for r in results]
    widths = [max(len(h), max((len(row[i]) for row in rows), default=0))
              for i, h in enumerate(headers)]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    print(fmt % headers)
    print(fmt % tuple("-" * w for w in widths))
    for row in rows:
        print(fmt % row)
    all_passed = all(r.passed for r in results)
    print("%d/%d criteria passed in %.1fs"
          % (sum(r.passed for r in results), len(results),
             time.monotonic() - started))
    _write_report(args, {
        "allPassed": all_passed,
        "seed": args.seed,
        "results": [
            {"key": r.key, "description": r.description,
             "expected": r.expected, "measured": r.measured,
             "tolerance": r.tolerance, "passed": r.passed,
             "seconds": r.seconds}
            for r in results
        ],
    })
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rieszlab",
        description="Radial potential-system solvers and decay analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents",
                           help="classify parameters and print exponents")
    _add_param_flags(p_exp, with_grid=False)
    p_exp.add_argument("--out", default=None, metavar="DIR")
    p_exp.set_defaults(func=_cmd_exponents)

    p_solve = sub.add_parser("solve", help="Picard solve for the decaying pair")
    _add_param_flags(p_solve)
    p_solve.add_argument("--damping", type=float, default=None)
    p_solve.add_argument("--max-iters", type=int, default=None)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--config", default=None, metavar="FILE",
                         help="JSON file with solver settings")
    p_solve.add_argument("--out", default=None, metavar="DIR")
    p_solve.set_defaults(func=_cmd_solve)

    p_sing = sub.add_parser("singular", help="exact singular power-law pair")
    _add_param_flags(p_sing)
    p_sing.add_argument("--out", default=None, metavar="DIR")
    p_sing.set_defaults(func=_cmd_singular)

    p_shoot = sub.add_parser("shoot", help="integrate one radial shot")
    _add_param_flags(p_shoot, with_grid=False)
    p_shoot.add_argument("--u0", type=float, default=1.0)
    p_shoot.add_argument("--xi", type=float, required=True,
                         help="origin value of v (shooting parameter)")
    p_shoot.add_argument("--r-start", type=float, default=1e-6)
    p_shoot.add_argument("--r-end", type=float, default=1e6)
    p_shoot.add_argument("--out", default=None, metavar="DIR")
    p_shoot.set_defaults(func=_cmd_shoot)

    p_bis = sub.add_parser("bisect", help="search the shooting parameter "
                           "for the ground state")
    _add_param_flags(p_bis, with_grid=False)
    p_bis.add_argument("--u0", type=float, default=1.0)
    p_bis.add_argument("--lo", type=float, required=True)
    p_bis.add_argument("--hi", type=float, required=True)
    p_bis.add_argument("--iters", type=int, default=60,
                       help="budget of shots inside the bracket")
    p_bis.add_argument("--r-start", type=float, default=1e-6)
    p_bis.add_argument("--r-end", type=float, default=1e6)
    p_bis.add_argument("--out", default=None, metavar="DIR")
    p_bis.set_defaults(func=_cmd_bisect)

    p_ana = sub.add_parser("analyze", help="fit tails on a finished run")
    p_ana.add_argument("rundir", help="directory holding manifest.json + CSV")
    p_ana.add_argument("--claim", default=None,
                       help="check one claim: %s" % ", ".join(sorted(_CLAIMS)))
    p_ana.add_argument("--out", default=None, metavar="DIR")
    p_ana.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser("verify-all", help="run the acceptance criteria")
    p_ver.add_argument("--only", default=None, metavar="KEY",
                       help="run a single criterion by key")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for randomized oracles")
    p_ver.add_argument("--out", default=None, metavar="DIR")
    p_ver.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return int(args.func(args) or 0)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RieszLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Subcommands: ``ambient`` (sectional curvature), ``sphere`` (radius ODE with
event detection), ``bounds`` (closed-form blow-up time bounds), ``simulate``
(full mesh run from a config), ``scenario`` (named regime run with verdict),
``verify`` (post-hoc barrier claims on a recorded trajectory), ``render``.

Exit code 0 covers success and scenario-failed-with-report; nonzero is
reserved for configuration, runtime and file errors, each reported as one
``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import comparison, fileio, harness, radial, render as render_mod
from .ambient import sectional_curvature
from .errors import GaussFlowError
from .harness import SCENARIOS, load_config, load_trajectory
from .radial import RadialParams


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused; each parse_args call
    fills a fresh Namespace."""
    parser = argparse.ArgumentParser(prog="gaussflow")
    sub = parser.add_subparsers(dest="command", required=True)

    amb = sub.add_parser("ambient", help="sectional curvature of the Gaussian metric")
    amb.add_argument("--m", type=int, required=True)
    amb.add_argument("--point", required=True, help="comma-separated coordinates")
    amb.add_argument("--axes", required=True, help="two axis indices, e.g. 0,1")

    sph = sub.add_parser("sphere", help="integrate the sphere radius ODE")
    sph.add_argument("--m", type=int, required=True)
    sph.add_argument("--a", type=float, default=1.0)
    sph.add_argument("--b", type=float, default=1.0)
    sph.add_argument("--c", type=float, default=1.0)
    sph.add_argument("--c-slope", type=float, default=0.0)
    sph.add_argument("--r0sq", type=float, required=True)
    sph.add_argument("--horizon", type=float, default=10.0)
    sph.add_argument("--csv", default=None, help="write the t,R_sq series here")

    bnd = sub.add_parser("bounds", help="closed-form blow-up time bound")
    bnd.add_argument("--m", type=int, required=True)
    bnd.add_argument("--r0sq", type=float, required=True)
    bnd.add_argument("--a", type=float, default=1.0)
    bnd.add_argument("--b", type=float, default=1.0)
    bnd.add_argument("--c", type=float, default=1.0)

    sim = sub.add_parser("simulate", help="run a flow from a config file")
    sim.add_argument("--config", required=True)

    scn = sub.add_parser("scenario", help="run a named scenario")
    scn.add_argument("name", choices=list(SCENARIOS) + ["ALL"])
    scn.add_argument("--config", required=True,
                     help="config file, or a directory of <SCENARIO>.cfg files for ALL")

    ver = sub.add_parser("verify", help="check a barrier claim on a recorded run")
    ver.add_argument("--trajectory", required=True)
    ver.add_argument("--claim", required=True, choices=[
        comparison.SIGN_PRESERVATION_BELOW, comparison.SIGN_PRESERVATION_ABOVE,
        comparison.SPHERE_BARRIER_BELOW, comparison.SPHERE_BARRIER_ABOVE,
        comparison.SPHERICITY])
    ver.add_argument("--eps", type=float, default=None)
    ver.add_argument("--rp0sq", type=float, default=None)

    ren = sub.add_parser("render", help="render a recorded trajectory")
    ren.add_argument("--trajectory", required=True)
    ren.add_argument("--out", default=None)
    return parser


def _cmd_ambient(args) -> int:
    try:
        point = [float(tok) for tok in args.point.split(",")]
        axes = [int(tok) for tok in args.axes.split(",")]
    except ValueError as exc:
        raise GaussFlowError(f"--point and --axes take comma-separated numbers: {exc}") from None
    if len(axes) != 2:
        raise GaussFlowError("--axes needs exactly two indices")
    value = sectional_curvature(args.m, np.array(point), axes[0], axes[1])
    print(f"{value:.17g}")
    return 0


def _cmd_sphere(args) -> int:
    p = RadialParams(m=args.m, a=args.a, b=args.b, c0=args.c,
                     R0_sq=args.r0sq, c_slope=args.c_slope)
    traj = radial.integrate_radial(p, args.horizon)
    bound = radial.applicable_bound(p)
    bound_txt = f"{bound:.12g}" if bound is not None else "n/a"
    print(f"event={traj.event.kind} t={traj.event.t:.12g} bound_time={bound_txt}")
    if args.csv:
        fileio.write_table(args.csv, "t,R_sq", (traj.times, traj.R_sq))
        print(f"csv={args.csv}")
    return 0


def _cmd_bounds(args) -> int:
    p = RadialParams(m=args.m, a=args.a, b=args.b, c0=args.c, R0_sq=args.r0sq)
    bound = radial.applicable_bound(p)       # c is constant here, so only the sphere has none
    if bound is None:
        print("stationary: no finite bound (fixed sphere)")
    else:
        print(f"{'T1' if p.regime() == 'shrink' else 'T2'}={bound:.12g}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    traj = harness.simulate(cfg)
    print(f"stop={traj.stop.kind} t_stop={traj.stop.t_stop:.9g} "
          f"snapshots={traj.n_snapshots}")
    if cfg.output_dir:
        print(f"artifacts={cfg.output_dir}")
    return 0


def _cmd_scenario(args) -> int:
    if args.name == "ALL":
        if not os.path.isdir(args.config):
            raise GaussFlowError("scenario ALL needs --config DIR with <NAME>.cfg files")
        named = []
        for name in SCENARIOS:
            path = os.path.join(args.config, f"{name}.cfg")
            if os.path.exists(path):
                named.append((name, load_config(path)))
        if not named:
            raise GaussFlowError(f"no <SCENARIO>.cfg files found in {args.config}")
        for name, cfg in named:
            print(harness.run_scenario(name, cfg).summary())
        return 0
    cfg = load_config(args.config)
    verdict = harness.run_scenario(args.name, cfg)
    print(verdict.summary())
    return 0


def _cmd_verify(args) -> int:
    traj = load_trajectory(args.trajectory, meshes=False)
    claim = args.claim
    signs = {comparison.SIGN_PRESERVATION_BELOW: comparison.check_sign_below,
             comparison.SIGN_PRESERVATION_ABOVE: comparison.check_sign_above}
    if claim in signs:
        if args.eps is None:
            raise GaussFlowError("--eps is required for sign-preservation claims")
        report = signs[claim](traj, traj.params, args.eps)
    elif claim in (comparison.SPHERE_BARRIER_BELOW, comparison.SPHERE_BARRIER_ABOVE):
        if args.eps is None or args.rp0sq is None:
            raise GaussFlowError("--eps and --rp0sq are required for sphere barriers")
        report = comparison.check_sphere_barrier(traj, args.rp0sq, args.eps)
        if report.claim != claim:
            raise GaussFlowError(
                f"trajectory regime gives {report.claim}, not {claim}")
    else:
        report = comparison.check_sphericity(traj)
    verdict = "holds" if report.holds else "violated"
    print(f"{report.claim}: {verdict} worst_margin={report.worst_margin:.6g} "
          f"at t={report.worst_time:.6g} (tol={report.tolerance:.3g})")
    out = os.path.join(args.trajectory, f"claim_{report.claim.lower()}.json")
    with open(out, "w") as fh:
        json.dump(report.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report={out}")
    return 0


def _cmd_render(args) -> int:
    traj = load_trajectory(args.trajectory)
    outdir = args.out or os.path.join(args.trajectory, "render")
    paths = render_mod.render(traj, outdir=outdir)
    print(f"rendered {len(paths)} files to {outdir}")
    return 0


_HANDLERS = {
    "ambient": _cmd_ambient,
    "sphere": _cmd_sphere,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "scenario": _cmd_scenario,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (GaussFlowError, OSError) as exc:
        # OSError: a path the user gave cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end emitting deterministic JSON/CSV reports.

Every subcommand maps onto one library operation; no numerical logic lives
here.  Reals are serialized with 12 significant digits, absent values are
omitted (never NaN/Inf), and identical argument vectors (including --seed)
produce byte-identical output.

Exit codes: 0 success, 1 I/O failure, 2 invalid parameters, 3 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from .bounds import classical_bounds
from .model import InvalidParamsError, ModelParams, NonConvergenceError, PoleError
from .moc_pde import Flux, Grid1D, Profile, StepControls, evolve, flux_eval
from .sturm import first_eigenvalue, seeded_odd_initial_data
from .warped import (
    WarpedMetric,
    default_warp_amplitude,
    fit_decay,
    radial_flow,
    ricci_bounds,
    verify_moc,
)

_DECAY_WINDOW = 0.5
_DECAY_SAMPLES = 48


def parse_flux(spec: str) -> Flux:
    """Parse a flux spec string: ``heat`` or ``plap:P[:EPS]``."""
    parts = spec.split(":")
    if parts[0] == "heat":
        if len(parts) != 1:
            raise InvalidParamsError(f"heat flux takes no parameters, got {spec!r}")
        return Flux.heat()
    if parts[0] == "plap":
        if len(parts) not in (2, 3):
            raise InvalidParamsError(f"p-Laplacian flux spec is plap:P[:EPS], got {spec!r}")
        try:
            p = float(parts[1])
            eps = float(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise InvalidParamsError(f"malformed flux spec {spec!r}") from exc
        return Flux.plaplacian(p, eps)
    raise InvalidParamsError(f"unknown flux {parts[0]!r} (expected heat or plap:P[:EPS])")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite values must be omitted from reports")
    return f"{x:.12g}"


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 12-significant-digit reals."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj):
            return "[" + ", ".join(_fmt(v) for v in obj) + "]"
        items = [inner + render_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if obj is None:
        return "null"
    return _fmt(obj)


def render_csv(fieldnames: Sequence[str], rows: Sequence[dict]) -> str:
    lines = [",".join(fieldnames)]
    for row in rows:
        cells = []
        for name in fieldnames:
            value = row.get(name)
            if value is None:
                cells.append("")
            elif isinstance(value, str):
                cells.append(value)
            else:
                cells.append(_fmt(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _drop_absent(report: dict) -> dict:
    out = {}
    for k, v in report.items():
        if v is None:
            continue
        if isinstance(v, float) and not math.isfinite(v):
            continue
        out[k] = v
    return out


def _params_from(args) -> ModelParams:
    return ModelParams(args.n, args.kappa, args.diameter)


def _scalar_table(report: dict) -> tuple[list[str], list[dict]]:
    fields = [k for k, v in report.items() if not isinstance(v, (list, tuple, dict))]
    return fields, [{k: report[k] for k in fields}]


def cmd_eigen(args):
    params = _params_from(args)
    res = first_eigenvalue(params, args.tol)
    report = _drop_absent(
        {
            "n": params.n,
            "kappa": params.kappa,
            "diameter": params.diameter,
            "mu": res.mu,
            "bracket_lo": res.bracket_lo,
            "bracket_hi": res.bracket_hi,
            "iterations": res.iterations,
            "tol_achieved": res.bracket_hi - res.bracket_lo,
            "steps": res.steps,
        }
    )
    return report, _scalar_table(report)


def _bounds_report(params: ModelParams, tol: float) -> dict:
    rep = classical_bounds(params, tol)
    return _drop_absent(
        {
            "n": rep.n,
            "kappa": rep.kappa,
            "diameter": rep.diameter,
            "sharp_mu": rep.sharp_mu,
            "lichnerowicz": rep.lichnerowicz,
            "zhong_yang": rep.zhong_yang,
            "li_conjecture": rep.li_conjecture,
            "shi_zhang": rep.shi_zhang,
            "li_violated": rep.li_violated,
        }
    )


def cmd_bounds(args):
    report = _bounds_report(_params_from(args), args.tol)
    return report, _scalar_table(report)


def _default_modulus(params: ModelParams, cells: int, seed: int) -> Profile:
    """Seeded concave nondecreasing initial modulus with unit oscillation."""
    if seed < 0:
        raise InvalidParamsError(f"seed must be >= 0, got {seed}")
    grid = Grid1D(params.half_diameter, cells)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 1.0, size=4)
    x = grid.nodes / params.half_diameter
    values = np.zeros_like(x)
    for k, w in enumerate(weights, start=1):
        values += w * (1.0 - (1.0 - x) ** (k + 1))
    values /= values[-1]
    values[0] = 0.0
    return Profile(grid=grid, t=0.0, values=values)


def cmd_evolve(args):
    params = _params_from(args)
    flux = parse_flux(args.flux)
    if args.t_end is None:
        raise InvalidParamsError("evolve requires --t-end")
    phi0 = _default_modulus(params, args.grid, args.seed)
    times = [args.t_end * k / 8.0 for k in range(9)]
    controls = StepControls(cfl=args.cfl, output_times=times)
    profiles = evolve(flux, params, phi0, args.t_end, controls)
    report = {
        "n": params.n,
        "kappa": params.kappa,
        "diameter": params.diameter,
        "flux": args.flux,
        "grid": args.grid,
        "cfl": args.cfl,
        "seed": args.seed,
        "t_end": args.t_end,
        "s": phi0.grid.nodes.tolist(),
        "times": [p.t for p in profiles],
        "profiles": [p.values.tolist() for p in profiles],
    }
    rows = [
        {"t": p.t, "s": s, "phi": v}
        for p in profiles
        for s, v in zip(phi0.grid.nodes, p.values)
    ]
    return report, (["t", "s", "phi"], rows)


def cmd_decay(args):
    params = _params_from(args)
    flux = parse_flux(args.flux)
    if not flux.is_heat:
        raise InvalidParamsError(
            "decay compares the fitted rate with the linear eigenvalue mu, which governs "
            "the heat flux only; got --flux %s" % args.flux
        )
    u0, mu = seeded_odd_initial_data(params, args.grid, args.seed)
    t_end = args.t_end if args.t_end is not None else 2.0 * 3.0 / mu
    times = [t_end * (k + 1) / _DECAY_SAMPLES for k in range(_DECAY_SAMPLES)]
    # a fit window spanning less than one explicit step can snap all of its
    # samples to the same step; the march refuses a horizon that is not positive
    dt = args.cfl * (params.diameter / args.grid) ** 2
    fit_samples = int(round(_DECAY_WINDOW * _DECAY_SAMPLES))
    if 0 < t_end * (fit_samples - 1) / _DECAY_SAMPLES < dt:
        raise InvalidParamsError(
            "--t-end %g is too short: the fitted last %d of %d samples span less than "
            "one explicit step dt = cfl*(D/grid)^2 = %g; raise --t-end, or raise --grid "
            "or lower --cfl" % (t_end, fit_samples, _DECAY_SAMPLES, dt)
        )
    metric = WarpedMetric(params, default_warp_amplitude(params.kappa))
    sol = radial_flow(metric, flux, u0, t_end, StepControls(cfl=args.cfl, output_times=times))
    osc = sol.oscillations()
    rate = fit_decay(osc, window=_DECAY_WINDOW)
    report = {
        "n": params.n,
        "kappa": params.kappa,
        "diameter": params.diameter,
        "flux": args.flux,
        "grid": args.grid,
        "seed": args.seed,
        "t_end": t_end,
        "window": _DECAY_WINDOW,
        "mu": mu,
        "fitted_rate": rate,
        "relative_gap": abs(rate - mu) / mu,
        "t": [p[0] for p in osc],
        "osc": [p[1] for p in osc],
    }
    rows = [{"t": t, "osc": o} for t, o in osc]
    return report, (["t", "osc"], rows)


def cmd_verify_moc(args):
    params = _params_from(args)
    flux = parse_flux(args.flux)
    t_end = args.t_end if args.t_end is not None else 0.4
    cells = args.grid
    phi0 = _default_modulus(params, cells, args.seed)
    if cells % 2 != 0:
        raise InvalidParamsError("verify-moc needs an even --grid")
    # odd extension subsampled onto the radial grid (twice the spacing)
    u0 = np.concatenate([-phi0.values[::2][:0:-1], phi0.values[::2]])
    grads = np.gradient(phi0.values, phi0.grid.h)
    alpha_max = max(flux_eval(flux, float(q))[0] for q in grads)
    dt = 0.75 * args.cfl * phi0.grid.h**2 / max(1.0, alpha_max)
    times = [t_end * (k + 1) / 5.0 for k in range(5)]
    if 0 < times[0] < dt:  # the march refuses a horizon that is not positive
        raise InvalidParamsError(
            "--t-end %g is too short: the first checked time t_end/5 comes before one "
            "explicit step dt = 0.75*cfl*(D/(2*grid))^2/max(1, alpha) = %g, so no evolved "
            "state would be checked; raise --t-end, or raise --grid or lower --cfl"
            % (t_end, dt)
        )
    controls = StepControls(cfl=args.cfl, output_times=times, fixed_dt=dt)
    metric = WarpedMetric(params, default_warp_amplitude(params.kappa))
    sol = radial_flow(metric, flux, u0, t_end, controls)
    phis = evolve(flux, params, phi0, t_end, controls)
    h_u = params.diameter / cells
    osc0 = float(np.max(u0) - np.min(u0))
    tol = 5.0 * h_u * h_u * osc0
    rep = verify_moc(sol, phis, tol)
    report = {
        "n": params.n,
        "kappa": params.kappa,
        "diameter": params.diameter,
        "flux": args.flux,
        "grid": cells,
        "seed": args.seed,
        "t_end": t_end,
        "tol": tol,
        "violations": rep.violations,
        "worst_margin": rep.worst_margin,
        "antipodal_defect": rep.antipodal_defect,
        "pairs_checked": rep.pairs_checked,
        "times_checked": rep.times_checked,
    }
    return report, _scalar_table(report)


def cmd_ricci(args):
    a = args.warp_a if args.warp_a is not None else default_warp_amplitude(args.kappa)
    params = _params_from(args)  # validates the (n, kappa, diameter) triple
    rep = ricci_bounds(params.n, params.kappa, a, half_width=params.half_diameter)
    report = _drop_absent(
        {
            "n": params.n,
            "kappa": params.kappa,
            "diameter": params.diameter,
            "warp_a": a,
            "radial": rep.radial,
            "tangential_min": rep.tangential_min,
            "admissible": rep.admissible,
        }
    )
    return report, _scalar_table(report)


def _parse_list(text: str, convert, name: str) -> list:
    try:
        return [convert(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise InvalidParamsError(f"malformed {name} list {text!r}") from exc


def cmd_sweep(args):
    ns = _parse_list(args.n, int, "--n")
    kappas = _parse_list(args.kappa, float, "--kappa")
    diameters = _parse_list(args.diameter, float, "--diameter")
    if not (ns and kappas and diameters):
        raise InvalidParamsError("sweep needs nonempty --n/--kappa/--diameter lists")
    rows = []
    for n in sorted(ns):
        for kappa in sorted(kappas):
            for diameter in sorted(diameters):
                rows.append(_bounds_report(ModelParams(n, kappa, diameter), args.tol))
    fields = [
        "n", "kappa", "diameter", "sharp_mu", "lichnerowicz",
        "zhong_yang", "li_conjecture", "shi_zhang", "li_violated",
    ]
    return {"rows": rows}, (fields, rows)


# each flag is declared only on the subcommands whose command function reads it
_FLAGS = {
    "--flux": dict(default="heat", help="heat or plap:P[:EPS] (default heat)"),
    "--tol": dict(type=float, default=1e-9, help="solver tolerance (default 1e-9)"),
    "--grid": dict(type=int, default=256, help="grid cells (default 256)"),
    "--t-end": dict(dest="t_end", type=float, default=None,
                    help="evolution horizon (evolve: required; decay: 6/mu; verify-moc: 0.4)"),
    "--cfl": dict(type=float, default=0.4, help="fraction of the stable time step (default 0.4)"),
    "--seed": dict(type=int, default=0, help="nonnegative seed for initial data (default 0)"),
    "--warp-a": dict(dest="warp_a", type=float, default=None,
                     help="warp amplitude (default min(1, 1/(2*max(kappa, 0))))"),
}
_EIGEN_FLAGS = ("--tol",)
_EVOLUTION_FLAGS = ("--flux", "--grid", "--t-end", "--cfl", "--seed")

# subcommand -> (command function, help, flags beyond n/kappa/diameter/out/format)
_COMMANDS = {
    "eigen": (cmd_eigen, "first nonzero Neumann eigenvalue by shooting", _EIGEN_FLAGS),
    "bounds": (cmd_bounds, "classical closed-form bounds next to the sharp value",
               _EIGEN_FLAGS),
    "evolve": (cmd_evolve, "evolve a seeded concave modulus profile on [0, D/2]",
               _EVOLUTION_FLAGS),
    "decay": (cmd_decay, "oscillation decay rate of seeded odd data on the model geometry",
              _EVOLUTION_FLAGS),
    "verify-moc": (cmd_verify_moc, "two-point modulus check: radial flow against evolved modulus",
                   _EVOLUTION_FLAGS),
    "ricci": (cmd_ricci, "Ricci admissibility report of the model metric", ("--warp-a",)),
    "sweep": (cmd_sweep, "eigenvalue/bounds table over a parameter lattice", _EIGEN_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgap",
        description=(
            "Sharp diameter/Ricci lower bounds for the first nonzero Neumann "
            "eigenvalue, comparison-equation evolutions, and model-geometry checks."
        ),
        epilog=(
            "Each subcommand takes only the flags it reads; see 'specgap SUBCOMMAND "
            "--help'.  Defaults: n=3, kappa=0, diameter=2, tol=1e-9, grid=256, "
            "flux=heat, cfl=0.4, seed=0, format=json."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "sweep":
            p.add_argument("--n", default="3", help="comma-separated dimensions (default 3)")
            p.add_argument("--kappa", default="0",
                           help="comma-separated curvature bounds (default 0)")
            p.add_argument("--diameter", default="2",
                           help="comma-separated diameters (default 2)")
        else:
            p.add_argument("--n", type=int, default=3, help="dimension (default 3)")
            p.add_argument("--kappa", type=float, default=0.0,
                           help="Ricci curvature bound (default 0)")
            p.add_argument("--diameter", type=float, default=2.0,
                           help="diameter bound (default 2)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, (fieldnames, rows) = _COMMANDS[args.command][0](args)
        if args.format == "json":
            text = render_json(report) + "\n"
        else:
            text = render_csv(fieldnames, rows)
    except (InvalidParamsError, PoleError) as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 3
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

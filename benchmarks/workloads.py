"""Seeded inputs, items and correctness gates of the specgap benchmark.

Each workload is a fixed list of items built once from ``--seed``.  An item
calls the library's public API through a tracer (see ``run.py``), so the
same code serves timed and traced runs, and returns ``(ok, detail)``.  The
gates are plain functions of the results so that the benchmark's own tests
can feed them bad results.

Importing this module imports numpy and specgap; ``run.py`` puts the
checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from specgap import (
    Flux,
    Grid1D,
    ModelParams,
    Profile,
    StepControls,
    WarpedMetric,
    default_warp_amplitude,
    evolve,
    first_eigenvalue,
    fit_decay,
    flux_eval,
    integrate_phi,
    radial_flow,
    seeded_odd_initial_data,
    shi_zhang_bound,
    sl_fd_oracle_extrapolated,
    verify_moc,
)

# --- spectrum -------------------------------------------------------------

SHOOTING_TOL = 1e-9
ORACLE_CELLS = 2048
# criterion 03 standard for shooting against the reference value
MAX_REL_GAP = 1e-6
# criterion 06 standard for the bound chain
CHAIN_SLACK = 1e-8

LATTICE_SIZE = 9
# D spans two decades; kappa enters through kappa*D^2, which fixes the
# curvature class and keeps positive kappa well below Bonnet-Myers (pi^2).
D_RANGE = (0.05, 5.0)
NEGATIVE_KD2 = (-12.0, -0.1)
POSITIVE_KD2 = (0.1, 0.9 * math.pi**2)
LATTICE_JITTER = 0.005

# Eigenvalue defects (c) and (b) of ROADMAP open item 3.  Both miss
# MAX_REL_GAP at the commit that defined this benchmark and count as failed
# items; they are timed like every other point.  Defect (a), (2, 0, 1e-3),
# is left out: first_eigenvalue never returns there, so it cannot be timed.
KNOWN_DEFECTS = ((2, 0.0, 1000.0), (10, -1.0, 20.0))

# --- heat_flow ------------------------------------------------------------

DECAY_CELLS = 256
DECAY_SAMPLES = 48
DECAY_WINDOW = 0.5
MAX_DECAY_GAP = 0.02
EIGENPROFILE_CELLS = 512
EIGENPROFILE_T_END = 0.5
MAX_EIGENPROFILE_ERR = 1e-3
TWO_POINT_CELLS = 256
TWO_POINT_T_END = 0.4

# --- plap_moc -------------------------------------------------------------

PLAP = Flux.plaplacian(3.0, 1e-8)
PLAP_TIMES = (0.1, 0.25, 0.4)
PLAP_CASES = ((3, -1.0, 2.0), (3, 0.0, 2.0), (2, -1.0, math.pi))
PLAP_REFINED = (3, -1.0, 2.0)
MIN_DEFECT_SHRINK = 3.0

# The flow items take the inputs of the CLI defaults: n = 3, kappa = 0, D = 2.
CLI_DEFAULT = ModelParams(3, 0.0, 2.0)
CLI_CFL = 0.4


@dataclass(frozen=True)
class Item:
    """One unit of work: ``run(tracer, state) -> (ok, detail)``.

    ``state`` is a dict shared by the items of one pass, for gates that
    compare two items.  ``known_defect`` marks an item recorded as failing.
    """

    id: str
    run: Callable
    known_defect: bool = False


# --- gates ----------------------------------------------------------------


def spectrum_gate(params: ModelParams, mu: float, oracle: float) -> tuple[bool, float]:
    """Relative gap and bound chain for one shooting eigenvalue.

    The reference is pi^2/D^2 at kappa = 0 and the extrapolated oracle
    elsewhere.  The chain is mu >= Shi-Zhang >= half-point value.
    """
    n, kappa, d = params.n, params.kappa, params.diameter
    ref = math.pi**2 / d**2 if kappa == 0.0 else oracle
    gap = abs(mu - ref) / ref
    shi_zhang = shi_zhang_bound(n, kappa, d)
    half_value = math.pi**2 / d**2 + (n - 1) * kappa / 2.0
    chain = mu >= shi_zhang * (1.0 - CHAIN_SLACK) and shi_zhang >= half_value * (1.0 - CHAIN_SLACK)
    return gap <= MAX_REL_GAP and chain, gap


def decay_gate(rate: float, mu: float) -> tuple[bool, float]:
    gap = abs(rate - mu) / mu
    return gap <= MAX_DECAY_GAP, gap


def eigenprofile_gate(err: float) -> bool:
    return err <= MAX_EIGENPROFILE_ERR


def moc_gate(report) -> bool:
    return report.violations == 0


def shrink_gate(coarse_defect: float, fine_defect: float) -> bool:
    return coarse_defect >= MIN_DEFECT_SHRINK * fine_defect


# --- calls into the library, with their per-layer counts -----------------


def computed_steps(t_last: float, dt: float) -> int:
    """Explicit steps to reach t_last at step dt (computed, not counted)."""
    return math.ceil(t_last / dt - 1e-9)


def shoot(tr, params: ModelParams, tol: float):
    res = tr.call("sturm.first_eigenvalue", first_eigenvalue, params, tol)
    tr.add("sturm.first_eigenvalue", final_steps=res.steps, final_level_evals=res.iterations)
    return res


def two_point(tr, flux: Flux, params: ModelParams, phi0: Profile, u0: np.ndarray,
              times: list[float], dt: float, tol: float):
    """radial_flow and evolve on shared fixed_dt stamps, then verify_moc."""
    controls = StepControls(cfl=CLI_CFL, output_times=times, fixed_dt=dt)
    metric = WarpedMetric(params, default_warp_amplitude(params.kappa))
    steps = computed_steps(times[-1], dt)
    sol = tr.call("warped.radial_flow", radial_flow, metric, flux, u0, times[-1], controls)
    tr.add("warped.radial_flow", steps=steps)
    phis = tr.call("moc_pde.evolve", evolve, flux, params, phi0, times[-1], controls)
    tr.add("moc_pde.evolve", steps=steps)
    rep = tr.call("warped.verify_moc", verify_moc, sol, phis, tol)
    tr.add("warped.verify_moc", pairs=rep.pairs_checked, violations=rep.violations)
    tr.peak("warped.verify_moc", worst_margin_minus_tol=rep.worst_margin - tol)
    return rep


# --- spectrum -------------------------------------------------------------


def spectrum_lattice(rng: np.random.Generator) -> list[ModelParams]:
    """Stratified lattice with seeded jitter.

    Point i sits in the i-th log-spaced D stratum and takes its curvature
    class (negative, zero, positive) in turn.  n and the level of kappa*D^2
    inside its class range follow fixed scrambled patterns, so every n from
    2 to 10 appears once and no parameter tracks D.  The seed moves D and
    kappa*D^2 by up to LATTICE_JITTER relative: shooting cost jumps by 2x
    whenever a point crosses a grid-refinement threshold, and a free draw
    would make the pass time depend more on the seed than on the code.
    """
    lo, hi = D_RANGE
    points = []
    for i in range(LATTICE_SIZE):
        jitter_d, jitter_k = rng.uniform(-LATTICE_JITTER, LATTICE_JITTER, size=2)
        d = lo * (hi / lo) ** ((i + 0.5) / LATTICE_SIZE) * (1.0 + jitter_d)
        n = 2 + 5 * i % LATTICE_SIZE
        level = (7 * i % LATTICE_SIZE + 0.5) / LATTICE_SIZE
        k_lo, k_hi = (NEGATIVE_KD2, (0.0, 0.0), POSITIVE_KD2)[i % 3]
        kd2 = (k_lo + level * (k_hi - k_lo)) * (1.0 + jitter_k)
        points.append(ModelParams(n, kd2 / d**2, d))
    return points


def spectrum_item(tr, state, params: ModelParams):
    res = shoot(tr, params, SHOOTING_TOL)
    oracle = tr.call(
        "sturm.sl_fd_oracle_extrapolated", sl_fd_oracle_extrapolated, params, ORACLE_CELLS
    )
    tr.add("sturm.sl_fd_oracle_extrapolated", cells=3 * ORACLE_CELLS)
    ok, gap = spectrum_gate(params, res.mu, oracle)
    tr.peak("sturm.first_eigenvalue", max_rel_gap=gap)
    return ok, "mu=%.12e oracle=%.12e gap=%.2e" % (res.mu, oracle, gap)


def spectrum_items(seed: int) -> list[Item]:
    lattice = spectrum_lattice(np.random.default_rng(seed))
    items = [
        Item("spectrum/%d/%d,%.6g,%.6g" % (i, p.n, p.kappa, p.diameter),
             functools.partial(spectrum_item, params=p))
        for i, p in enumerate(lattice)
    ]
    items += [
        Item("spectrum/defect/%d,%g,%g" % triple,
             functools.partial(spectrum_item, params=ModelParams(*triple)), known_defect=True)
        for triple in KNOWN_DEFECTS
    ]
    return items


# --- heat_flow ------------------------------------------------------------


def decay_item(tr, state, params: ModelParams, seed: int):
    """Criterion 09 at the CLI decay defaults: seeded odd data decays at mu."""
    u0, mu = tr.call(
        "warped.seeded_odd_initial_data", seeded_odd_initial_data, params, DECAY_CELLS, seed
    )
    t_end = 2.0 * 3.0 / mu
    times = [t_end * (k + 1) / DECAY_SAMPLES for k in range(DECAY_SAMPLES)]
    controls = StepControls(cfl=CLI_CFL, output_times=times)
    metric = WarpedMetric(params, default_warp_amplitude(params.kappa))
    sol = tr.call("warped.radial_flow", radial_flow, metric, Flux.heat(), u0, t_end, controls)
    h = params.diameter / DECAY_CELLS
    tr.add("warped.radial_flow", steps=computed_steps(t_end, CLI_CFL * h * h))
    rate = tr.call("warped.fit_decay", fit_decay, sol.oscillations(), DECAY_WINDOW)
    ok, gap = decay_gate(rate, mu)
    tr.peak("warped.fit_decay", max_gap=gap)
    return ok, "rate=%.10f mu=%.10f gap=%.2e" % (rate, mu, gap)


def eigenprofile_item(tr, state):
    """Criterion 08 at 512 cells: the shooting profile decays as exp(-sigma t)."""
    params = ModelParams(3, -1.0, 2.0)
    sigma = 0.9 * shoot(tr, params, SHOOTING_TOL).mu
    traj = tr.call("sturm.integrate_phi", integrate_phi, params, sigma, EIGENPROFILE_CELLS)
    grid = Grid1D(params.half_diameter, EIGENPROFILE_CELLS)
    phi0 = Profile(grid=grid, t=0.0, values=traj.phi)
    slope_end = float(traj.dphi[-1])
    controls = StepControls(right_flux=lambda t: slope_end * math.exp(-sigma * t))
    (out,) = tr.call("moc_pde.evolve", evolve, Flux.heat(), params, phi0,
                     EIGENPROFILE_T_END, controls)
    tr.add("moc_pde.evolve", steps=computed_steps(EIGENPROFILE_T_END, controls.cfl * grid.h**2))
    exact = np.exp(-sigma * out.t) * traj.phi
    err = float(np.max(np.abs(out.values - exact)) / np.max(np.abs(exact)))
    tr.peak("moc_pde.evolve", eigenprofile_err=err)
    return eigenprofile_gate(err), "err=%.3e" % err


def concave_modulus(params: ModelParams, cells: int, rng: np.random.Generator) -> Profile:
    """Seeded concave nondecreasing modulus with unit oscillation."""
    grid = Grid1D(params.half_diameter, cells)
    weights = rng.uniform(0.2, 1.0, size=4)
    x = grid.nodes / params.half_diameter
    values = np.zeros_like(x)
    for k, w in enumerate(weights, start=1):
        values += w * (1.0 - (1.0 - x) ** (k + 1))
    values /= values[-1]
    values[0] = 0.0
    return Profile(grid=grid, t=0.0, values=values)


def heat_two_point_item(tr, state, params: ModelParams, phi0: Profile):
    """The heat two-point check at the CLI verify-moc defaults."""
    # odd extension of the modulus, subsampled onto the radial grid
    u0 = np.concatenate([-phi0.values[::2][:0:-1], phi0.values[::2]])
    dt = 0.75 * CLI_CFL * phi0.grid.h**2
    times = [TWO_POINT_T_END * (k + 1) / 5.0 for k in range(5)]
    h_u = params.diameter / TWO_POINT_CELLS
    tol = 5.0 * h_u * h_u * float(np.max(u0) - np.min(u0))
    rep = two_point(tr, Flux.heat(), params, phi0, u0, times, dt, tol)
    return moc_gate(rep), "violations=%d worst-tol=%.3e" % (rep.violations, rep.worst_margin - tol)


def heat_flow_items(seed: int) -> list[Item]:
    phi0 = concave_modulus(CLI_DEFAULT, TWO_POINT_CELLS, np.random.default_rng(seed))
    return [
        Item("heat_flow/decay", functools.partial(decay_item, params=CLI_DEFAULT, seed=seed)),
        Item("heat_flow/eigenprofile", eigenprofile_item),
        Item("heat_flow/two_point",
             functools.partial(heat_two_point_item, params=CLI_DEFAULT, phi0=phi0)),
    ]


# --- plap_moc -------------------------------------------------------------


def plap_inputs(triple, cells: int):
    """Criterion 10 inputs: sine modulus, odd sine radial data, shared dt."""
    params = ModelParams(*triple)
    d = params.diameter
    grid = Grid1D(d / 2.0, cells)
    phi0 = Profile(grid=grid, t=0.0, values=np.sin(math.pi * grid.nodes / d))
    s = -d / 2.0 + np.arange(cells + 1) * (d / cells)
    u0 = np.sign(s) * np.sin(math.pi * np.abs(s) / d)
    grads = np.gradient(phi0.values, grid.h)
    alpha_max = max(flux_eval(PLAP, float(q))[0] for q in grads)
    dt = 0.3 * grid.h**2 / max(1.0, alpha_max)
    tol = 5.0 * (d / cells) ** 2 * float(np.max(u0) - np.min(u0))
    return params, phi0, u0, dt, tol


def plap_item(tr, state, inputs, key: str, coarse_key: str | None):
    params, phi0, u0, dt, tol = inputs
    rep = two_point(tr, PLAP, params, phi0, u0, list(PLAP_TIMES), dt, tol)
    state[key] = rep.antipodal_defect
    ok = moc_gate(rep)
    detail = "violations=%d defect=%.3e" % (rep.violations, rep.antipodal_defect)
    if coarse_key is not None:
        coarse = state.get(coarse_key, math.nan)
        ok = ok and shrink_gate(coarse, rep.antipodal_defect)
        detail += " shrink=%.2f" % (coarse / rep.antipodal_defect)
    return ok, detail


def plap_moc_items(seed: int) -> list[Item]:
    items = []
    for triple in PLAP_CASES:
        key = "%d,%g,%g@64" % triple
        items.append(Item("plap_moc/" + key, functools.partial(
            plap_item, inputs=plap_inputs(triple, 64), key=key, coarse_key=None)))
    key = "%d,%g,%g@128" % PLAP_REFINED
    items.append(Item("plap_moc/" + key, functools.partial(
        plap_item, inputs=plap_inputs(PLAP_REFINED, 128), key=key,
        coarse_key="%d,%g,%g@64" % PLAP_REFINED)))
    return items


WORKLOADS = {
    "spectrum": spectrum_items,
    "heat_flow": heat_flow_items,
    "plap_moc": plap_moc_items,
}

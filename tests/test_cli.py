import json
import math
import re
import subprocess
import sys
from dataclasses import asdict

import pytest

from specgap.cli import main, parse_flux, render_json
from specgap import (
    Flux,
    InvalidParamsError,
    ModelParams,
    decay_check,
    seeded_concave_modulus,
    two_point_check,
)

PI = "3.141592653589793"

ALL_FLAGS = ("--n", "--kappa", "--diameter", "--flux", "--tol", "--grid", "--t-end",
             "--cfl", "--seed", "--warp-a", "--out", "--format")
COMMON = ("--n", "--kappa", "--diameter", "--out", "--format")
EVOLUTION = COMMON + ("--flux", "--grid", "--t-end", "--cfl", "--seed")
READ_FLAGS = {
    "eigen": COMMON + ("--tol",),
    "bounds": COMMON + ("--tol",),
    "sweep": COMMON + ("--tol",),
    "evolve": EVOLUTION,
    "decay": EVOLUTION,
    "verify-moc": EVOLUTION,
    "ricci": COMMON + ("--warp-a",),
}
UNREAD_FLAGS = [(c, f) for c, read in READ_FLAGS.items() for f in ALL_FLAGS if f not in read]
PARAMS_KEYS = ["n", "kappa", "diameter"]
BOUNDS_KEYS = PARAMS_KEYS + ["sharp_mu", "lichnerowicz", "zhong_yang", "li_conjecture",
                             "shi_zhang", "li_violated"]
VERIFY_MOC_KEYS = PARAMS_KEYS + ["flux", "grid", "seed", "t_end", "tol", "violations",
                                 "worst_margin", "antipodal_defect", "pairs_checked",
                                 "times_checked"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEigenCommand:
    def test_flat_eigenvalue(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--n", "3", "--kappa", "0", "--diameter", PI, "--tol", "1e-9"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mu"] - 1.0) < 1e-8
        assert payload["steps"] >= 128

    def test_bonnet_myers_rejection(self, capsys):
        code, out, err = run_cli(capsys, "eigen", "--n", "2", "--kappa", "4", "--diameter", "2.0")
        assert code == 2
        assert out == ""
        assert "Bonnet-Myers" in err

    def test_tiny_diameter_exits_3(self, capsys):
        # mu = pi^2/D^2 overflows here: the unit-size level's mu cannot be scaled back
        code, out, err = run_cli(capsys, "eigen", "--diameter", "1e-300")
        assert code == 3
        assert out == ""
        assert err == ("error: solver did not converge: mu = 22.006368587465907 * 4^996 "
                       "is outside the double range\n")

    def test_huge_diameter_exits_3(self, capsys):
        # tol*D^2 overflows: mu = pi^2/D^2 would underflow to a bisection floor
        code, out, err = run_cli(capsys, "eigen", "--diameter", "1e200")
        assert code == 3
        assert out == ""
        assert "outside the double range" in err

    def test_determinism(self, capsys):
        _, out_a, _ = run_cli(capsys, "eigen", "--n", "5", "--kappa", "-0.5", "--diameter", "2")
        _, out_b, _ = run_cli(capsys, "eigen", "--n", "5", "--kappa", "-0.5", "--diameter", "2")
        assert out_a == out_b

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "3", "--kappa", "0", "--diameter", "2",
                            "--tol", "1e-7")
        assert '"zhong_yang": 2.46740110027' in out


class TestBoundsCommand:
    def test_li_violation_flag(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--kappa", "0.1", "--diameter", PI)
        assert code == 0
        payload = json.loads(out)
        assert payload["li_violated"] is True
        assert payload["sharp_mu"] < payload["li_conjecture"]

    def test_lichnerowicz_omitted_for_flat(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "3", "--kappa", "0", "--diameter", "2",
                            "--tol", "1e-7")
        payload = json.loads(out)
        assert "lichnerowicz" not in payload

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--kappa", "0", "--diameter", "2",
                               "--tol", "1e-7", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[:4] == ["n", "kappa", "diameter", "sharp_mu"]
        assert row.split(",")[0] == "3"

    @pytest.mark.parametrize("kappa", ["0", "0.5"])
    def test_csv_header_is_sweeps(self, capsys, kappa):
        # one record, one CSV schema: lichnerowicz is an empty cell for kappa <= 0
        args = ("--kappa", kappa, "--tol", "1e-7", "--format", "csv")
        _, bounds_out, _ = run_cli(capsys, "bounds", *args)
        _, sweep_out, _ = run_cli(capsys, "sweep", *args)
        assert bounds_out.split("\n")[0] == sweep_out.split("\n")[0]


class TestEvolveCommand:
    def test_profile_series(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--n", "2", "--kappa", "0", "--diameter", "2",
                               "--grid", "32", "--t-end", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["times"]) == 9
        assert len(payload["profiles"]) == 9
        assert len(payload["profiles"][0]) == 33
        assert payload["times"][0] == 0.0
        assert payload["profiles"][0][0] == 0.0

    def test_missing_t_end(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--grid", "32")
        assert code == 2
        assert "t-end" in err

    def test_degenerate_flux_exits_3(self, capsys, recwarn):
        # 0 ** -0.25 divides by zero: alpha = inf is refused without a warning
        code, _, err = run_cli(capsys, "evolve", "--n", "2", "--kappa", "0", "--diameter", "2",
                               "--grid", "32", "--t-end", "0.1", "--flux", "plap:1.5:0")
        assert code == 3
        assert "converge" in err
        assert not recwarn.list

    def test_step_budget_exits_3_before_stepping(self):
        # 6.4e8 explicit steps: over the budget, so refused before the first step
        proc = subprocess.run(
            [sys.executable, "-m", "specgap.cli", "evolve", "--t-end", "1e6", "--grid", "16"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "t_end = 1e+06" in proc.stderr and "640000000" in proc.stderr

    def test_adaptive_plaplacian_step_budget_exits_3(self):
        # dt settles near 7.8e-4, so about 1.3e8 steps: refused once dt has
        # settled, long before the step count reaches the budget
        proc = subprocess.run(
            [sys.executable, "-m", "specgap.cli", "evolve", "--flux", "plap:3",
             "--t-end", "1e5", "--grid", "16"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "t_end = 100000" in proc.stderr and "67108864" in proc.stderr

    def test_blown_up_march_exits_3(self, capsys, recwarn):
        # the explicit heat scheme would blow up at this drift: the cell Peclet
        # number is 3.95, so the grid is refused before the first step
        code, out, err = run_cli(capsys, "evolve", "--kappa", "-4000", "--grid", "16",
                                 "--t-end", "100")
        assert code == 3
        assert out == ""
        assert err.startswith("error: solver did not converge:")
        assert "Peclet number is 3.95285" in err and "refine the grid" in err
        assert err.count("\n") == 1
        assert not recwarn.list

    def test_csv_long_format(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--n", "2", "--kappa", "0", "--diameter", "2",
                               "--grid", "32", "--t-end", "0.05", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,s,phi"
        assert len(lines) == 1 + 9 * 33


    def test_fast_diffusion_without_eps_exits_2(self):
        # the automatic eps puts alpha = (p-1)*eps^(p-2) at the Neumann end's zero
        # gradient: unrefused, this march takes seconds on 32 cells and exits 0
        proc = subprocess.run(
            [sys.executable, "-m", "specgap.cli", "evolve", "--flux", "plap:1.5",
             "--t-end", "0.01", "--grid", "32"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "plap:P:EPS" in proc.stderr


class TestDecayCommand:
    def test_rate_matches_eigenvalue(self, capsys):
        code, out, _ = run_cli(capsys, "decay", "--n", "2", "--kappa", "-1", "--diameter", PI,
                               "--grid", "128", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["relative_gap"] < 0.02
        assert len(payload["t"]) == len(payload["osc"]) == 48

    def test_seed_controls_output(self, capsys):
        args = ["decay", "--n", "2", "--kappa", "-1", "--diameter", PI, "--grid", "128"]
        _, out_a, _ = run_cli(capsys, *args, "--seed", "3")
        _, out_b, _ = run_cli(capsys, *args, "--seed", "3")
        _, out_c, _ = run_cli(capsys, *args, "--seed", "4")
        assert out_a == out_b
        assert out_a != out_c

    def test_non_heat_flux_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "decay", "--grid", "64", "--flux", "plap:3")
        assert code == 2
        assert out == ""
        assert "mu" in err and "plap:3" in err

    def test_p2_flux_is_heat(self, capsys):
        args = ["decay", "--grid", "64"]
        code, out_p2, _ = run_cli(capsys, *args, "--flux", "plap:2")
        _, out_heat, _ = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(out_p2)
        assert payload["flux"] == "plap:2"
        assert payload["relative_gap"] < 0.02
        assert payload["osc"] == json.loads(out_heat)["osc"]

    def test_t_end_shorter_than_a_step_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "decay", "--t-end", "1e-6", "--grid", "64")
        assert code == 2
        assert out == ""
        assert "--t-end" in err and "0.000390625" in err

    @pytest.mark.parametrize("t_end", ["0", "-1"])
    def test_nonpositive_t_end_exits_2(self, capsys, t_end):
        code, out, err = run_cli(capsys, "decay", "--t-end", t_end, "--grid", "64")
        assert code == 2
        assert out == ""
        assert "t_end must be positive" in err and "too short" not in err

    def test_report_is_decay_check(self, capsys):
        _, out, _ = run_cli(capsys, "decay", "--grid", "64")
        params = ModelParams(3, 0.0, 2.0)
        report = {**asdict(params), "flux": "heat", "grid": 64, "seed": 0,
                  **asdict(decay_check(params, 64, 0))}
        assert out == render_json(report) + "\n"

    def test_blown_up_march_exits_3(self, capsys, recwarn):
        # the explicit heat scheme would blow up at this drift (cell Peclet
        # number 1.98): the grid is refused before the first step, with one
        # error line, instead of reaching the fit and the report
        code, out, err = run_cli(capsys, "decay", "--kappa", "-4000", "--grid", "64",
                                 "--t-end", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("error: solver did not converge:")
        assert "Peclet number is 1.97642" in err and "refine the grid" in err
        assert err.count("\n") == 1
        assert not recwarn.list


class TestVerifyMocCommand:
    def test_no_violations_reported(self, capsys):
        code, out, _ = run_cli(capsys, "verify-moc", "--n", "3", "--kappa", "-1",
                               "--diameter", "2", "--grid", "64")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["worst_margin"] <= payload["tol"]

    def test_report_is_two_point_check(self, capsys):
        _, out, _ = run_cli(capsys, "verify-moc", "--grid", "64", "--seed", "3")
        params, heat = ModelParams(3, 0.0, 2.0), Flux.heat()
        phi0 = seeded_concave_modulus(params, 64, 3)
        times = [0.4 * (k + 1) / 5.0 for k in range(5)]
        rep = two_point_check(heat, params, phi0, times)
        report = {**asdict(params), "flux": "heat", "grid": 64, "seed": 3, "t_end": 0.4,
                  **asdict(rep)}
        assert out == render_json(report) + "\n"

    def test_plaplacian_flux_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify-moc", "--n", "3", "--kappa", "0",
                               "--diameter", "2", "--grid", "64", "--flux", "plap:3:1e-8")
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_plaplacian_step_budget_exits_3_before_stepping(self):
        # 1.3e10 steps at the shared fixed_dt: over the budget, so refused
        # before the first step
        proc = subprocess.run(
            [sys.executable, "-m", "specgap.cli", "verify-moc", "--flux", "plap:3",
             "--t-end", "1e4"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "t_end = 10000" in proc.stderr and "12907784339" in proc.stderr

    def test_fast_diffusion_without_eps_exits_2(self, capsys):
        # its automatic eps would put alpha near 5000 at the Neumann ends,
        # far above the initial-gradient estimate behind the shared fixed dt
        code, out, err = run_cli(capsys, "verify-moc", "--flux", "plap:1.5", "--grid", "32")
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid parameters:") and "plap:P:EPS" in err
        assert "fixed_dt" not in err

    @pytest.mark.parametrize("flux, dt", [("heat", "0.000292969"), ("plap:3", "5.12004e-05")])
    def test_t_end_shorter_than_a_step_names_the_flag(self, capsys, flux, dt):
        # all five checked times would snap to t = 0: nothing evolved is checked
        code, out, err = run_cli(capsys, "verify-moc", "--t-end", "1e-9", "--grid", "32",
                                 "--flux", flux)
        assert code == 2
        assert out == ""
        assert "--t-end" in err and dt in err and "--grid" in err and "--cfl" in err

    @pytest.mark.parametrize("t_end", ["0", "-1"])
    @pytest.mark.parametrize("flux", ["heat", "plap:3"])
    def test_nonpositive_t_end_exits_2(self, capsys, t_end, flux):
        code, out, err = run_cli(capsys, "verify-moc", "--t-end", t_end, "--grid", "32",
                                 "--flux", flux)
        assert code == 2
        assert out == ""
        assert "t_end must be positive" in err and "too short" not in err

    @pytest.mark.parametrize("grid", ["16", "30", "31"])
    def test_small_or_odd_grid_names_the_flag(self, capsys, grid):
        # the radial grid needs at least 33 nodes: the refusal is about --grid, not u0
        code, out, err = run_cli(capsys, "verify-moc", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err == ("error: invalid parameters: verify-moc needs an even --grid >= 32, "
                       "got %s\n" % grid)


@pytest.mark.parametrize("t_end", ["inf", "nan"])
@pytest.mark.parametrize("command", ["evolve", "decay", "verify-moc"])
def test_nonfinite_t_end_exits_2(capsys, command, t_end):
    # the refusal names both conditions: an infinite horizon is positive
    code, out, err = run_cli(capsys, command, "--t-end", t_end, "--grid", "64")
    assert code == 2
    assert out == ""
    assert "t_end must be positive and finite, got %s" % t_end in err


@pytest.mark.parametrize("argv, message", [
    (("eigen", "--tol", "inf"), "tol must be positive and finite, got inf"),
    (("eigen", "--tol", "nan"), "tol must be positive and finite, got nan"),
    (("eigen", "--diameter", "inf"), "diameter must be positive and finite, got inf"),
    (("sweep", "--diameter", "nan"), "diameter must be positive and finite, got nan"),
    (("evolve", "--flux", "plap:inf", "--t-end", "0.01", "--grid", "32"),
     "p-Laplacian flux requires p finite and > 1, got inf"),
    (("ricci", "--warp-a", "inf"), "warp amplitude must be positive and finite, got inf"),
])
def test_nonfinite_inputs_exit_2(capsys, argv, message):
    # each refusal names both conditions, as for --t-end
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


class TestRicciCommand:
    def test_admissible_report(self, capsys):
        code, out, _ = run_cli(capsys, "ricci", "--n", "3", "--kappa", "0", "--warp-a", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["radial"] == 0.0
        assert abs(payload["tangential_min"] - 0.2) < 1e-12
        assert payload["admissible"] is True

    def test_inadmissible_report(self, capsys):
        code, out, _ = run_cli(capsys, "ricci", "--n", "4", "--kappa", "1", "--diameter", "2",
                               "--warp-a", "2")
        assert code == 0
        assert json.loads(out)["admissible"] is False

    def test_default_amplitude_used(self, capsys):
        _, out, _ = run_cli(capsys, "ricci", "--n", "3", "--kappa", "2", "--diameter", "1")
        assert json.loads(out)["warp_a"] == 0.25

    @pytest.mark.parametrize("diameter", ["720", "2000"])
    def test_huge_negative_curvature_diameter(self, diameter):
        # ck^2 at D/2 overflows a float; the fiber term it divides fades to 0
        proc = subprocess.run(
            [sys.executable, "-m", "specgap.cli", "ricci", "--kappa", "-1", "--diameter", diameter],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["tangential_min"] == payload["radial"] == -2


class TestSweepCommand:
    def test_rows_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "3,2", "--kappa=0.25,-0.25",
                               "--diameter", "2", "--tol", "1e-7")
        assert code == 0
        rows = json.loads(out)["rows"]
        keys = [(r["n"], r["kappa"], r["diameter"]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 4

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--kappa", "0", "--diameter", "1,2",
                               "--tol", "1e-7", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,kappa,diameter,sharp_mu,lichnerowicz,zhong_yang,li_conjecture,shi_zhang,li_violated"
        assert len(lines) == 3
        # lichnerowicz column empty for kappa <= 0
        assert lines[1].split(",")[4] == ""

    def test_malformed_list(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "2;3")
        assert code == 2
        assert "invalid parameters" in err


@pytest.mark.parametrize("argv, keys", [
    (("eigen",), PARAMS_KEYS + ["mu", "bracket_lo", "bracket_hi", "iterations",
                                "tol_achieved", "steps"]),
    (("bounds", "--kappa", "0.5"), BOUNDS_KEYS),
    (("ricci",), PARAMS_KEYS + ["warp_a", "radial", "tangential_min", "admissible"]),
    (("verify-moc", "--grid", "32"), VERIFY_MOC_KEYS),
    (("sweep", "--format", "csv"), BOUNDS_KEYS),
    (("verify-moc", "--grid", "32", "--format", "csv"), VERIFY_MOC_KEYS),
])
def test_report_layout(capsys, argv, keys):
    # the keys and their order come from the library records: a renamed field shows here
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if "csv" in argv:
        assert out.split("\n")[0].split(",") == keys
    else:
        assert list(json.loads(out)) == keys


class TestOutputHandling:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "eigen", "--n", "2", "--kappa", "0", "--diameter", "2",
                               "--tol", "1e-7", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["mu"] == pytest.approx(math.pi**2 / 4, rel=1e-6)

    def test_unwritable_path_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--n", "2", "--kappa", "0", "--diameter", "2",
                               "--tol", "1e-7", "--out", "/nonexistent-dir/report.json")
        assert code == 1
        assert "cannot write" in err

    def test_unknown_flux_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--t-end", "0.1", "--flux", "advection")
        assert code == 2
        assert "flux" in err

    def test_infinite_epsilon_exits_2(self, capsys):
        # epsilon = inf would give alpha = 0 at p < 2: a silently stationary run
        code, out, err = run_cli(capsys, "evolve", "--flux", "plap:1.5:inf", "--t-end", "0.01",
                                 "--grid", "32")
        assert code == 2
        assert out == ""
        assert "epsilon" in err

    @pytest.mark.parametrize("argv", [
        ("evolve", "--t-end", "0.1", "--seed", "-1"),
        ("decay", "--seed", "-3"),
        ("verify-moc", "--seed", "-2"),
    ])
    def test_negative_seed_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid parameters:") and "seed" in err

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_is_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", READ_FLAGS)
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
        assert listed == set(READ_FLAGS[command])

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestHelpers:
    def test_parse_flux(self):
        assert parse_flux("heat").is_heat
        f = parse_flux("plap:3")
        assert f.p == 3.0 and f.epsilon is None
        f = parse_flux("plap:2.5:1e-6")
        assert f.p == 2.5 and f.epsilon == 1e-6
        for bad in ("plap", "plap:abc", "heat:1", "fourier"):
            with pytest.raises(InvalidParamsError):
                parse_flux(bad)

    def test_render_json_digits_and_structure(self):
        text = render_json({"a": math.pi, "b": [1.0, 2.5], "c": {"d": True}, "e": "x"})
        parsed = json.loads(text)
        assert parsed["a"] == pytest.approx(math.pi, rel=1e-11)
        assert "3.14159265359" in text
        assert parsed["c"]["d"] is True

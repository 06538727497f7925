import json
import math
import re

import pytest

from specgap.cli import main, parse_flux, render_json
from specgap import InvalidParamsError

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

    def test_degenerate_flux_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--n", "2", "--kappa", "0", "--diameter", "2",
                               "--grid", "32", "--t-end", "0.1", "--flux", "plap:1.5:0")
        assert code == 3
        assert "converge" in err

    def test_csv_long_format(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--n", "2", "--kappa", "0", "--diameter", "2",
                               "--grid", "32", "--t-end", "0.05", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,s,phi"
        assert len(lines) == 1 + 9 * 33


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


class TestVerifyMocCommand:
    def test_no_violations_reported(self, capsys):
        code, out, _ = run_cli(capsys, "verify-moc", "--n", "3", "--kappa", "-1",
                               "--diameter", "2", "--grid", "64")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["worst_margin"] <= payload["tol"]

    def test_plaplacian_flux_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify-moc", "--n", "3", "--kappa", "0",
                               "--diameter", "2", "--grid", "64", "--flux", "plap:3:1e-8")
        assert code == 0
        assert json.loads(out)["violations"] == 0


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

import argparse
import json
import math

import numpy as np
import pytest

from wigg2 import __version__, coherent
from wigg2.cli import build_parser, main

# exit codes: 0 ok, 2 usage, 3 domain, 4 statistical instability


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestG2:
    def test_thermal(self, capsys):
        code, out, _ = run(capsys, "g2", "--thermal", "1.0")
        assert code == 0
        rep = json.loads(out)
        assert rep["g2"] == pytest.approx(2.0, rel=1e-12)
        assert rep["mean_photon"] == pytest.approx(1.0, rel=1e-12)
        assert rep["moments"]["nw"] == pytest.approx(1.5, rel=1e-12)

    def test_squeezed_with_attenuation(self, capsys):
        # g2 is loss-immune
        c0, o0, _ = run(capsys, "g2", "--squeezed", "0.5", "0")
        c1, o1, _ = run(capsys, "g2", "--squeezed", "0.5", "0",
                        "--attenuate", "0.3")
        assert c0 == c1 == 0
        assert json.loads(o0)["g2"] == pytest.approx(
            json.loads(o1)["g2"], rel=1e-9)

    def test_state_file(self, capsys, tmp_path):
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"mean": [1.0, 1.0],
                                 "cov": [0.5, 0.0, 0.5]}))
        code, out, _ = run(capsys, "g2", "--file", str(f))
        assert code == 0
        assert json.loads(out)["moments"]["nw2"] == pytest.approx(3.5,
                                                                  rel=1e-12)

    def test_vacuum_guard_exit_3(self, capsys):
        code, _, err = run(capsys, "g2", "--coherent", "0", "0")
        assert code == 3
        assert err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_bad_epsilon_exit_3(self, capsys, epsilon):
        # a NaN epsilon switched the near-vacuum guard off (exit 0, g2 2)
        code, _, err = run(capsys, "g2", "--thermal", "1e-12",
                           "--epsilon", epsilon)
        assert code == 3
        assert "epsilon" in err

    def test_overflowing_state_exit_3(self, capsys):
        # |mu|^2 = 1e320 overflows a double
        code, _, err = run(capsys, "g2", "--coherent", "1e160", "0")
        assert code == 3
        assert "overflows" in err

    def test_non_finite_squeezing_angle_exit_3(self, capsys):
        code, _, err = run(capsys, "g2", "--squeezed", "0.5", "inf")
        assert code == 3
        assert "non-finite" in err

    def test_usage_requires_exactly_one_state(self, capsys):
        code, _, _ = run(capsys, "g2")
        assert code == 2
        code, _, _ = run(capsys, "g2", "--thermal", "1", "--coherent", "1", "0")
        assert code == 2


class TestFig1:
    def test_csv_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "fig1", "--n-min", "0.01", "--n-max", "10",
                         "--points", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,g2_coherent,g2_thermal,g2_squeezed"
        first = lines[2].split(",")
        assert float(first[0]) == pytest.approx(0.01)
        assert float(first[1]) == 1.0
        assert float(first[2]) == 2.0
        assert float(first[3]) == pytest.approx(3 + 1 / 0.01, rel=1e-12)
        manifest = json.loads((tmp_path / "fig1.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "fig1"
        assert str(out) in manifest["outputs"]

    def test_rerun_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "fig1", "--points", "20", "--out", str(a))
        run(capsys, "fig1", "--points", "20", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fig1", "--n-min", "5", "--n-max", "1",
                         "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestPn:
    def test_thermal_distribution(self, capsys):
        code, out, _ = run(capsys, "pn", "--thermal", "1.0", "--n-max", "40")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "n,p"
        p0 = float(lines[1].split(",")[1])
        p1 = float(lines[2].split(",")[1])
        assert p0 == pytest.approx(0.5, abs=1e-9)
        assert p1 == pytest.approx(0.25, abs=1e-9)

    def test_truncation_exit_3(self, capsys):
        code, _, err = run(capsys, "pn", "--thermal", "5.0", "--n-max", "8")
        assert code == 3
        assert "n_max" in err or err

    def test_non_finite_distribution_exit_3(self, capsys):
        # <n> = 800 overflows the Fock recursion in double precision
        code, out, err = run(capsys, "pn", "--coherent", "40", "0",
                             "--n-max", "1300")
        assert code == 3
        assert "non-finite" in err
        assert "nan" not in out.lower()

    @pytest.mark.parametrize("tol", ["nan", "-1e-3"])
    def test_bad_tol_exit_3(self, capsys, tol):
        # a NaN tol used to accept any tail (tail_mass 4.9e-4 here)
        code, out, err = run(capsys, "pn", "--thermal", "1", "--n-max", "10",
                             f"--tol={tol}")
        assert code == 3
        assert "tol" in err
        assert out == ""

    def test_manifest_names_state(self, capsys, tmp_path):
        params = []
        for nbar in ("1.0", "2.0"):
            f = tmp_path / f"pn{nbar}.csv"
            code, _, _ = run(capsys, "pn", "--thermal", nbar, "--n-max", "80",
                             "--out", str(f))
            assert code == 0
            manifest = json.loads((tmp_path / f"pn{nbar}.csv.manifest.json")
                                  .read_text())
            params.append(manifest["params"])
        assert params[0]["state"] == {"mean": [0.0, 0.0], "cov": [1.5, 0.0, 1.5]}
        assert params[0] != params[1]


class TestCount:
    def test_csv_columns_and_determinism(self, capsys, tmp_path):
        argv = ["count", "--thermal", "0.2", "--windows", "200000",
                "--seed", "3"]
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        code, out2, _ = run(capsys, *argv)
        assert out1 == out2
        header = [l for l in out1.splitlines() if not l.startswith("#")][0]
        assert header == "theta_deg,g2_direct,g2_direct_err,n1,n2,nc,n_windows"

    def test_out_file_and_manifest(self, capsys, tmp_path):
        f = tmp_path / "count.csv"
        code, _, _ = run(capsys, "count", "--thermal", "0.1", "--windows",
                         "50000", "--out", str(f))
        assert code == 0
        assert f.exists()
        assert (tmp_path / "count.csv.manifest.json").exists()

    def test_bright_coherent_state(self, capsys):
        # <n> = 800, whose p(n) overflows the Fock recursion: every window
        # clicks on both detectors
        code, out, _ = run(capsys, "count", "--coherent", "40", "0",
                           "--windows", "10000")
        assert code == 0
        row = [l for l in out.splitlines() if not l.startswith("#")][1]
        assert row.split(",")[3:] == ["10000"] * 4

    def test_manifest_names_state(self, capsys, tmp_path):
        f = tmp_path / "count.csv"
        code, _, _ = run(capsys, "count", "--squeezed", "0.5", "0",
                         "--attenuate", "0.5", "--windows", "20000",
                         "--out", str(f))
        assert code == 0
        manifest = json.loads((tmp_path / "count.csv.manifest.json").read_text())
        assert manifest["params"]["state"] == {"mean": [0.0, 0.0],
                                               "cov": [0.375, 0.0, 0.75]}

    def test_vacuum_no_singles_exit_4(self, capsys):
        code, _, _ = run(capsys, "count", "--coherent", "0", "0",
                         "--windows", "1000")
        assert code == 4


class TestHomodyne:
    def test_samples_csv(self, capsys, tmp_path):
        f = tmp_path / "hd.csv"
        code, _, _ = run(capsys, "homodyne", "--thermal", "0.5", "--angles",
                         "0,45,90", "--per-angle", "100", "--seed", "9",
                         "--out", str(f))
        assert code == 0
        lines = f.read_text().splitlines()
        assert lines[0].startswith(f"# wigg2 {__version__} homodyne: ")
        assert lines[1] == "theta_rad,x"
        assert len(lines) == 2 + 3 * 100

    def test_header_is_manifest_comment(self, capsys, tmp_path):
        # the same '# wigg2 <version> <subcommand>: k=v, ...' line as the
        # other subcommands, from the params of the manifest
        f = tmp_path / "hd.csv"
        code, _, _ = run(capsys, "homodyne", "--thermal", "0.5", "--angles",
                         "0,90", "--per-angle", "3", "--eta-hd", "0.8",
                         "--seed", "9", "--out", str(f))
        assert code == 0
        params = json.loads((tmp_path / "hd.csv.manifest.json").read_text())[
            "params"]
        assert params == {"angles": "0,90", "epsilon": 1e-9, "eta_hd": 0.8,
                          "per_angle": 3, "reconstruct": False, "seed": 9,
                          "state": {"mean": [0.0, 0.0],
                                    "cov": [1.0, 0.0, 1.0]}}
        assert f.read_text().splitlines()[0] == (
            f"# wigg2 {__version__} homodyne: angles=0,90, epsilon=1e-09, "
            "eta_hd=0.8, per_angle=3, reconstruct=False, seed=9, "
            "state={'mean': [0.0, 0.0], 'cov': [1.0, 0.0, 1.0]}")

    def test_reconstruct_json(self, capsys):
        code, out, _ = run(capsys, "homodyne", "--squeezed", "0.5", "0",
                           "--per-angle", "20000", "--seed", "4",
                           "--reconstruct", "--out", "/dev/null")
        assert code == 0
        rep = json.loads(out)
        assert rep["cov"][0] == pytest.approx(0.25, rel=0.05)
        assert rep["g2_ci"][0] <= rep["g2"] <= rep["g2_ci"][1]

    def test_manifest_names_state(self, capsys, tmp_path):
        f = tmp_path / "hd.csv"
        code, _, _ = run(capsys, "homodyne", "--coherent", "1", "-2",
                         "--angles", "0,90", "--per-angle", "10",
                         "--out", str(f))
        assert code == 0
        manifest = json.loads((tmp_path / "hd.csv.manifest.json").read_text())
        assert manifest["params"]["state"] == {"mean": [1.0, -2.0],
                                               "cov": [0.5, 0.0, 0.5]}

    def test_negative_seed_exit_3(self, capsys):
        code, _, err = run(capsys, "homodyne", "--squeezed", "0.5", "0",
                           "--per-angle", "100", "--seed", "-1",
                           "--reconstruct")
        assert code == 3
        assert "seed" in err

    def test_reconstruct_without_out_exit_2(self, capsys):
        # samples CSV and JSON report would share stdout, and neither parse
        code, out, err = run(capsys, "homodyne", "--squeezed", "0.5", "0",
                             "--per-angle", "100", "--reconstruct")
        assert code == 2
        assert out == ""
        assert "--out" in err

    def test_non_finite_angle_exit_3(self, capsys):
        code, _, err = run(capsys, "homodyne", "--thermal", "1", "--angles",
                           "0,inf,90", "--per-angle", "100")
        assert code == 3
        assert "non-finite" in err

    def test_malformed_angles_exit_2(self, capsys):
        code, _, _ = run(capsys, "homodyne", "--thermal", "1", "--angles",
                         "0,forty-five")
        assert code == 2

    @pytest.mark.parametrize("angles", ["", " , "], ids=["empty", "blank"])
    def test_empty_angle_list_exit_2(self, capsys, angles):
        # an empty list is not a request for the 12 default angles
        code, out, err = run(capsys, "homodyne", "--thermal", "1",
                             "--angles", angles, "--per-angle", "10")
        assert code == 2
        assert out == ""
        assert "empty angle list" in err


class TestSweep:
    def test_sweep_and_estimate_loss(self, capsys, tmp_path):
        f = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--r", "0.4", "--thetas", "0,22.5",
                         "--windows", "200000", "--per-angle", "20000",
                         "--seed", "5", "--out", str(f))
        assert code == 0
        lines = f.read_text().splitlines()
        assert lines[1].startswith("theta_deg,")
        row = lines[3].split(",")  # 22.5 deg row
        assert float(row[1]) == pytest.approx(3 + 1 / math.sinh(0.4) ** 2,
                                              rel=1e-9)
        assert (tmp_path / "sweep.csv.manifest.json").exists()
        # feed the squeezed-angle row to estimate-loss
        code, out, _ = run(capsys, "estimate-loss", "--from-sweep", str(f),
                           "--row", "1")
        if code == 0:
            # g2_direct carries the threshold-detector bias at eta_det=1,
            # so only check the report is well-formed; out-of-range eta
            # must come with a warning
            rep = json.loads(out)
            assert math.isfinite(rep["eta"])
            if not 0.0 <= rep["eta"] <= 1.02:
                assert rep["warnings"]
        else:
            # noisy g2_direct can fall outside the g2 > 3 branch
            assert code == 3

    def test_negative_seed_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--r", "0.4", "--thetas", "0",
                           "--windows", "1000", "--per-angle", "100",
                           "--seed", "-1", "--out", str(tmp_path / "s.csv"))
        assert code == 3
        assert "seed" in err

    def test_overflowing_squeezing_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--r", "400", "--thetas", "0",
                           "--windows", "1000", "--per-angle", "100",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 3
        assert "overflows" in err

    def test_non_finite_theta_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--r", "0.4", "--thetas", "inf",
                           "--windows", "1000", "--per-angle", "100",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 3
        assert "non-finite" in err

    def test_largest_seed_exit_0(self, capsys, tmp_path):
        # per-row seeds derived from a seed near 2^63 wrap into range
        f = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--r", "0.4", "--thetas",
                           "0,22.5", "--seed", "9223372036854775000",
                           "--windows", "2000", "--per-angle", "500",
                           "--out", str(f))
        assert code == 0, err
        assert len(f.read_text().splitlines()) == 4

    def test_missing_row_exit_2(self, capsys, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("# h\ntheta_deg,a,b,c,d,e,f,g,h\n")
        code, _, _ = run(capsys, "estimate-loss", "--from-sweep", str(f),
                         "--row", "3")
        assert code == 2


class TestEstimateLoss:
    def test_from_sweep_columns_by_name(self, capsys, tmp_path):
        f = tmp_path / "sweep.csv"
        f.write_text("# reordered columns\n"
                     "vp,vx,theta_deg,g2_homodyne,g2_direct\n"
                     "0.7,0.2,0,9.5,9.0\n"
                     "0.8,0.3,22.5,4.2,4.0\n")
        code, out, _ = run(capsys, "estimate-loss", "--from-sweep", str(f),
                           "--row", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["g2"] == 4.0
        assert rep["vx_measured"] == 0.3

    @pytest.mark.parametrize("g2_direct, biased", [("12.18", True),
                                                    ("9.1", False)])
    def test_from_sweep_bias_warning(self, capsys, tmp_path, g2_direct,
                                     biased):
        # the default sweep's 22.5 deg row: g2_direct 12.18 +- 0.094
        # against an analytic 8.93 is 35 standard errors off
        f = tmp_path / "sweep.csv"
        f.write_text("theta_deg,g2_analytic,g2_direct,g2_direct_err,"
                     "g2_homodyne,g2_ci_low,g2_ci_high,vx,vp\n"
                     f"22.5,8.92706837837,{g2_direct},0.0939067236474,"
                     "8.78,8.40,9.08,0.227674936822,1.11183619829\n")
        code, out, _ = run(capsys, "estimate-loss", "--from-sweep", str(f))
        assert code == 0
        rep = json.loads(out)
        assert rep["g2"] == float(g2_direct)
        assert any("g2_analytic" in w for w in rep["warnings"]) == biased

    @pytest.mark.parametrize("row", ["-1", "-2"])
    def test_from_sweep_row_out_of_range_exit_2(self, capsys, tmp_path, row):
        # a negative row must not count from the end of the table
        f = tmp_path / "sweep.csv"
        f.write_text("theta_deg,g2_direct,vx\n"
                     "0,9.0,0.2\n"
                     "22.5,4.0,0.3\n")
        code, out, err = run(capsys, "estimate-loss", "--from-sweep", str(f),
                             "--row", row)
        assert code == 2
        assert out == ""
        assert f"sweep file has no row {row}" in err

    def test_from_sweep_missing_column_exit_2(self, capsys, tmp_path):
        f = tmp_path / "sweep.csv"
        f.write_text("theta_deg,g2_direct,vp\n0,4.0,0.3\n")
        code, _, err = run(capsys, "estimate-loss", "--from-sweep", str(f))
        assert code == 2
        assert "vx" in err

    def test_direct_values(self, capsys):
        code, out, _ = run(capsys, "estimate-loss", "--g2", "4.0",
                           "--vx", "0.3")
        assert code == 0
        rep = json.loads(out)
        assert rep["nw_pure"] == pytest.approx(1.5, rel=1e-12)
        assert rep["vx_pure"] == pytest.approx(1.5 - math.sqrt(2), rel=1e-9)
        expected = (0.3 - 0.5) / (rep["vx_pure"] - 0.5)
        assert rep["eta"] == pytest.approx(expected, rel=1e-12)
        # no key that is null on every path
        assert set(rep) == {"g2", "vx_measured", "nw_pure", "vx_pure", "eta",
                            "warnings"}

    def test_not_squeezed_exit_3(self, capsys):
        code, _, _ = run(capsys, "estimate-loss", "--g2", "2.0", "--vx", "0.3")
        assert code == 3

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = run(capsys, "estimate-loss", "--g2", "4.0")
        assert code == 2
        code, _, _ = run(capsys, "estimate-loss", "--g2", "4.0", "--vx",
                         "0.3", "--from-sweep", "x.csv")
        assert code == 2


class TestOutsideFiles:
    # a file the run cannot open, or a state file that holds no state,
    # ended in a traceback with exit 1
    @pytest.mark.parametrize("argv", [
        ["estimate-loss", "--from-sweep", "<missing>"],
        ["g2", "--file", "<missing>"],
        ["g2", "--thermal", "1", "--config", "<missing>"],
        ["fig1", "--out", "<missing>/f.csv"],
    ], ids=["from-sweep", "state-file", "config", "out-dir"])
    def test_cannot_open_exit_2(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "nope")
        argv = [a.replace("<missing>", missing) for a in argv]
        path = next(a for a in argv if a.startswith(missing))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"usage error: cannot open {path}: ")

    @pytest.mark.parametrize("text", [
        "{}", "not json", '{"mean": [0, 0], "cov": [1]}',
        '{"mean": [0, 0], "cov": [1%s, 0, 1]}' % ("0" * 400)],
        ids=["empty-object", "not-json", "short-cov", "int-beyond-floats"])
    def test_not_a_state_file_exit_3(self, capsys, tmp_path, text):
        f = tmp_path / "state.json"
        f.write_text(text)
        code, _, err = run(capsys, "g2", "--file", str(f))
        assert code == 3
        assert err.startswith(f"error: state file {f}")

    @pytest.mark.parametrize("flag, argv", [
        ("--from-sweep", ["estimate-loss"]), ("--file", ["g2"]),
        ("--config", ["g2", "--thermal", "1"])],
        ids=["from-sweep", "state-file", "config"])
    def test_not_text_exit_3(self, capsys, tmp_path, flag, argv):
        f = tmp_path / "data.bin"
        f.write_bytes(b"\xd0\xff\x00binary")
        code, _, err = run(capsys, *argv, flag, str(f))
        assert code == 3
        assert err.startswith(f"error: {f} is not text: ")


class TestReentrant:
    def test_main_runs_alike_in_one_process(self, capsys, tmp_path):
        # one parser serves every main call of a process: a config run
        # and a usage error leave nothing behind for the next run
        cfg = tmp_path / "run.cfg"
        cfg.write_text("thetas = 0,22.5\nwindows = 2000\nper_angle = 200\n"
                       "seed = 4\n")
        runs = [
            ["sweep", "--r", "0.4", "--config", str(cfg)],
            ["sweep", "--r", "0.4", "--thetas", ","],
            ["sweep", "--r", "0.3", "--thetas", "10", "--windows", "3000",
             "--per-angle", "100"],
        ]

        def outputs(argv, out):
            out = tmp_path / out
            code = main([*argv, "--out", str(out)])
            files = (out, tmp_path / f"{out.name}.manifest.json")
            return code, capsys.readouterr(), [f.read_bytes() if f.exists()
                                               else None for f in files]

        in_turn = [outputs(argv, f"{i}.csv") for i, argv in enumerate(runs)]
        assert [code for code, _, _ in in_turn] == [0, 2, 0]
        for i, argv in enumerate(runs):
            build_parser.cache_clear()
            assert outputs(argv, f"{i}.csv") == in_turn[i]

class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nwindows = 50000\nseed = 12\n")
        _, out_cfg, _ = run(capsys, "count", "--thermal", "0.2",
                            "--config", str(cfg))
        _, out_flags, _ = run(capsys, "count", "--thermal", "0.2",
                              "--windows", "50000", "--seed", "12")
        body = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
        assert body(out_cfg) == body(out_flags)
        # explicit flag wins over config value
        _, out_override, _ = run(capsys, "count", "--thermal", "0.2",
                                 "--config", str(cfg), "--seed", "99")
        assert body(out_override) != body(out_cfg)

    def test_malformed_config_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("windows 50000\n")
        code, _, _ = run(capsys, "count", "--thermal", "0.2",
                         "--config", str(cfg))
        assert code == 3

    def test_flag_equal_to_default_beats_config(self, capsys, tmp_path):
        # --seed 0 is the parser default, but it was given: it must win
        cfg = tmp_path / "run.cfg"
        cfg.write_text("windows = 20000\nseed = 5\n")
        _, out_cfg, _ = run(capsys, "count", "--thermal", "0.2",
                            "--seed", "0", "--config", str(cfg))
        _, out_flags, _ = run(capsys, "count", "--thermal", "0.2",
                              "--windows", "20000", "--seed", "0")
        assert out_cfg == out_flags

    def test_unknown_config_key_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("windwos = 100\n")
        code, _, err = run(capsys, "count", "--thermal", "0.2",
                           "--windows", "1000", "--config", str(cfg))
        assert code == 3
        assert "windwos" in err

    @pytest.mark.parametrize("line, flags", [
        ("squeezed = 0.5 0", ["--squeezed", "0.5", "0"]),
        ("coherent=1  2", ["--coherent", "1", "2"])])
    def test_two_value_option(self, capsys, tmp_path, line, flags):
        # an option of two values takes two whitespace-separated tokens
        cfg = tmp_path / "state.cfg"
        cfg.write_text(line + "\n")
        code, out_cfg, _ = run(capsys, "g2", "--config", str(cfg))
        assert code == 0
        assert out_cfg == run(capsys, "g2", *flags)[1]

    @pytest.mark.parametrize("value", ["0.5", "0.5 0 1", "0.5 x", ""])
    def test_two_value_option_bad_tokens_exit_3(self, capsys, tmp_path, value):
        cfg = tmp_path / "state.cfg"
        cfg.write_text(f"squeezed = {value}\n")
        code, _, err = run(capsys, "g2", "--config", str(cfg))
        assert code == 3
        assert "squeezed" in err

    def test_state_flag_beats_config_state(self, capsys, tmp_path):
        cfg = tmp_path / "th.cfg"
        cfg.write_text("thermal = 1\n")
        code, out, _ = run(capsys, "g2", "--config", str(cfg),
                           "--coherent", "1", "2")
        assert code == 0
        assert out == run(capsys, "g2", "--coherent", "1", "2")[1]
        # alone, the config's state is the state
        assert run(capsys, "g2", "--config", str(cfg))[1] == \
            run(capsys, "g2", "--thermal", "1")[1]
        # and the manifest records the command line's state
        out = tmp_path / "p.csv"
        assert main(["pn", "--config", str(cfg), "--coherent", "1", "2",
                     "--n-max", "40", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["params"]["state"] == coherent(1, 2).to_dict()

    @pytest.mark.parametrize("command", ["count", "sweep"])
    @pytest.mark.parametrize("key", ["workers", "n_max"])
    def test_dead_field_is_not_an_option(self, capsys, tmp_path, command, key):
        # the counts are one draw, so there is nothing to spread over
        # workers, and the click probabilities sum no p(n) up to an n_max
        cfg = tmp_path / "dead.cfg"
        cfg.write_text(f"{key} = 2\n")
        state = ["--thermal", "0.2"] if command == "count" else ["--r", "0.4"]
        code, _, err = run(capsys, command, *state, "--windows", "1000",
                           "--out", str(tmp_path / "x.csv"),
                           "--config", str(cfg))
        assert code == 3
        assert f"{key!r} is not an option" in err
        with pytest.raises(SystemExit):
            main([command, *state, "--" + key.replace("_", "-"), "2",
                  "--out", str(tmp_path / "x.csv")])


STATE_FLAGS = {"coherent", "thermal", "squeezed", "file", "attenuate"}
CFG = "<config>"   # replaced by the path of a config file holding CONFIG
CONFIG = "eta_det = 0.9\nper_angle=200\n"


def write_and_read(tmp_path, command, argv):
    """Run command with --out; the CSV's lines and the manifest's params."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "x.csv"
    argv = [str(cfg) if a == CFG else a for a in argv]
    assert main([command, *argv, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    return out.read_text().splitlines(), manifest["params"]


class TestManifest:
    # (command, argv, whether the command builds a state)
    RUNS = [
        ("fig1", [], False),
        ("pn", ["--thermal", "1", "--n-max", "30"], True),
        ("count", ["--thermal", "0.2", "--windows", "1000"], True),
        ("homodyne", ["--thermal", "0.5", "--per-angle", "10"], True),
        ("sweep", ["--r", "0.4", "--thetas", "0", "--windows", "2000",
                   "--per-angle", "200"], False),
    ]

    @pytest.mark.parametrize("command, argv, builds_state", RUNS,
                             ids=[r[0] for r in RUNS])
    def test_params_name_every_option(self, capsys, tmp_path, command, argv,
                                      builds_state):
        # a manifest must be enough to reproduce its output: every option
        # of the subcommand, the state flags replaced by the state
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions
                 if a.option_strings} - {"help", "config", "out"} - STATE_FLAGS
        _, params = write_and_read(tmp_path, command, argv)
        assert set(params) == dests | ({"state"} if builds_state else set())

    # (command, argv, comment after "<subcommand>: ", column line, params);
    # none of them depends on the RNG stream
    PINS = [
        ("fig1", ["--n-min", "0.1", "--n-max", "5", "--points", "3"],
         "n_max=5.0, n_min=0.1, points=3",
         "n,g2_coherent,g2_thermal,g2_squeezed",
         {"n_max": 5.0, "n_min": 0.1, "points": 3}),
        ("pn", ["--thermal", "1", "--attenuate", "0.5", "--n-max", "30"],
         "n_max=30, state={'mean': [0.0, 0.0], 'cov': [1.0, 0.0, 1.0]}, "
         "tol=1e-09",
         "n,p",
         {"n_max": 30, "tol": 1e-9,
          "state": {"mean": [0.0, 0.0], "cov": [1.0, 0.0, 1.0]}}),
        ("count", ["--thermal", "0.2", "--windows", "1000", "--seed", "3"],
         "dark_prob=0.0, eta_det=1.0, seed=3, split=0.5, "
         "state={'mean': [0.0, 0.0], 'cov': [0.7, 0.0, 0.7]}, theta_deg=0.0, "
         "windows=1000",
         "theta_deg,g2_direct,g2_direct_err,n1,n2,nc,n_windows",
         {"dark_prob": 0.0, "eta_det": 1.0, "seed": 3,
          "split": 0.5, "theta_deg": 0.0, "windows": 1000,
          "state": {"mean": [0.0, 0.0], "cov": [0.7, 0.0, 0.7]}}),
        ("sweep", ["--r", "0.4", "--thetas", "0,22.5", "--windows", "2000",
                   "--seed", "1", "--config", CFG],
         "dark_prob=0.0, eta_det=0.9, eta_hd=1.0, per_angle=200, "
         "r=0.4, seed=1, split=0.5, thetas=0,22.5, windows=2000",
         "theta_deg,g2_analytic,g2_direct,g2_direct_err,g2_homodyne,"
         "g2_ci_low,g2_ci_high,vx,vp",
         {"dark_prob": 0.0, "eta_det": 0.9, "eta_hd": 1.0,
          "per_angle": 200, "r": 0.4, "seed": 1, "split": 0.5,
          "thetas": "0,22.5", "windows": 2000}),
    ]

    @pytest.mark.parametrize("command, argv, comment, columns, params", PINS,
                             ids=[p[0] for p in PINS])
    def test_headers_are_fixed(self, capsys, tmp_path, command, argv, comment,
                               columns, params):
        lines, got = write_and_read(tmp_path, command, argv)
        assert lines[0] == f"# wigg2 {__version__} {command}: {comment}"
        assert next(l for l in lines if not l.startswith("#")) == columns
        assert got == params


class TestOutputPins:
    # the bytes two runs print: how the bootstrap members are held and
    # evaluated must not move a sweep row or a digit of the homodyne report

    def test_sweep_rows(self, capsys, tmp_path):
        f = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--r", "0.4", "--thetas",
                           "0,22.5", "--windows", "2000", "--per-angle",
                           "200", "--seed", "0", "--out", str(f))
        assert code == 0, err
        assert f.read_text().splitlines()[1:] == [
            "theta_deg,g2_analytic,g2_direct,g2_direct_err,g2_homodyne,"
            "g2_ci_low,g2_ci_high,vx,vp",
            "0,2,1.91625946153,0.371434582006,2.00279146318,2.00174717685,"
            "2.16511982967,0.670489539484,0.658551727635",
            "22.5,8.92706837837,11.6481355419,0.956182275869,8.11960226347,"
            "6.64826335687,11.0034679347,0.220712557017,1.15908041495",
        ]

    def test_homodyne_report(self, capsys, tmp_path):
        # the raw point estimate has det V < 1/4, so its g2 is not the
        # projected state's
        code, out, err = run(capsys, "homodyne", "--squeezed", "0.5", "0",
                             "--angles", "0,60,120", "--per-angle", "2001",
                             "--seed", "3", "--reconstruct", "--out",
                             str(tmp_path / "h.csv"))
        assert code == 0, err
        assert out == """\
{
  "cov_raw": {
    "vxx": 0.24216117916995683,
    "vpp": 0.9935769341879528,
    "vxp": -0.008894876460196544
  },
  "cov": [
    0.25169343185812115,
    -0.008782054321767908,
    0.9935782695317943
  ],
  "mean": [
    0.003372433925523298,
    0.019765558564916904
  ],
  "g2": 12.14141246326468,
  "g2_ci": [
    9.58706888949934,
    16.867733698147337
  ],
  "bootstrap_guarded": 0
}
"""

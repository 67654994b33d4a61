import json
import math

import numpy as np
import pytest

from wigg2.cli import main

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

    def test_non_finite_distribution_exit_3(self, capsys):
        # <n> = 800 overflows the Fock recursion in double precision
        code, out, err = run(capsys, "count", "--coherent", "40", "0",
                             "--n-max", "1300", "--windows", "10000")
        assert code == 3
        assert "non-finite" in err
        assert out == ""

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
        assert lines[0].startswith("# seed=9")
        assert lines[1] == "theta_rad,x"
        assert len(lines) == 2 + 3 * 100

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

    def test_non_finite_angle_exit_3(self, capsys):
        code, _, err = run(capsys, "homodyne", "--thermal", "1", "--angles",
                           "0,inf,90", "--per-angle", "100")
        assert code == 3
        assert "non-finite" in err

    def test_malformed_angles_exit_2(self, capsys):
        code, _, _ = run(capsys, "homodyne", "--thermal", "1", "--angles",
                         "0,forty-five")
        assert code == 2


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

    def test_not_squeezed_exit_3(self, capsys):
        code, _, _ = run(capsys, "estimate-loss", "--g2", "2.0", "--vx", "0.3")
        assert code == 3

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = run(capsys, "estimate-loss", "--g2", "4.0")
        assert code == 2
        code, _, _ = run(capsys, "estimate-loss", "--g2", "4.0", "--vx",
                         "0.3", "--from-sweep", "x.csv")
        assert code == 2


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

    @pytest.mark.parametrize("command", ["count", "sweep"])
    def test_workers_is_not_an_option(self, capsys, tmp_path, command):
        # the counts are one draw, so there is nothing to spread over workers
        cfg = tmp_path / "workers.cfg"
        cfg.write_text("workers = 2\n")
        state = ["--thermal", "0.2"] if command == "count" else ["--r", "0.4"]
        code, _, err = run(capsys, command, *state, "--windows", "1000",
                           "--out", str(tmp_path / "x.csv"),
                           "--config", str(cfg))
        assert code == 3
        assert "workers" in err
        with pytest.raises(SystemExit):
            main([command, *state, "--workers", "2",
                  "--out", str(tmp_path / "x.csv")])

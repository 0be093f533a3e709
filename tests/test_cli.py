"""Command-line interface: artifact formats, exit codes, reproducibility."""

import csv
import json
import pathlib
import warnings

import pytest

import imdd
from imdd import cli


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def data_rows(path):
    """CSV rows with the version banner, comments and header stripped."""
    rows = list(csv.reader(ln for ln in read_lines(path)
                           if not ln.startswith("#")))
    return rows[0], rows[1:]


class TestBiasCommand:
    def test_csv_artifact(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = cli.main(["bias", "--pulse", "rc", "--alpha", "0.6",
                       "-o", str(out)])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0].startswith("# imdd ")
        header, rows = data_rows(out)
        assert header == ["pulse", "alpha", "m", "ts", "mu", "mu_norm",
                          "argmax_t", "k_trunc"]
        assert len(rows) == 1
        assert rows[0][0] == "rc"
        assert float(rows[0][4]) == pytest.approx(0.184566790565, abs=1e-8)
        assert float(rows[0][5]) == float(rows[0][4])      # OOK: a_hat = 1

    def test_alpha_grid_and_m_list(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = cli.main(["bias", "--pulse", "rc,pl", "--alpha", "0.4:0.6:0.1",
                       "--m", "2,4", "-o", str(out)])
        assert rc == 0
        _, rows = data_rows(out)
        assert len(rows) == 2 * 3 * 2
        # canonical order: family, then alpha, then m
        key = [(r[0], float(r[1]), int(r[2])) for r in rows]
        assert key == sorted(key)

    def test_pam_scaling_in_rows(self, tmp_path):
        out = tmp_path / "b.csv"
        cli.main(["bias", "--pulse", "btn", "--alpha", "0.45",
                  "--m", "2,4", "-o", str(out)])
        _, rows = data_rows(out)
        # the artifact prints 12 significant digits, limiting the round-trip
        mu = {int(r[2]): float(r[4]) for r in rows}
        assert mu[4] == pytest.approx(3 * mu[2], rel=1e-11)
        norm = {int(r[2]): float(r[5]) for r in rows}
        assert norm[4] == pytest.approx(norm[2], rel=1e-11)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bias", "--pulse", "poly", "--alpha", "0.3"]
        cli.main(args + ["-o", str(a)])
        cli.main(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_divergence_exit_code(self, tmp_path):
        # the slowest tail at the tightest tolerance overruns the term cap
        out = tmp_path / "d.csv"
        rc = cli.main(["bias", "--pulse", "xia", "--alpha", "0.01",
                       "-o", str(out)])
        assert rc == 3
        _, rows = data_rows(out)
        assert rows == []
        sidecar = tmp_path / "d.errors.csv"
        assert sidecar.exists()
        header, failures = data_rows(sidecar)
        assert header == ["pulse", "alpha", "m", "error"]
        assert len(failures) == 1

    def test_partial_divergence_still_succeeds(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = cli.main(["bias", "--pulse", "xia", "--alpha", "0.01:0.5:0.49",
                       "-o", str(out)])
        assert rc == 0            # some rows were produced
        _, rows = data_rows(out)
        assert len(rows) == 1
        assert (tmp_path / "p.errors.csv").exists()

    def test_json_artifact(self, tmp_path):
        out = tmp_path / "b.json"
        rc = cli.main(["bias", "--pulse", "rc", "--alpha", "0.5",
                       "--format", "json", "-o", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "bias"
        assert "version" in payload
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["pulse"] == "rc"
        assert row["mu"] == pytest.approx(0.250263596842, abs=1e-8)


class TestSerCommand:
    def test_header_and_zero_amplitude(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = cli.main(["ser", "--pulse", "rc", "--alpha", "0.5",
                       "--a", "0", "--n", "20000", "-o", str(out)])
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["pulse", "alpha", "M", "receiver", "A", "N0",
                          "p_analytic", "p_hat", "ci95", "n"]
        assert len(rows) == 1
        assert rows[0][6] == "0.5"                 # exact guessing rate
        assert abs(float(rows[0][7]) - 0.5) < 0.02

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ser", "--pulse", "xia", "--alpha", "0.5", "--receiver",
                "matched", "--a", "3", "--n", "20000", "--seed", "9"]
        cli.main(args + ["-o", str(a)])
        cli.main(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_isi_mismatch_is_reported(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = cli.main(["ser", "--pulse", "rrc", "--alpha", "0.5",
                       "-o", str(out)])        # sampling + root-only pulse
        assert rc == 2
        assert (tmp_path / "s.errors.csv").exists()


class TestGainCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["gain", "--scenario", "equal-eye", "--pulse",
                       "rc,sdj", "--alpha", "0.5:0.7:0.1", "-o", str(out)])
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["scenario", "receiver", "pulse", "alpha", "m",
                          "b_tb", "gain_db", "mu", "q_bar", "q_zero"]
        assert len(rows) == 2 * 3
        assert {r[2] for r in rows} == {"rc", "sdj"}   # no injected rows

    def test_equal_ser_perr(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["gain", "--scenario", "equal-ser", "--pulse", "rrc",
                       "--alpha", "0.715", "--perr", "1e-6", "-o", str(out)])
        assert rc == 0
        _, rows = data_rows(out)
        assert rows[0][1] == "matched"
        assert float(rows[0][6]) == pytest.approx(-0.2250, abs=5e-3)

    def test_divergent_points_go_to_the_sidecar(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["gain", "--scenario", "equal-ser", "--pulse", "xia",
                       "--alpha", "0.01:0.5:0.49", "-o", str(out)])
        assert rc == 0
        _, rows = data_rows(out)
        assert [(r[1], r[3]) for r in rows] == [("sampling", "0.5"),
                                               ("matched", "0.5")]
        _, failures = data_rows(tmp_path / "g.errors.csv")
        assert [f[:5] for f in failures] == [
            ["equal-ser", "sampling", "xia", "0.01", "2"],
            ["equal-ser", "matched", "xia", "0.01", "2"]]
        assert all(f[5].startswith("series needs K=") for f in failures)

    def test_equal_eye_matched_goes_to_the_sidecar(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["gain", "--scenario", "equal-eye", "--pulse", "rc",
                       "--alpha", "0.5", "--receiver", "matched",
                       "-o", str(out)])
        assert rc == 2
        _, rows = data_rows(out)
        assert rows == []
        _, failures = data_rows(tmp_path / "g.errors.csv")
        assert [f[:5] for f in failures] == [
            ["equal-eye", "matched", "rc", "0.5", "2"]]
        assert "sampling receiver only" in failures[0][5]

    def test_unsupported_combination_exits_2(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["gain", "--scenario", "equal-eye", "--pulse", "rrc",
                       "--alpha", "0.5", "-o", str(out)])
        assert rc == 2
        header, failures = data_rows(tmp_path / "g.errors.csv")
        assert header == ["scenario", "receiver", "pulse", "alpha", "m",
                          "error"]
        assert len(failures) == 1


class TestWaveformCommand:
    def test_rows_and_parameter_echo(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = cli.main(["waveform", "--pulse", "rc", "--alpha", "0.6",
                       "--n", "8", "--rate", "32", "-o", str(out)])
        assert rc == 0
        lines = read_lines(out)
        comments = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln.startswith("# pulse=rc") for ln in comments)
        assert any(ln.startswith("# mu=0.18456679") for ln in comments)
        assert any(ln.startswith("# seed=0") for ln in comments)
        header, rows = data_rows(out)
        assert header == ["t", "value"]
        assert len(rows) == 8 * 32                 # interior samples only
        assert float(rows[0][0]) == 0.0
        # intensity stays nonnegative at the required bias
        assert min(float(r[1]) for r in rows) >= -1e-9

    def test_json_params(self, tmp_path):
        out = tmp_path / "w.json"
        cli.main(["waveform", "--pulse", "s2", "--alpha", "0.5", "--n", "4",
                  "--format", "json", "-o", str(out)])
        payload = json.loads(out.read_text())
        assert payload["params"]["pulse"] == "s2"
        assert payload["params"]["n"] == 4       # JSON keeps native types
        assert len(payload["rows"]) == 4 * 32

    def test_single_point_grids_enforced(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = cli.main(["waveform", "--pulse", "rc,pl", "--alpha", "0.6",
                       "-o", str(out)])
        assert rc == 2


class TestEyeCommand:
    def test_rows(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = cli.main(["eye", "--pulse", "rc", "--alpha", "0.6",
                       "--traces", "6", "--rate", "32", "-o", str(out)])
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["trace", "t", "value"]
        assert len(rows) == 6 * 64
        assert {r[0] for r in rows} == {str(i) for i in range(6)}

    def test_matched_receiver(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = cli.main(["eye", "--pulse", "rrc", "--alpha", "0.5",
                       "--receiver", "matched", "--traces", "4",
                       "-o", str(out)])
        assert rc == 0
        lines = read_lines(out)
        assert any(ln.startswith("# receiver=matched") for ln in lines)


class TestOutputRouting:
    def test_env_var_sets_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IMDD_OUT_DIR", str(tmp_path))
        rc = cli.main(["bias", "--pulse", "s2", "--alpha", "0.5"])
        assert rc == 0
        assert (tmp_path / "bias.csv").exists()

    def test_explicit_output_wins_over_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        env_dir.mkdir()
        monkeypatch.setenv("IMDD_OUT_DIR", str(env_dir))
        out = tmp_path / "explicit.csv"
        rc = cli.main(["bias", "--pulse", "s2", "--alpha", "0.5",
                       "-o", str(out)])
        assert rc == 0
        assert out.exists()
        assert not (env_dir / "bias.csv").exists()

    def test_out_dir_flag(self, tmp_path):
        rc = cli.main(["bias", "--pulse", "s2", "--alpha", "0.5",
                       "--out-dir", str(tmp_path), "--format", "json"])
        assert rc == 0
        assert (tmp_path / "bias.json").exists()

    def test_unwritable_output_exits_2(self):
        assert cli.main(["bias", "--pulse", "s2", "--alpha", "0.5",
                         "-o", "/proc/nope/out.csv"]) == 2


class TestArgumentErrors:
    def test_unknown_pulse(self, tmp_path):
        assert cli.main(["bias", "--pulse", "gauss", "--alpha", "0.5",
                         "-o", str(tmp_path / "x.csv")]) == 2

    def test_bad_alpha_grid(self, tmp_path):
        assert cli.main(["bias", "--pulse", "rc", "--alpha", "0.9:0.2:0.1",
                         "-o", str(tmp_path / "x.csv")]) == 2

    def test_bad_m(self, tmp_path):
        assert cli.main(["bias", "--pulse", "rc", "--alpha", "0.5",
                         "--m", "1", "-o", str(tmp_path / "x.csv")]) == 2

    def test_out_of_range_alpha(self, tmp_path):
        # grid parsing accepts it; the per-point domain check records it
        out = tmp_path / "x.csv"
        assert cli.main(["bias", "--pulse", "rc", "--alpha", "1.5",
                         "-o", str(out)]) == 2
        assert (tmp_path / "x.errors.csv").exists()

    @pytest.mark.parametrize("grid", ["abc", "0.1:x:0.1", "0.1:nan:0.1",
                                      "0.1:inf:0.1", "nan"])
    def test_malformed_alpha_grid(self, tmp_path, grid):
        assert cli.main(["bias", "--pulse", "rc", "--alpha", grid,
                         "-o", str(tmp_path / "x.csv")]) == 2

    def test_nonpositive_tail_tol(self, tmp_path, capsys):
        # a run-wide setting is rejected once, before any grid point
        out = tmp_path / "x.csv"
        assert cli.main(["bias", "--pulse", "rc,pl", "--alpha",
                         "0.1:0.3:0.1", "--tail-tol", "0",
                         "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --tail-tol must be positive\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,option,value,message", [
        ("bias", "--grid-n", "1024", "--grid-n must be >= 4096"),
        ("gain", "--perr", "0", "--perr must lie in (0, 1)"),
        ("gain", "--perr", "1", "--perr must lie in (0, 1)"),
        ("gain", "--perr", "0.5",
         "--perr must be below 1/2, the largest SER of the OOK reference"),
        ("bias", "--ts", "inf", "ts must be positive and finite"),
        ("bias", "--ts", "nan", "ts must be positive and finite"),
        ("ser", "--a", "nan", "--a must be finite and nonnegative, not nan"),
        ("ser", "--a", "-1", "--a must be finite and nonnegative, not -1.0"),
        ("ser", "--n0", "-1",
         "--n0 must be finite and nonnegative, not -1.0"),
        ("ser", "--n", "100", "--n must be >= 10000"),
        ("eye", "--a", "-1", "--a must be finite and nonnegative, not -1.0"),
    ])
    def test_bad_run_wide_setting(self, tmp_path, capsys, command, option,
                                  value, message):
        scenario = ["--scenario", "equal-ser"] if command == "gain" else []
        assert cli.main([command, *scenario, "--pulse", "rc,pl", "--alpha",
                         "0.1:0.3:0.1", option, value,
                         "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_error_types_share_one_base(self):
        for exc in (imdd.DomainError, imdd.UnsupportedError,
                    imdd.NumericalDivergenceError):
            assert issubclass(exc, imdd.errors.ImddError)

    def test_unknown_figure_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main(["reproduce", "fig9"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("imdd ")

    def test_package_version_is_the_module_version(self):
        # the package metadata reads imdd.__version__; no second copy
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        config = pytest.importorskip("setuptools.config.pyprojecttoml")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            project = config.read_configuration(pyproject)["project"]
        assert project["version"] == imdd.__version__
        assert project["name"] == "imdd"


class TestReproduce:
    def test_fig2_waveforms(self, tmp_path):
        rc = cli.main(["reproduce", "fig2", "--out-dir", str(tmp_path)])
        assert rc == 0
        for fam in ("rc", "src"):
            path = tmp_path / f"fig2_{fam}.csv"
            assert path.exists()
            _, rows = data_rows(path)
            assert len(rows) == 16 * 32

    def test_fig3_eyes(self, tmp_path):
        rc = cli.main(["reproduce", "fig3", "--out-dir", str(tmp_path)])
        assert rc == 0
        made = sorted(p.name for p in tmp_path.iterdir())
        assert made == ["fig3_btn.csv", "fig3_pl.csv", "fig3_rc.csv",
                        "fig3_xia.csv"]

    def test_all_figures_have_configs(self):
        for fig in cli.FIGURES:
            cfgs = cli.reproduce_configs(fig, out_dir="/tmp", fmt="csv")
            assert cfgs
            for cfg in cfgs:
                assert cfg.output.startswith("/tmp/")

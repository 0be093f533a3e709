"""Command-line interface: artifact formats, exit codes, reproducibility."""

import argparse
import csv
import json
import pathlib
import warnings

import numpy as np
import pytest

import imdd
from imdd import cli, pulses, waveform


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
        # the slowest tail at the tightest tolerance overruns the term cap;
        # 0.0101 = 101/10000 has no small denominator, so xia's fold is
        # truncated there
        out = tmp_path / "d.csv"
        rc = cli.main(["bias", "--pulse", "xia", "--alpha", "0.0101",
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
        rc = cli.main(["bias", "--pulse", "xia",
                       "--alpha", "0.0101:0.5:0.4899", "-o", str(out)])
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
                       "--alpha", "0.0101:0.5:0.4899", "-o", str(out)])
        assert rc == 0
        _, rows = data_rows(out)
        assert [(r[1], r[3]) for r in rows] == [("sampling", "0.5"),
                                               ("matched", "0.5")]
        _, failures = data_rows(tmp_path / "g.errors.csv")
        assert [f[:5] for f in failures] == [
            ["equal-ser", "sampling", "xia", "0.0101", "2"],
            ["equal-ser", "matched", "xia", "0.0101", "2"]]
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


class TestPulseAll:
    """``--pulse all`` names the families the command can serve with the
    requested receivers, so no point fails by construction."""

    @pytest.mark.parametrize("argv, column, families", [
        (["gain", "--scenario", "equal-eye"], 2,
         sorted(set(pulses.FAMILIES) - {"rrc"})),
        (["gain", "--scenario", "equal-ser", "--receiver", "matched"], 2,
         ["rrc", "xia"]),
        (["ser", "--receiver", "matched", "--n", "10000"], 0,
         ["rrc", "xia"])],
        ids=["gain-equal-eye", "gain-equal-ser-matched", "ser-matched"])
    def test_rows_for_the_served_families_only(self, tmp_path, capsys, argv,
                                              column, families):
        out = tmp_path / "a.csv"
        rc = cli.main([*argv, "--pulse", "all", "--alpha", "0.5",
                       "-o", str(out)])
        assert rc == 0
        _, rows = data_rows(out)
        assert [r[column] for r in rows] == families
        assert not (tmp_path / "a.errors.csv").exists()
        assert capsys.readouterr().err == ""

    def test_no_served_family_exits_2(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        rc = cli.main(["gain", "--scenario", "equal-eye", "--receiver",
                       "matched", "--pulse", "all", "--alpha", "0.5",
                       "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --pulse all: no pulse family takes the matched receiver "
            "in equal-eye"]
        assert list(tmp_path.iterdir()) == []


class TestWaveformCommand:
    def test_rows_and_parameter_echo(self, tmp_path):
        # at ts = 0.3 and 0.7 the grid time of sample 16*32 rounds below
        # 16*ts, so a block taken by comparing times kept one sample more
        for ts in ("1", "0.3", "0.7"):
            out = tmp_path / f"w{ts}.csv"
            rc = cli.main(["waveform", "--pulse", "rc", "--alpha", "0.6",
                           "--n", "16", "--rate", "32", "--ts", ts,
                           "-o", str(out)])
            assert rc == 0
            lines = read_lines(out)
            comments = [ln for ln in lines if ln.startswith("# ")]
            assert any(ln.startswith("# pulse=rc") for ln in comments)
            assert any(ln.startswith("# mu=0.18456679") for ln in comments)
            assert any(ln.startswith("# seed=0") for ln in comments)
            header, rows = data_rows(out)
            assert header == ["t", "value"]
            assert len(rows) == 16 * 32, ts        # interior samples only
            assert float(rows[0][0]) == 0.0
            assert float(rows[-1][0]) < 16 * float(ts)
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

    def test_block_does_not_repeat_the_guards(self, tmp_path, monkeypatch):
        # the guards come from default_rng(seed), left then right, and the
        # block from a child of the seed, so it repeats neither guard
        trains, real = [], waveform.synthesize

        def spy(pulse, constellation, symbols, **kw):
            trains.append((pulse, constellation, symbols))
            return real(pulse, constellation, symbols, **kw)

        monkeypatch.setattr(waveform, "synthesize", spy)
        for seed in range(4):
            assert cli.main(["waveform", "--pulse", "rc", "--alpha", "0.6",
                             "--m", "4", "--n", "16", "--seed", str(seed),
                             "-o", str(tmp_path / "w.csv")]) == 0
        assert len(trains) == 4
        for seed, (pulse, constellation, train) in enumerate(trains):
            guard = pulses.effective_guard(pulse)
            levels = np.asarray(constellation.levels)
            rng = np.random.default_rng(seed)
            left = rng.choice(levels, size=guard)
            right = rng.choice(levels, size=guard)
            child = np.random.SeedSequence(seed).spawn(1)[0]
            block = np.random.default_rng(child).choice(levels, size=16)
            np.testing.assert_array_equal(
                train, np.concatenate([left, block, right]))
            assert not np.array_equal(block[:guard], left), seed
            assert not np.array_equal(block[guard:2 * guard], right), seed


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

    @pytest.mark.parametrize("rate", ["0", "-1"])
    def test_rate_below_one_exits_2(self, tmp_path, capsys, rate):
        rc = cli.main(["eye", "--pulse", "rc", "--alpha", "0.5", "--rate",
                       rate, "-o", str(tmp_path / "e.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: rate must be >= 1\n"
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("command,option,value,message", [
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
        # a target below 1 would stop after the first chunk
        ("ser", "--target", "0", "--target must be >= 1"),
        ("ser", "--target", "-5", "--target must be >= 1"),
        # a bad run-wide setting is reported before eye's one-point check
        ("eye", "--a", "-1", "--a must be finite and nonnegative, not -1.0"),
        # numpy would fail on a negative size or seed with a traceback
        ("waveform", "--n", "-1", "--n must be >= 1"),
        ("waveform", "--n", "0", "--n must be >= 1"),
        ("ser", "--seed", "-1", "--seed must be >= 0"),
        ("waveform", "--seed", "-1", "--seed must be >= 0"),
        ("eye", "--seed", "-1", "--seed must be >= 0"),
    ])
    def test_bad_run_wide_setting(self, tmp_path, capsys, command, option,
                                  value, message):
        scenario = ["--scenario", "equal-ser"] if command == "gain" else []
        assert cli.main([command, *scenario, "--pulse", "rc,pl", "--alpha",
                         "0.1:0.3:0.1", option, value,
                         "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_eye_matched_receiver_needs_root_nyquist(self, tmp_path, capsys):
        assert cli.main(["eye", "--pulse", "rc", "--alpha", "0.5",
                         "--receiver", "matched",
                         "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: rc is not a root-Nyquist pulse; the matched receiver "
            "would see ISI\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["x" * 300, "out/"])
    def test_uncreatable_output_name(self, tmp_path, capsys, name):
        # the name itself is checked before any grid point is computed
        assert cli.main(["bias", "--pulse", "rc", "--alpha", "0.5",
                         "-o", f"{tmp_path}/{name}"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: output path ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["sub/deeper/x.csv",
                                      "sub/" + "x" * 300])
    def test_failed_run_leaves_no_directory(self, tmp_path, capsys, name):
        # the missing parents made for the writability check go again
        # when the run writes nothing (here: a refused point or a bad name)
        assert cli.main(["eye", "--pulse", "rc", "--alpha", "0.5",
                         "--receiver", "matched",
                         "-o", f"{tmp_path}/{name}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_run_keeps_the_directories_it_writes_to(self, tmp_path):
        out = tmp_path / "sub" / "deeper" / "x.csv"
        assert cli.main(["bias", "--pulse", "rc", "--alpha", "0.5",
                         "-o", str(out)]) == 0
        assert out.is_file()

    def test_error_types_share_one_base(self):
        for exc in (imdd.errors.DomainError, imdd.errors.UnsupportedError,
                    imdd.errors.NumericalDivergenceError):
            assert issubclass(exc, imdd.errors.ImddError)

    # a setting that would change nothing is an unknown option: the bias
    # accuracy is fixed, bias and gain draw no random numbers, and the
    # gain does not depend on the symbol period
    @pytest.mark.parametrize("argv", [
        ["reproduce", "fig9"],
        ["bias", "--pulse", "rc", "--alpha", "0.5", "--tail-tol", "1e-9"],
        ["bias", "--pulse", "rc", "--alpha", "0.5", "--grid-n", "8192"],
        ["bias", "--pulse", "rc", "--alpha", "0.5", "--seed", "1"],
        ["gain", "--scenario", "equal-ser", "--pulse", "rc", "--alpha",
         "0.5", "--seed", "1"],
        ["gain", "--scenario", "equal-ser", "--pulse", "rc", "--alpha",
         "0.5", "--ts", "2"]],
        ids=["figure", "tail-tol", "grid-n", "bias-seed", "gain-seed",
             "gain-ts"])
    def test_unknown_figure_is_a_usage_error(self, argv, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)     # a run that is accepted writes here
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

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


# One small run per command, and for each of its options (but the output
# routing) a value that differs from the run's own.
BASE_ARGV = {
    "bias": ["bias", "--pulse", "rc", "--alpha", "0.5"],
    "waveform": ["waveform", "--pulse", "rc", "--alpha", "0.6", "--n", "4"],
    "eye": ["eye", "--pulse", "xia", "--alpha", "0.5", "--traces", "4"],
    "ser": ["ser", "--pulse", "xia", "--alpha", "0.5", "--n", "20000"],
    # --perr cancels from the OOK rows: the reference is OOK too
    "gain": ["gain", "--scenario", "equal-ser", "--pulse", "xia",
             "--alpha", "0.5", "--m", "2,4"],
}
OTHER_VALUE = [
    ("bias", "--pulse", "pl"), ("bias", "--alpha", "0.6"),
    ("bias", "--m", "4"), ("bias", "--ts", "2"),
    ("waveform", "--pulse", "src"), ("waveform", "--alpha", "0.7"),
    ("waveform", "--m", "4"), ("waveform", "--ts", "2"),
    ("waveform", "--seed", "1"), ("waveform", "--n", "5"),
    ("waveform", "--a", "2"), ("waveform", "--rate", "16"),
    ("eye", "--pulse", "rc"), ("eye", "--alpha", "0.6"),
    ("eye", "--m", "4"), ("eye", "--ts", "2"), ("eye", "--seed", "1"),
    ("eye", "--receiver", "matched"), ("eye", "--traces", "5"),
    ("eye", "--a", "2"), ("eye", "--rate", "16"),
    ("ser", "--pulse", "rc"), ("ser", "--alpha", "0.6"),
    ("ser", "--m", "4"), ("ser", "--ts", "2"), ("ser", "--seed", "1"),
    ("ser", "--receiver", "matched"), ("ser", "--a", "2"),
    ("ser", "--n0", "2"), ("ser", "--n", "30000"),
    # the first 16384-symbol chunk already holds an error
    ("ser", "--target", "1"),
    ("gain", "--scenario", "equal-eye"), ("gain", "--pulse", "rc"),
    ("gain", "--alpha", "0.6"), ("gain", "--m", "4"),
    ("gain", "--receiver", "sampling"), ("gain", "--perr", "1e-3"),
]
ROUTING = {"help", "output", "out_dir", "format"}


def _parser_options():
    """{command: its long option names}, the output routing left out."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {command: {a.option_strings[-1] for a in p._actions
                      if a.option_strings and a.dest not in ROUTING}
            for command, p in sub.choices.items()}


class TestEveryOptionHasAnEffect:
    def test_the_table_covers_every_option(self):
        options = _parser_options()
        table = {command: {o for c, o, _ in OTHER_VALUE if c == command}
                 for command in options}
        assert table == options

    @pytest.mark.parametrize("command, option, value", OTHER_VALUE,
                             ids=[f"{c}{o}" for c, o, _ in OTHER_VALUE])
    def test_other_value_changes_the_rows(self, tmp_path, command, option,
                                          value):
        base, other = tmp_path / "base.csv", tmp_path / "other.csv"
        argv = BASE_ARGV[command]
        assert cli.main([*argv, "-o", str(base)]) == 0
        assert cli.main([*argv, option, value, "-o", str(other)]) == 0
        assert data_rows(base) != data_rows(other)


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
        # every figure's command lines pass the parser and the CLI's checks;
        # an output path is one --output=... word, so a directory whose name
        # starts with a dash is not read as an option
        parser = cli._build_parser()
        for fig in cli.FIGURES:
            argvs = cli.reproduce_argv(fig, out_dir="-figs", fmt="csv")
            assert argvs
            for argv in argvs:
                cfg = cli._config_from_args(parser.parse_args(argv))
                assert cfg.output.startswith("-figs/")

    def test_dense_figures_sweep_the_paper_grid(self):
        parser = cli._build_parser()
        (fig4,), (fig5,), (fig6,) = (
            [cli._config_from_args(parser.parse_args(argv))
             for argv in cli.reproduce_argv(fig, fmt="json")]
            for fig in ("fig4", "fig5", "fig6"))
        dense = tuple(round(0.01 + 0.005 * i, 12) for i in range(199))
        for cfg in (fig4, fig5, fig6):
            assert cfg.alphas == dense
            assert cfg.output.endswith(".json") and cfg.format == "json"
        assert fig4.command == "bias" and fig4.m_values == (2,)
        assert fig4.pulse_set == fig6.pulse_set == tuple(pulses.FAMILIES)
        assert (fig5.scenario, fig6.scenario) == ("equal-eye", "equal-ser")
        assert fig5.pulse_set == tuple(f for f in pulses.FAMILIES
                                       if f != "rrc")
        for cfg in (fig5, fig6):
            assert cfg.m_values == (2, 4)
            assert cfg.receiver is None and cfg.p_err == 1e-6

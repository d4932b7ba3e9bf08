"""Command line interface: config parsing, scenario runs, and output files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import photonforge
from photonforge.cli import SCENARIOS, ConfigError, main, parse_config


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_config_applies_defaults(self):
        cfg = parse_config("scenario = cancel_budget\n")
        assert cfg.scenario == "cancel_budget"
        assert cfg.outdir == "."
        assert cfg.values == dict(SCENARIOS["cancel_budget"].defaults)

    def test_overrides_comments_and_coercion(self):
        text = (
            "# full-line comment\n"
            "\n"
            "scenario = beam_splitter   # inline comment\n"
            "alpha0 = 5, 10, 20\n"
            "cutoff = 2\n"
            "r = 0.99\n"
            "outdir = runs/a\n"
        )
        cfg = parse_config(text)
        assert cfg.values["alpha0"] == (5.0, 10.0, 20.0)
        assert cfg.values["cutoff"] == 2
        assert isinstance(cfg.values["cutoff"], int)
        assert cfg.values["r"] == 0.99
        assert cfg.outdir == "runs/a"
        # keys never mentioned keep their registry defaults
        assert cfg.values["gamma"] == 0.5
        assert cfg.values["t_end"] == 20.0

    def test_tuple_coercion_single_item_and_trailing_comma(self):
        cfg = parse_config("scenario = beam_splitter\nalpha0 = 7\n")
        assert cfg.values["alpha0"] == (7.0,)
        cfg = parse_config("scenario = beam_splitter\nalpha0 = 5, 10,\n")
        assert cfg.values["alpha0"] == (5.0, 10.0)

    def test_string_values_pass_through(self):
        cfg = parse_config("scenario = shaped_release\npacket = gaussian\n")
        assert cfg.values["packet"] == "gaussian"

    def test_missing_scenario_key(self):
        with pytest.raises(ConfigError, match="missing required key 'scenario'"):
            parse_config("outdir = somewhere\n")

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ConfigError, match="unknown scenario 'bogus'.*choices"):
            parse_config("scenario = bogus\n")

    def test_unknown_key_reports_line_number(self):
        text = "scenario = cancel_budget\nbogus_key = 1\n"
        with pytest.raises(
                ConfigError,
                match="line 2: unknown key 'bogus_key' for scenario cancel_budget"):
            parse_config(text)

    def test_duplicate_key_reports_both_lines(self):
        text = "scenario = cancel_budget\na1 = 1\na1 = 2\n"
        with pytest.raises(
                ConfigError,
                match=re.escape("line 3: duplicate key 'a1' (first set on line 2)")):
            parse_config(text)

    def test_line_without_equals(self):
        text = "scenario = cancel_budget\nnonsense\n"
        with pytest.raises(
                ConfigError, match="line 2: expected key=value, got 'nonsense'"):
            parse_config(text)

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="line 1: empty key"):
            parse_config("= 3\nscenario = cancel_budget\n")

    def test_unparseable_float_value(self):
        text = "scenario = cancel_budget\na1 = fast\n"
        with pytest.raises(
                ConfigError, match="line 2: cannot parse value 'fast' for key 'a1'"):
            parse_config(text)

    def test_unparseable_tuple_item(self):
        text = "scenario = beam_splitter\nalpha0 = 5, x\n"
        with pytest.raises(ConfigError, match="line 2: cannot parse value"):
            parse_config(text)


class TestRunCommand:
    def test_cancel_budget_writes_csv_and_meta(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"scenario = cancel_budget\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 0
        assert (outdir / "result.csv").read_bytes() == (
            b"# gnuplot columns: 1=residual_ratio 2=residual_db\n"
            b"residual_ratio,residual_db\n"
            b"0.0399973333867,-27.9593792405\n"
        )
        meta = (outdir / "meta").read_text().splitlines()
        assert meta[0] == f"version={photonforge.__version__}"
        assert meta[1] == "scenario=cancel_budget"
        assert meta[2] == f"outdir={outdir}"
        # every default follows, in registry order, repr-formatted
        assert meta[3:] == [
            f"{key}={value!r}"
            for key, value in SCENARIOS["cancel_budget"].defaults
        ]
        assert "phi2=3.181592653589793" in meta

    def test_meta_records_overridden_values(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario = cancel_budget\noutdir = {outdir}\nphi2 = 3.0\na2 = 0.5\n")
        assert main(["run", cfg]) == 0
        meta = (outdir / "meta").read_text().splitlines()
        assert "phi2=3.0" in meta
        assert "a2=0.5" in meta
        assert "a1=1.0" in meta

    @staticmethod
    def _assert_rerun_is_byte_identical(tmp_path, scenario):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cfg = write_config(
                tmp_path, f"scenario = {scenario}\noutdir = {out}\n")
            assert main(["run", cfg]) == 0
        assert (out_a / "result.csv").read_bytes() == \
            (out_b / "result.csv").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        self._assert_rerun_is_byte_identical(tmp_path, "cancel_budget")

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_scenario_reruns_byte_identical(self, tmp_path, scenario):
        self._assert_rerun_is_byte_identical(tmp_path, scenario)

    def test_beam_splitter_known_row(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario = beam_splitter\nalpha0 = 5\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 0
        lines = (outdir / "result.csv").read_text().splitlines()
        assert lines[0] == "# gnuplot columns: 1=alpha0 2=P0 3=P1 4=P2 5=P3"
        assert lines[1] == "alpha0,P0,P1,P2,P3"
        assert lines[2] == ("5,0.0119119492291,0.953139864408,"
                            "0.0347658332816,0.000182353080974")
        assert len(lines) == 3

    @pytest.mark.parametrize("scenario", ["beam_splitter", "shaped_release"])
    def test_header_follows_cutoff(self, tmp_path, scenario):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario = {scenario}\nalpha0 = 5,10\ncutoff = 2\n"
            f"dt = 0.05\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 0
        lines = (outdir / "result.csv").read_text().splitlines()
        assert lines[0] == "# gnuplot columns: 1=alpha0 2=P0 3=P1 4=P2"
        assert lines[1] == "alpha0,P0,P1,P2"
        assert len(lines) == 4
        assert all(len(row.split(",")) == 4 for row in lines[2:])

    def test_numeric_failure_exits_one(self, tmp_path, capsys):
        # keeping only the first counting moment cannot describe this field;
        # the inversion goes measurably negative and the run must abort
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario = beam_splitter\nalpha0 = 10\ncutoff = 1\n"
            f"t_end = 8\ndt = 0.01\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "below -1e-3" in err
        assert not (outdir / "result.csv").exists()

    def test_blocked_reference_path_exits_one(self, tmp_path, capsys):
        # the residual is relative to path 1: a blocked path 1 has none
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"scenario = cancel_budget\ntau1 = 0\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 1
        assert "tau1" in capsys.readouterr().err
        assert not (outdir / "result.csv").exists()

    def test_undecoupled_cascade_names_the_pulse_inputs(self, tmp_path, capsys):
        # gamma02 = 0 leaves the 0-2 line no rate for the pi pulse
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario = cascade_sweep\nalpha_d = 5\ngamma02 = 0\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 1
        assert "alpha0=5.0, gamma_eff=0.0" in capsys.readouterr().err
        assert not (outdir / "result.csv").exists()

    def test_unusable_outdir_exits_two_before_running(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        outdir = blocker / "out"
        cfg = write_config(tmp_path, f"scenario = cancel_budget\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot create outdir {str(outdir)!r}" in err
        assert not blocker.is_dir()

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "scenario = beam_splitter\nbogus_key = 1\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: line 2: unknown key 'bogus_key'" in err

    def test_bad_packet_name_exits_two(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario = shaped_release\nalpha0 = 5\npacket = bogus\n"
            f"dt = 0.05\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "packet must be none, gaussian, or exponential" in err

    @pytest.mark.parametrize("scenario, key", [
        ("cascade_sweep", "gamma02"), ("beam_splitter", "alpha0")])
    def test_empty_list_value_exits_two(self, tmp_path, capsys, scenario, key):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"scenario = {scenario}\n{key} =\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: line 2: key {key!r} has no values" in err
        assert not (outdir / "result.csv").exists()

    @pytest.mark.parametrize("value", ["-0.005", "0", "nan", "inf"])
    @pytest.mark.parametrize("scenario", [
        name for name, spec in SCENARIOS.items() if "dt" in dict(spec.defaults)])
    def test_bad_dt_exits_two(self, tmp_path, capsys, scenario, value):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"scenario = {scenario}\ndt = {value}\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: line 2: dt must be positive and finite" in err
        assert not (outdir / "result.csv").exists()

    @pytest.mark.parametrize("scenario, line", [
        ("beam_splitter", "delta = nan"),
        ("beam_splitter", "gamma_nr = nan"),
        ("cascade_sweep", "gamma02 = 0.1, inf"),
    ])
    def test_non_finite_value_exits_two(self, tmp_path, capsys, scenario, line):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"scenario = {scenario}\n{line}\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 2
        key = line.split(" =")[0]
        assert f"config error: line 2: {key} must be finite" in capsys.readouterr().err
        assert not (outdir / "result.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("scenario", [
        "beam_splitter", "shaped_release", "nr_sweep", "wait_sweep"])
    def test_cutoff_below_one_exits_two(self, tmp_path, capsys, scenario, value):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"scenario = {scenario}\ncutoff = {value}\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: line 2: cutoff must be at least 1" in err
        assert not (outdir / "result.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_seeds_below_one_exits_two(self, tmp_path, capsys, value):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"scenario = encode\nseeds = {value}\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: line 2: seeds must be at least 1" in err
        assert not (outdir / "result.csv").exists()

    def test_cutoff_above_three_runs(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"scenario = beam_splitter\nalpha0 = 5\ncutoff = 4\n"
            f"dt = 0.05\noutdir = {outdir}\n")
        assert main(["run", cfg]) == 0
        lines = (outdir / "result.csv").read_text().splitlines()
        assert lines[1] == "alpha0,P0,P1,P2,P3,P4"
        assert len(lines[2].split(",")) == 6

    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestScenarioSchemas:
    """Coarse-grid runs of the remaining scenarios, checking table shape."""

    def run_lines(self, tmp_path, text):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, f"{text}outdir = {outdir}\n")
        assert main(["run", cfg]) == 0
        return (outdir / "result.csv").read_text().splitlines()

    def test_shaped_release_table(self, tmp_path):
        lines = self.run_lines(
            tmp_path, "scenario = shaped_release\nalpha0 = 5\ndt = 0.05\n")
        assert lines[1] == "alpha0,P0,P1,P2,P3"
        assert len(lines) == 3
        row = [float(x) for x in lines[2].split(",")]
        assert row[0] == 5.0
        assert abs(sum(row[1:]) - 1.0) < 1e-6
        assert row[2] > 0.9

    @pytest.mark.parametrize("packet", ["exponential", "gaussian"])
    def test_shaped_release_packet(self, tmp_path, packet):
        # the packet's kappa and width are the registry defaults
        lines = self.run_lines(
            tmp_path,
            f"scenario = shaped_release\nalpha0 = 10\ndt = 0.05\npacket = {packet}\n")
        row = [float(x) for x in lines[2].split(",")]
        assert row[2] > 0.9

    def test_nr_sweep_table(self, tmp_path):
        lines = self.run_lines(
            tmp_path,
            "scenario = nr_sweep\ngamma_nr = 0.0, 0.5\ndt = 0.01\nt_end = 8\n")
        assert lines[0] == "# gnuplot columns: 1=gamma_nr 2=P0 3=P1"
        assert lines[1] == "gamma_nr,P0,P1"
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
        assert [r[0] for r in rows] == [0.0, 0.5]
        assert rows[1][2] < rows[0][2]

    def test_wait_sweep_table(self, tmp_path):
        lines = self.run_lines(
            tmp_path,
            "scenario = wait_sweep\nt_wait = 0, 1\ndt = 0.05\nwindow = 6\n")
        assert lines[1] == "t_wait,P0,P1"
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
        assert [r[0] for r in rows] == [0.0, 1.0]
        assert rows[1][2] < rows[0][2]

    def test_cascade_sweep_table(self, tmp_path):
        lines = self.run_lines(
            tmp_path,
            "scenario = cascade_sweep\nalpha_d = 5\ngamma02 = 0.1, 0.5\n"
            "dt = 0.05\nt_end = 6\n")
        assert lines[1] == "alpha_d,gamma02,V"
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
        assert [(r[0], r[1]) for r in rows] == [(5.0, 0.1), (5.0, 0.5)]
        assert rows[1][2] < rows[0][2]

    def test_encode_table(self, tmp_path):
        lines = self.run_lines(
            tmp_path, "scenario = encode\nseeds = 2\n")
        assert lines[1] == "delta,alpha_re,alpha_im,t_w,fidelity"
        assert len(lines) == 3
        row = [float(x) for x in lines[2].split(",")]
        assert 0.9 < row[4] <= 1.0
        assert row[3] > 0.0


class TestListCommand:
    def test_text_listing_names_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert f"{name}:" in out
        assert "defaults:" in out

    def test_json_listing(self, capsys):
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == set(SCENARIOS)
        for name, entry in data.items():
            assert isinstance(entry["description"], str) and entry["description"]
            assert isinstance(entry["defaults"], dict)
        assert data["beam_splitter"]["defaults"]["alpha0"] == [5.0, 10.0]
        assert data["beam_splitter"]["defaults"]["r"] == 0.995
        assert data["shaped_release"]["defaults"]["packet"] == "none"


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        # the child imports the same photonforge as this process
        src = str(Path(photonforge.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "photonforge.cli", "list"],
            capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert b"beam_splitter" in proc.stdout

import ast
import hashlib
import json
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, fields
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rollstab
from rollstab import perturb, spectra, synth
from rollstab.cli import _apply_config, build_parser, main
from rollstab import GridSpec, RegimeConfig, RolloutSeries, generate, write_rollout
from rollstab.gridio import RolloutFile, write_series_csv
from rollstab.synth import config_to_dict, load_config
from conftest import global_extremes, make_series


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    """Pre-generated small rollouts shared across CLI tests."""
    d = tmp_path_factory.mktemp("data")
    pred = d / "pred.rgf"
    ref = d / "ref.rgf"
    assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 90,
                   "--seed", "3", "--grid", "16x240", "-o", pred) == 0
    assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 800,
                   "--seed", "3", "--grid", "16x240", "-o", ref) == 0
    env = d / "env.json"
    assert run_cli("seasonality", "--input", pred, "--variable", "T2m", "--reference", ref,
                   "--save-envelope", env, "-o", d / "se.json") == 0
    r = rollstab.read_rollout(pred)
    ext = global_extremes(r)
    write_series_csv(d / "min.csv", r.timestamps, ext.min)
    write_series_csv(d / "max.csv", r.timestamps, ext.max)
    cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=4)
    (d / "cfg.json").write_text(json.dumps(config_to_dict(cfg)))
    return {"dir": d, "pred": pred, "ref": ref, "env": env, "min": d / "min.csv",
            "max": d / "max.csv", "cfg": d / "cfg.json"}


@pytest.fixture
def entered(monkeypatch):
    """The path of every RGF whose blocks are walked, once per walk."""
    paths, blocks = [], RolloutFile.blocks

    def counted(self, rows):
        paths.append(Path(self.path))
        return blocks(self, rows)

    monkeypatch.setattr(RolloutFile, "blocks", counted)
    return paths


class TestSynthCommand:
    def test_repeated_variable_exit_2_and_no_file(self, tmp_path, capsys):
        out, labels = tmp_path / "d.rgf", tmp_path / "labels.json"
        assert run_cli("synth", "--variables", "T2m,T2m", "--grid", "4x16", "--horizon-days",
                       60, "-o", out, "--labels", labels) == 2
        assert "variable 'T2m' is named more than once" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_variable_name_exit_2_and_no_file(self, tmp_path, capsys):
        out, labels = tmp_path / "d.rgf", tmp_path / "labels.json"
        assert run_cli("synth", "--variables", "", "--grid", "4x16", "--horizon-days",
                       60, "-o", out, "--labels", labels) == 2
        assert "--variables: a name is empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_writes_rollout_and_labels(self, tmp_path):
        out = tmp_path / "run.rgf"
        labels = tmp_path / "labels.json"
        rc = run_cli("synth", "--regime", "BLOWUP", "--delta", "0.1",
                     "--onset-days", "65", "--horizon-days", "120",
                     "--seed", "7", "--grid", "8x128", "-o", out,
                     "--labels", labels)
        assert rc == 0
        doc = json.loads(labels.read_text())
        assert doc["regime"] == "BLOWUP"
        assert doc["blowup_window"][0] == 65.0
        assert "manifest" in doc
        r = rollstab.read_rollout(out)
        assert r.n_time == 481

    def test_byte_deterministic(self, tmp_path):
        out = tmp_path / "a.rgf"
        argv = ("synth", "--regime", "DRIFT", "--tau-days", "70",
                "--horizon-days", "90", "--seed", "11", "--grid", "8x64",
                "-o", out)
        assert run_cli(*argv) == 0
        first = out.read_bytes()
        assert run_cli(*argv) == 0
        assert out.read_bytes() == first

    def test_start_before_epoch_exit_2(self, tmp_path, capsys):
        out = tmp_path / "early.rgf"
        assert run_cli("synth", "--regime", "STABLE", "--start-time", "2001-01-01",
                       "--horizon-days", "64.75", "--grid", "4x8", "-o", out) == 2
        err = capsys.readouterr().err
        assert "clock 2001-01-01T00:00:00" in err and "epoch 2021-01-01T00:00:00" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("onset, start", [("40", "2021-03-01T03:00:00"),
                                              ("70.125", "2021-01-11T03:00:00")],
                             ids=["before_the_first_step", "past_the_horizon"])
    def test_blowup_onset_outside_rollout_exit_2(self, tmp_path, capsys, onset, start):
        """The onset counts from the config's epoch, 2021-01-01: day 40 falls
        59.125 days before a start on March 1, and day 70.125 at the end of a
        60-day horizon from January 11, 03 UTC."""
        out = tmp_path / "p.rgf"
        assert run_cli("synth", "--regime", "BLOWUP", "--delta", "0.05", "--onset-days", onset,
                       "--grid", "16x240", "--horizon-days", "60", "--seed", "4",
                       "--start-time", start, "--labels", tmp_path / "l.json", "-o", out) == 2
        err = capsys.readouterr().err
        assert f"day {onset} from the epoch 2021-01-01T00:00:00" in err, err
        assert f"horizon from the start time {start}" in err, err
        assert list(tmp_path.iterdir()) == []

    def test_blowup_labels_count_from_the_start(self, tmp_path):
        """Started 20 days after the epoch, an onset at day 60 from the epoch
        is day 40 of the rollout, and the labels' window holds the day the
        detector finds. (An onset before day 30 of the rollout falls in the
        detector's first window, its baseline.)"""
        out, labels, res = tmp_path / "p.rgf", tmp_path / "l.json", tmp_path / "b.json"
        assert run_cli("synth", "--regime", "BLOWUP", "--delta", "0.05", "--onset-days", "60",
                       "--grid", "16x240", "--horizon-days", "90", "--seed", "4",
                       "--start-time", "2021-01-21T00:00:00", "--labels", labels,
                       "-o", out) == 0
        lo, hi = json.loads(labels.read_text())["blowup_window"]
        assert run_cli("blowup", "--input", out, "--variable", "T2m", "-o", res) == 0
        day = json.loads(res.read_text())["blowup_day"]
        assert lo == 40.0 and lo <= day <= hi, (lo, day, hi)

    def test_regime_config_file(self, tmp_path):
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "r.rgf"
        assert run_cli("synth", "--regime-config", cfg_path,
                       "--horizon-days", "60", "-o", out) == 0
        assert rollstab.read_rollout(out).grid.n_lon == 64

    def test_regime_config_rejects_field_flags(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(
            RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64)))))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", "--regime-config", cfg_path, "--regime", "BLOWUP",
                       "--delta", "0.5", "--grid", "4x8", "--seed", "99",
                       "--horizon-days", "60", "-o", out) == 2
        err = capsys.readouterr().err
        assert "--regime, --grid, --delta, --seed: unused with --regime-config" in err, err
        assert not out.exists()


class TestSynthInputsRejected:
    """Every malformed synth input exits 2 naming its flag, or its file and key."""

    @pytest.mark.parametrize("g_small", ["1.0", "-1.0"])
    def test_blur_needs_small_gain_below_one(self, tmp_path, capsys, g_small):
        out = tmp_path / "b.rgf"
        assert run_cli("synth", "--regime", "BLUR", "--g-small", g_small, "--grid", "4x384",
                       "--horizon-days", "60", "-o", out) == 2
        assert "BLUR requires |g_small| < 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["16x240x5", "16x", "16 x 240", "x240"])
    def test_grid_flag_is_nlat_x_nlon(self, tmp_path, capsys, grid):
        out = tmp_path / "g.rgf"
        assert run_cli("synth", "--grid", grid, "--horizon-days", "60", "-o", out) == 2
        assert f"--grid {grid!r}: expected NLATxNLON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"variables": "T2m"}, "variables must be a list of names"),
        ({"grid": {"n_lat": 4.7, "n_lon": 8}}, "n_lat: expected int, got 4.7"),
        ({"grid": {"n_lat": 4, "n_lon": 8, "earth_radius_km": 6000}},
         "grid: unknown key 'earth_radius_km'"),
        ({"grid": {"lats": [90, "0", -90], "lons": [0, 180]}},
         "lats: expected float, got '0'"),
        ({"g_large": "0.9"}, "g_large: expected float, got '0.9'"),
        ({"seed": True}, "seed: expected int, got True"),
        ({"epoch": 123}, "epoch: expected an ISO-8601 string, got 123"),
        ({"regime": None}, "regime: expected str, got None"),
        ({"variables": []}, "variables must name at least one variable"),
    ])
    def test_regime_config_values_checked(self, tmp_path, capsys, change, message):
        doc = {"regime": "STABLE", "grid": {"n_lat": 4, "n_lon": 8}} | change
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "c.rgf"
        assert run_cli("synth", "--regime-config", cfg, "--horizon-days", "60", "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--g-large", "-1.5"], "STABLE requires |g_large| and |g_medium| <= 1"),
        (["--regime", "SHARPEN", "--g-small", "1.1", "--cap", "10", "--g-medium", "1.5"],
         "SHARPEN requires |g_large| and |g_medium| <= 1"),
        (["--regime", "DRIFT", "--tau-days", "30", "--g-small", "-1.5"],
         "DRIFT requires |g_small| <= 1"),
    ])
    def test_gains_bounded_in_magnitude(self, tmp_path, capsys, flags, message):
        out = tmp_path / "g.rgf"
        assert run_cli("synth", *flags, "--grid", "4x384", "--horizon-days", "60",
                       "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {message}\n"
        assert not out.exists()

    def test_start_time_with_utc_offset_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.rgf"
        assert run_cli("synth", "--start-time", "2021-01-01T00:00:00+05:00", "--grid", "4x8",
                       "--horizon-days", "60", "-o", out) == 2
        assert capsys.readouterr().err == (
            "rollstab: --start-time: 2021-01-01T00:00:00+05:00 carries a UTC offset; "
            "give the UTC time without one\n")
        assert not out.exists()

    def test_epoch_with_utc_offset_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"regime": "STABLE", "grid": {"n_lat": 4, "n_lon": 8},
                                   "epoch": "2021-01-01T00:00:00+05:00"}))
        out = tmp_path / "c.rgf"
        assert run_cli("synth", "--regime-config", cfg, "--horizon-days", "60", "-o", out) == 2
        assert capsys.readouterr().err.startswith(
            f"rollstab: {cfg}: epoch: 2021-01-01T00:00:00+05:00 carries a UTC offset")
        assert not out.exists()


class TestSynthStreamed:
    """``synth`` writes its run frame by frame: the bytes of ``generate`` written whole."""

    @pytest.mark.parametrize("flags, cfg, days, step, start", [
        (["--regime", "STABLE", "--grid", "8x64", "--seed", "3"],
         RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=3), 60, 21600, None),
        (["--regime", "BLOWUP", "--delta", "0.1", "--onset-days", "65", "--grid", "8x128",
          "--seed", "7"],
         RegimeConfig(regime="BLOWUP", growth_rate=0.1, onset_day=65.0,
                      grid=GridSpec.regular(8, 128), seed=7), 120, 21600, None),
        (["--regime", "DRIFT", "--tau-days", "70", "--grid", "8x64", "--seed", "11"],
         RegimeConfig(regime="DRIFT", tau_days=70.0, grid=GridSpec.regular(8, 64), seed=11),
         90, 21600, None),
        (["--regime", "SHARPEN", "--g-small", "1.05", "--cap", "10", "--grid", "16x384",
          "--seed", "2"],
         RegimeConfig(regime="SHARPEN", g_small=1.05, cap=10.0, grid=GridSpec.regular(16, 384),
                      seed=2), 60, 21600, None),
        (["--regime", "BLUR", "--g-small", "0.5", "--grid", "16x384", "--seed", "2"],
         RegimeConfig(regime="BLUR", g_small=0.5, grid=GridSpec.regular(16, 384), seed=2),
         60, 21600, None),
        (["--regime", "STABLE", "--variables", "T2m,U10", "--grid", "8x64",
          "--start-time", "2021-02-01T03:00:00"],
         RegimeConfig(regime="STABLE", variables=("T2m", "U10"), grid=GridSpec.regular(8, 64)),
         60, 21600, datetime(2021, 2, 1, 3)),
        (None, RegimeConfig(regime="DRIFT", tau_days=50.0, variables=("T2m", "U10"),
                            grid=GridSpec.regular(8, 64), seed=5), 60, 10800, None),
    ], ids=["stable", "blowup", "drift", "sharpen", "blur", "two_variables_later_start",
            "regime_config_3h_steps"])
    def test_file_and_labels_equal_generate(self, tmp_path, flags, cfg, days, step, start):
        if flags is None:
            (tmp_path / "cfg.json").write_text(json.dumps(config_to_dict(cfg)))
            flags = ["--regime-config", tmp_path / "cfg.json"]
        out, labels = tmp_path / "s.rgf", tmp_path / "s.json"
        assert run_cli("synth", *flags, "--horizon-days", days, "--step-seconds", step,
                       "-o", out, "--labels", labels) == 0
        with RolloutFile(out) as f:
            manifest = f.attrs["manifest"]
        series, want = generate(cfg, float(days), step_seconds=step, start_time=start)
        series.attrs["manifest"] = manifest
        write_rollout(series, tmp_path / "whole.rgf")
        assert out.read_bytes() == (tmp_path / "whole.rgf").read_bytes()
        doc = {**asdict(want), "config": config_to_dict(cfg), "manifest": manifest}
        assert labels.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def test_peak_memory_flat_in_horizon(self, tmp_path):
        def peak(days):
            tracemalloc.start()
            try:
                assert run_cli("synth", "--horizon-days", days, "-o", tmp_path / "s.rgf") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(120)  # warm caches
        base = peak(120)
        assert peak(240) - base < 1 << 20, base

    def test_run_stopped_early_exit_2_and_no_file(self, tmp_path, capsys):
        # the clock leaves datetime's range at step 123, after the file was opened
        assert run_cli("synth", "--grid", "4x16", "--horizon-days", 60, "--start-time",
                       "9999-12-01", "-o", tmp_path / "s.rgf",
                       "--labels", tmp_path / "s.json") == 2
        assert capsys.readouterr().err == (
            "rollstab: synthetic rollout stopped early: adapter failed at step 123: "
            "a step from clock 9999-12-31T18:00:00 ends beyond a datetime's range\n")
        assert list(tmp_path.iterdir()) == []


class TestSpectraCommand:
    def test_csv_output_and_determinism(self, tmp_path, synth_files):
        a = tmp_path / "a.csv"
        argv = ("spectra", "--input", synth_files["pred"], "--variable", "T2m",
                "--daily", "-o", a)
        assert run_cli(*argv) == 0
        first = a.read_bytes()
        assert run_cli(*argv) == 0
        assert a.read_bytes() == first
        lines = a.read_text().splitlines()
        assert lines[0].startswith("# rollstab")
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "timestamp,band_large,band_medium,band_small"

    def test_full_dump(self, tmp_path, synth_files):
        out = tmp_path / "bands.csv"
        full = tmp_path / "full.csv"
        assert run_cli("spectra", "--input", synth_files["pred"],
                       "--variable", "T2m", "-o", out,
                       "--full-output", full) == 0
        head = [l for l in full.read_text().splitlines() if not l.startswith("#")][0]
        assert head.startswith("timestamp,k0,k1,")

    def test_unknown_variable_exit_2(self, tmp_path, synth_files):
        assert run_cli("spectra", "--input", synth_files["pred"],
                       "--variable", "Zonk", "-o", tmp_path / "x.csv") == 2

    def test_unresolved_medium_band_column_left_empty(self, tmp_path):
        # 64 longitudes: no wavelength falls in 250..1000 km or below 250 km
        grid = GridSpec.regular(8, 64)
        r = make_series(grid, np.random.default_rng(1).standard_normal((8, 1, 8, 64)))
        write_rollout(r, tmp_path / "coarse.rgf")
        out = tmp_path / "bands.csv"
        assert run_cli("spectra", "--input", tmp_path / "coarse.rgf", "--variable", "T2m",
                       "-o", out) == 0
        lines = out.read_text().splitlines()
        assert [l for l in lines if l.startswith("# note:")] == [
            "# note: medium band unresolved on this grid; column left empty",
            "# note: small band unresolved on this grid; column left empty",
        ]
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 8
        assert all(row[1] and row[2:] == ["", ""] for row in rows)


class TestBlowupCommand:
    def test_from_rgf(self, tmp_path, synth_files):
        out = tmp_path / "b.json"
        assert run_cli("blowup", "--input", synth_files["pred"],
                       "--variable", "T2m", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["censored"] is True
        assert doc["manifest"]["subcommand"] == "blowup"

    def test_input_needs_variable(self, tmp_path, synth_files, capsys):
        out = tmp_path / "b.json"
        assert run_cli("blowup", "--input", synth_files["pred"], "-o", out) == 2
        assert capsys.readouterr().err == "rollstab: --variable is required with --input\n"
        assert not out.exists()

    def test_from_csv_series(self, tmp_path):
        t = np.arange(200 * 4)
        ts = (np.datetime64("2021-01-01", "s")
              + t * np.timedelta64(21600, "s"))
        vals = np.exp(0.2 * np.clip(t / 4.0 - 60.0, 0, None))
        from rollstab.gridio import write_series_csv

        mn, mx = tmp_path / "min.csv", tmp_path / "max.csv"
        write_series_csv(mn, ts, vals)
        write_series_csv(mx, ts, vals)
        out = tmp_path / "res.json"
        assert run_cli("blowup", "--min-csv", mn, "--max-csv", mx, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["blowup_day"] - 60.0) <= 1.0

    @pytest.mark.parametrize("row, message", [
        ("2021-01-01T06:00:00+05:00,1.5", "timestamp: 2021-01-01T06:00:00+05:00 carries a UTC "
                                          "offset; give the UTC time without one"),
        ("2021-01-01T06:00:00,1.5,2", "expected 2 cells (timestamp,value), got 3"),
        ("2021-01-01T06:00:00,high", "value: expected a finite number, got 'high'"),
    ], ids=["utc_offset", "extra_column", "not_a_number"])
    def test_bad_csv_row_exit_2_naming_the_file_and_line(self, tmp_path, synth_files, capsys,
                                                         row, message):
        bad = tmp_path / "min.csv"
        lines = synth_files["min"].read_text().splitlines()
        lines[2] = row  # the second data row, after the header and one row
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        assert run_cli("blowup", "--min-csv", bad, "--max-csv", synth_files["max"],
                       "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {bad}, line 3: {message}\n"
        assert not out.exists()

    def test_short_series_exit_3(self, tmp_path):
        ts = (np.datetime64("2021-01-01", "s")
              + np.arange(8) * np.timedelta64(21600, "s"))
        from rollstab.gridio import write_series_csv

        mn = tmp_path / "min.csv"
        write_series_csv(mn, ts, np.ones(8))
        assert run_cli("blowup", "--min-csv", mn, "--max-csv", mn,
                       "-o", tmp_path / "r.json") == 3


class TestSeasonalityCommand:
    def test_with_reference_and_envelope_reuse(self, tmp_path, synth_files):
        out = tmp_path / "s.json"
        env = tmp_path / "env.json"
        assert run_cli("seasonality", "--input", synth_files["pred"],
                       "--variable", "T2m", "--reference", synth_files["ref"],
                       "--save-envelope", env, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["censored"] is True
        out2 = tmp_path / "s2.json"
        assert run_cli("seasonality", "--input", synth_files["pred"],
                       "--variable", "T2m", "--envelope", env, "-o", out2) == 0
        assert (json.loads(out2.read_text())["seasonality_loss_day"]
                == doc["seasonality_loss_day"])

    def test_rollout_walked_before_reference(self, tmp_path, synth_files, capsys, entered):
        """A fill cell in the rollout ends the command before the reference,
        the longer input, is walked."""
        r = rollstab.read_rollout(synth_files["pred"])
        data = r.data.copy()
        data[5, 0, 3, 5] = np.nan
        holed, out = tmp_path / "holed.rgf", tmp_path / "se.json"
        write_rollout(RolloutSeries(grid=r.grid, variables=r.variables, start_time=r.start_time,
                                    data=data, fill_value=-9e30), holed)
        entered.clear()  # the read above
        assert run_cli("seasonality", "--input", holed, "--variable", "T2m",
                       "--reference", synth_files["ref"], "-o", out) == 2
        assert capsys.readouterr().err == (
            f"rollstab: {holed}: variable 'T2m' contains fill/NaN values; detectors require "
            "complete fields\n")
        assert entered == [holed] and not out.exists()

    def test_missing_climatology_exit_2(self, tmp_path, synth_files):
        assert run_cli("seasonality", "--input", synth_files["pred"],
                       "--variable", "T2m", "-o", tmp_path / "x.json") == 2

    def test_envelope_that_is_not_one_exit_2(self, tmp_path, synth_files, capsys):
        # a result JSON of another kind: the message names the file and the key
        not_env, out = tmp_path / "se.json", tmp_path / "x.json"
        not_env.write_text((synth_files["dir"] / "se.json").read_text())
        assert run_cli("seasonality", "--input", synth_files["pred"], "--variable", "T2m",
                       "--envelope", not_env, "-o", out) == 2
        err = capsys.readouterr().err
        assert f"{not_env}: envelope: missing key 'statistic'" in err, err
        assert not out.exists()


    @pytest.mark.parametrize("key, value, message", [
        ("mean", ["1.0"] * 365, "envelope: mean: expected float, got '1.0'"),
        ("statistic", 5, "envelope: statistic: expected str, got 5"),
        ("year_span", ["x", "y"], "envelope: year_span: expected int, got 'x'"),
        ("year_span", [2021], "envelope: year_span: expected two years, got [2021]"),
    ])
    def test_envelope_value_of_the_wrong_kind_exit_2(self, tmp_path, synth_files, capsys,
                                                     key, value, message):
        env, out = tmp_path / "env.json", tmp_path / "x.json"
        doc = json.loads(synth_files["env"].read_text())
        doc[key] = value
        env.write_text(json.dumps(doc))
        assert run_cli("seasonality", "--input", synth_files["pred"], "--variable", "T2m",
                       "--envelope", env, "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {env}: {message}\n"
        assert not out.exists()


class TestSmallscaleCommand:
    def test_unresolved_band_exit_3(self, tmp_path, synth_files):
        # 240-longitude grid cannot resolve wavelengths below 250 km
        assert run_cli("smallscale", "--input", synth_files["pred"],
                       "--reference", synth_files["ref"], "--variable", "T2m",
                       "-o", tmp_path / "x.json") == 3

    def test_fine_grid_ratios(self, tmp_path):
        pred = tmp_path / "p.rgf"
        ref = tmp_path / "r.rgf"
        for seed, path in ((1, pred), (2, ref)):
            assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 60,
                           "--seed", seed, "--grid", "16x384", "-o", path) == 0
        out = tmp_path / "ss.json"
        assert run_cli("smallscale", "--input", pred, "--reference", ref,
                       "--variable", "T2m", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert 0.5 < doc["ratio_vs_reference"] < 2.0


class TestCycleRmseCommand:
    def test_identical_is_zero(self, tmp_path):
        grid = GridSpec.regular(8, 64)
        data = np.random.default_rng(0).standard_normal((365 * 4, 1, 8, 64))
        r = make_series(grid, data, start=datetime(2021, 1, 1))
        p = tmp_path / "a.rgf"
        write_rollout(r, p)
        out = tmp_path / "rmse.json"
        assert run_cli("cycle-rmse", "--input", p, "--reference", p,
                       "--variable", "T2m", "-o", out) == 0
        assert json.loads(out.read_text())["seasonal_cycle_rmse"] < 1e-6


class TestPerturbCommand:
    def test_synth_adapter_roundtrip(self, tmp_path, synth_files):
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "rollout.rgf"
        rc = run_cli("perturb", "--adapter", f"synth:{cfg_path}",
                     "--kind", "white", "--k", "1", "--seed", "3",
                     "--stats-from", synth_files["pred"], "--steps", "8",
                     "-o", out)
        assert rc == 0
        r = rollstab.read_rollout(out)
        assert r.n_time == 9
        assert r.attrs["perturbation"]["kind"] == "WHITE"

    def test_missing_stats_exit_2(self, tmp_path):
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert run_cli("perturb", "--adapter", f"synth:{cfg_path}",
                       "--kind", "white", "--steps", "4",
                       "-o", tmp_path / "x.rgf") == 2

    def test_image_init_not_offered(self, tmp_path, synth_files, capsys):
        out = tmp_path / "x.rgf"
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--adapter", f"synth:{synth_files['cfg']}", "--kind", "image_init",
                  "--stats-from", str(synth_files["pred"]), "--steps", "2", "-o", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'image_init'" in capsys.readouterr().err
        assert not out.exists()

    def test_target_selecting_no_variable_exit_2(self, tmp_path, synth_files, capsys):
        # a synth adapter has no static variables
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--kind", "white",
                       "--target", "static", "--stats-from", synth_files["pred"],
                       "--steps", "2", "-o", out) == 2
        assert "target 'static' selects none of the variables" in capsys.readouterr().err
        assert not out.exists()

    def test_shift_only_run_is_the_shifted_rollout(self, tmp_path, synth_files):
        shifted, plain = tmp_path / "shifted.rgf", tmp_path / "plain.rgf"
        argv = ("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "8")
        assert run_cli(*argv, "--time-shift-days", "90", "-o", shifted) == 0
        assert run_cli(*argv, "-o", plain) == 0
        ad = rollstab.SynthAdapter(load_config(synth_files["cfg"]))
        want = rollstab.run_rollout(ad, ad.initial_state(), ad.cfg.epoch, 8,
                                    time_shift_days=90.0)
        got = rollstab.read_rollout(shifted)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.data.tobytes() != rollstab.read_rollout(plain).data.tobytes()
        assert "perturbation" not in got.attrs
        assert got.attrs["manifest"]["params"]["time_shift_days"] == 90.0

    @pytest.mark.parametrize("clock, argv", [
        ("2001-01-01T00:00:00", ["--start-time", "2001-01-01"]),
        ("2020-12-02T00:00:00", ["--time-shift-days", "-30"]),
        ("2020-12-02T00:00:00", ["--kind", "white", "--time-shift-days", "-30"]),
    ])
    def test_synth_clock_before_epoch_exit_2(self, tmp_path, synth_files, capsys, clock,
                                             argv):
        out = tmp_path / "x.rgf"
        stats = ["--stats-from", synth_files["pred"]] if "--kind" in argv else []
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "3",
                       *argv, *stats, "-o", out) == 2
        err = capsys.readouterr().err
        assert f"clock {clock}" in err and "epoch 2021-01-01T00:00:00" in err, err
        assert not out.exists()

    def test_start_time_with_utc_offset_exit_2(self, tmp_path, synth_files, capsys):
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "3",
                       "--start-time", "2021-01-01T00:00:00+05:00", "-o", out) == 2
        assert "--start-time: 2021-01-01T00:00:00+05:00 carries a UTC offset" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_peak_memory_flat_in_stats_horizon_and_steps(self, tmp_path, synth_files,
                                                         monkeypatch):
        """The stats file is reduced block by block and the run written frame by
        frame, so neither a longer reference nor more steps raise the peak."""
        grid = GridSpec.regular(8, 64)  # the synth_files adapter's grid
        rng = np.random.default_rng(0)
        for n in (1500, 3000):
            write_rollout(make_series(grid, rng.standard_normal((n, 1, 8, 64))),
                          tmp_path / f"ref{n}.rgf")
        monkeypatch.setattr(rollstab.gridio, "BLOCK_BYTES", 100 * 512 * 4)  # 100 steps a block

        def peak(stats_steps, steps):
            tracemalloc.start()
            try:
                assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}",
                               "--kind", "white", "--stats-from",
                               tmp_path / f"ref{stats_steps}.rgf", "--steps", steps,
                               "-o", tmp_path / "out.rgf") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1500, 400)  # warm caches
        base, frame = peak(1500, 400), 512 * 4
        assert peak(3000, 400) - base < 1500 * frame / 10, base  # 1500 more stats steps
        assert peak(1500, 800) - base < 400 * frame / 10, base  # 400 more run steps

    def test_shift_brings_an_early_clock_to_the_epoch(self, tmp_path, synth_files):
        # the shifted clock is the one a step is keyed by
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "3",
                       "--start-time", "2020-12-02", "--time-shift-days", "30",
                       "-o", out) == 0
        r = rollstab.read_rollout(out)
        assert r.n_time == 4 and "error" not in r.attrs


class TestAdapterManifestRead:
    """An external adapter's manifest is read strictly and errors name the file."""

    @pytest.mark.parametrize("change, message", [
        ({"command": None}, "manifest: missing key 'command'"),
        ({"bogus": 1}, "manifest: unknown key 'bogus'"),
        ({"variables": "T2m"}, "variables must be a list of names"),
        ({"static_variables": [1]}, "static_variables must be a list of names"),
        ({"supports_time_shift": "false"},
         "supports_time_shift: expected bool, got 'false'"),
        ({"static_variables": ["T2m"]}, "manifest: variable 'T2m' is named more than once"),
    ])
    def test_bad_manifest_exit_2(self, tmp_path, synth_files, capsys, change, message):
        echo = "import shutil; shutil.copy('state_in.rgf', 'state_out.rgf')"
        doc = {"command": [sys.executable, "-c", echo], "workdir": str(tmp_path / "work"),
               "variables": ["T2m"]} | change
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"external:{manifest}", "--init",
                       synth_files["pred"], "--steps", "1", "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {manifest}: {message}\n"
        assert not out.exists()


class TestStepLength:
    """The adapter owns the step length, so perturb and synth agree at any."""

    def test_perturb_synth_adapter_equals_synth(self, tmp_path, synth_files):
        a, b = tmp_path / "perturb.rgf", tmp_path / "synth.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", 60,
                       "--step-seconds", 86400, "-o", a) == 0
        assert run_cli("synth", "--regime-config", synth_files["cfg"], "--horizon-days", 60,
                       "--step-seconds", 86400, "-o", b) == 0
        ra, rb = rollstab.read_rollout(a), rollstab.read_rollout(b)
        assert ra.data.tobytes() == rb.data.tobytes()
        assert np.array_equal(ra.timestamps, rb.timestamps)
        assert ra.step_seconds == rb.step_seconds == 86400

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--regime", "STABLE", "--horizon-days", 60, "--grid", "8x64",
          "--step-seconds", 0], "step length must be positive"),
        (["synth", "--regime", "STABLE", "--horizon-days", 60, "--grid", "8x64",
          "--step-seconds", -3600], "step length must be positive"),
        (["perturb", "--steps", 4, "--step-seconds", 0], "step length must be positive"),
        (["perturb", "--steps", -5], "step count must be >= 0"),
    ])
    def test_bad_step_length_or_count_exit_2(self, tmp_path, synth_files, capsys, argv,
                                             message):
        if argv[0] == "perturb":
            argv = [*argv, "--adapter", f"synth:{synth_files['cfg']}"]
        out = tmp_path / "out.rgf"
        assert run_cli(*argv, "-o", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestExtremesCommand:
    def test_per_region_outputs(self, tmp_path, synth_files):
        outdir = tmp_path / "ext"
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([
            {"name": "tropics", "lat_min": -20, "lat_max": 20,
             "lon_min": 0, "lon_max": 360},
        ]))
        rc = run_cli("extremes", "--input", synth_files["pred"],
                     "--reference", synth_files["ref"], "--variable", "T2m",
                     "--regions", regions, "--outdir", outdir)
        assert rc == 0
        assert (outdir / "tropics_qq.csv").exists()
        assert (outdir / "tropics_exceedance.csv").exists()
        assert (outdir / "tropics_events.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert "tropics" in summary["regions"]
        exc = (outdir / "tropics_exceedance.csv").read_text().splitlines()
        rows = [l for l in exc if not l.startswith("#")]
        assert rows[0] == "side,level,threshold,model_fraction,reference_fraction,ratio"
        assert len(rows) == 1 + 200 + 200  # header + hot P80..P99.9 + cold P0.1..P20

    def test_peak_memory_far_below_one_payload(self, tmp_path, monkeypatch):
        """extremes walks each input in time blocks and keeps only the region's
        cells, so with one small box its traced peak is a fraction of a payload."""
        grid = GridSpec.regular(32, 64)
        data = np.random.default_rng(0).standard_normal((2000, 1, 32, 64))
        path = tmp_path / "r.rgf"
        write_rollout(make_series(grid, data), path)
        payload = 2000 * 32 * 64 * 4  # 16 MB of float32
        del data
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([{"name": "box", "lat_min": 30, "lat_max": 60,
                                        "lon_min": -20, "lon_max": 40}]))
        monkeypatch.setattr(rollstab.gridio, "BLOCK_BYTES", 64 * 32 * 64 * 4)
        tracemalloc.start()
        try:
            assert run_cli("extremes", "--input", path, "--reference", path,
                           "--variable", "T2m", "--regions", regions,
                           "--outdir", tmp_path / "ext") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < payload / 4, (peak, payload)

    @pytest.mark.parametrize("regions, message", [
        ({"name": "x"}, "regions must be a JSON list of objects"),
        (["x"], "regions must be a JSON list of objects"),
        ([{"name": "box", "lat_min": 0, "lat_max": 10, "lon_min": 0, "lon_max": 10},
          {"name": "box", "lat_min": 20, "lat_max": 30, "lon_min": 0, "lon_max": 10}],
         "region 'box' is given twice"),
        ([{"name": "box", "lat_min": None, "lat_max": 10, "lon_min": 0, "lon_max": 10}],
         "region 'box': "),
        ([{"name": "box", "lat_max": 10, "lon_min": 0, "lon_max": 10}],
         "region 'box': missing key 'lat_min'"),
        ([{"name": "box", "lat_min": 0, "lat_max": 10, "lon_min": 0, "lon_max": 10, "x": 1}],
         "region 'box': unknown key 'x'"),
        ([{"name": "box", "lat_min": "0", "lat_max": 10, "lon_min": 0, "lon_max": 10}],
         "region 'box': lat_min: expected float, got '0'"),
        ([{"name": "box", "lat_min": 10, "lat_max": 0, "lon_min": 0, "lon_max": 10}],
         "region 'box': lat_min must be < lat_max"),
        ([], "regions must name at least one region"),
    ])
    def test_bad_regions_file_exit_2(self, tmp_path, synth_files, capsys, regions, message):
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(regions))
        outdir = tmp_path / "ext"
        assert run_cli("extremes", "--input", synth_files["pred"], "--reference",
                       synth_files["ref"], "--variable", "T2m", "--regions", path,
                       "--outdir", outdir) == 2
        assert capsys.readouterr().err.startswith(f"rollstab: {path}: {message}")
        assert not outdir.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", "..", ""])
    def test_region_name_must_be_a_file_stem(self, tmp_path, synth_files, capsys, name):
        path = tmp_path / "regions.json"
        path.write_text(json.dumps([{"name": name, "lat_min": -20, "lat_max": 20,
                                     "lon_min": 0, "lon_max": 360}]))
        outdir = tmp_path / "out" / "sub"
        assert run_cli("extremes", "--input", synth_files["pred"], "--reference",
                       synth_files["ref"], "--variable", "T2m", "--regions", path,
                       "--outdir", outdir) == 2
        assert capsys.readouterr().err.startswith(
            f"rollstab: {path}: region {name!r}: name must be a plain file-name stem")
        assert not (tmp_path / "out").exists()


def _golden_pair(d):
    """A small seeded model and reference on a 16x48 grid, rounded to 0.1 so
    the pools hold ties, the reference starting before the model."""
    grid = GridSpec.regular(16, 48)
    rng = np.random.default_rng(2024)
    trend = 30.0 * np.cos(np.deg2rad(grid.lats))[:, None]
    for name, n, start, scale in (("model", 400, datetime(2021, 1, 1), 6.0),
                                  ("ref", 800, datetime(2020, 10, 1), 5.0)):
        data = np.round(trend + scale * rng.standard_normal((n, 1, 16, 48)), 1)
        write_rollout(make_series(grid, data, start=start), d / f"{name}.rgf")


def _extremes_digest(outdir) -> str:
    """SHA-256 over every output's name and its non-``#`` rows, or for
    summary.json its regions."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode())
        if path.suffix == ".csv":
            rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        else:
            rows = [json.dumps(json.loads(path.read_text())["regions"], sort_keys=True)]
        h.update("\n".join(rows).encode())
    return h.hexdigest()


# the outputs of `_golden_pair` as the pooled-sort implementation wrote them
EXTREMES_GOLDEN = {
    "builtin": "c849b5f10d43b33e6474353d5fcc11bea1ee5ecbc81d3ee6de903da76f3826ea",
    "box": "a2f02835c00ba6507eb58416bc09ed306123a9b1367f7606f8baa3d7cd4920a5",
    "no_match_window": "12035920c50fc5c514362afd892ee903099c8c878764ff54bd9aea9dea991ff3",
}


class TestExtremesStreamed:
    """`extremes` holds no region's cells: the model's regional extremes are
    taken block by block, and the reference's thresholds come from a second,
    unhashed walk that keeps only the bins holding the ranks they read. That
    walk starts once the model's walk has ended, and not at all if it failed."""

    @pytest.mark.parametrize("run", sorted(EXTREMES_GOLDEN))
    def test_outputs_pinned(self, tmp_path, run):
        _golden_pair(tmp_path)
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([{"name": "wrap", "lat_min": -40, "lat_max": 50,
                                        "lon_min": -30, "lon_max": 40}]))
        extra = {"builtin": [], "box": ["--regions", regions],
                 "no_match_window": ["--no-match-window"]}[run]
        outdir = tmp_path / "ext"
        assert run_cli("extremes", "--input", tmp_path / "model.rgf", "--reference",
                       tmp_path / "ref.rgf", "--variable", "T2m", *extra,
                       "--outdir", outdir) == 0
        assert _extremes_digest(outdir) == EXTREMES_GOLDEN[run]

    @pytest.fixture(scope="class")
    def horizons(self, synth_files, tmp_path_factory):
        """The first 1600 and 3200 steps of the synthetic reference."""
        d = tmp_path_factory.mktemp("horizons")
        r = rollstab.read_rollout(synth_files["ref"])
        for n in (1600, 3200):
            write_rollout(RolloutSeries(grid=r.grid, variables=r.variables,
                                        start_time=r.start_time, data=r.data[:n]),
                          d / f"{n}.rgf")
        return d

    def test_peak_memory_flat_in_model_and_bounded_in_reference(self, tmp_path, horizons,
                                                                 synth_files, monkeypatch):
        """A longer model adds only its per-step extremes. A longer reference
        adds the values in the bins its thresholds read, far fewer than the
        cells the pooled sort held."""
        grid = rollstab.read_rollout(synth_files["pred"]).grid
        step = 4 * sum(rollstab.region_mask(grid, r)[1]
                       for r in rollstab.builtin_regions().values())  # pool bytes
        monkeypatch.setattr(rollstab.gridio, "BLOCK_BYTES", 100 * grid.n_lat * grid.n_lon * 4)

        def peak(model, reference):
            tracemalloc.start()
            try:
                assert run_cli("extremes", "--input", model, "--reference", reference,
                               "--variable", "T2m", "--outdir", tmp_path / "ext") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = horizons / "1600.rgf", horizons / "3200.rgf"
        peak(short, short)  # warm caches
        base = peak(short, short)
        assert peak(long, short) - base < 1600 * step / 10, base
        assert peak(short, long) - base < 1600 * step / 4, base

    def test_reference_changed_between_walks_exit_2(self, tmp_path, monkeypatch, capsys):
        """The second walk of the reference is not hashed: a reference whose
        values move before it is rejected by its bins' counts."""
        _golden_pair(tmp_path)
        ref = tmp_path / "ref.rgf"
        second_walk = spectra.pooled_thresholds

        def rewrite_then_walk(source, *args):
            raw = bytearray(ref.read_bytes())
            last = len(raw) - 400 * 16 * 48 * 4  # the last 400 of its 800 steps
            raw[last:] = (np.frombuffer(raw[last:], np.float32) + np.float32(50)).tobytes()
            ref.write_bytes(bytes(raw))
            return second_walk(source, *args)

        monkeypatch.setattr(spectra, "pooled_thresholds", rewrite_then_walk)
        outdir = tmp_path / "ext"
        assert run_cli("extremes", "--input", tmp_path / "model.rgf", "--reference", ref,
                       "--variable", "T2m", "--outdir", outdir) == 2
        assert capsys.readouterr().err == f"rollstab: {ref}: changed between passes\n"
        assert not outdir.exists()

    def test_model_error_during_second_walk_leaves_no_thread(self, tmp_path, monkeypatch,
                                                             capsys, entered):
        """A fill value in the model fails as it would alone, before the
        reference's second walk: the thresholds are never gathered, the
        reference is walked once, and no thread outlives the command."""
        _golden_pair(tmp_path)
        model = rollstab.read_rollout(tmp_path / "model.rgf")
        data = model.data.copy()
        data[200, 0, 3, 5] = np.nan
        holed, ref = tmp_path / "holed.rgf", tmp_path / "ref.rgf"
        write_rollout(RolloutSeries(grid=model.grid, variables=model.variables,
                                    start_time=model.start_time, data=data,
                                    fill_value=-9e30), holed)
        gathered = []
        monkeypatch.setattr(spectra, "pooled_thresholds", lambda *args: gathered.append(args))
        threads = threading.active_count()
        outdir = tmp_path / "ext"
        assert run_cli("extremes", "--input", holed, "--reference", ref,
                       "--variable", "T2m", "--outdir", outdir) == 2
        assert capsys.readouterr().err == (
            f"rollstab: {holed}: variable 'T2m' contains fill/NaN values; detectors require "
            "complete fields\n")
        assert gathered == [] and entered.count(ref) == 1
        assert threading.active_count() == threads
        assert not outdir.exists()

    def test_reference_error_waits_for_the_model_walk(self, tmp_path, monkeypatch, capsys):
        """A fill value in the reference's first walk fails naming the
        reference, and the command returns only once the model's walk, on the
        worker thread, has ended."""
        _golden_pair(tmp_path)
        reference = rollstab.read_rollout(tmp_path / "ref.rgf")
        data = reference.data.copy()
        data[3, 0, 3, 5] = np.nan
        holed, model = tmp_path / "holed.rgf", tmp_path / "model.rgf"
        write_rollout(RolloutSeries(grid=reference.grid, variables=reference.variables,
                                    start_time=reference.start_time, data=data,
                                    fill_value=-9e30), holed)
        scan, ended = spectra.scan, []

        def slow_model_walk(source, *args, **kwargs):
            if Path(source.path) != model:
                return scan(source, *args, **kwargs)
            time.sleep(0.5)  # the reference's walk fails meanwhile
            result = scan(source, *args, **kwargs)
            ended.append(model)
            return result

        monkeypatch.setattr(spectra, "scan", slow_model_walk)
        threads = threading.active_count()
        outdir = tmp_path / "ext"
        assert run_cli("extremes", "--input", model, "--reference", holed,
                       "--variable", "T2m", "--outdir", outdir) == 2
        assert ended == [model]
        assert capsys.readouterr().err == (
            f"rollstab: {holed}: variable 'T2m' contains fill/NaN values; detectors require "
            "complete fields\n")
        assert threading.active_count() == threads
        assert not outdir.exists()


# inputs of the spectra golden runs, each made by `synth` in one working
# directory: a 2-variable BLOWUP prediction at 5-hour steps from 03 UTC, so
# its days are partial and hold 4 or 5 steps; a 2-year 12-hourly reference on
# the same 4x384 grid, which resolves the small band; two whole years for
# cycle-rmse
_SPECTRA_INPUTS = [
    ["--regime", "BLOWUP", "--delta", "0.05", "--onset-days", "40", "--grid", "4x384",
     "--variables", "T2m,Z500", "--horizon-days", "90", "--seed", "4",
     "--start-time", "2021-01-01T03:00:00", "--step-seconds", "18000", "-o", "pred.rgf"],
    ["--regime", "STABLE", "--grid", "4x384", "--variables", "T2m,Z500",
     "--horizon-days", "740", "--seed", "3", "--step-seconds", "43200", "-o", "ref.rgf"],
    ["--regime", "STABLE", "--grid", "4x32", "--horizon-days", "364.75", "--seed", "5",
     "--start-time", "2021-01-01T00:00:00", "-o", "ya.rgf"],
    ["--regime", "DRIFT", "--tau-days", "100", "--grid", "4x32", "--horizon-days", "364.75",
     "--seed", "6", "--start-time", "2021-01-01T00:00:00", "-o", "yb.rgf"],
]
# the runs, each in that directory
SPECTRA_RUNS = {
    "report": ["report", "--prediction", "pred.rgf", "--reference", "ref.rgf",
               "-o", "r.json", "--csv", "r.csv"],
    "seasonality": ["seasonality", "--input", "pred.rgf", "--variable", "T2m",
                    "--reference", "ref.rgf", "--save-envelope", "e.json", "-o", "se.json"],
    "smallscale": ["smallscale", "--input", "pred.rgf", "--reference", "ref.rgf",
                   "--variable", "Z500", "-o", "ss.json"],
    "spectra": ["spectra", "--input", "pred.rgf", "--variable", "T2m", "-o", "sp.csv",
                "--full-output", "spf.csv"],
    "spectra-daily": ["spectra", "--input", "pred.rgf", "--variable", "T2m", "--daily",
                      "-o", "spd.csv", "--full-output", "spdf.csv"],
    "cycle-rmse": ["cycle-rmse", "--input", "ya.rgf", "--reference", "yb.rgf",
                   "--variable", "T2m", "-o", "c.json"],
}
# the SHA-256 of every output of each run
SPECTRA_GOLDEN = {
    "report": {
        "r.json": "831cb164efe6c7be372db7d00cbc82b422dbc23df82c454d9d0634cc9e91569c",
        "r.csv": "db508388c9966ddcc081077c7cd3d7d4dd53fbfd508f2a3ad912833dd6f90719",
    },
    "seasonality": {
        "e.json": "5bc91fc45a87d2b5812667922f18455d4b86968168e78f77686055ea59fcb273",
        "se.json": "5fc082e78b758c357ddaeb7556f2f528cdf221c355b195915ea09d9ad4d8ba18",
    },
    "smallscale": {
        "ss.json": "fd28c4f1230fb74a687f5e099580a116e0eb9df0689b79840777f679c493d5fc",
    },
    "spectra": {
        "sp.csv": "0d047d6e3d0b75391940f2fa5152a0f1cf3dbb18e6dacdc1c6c502d4819a7bc6",
        "spf.csv": "43dfe7a229076cde1979262f0765ac7cf107ae4d356f06e2275b65e43f669705",
    },
    "spectra-daily": {
        "spd.csv": "e9dec7833384c7dcf373f44daf8d92db054f26e1fae80964a852b910c61f9026",
        "spdf.csv": "e0a2d4e8b2d8c982e127450b8307f54d8c9119235f589b3a7f30811548774bad",
    },
    "cycle-rmse": {
        "c.json": "a16ffcb34c59e6c189ef1efcb8f152fa46c8a4262223520e199633f8abee761f",
    },
}


class TestSpectraOutputsGolden:
    """Every output of the subcommands that read spectra or time-bucket means,
    digested whole, manifest included: a change to the arithmetic or the order
    of the sums shows as a new digest. Taken with numpy 2.4 on x86-64."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("spectra_golden")
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(d)
            for argv in _SPECTRA_INPUTS:
                assert run_cli("synth", *argv) == 0, argv[-1]
        return d

    @pytest.mark.parametrize("case", sorted(SPECTRA_RUNS))
    def test_outputs_pinned(self, workdir, monkeypatch, case):
        monkeypatch.chdir(workdir)
        assert run_cli(*SPECTRA_RUNS[case]) == 0
        want = SPECTRA_GOLDEN[case]
        assert {name: _sha(workdir / name) for name in want} == want


class TestMemorizeCommand:
    def test_ratios_csv(self, tmp_path):
        grid = GridSpec.regular(8, 16)
        rng = np.random.default_rng(5)
        train = make_series(grid, rng.standard_normal((200, 1, 8, 16)),
                            start=datetime(1990, 1, 1), step_seconds=86400)
        roll = make_series(grid, rng.standard_normal((5, 1, 8, 16)),
                           start=datetime(1990, 3, 1), step_seconds=86400)
        tp, rp = tmp_path / "train.rgf", tmp_path / "roll.rgf"
        write_rollout(train, tp)
        write_rollout(roll, rp)
        out = tmp_path / "ratios.csv"
        assert run_cli("memorize", "--rollout", rp, "--index", tp, "-o", out) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "timestamp,ratio,d1,d2,first_neighbor,second_neighbor"
        assert len(rows) == 6


    def test_repeated_variable_exit_2(self, tmp_path, synth_files, capsys):
        out = tmp_path / "ratios.csv"
        assert run_cli("memorize", "--rollout", synth_files["pred"], "--index",
                       synth_files["pred"], "--variables", "T2m,T2m", "-o", out) == 2
        assert "variable 'T2m' is named more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_file_with_a_repeated_variable_exit_2(self, tmp_path, capsys):
        p = tmp_path / "twice.rgf"
        write_rollout(make_series(GridSpec.regular(4, 16), np.zeros((8, 2, 4, 16)),
                                  variables=("T2m", "T3m")), p)
        p.write_bytes(p.read_bytes().replace(b'"T3m"', b'"T2m"', 1))  # same header length
        assert run_cli("memorize", "--rollout", p, "--index", p, "-o", tmp_path / "r.csv") == 2
        assert "variable 'T2m' is named more than once" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("names, message", [
        ("T2m,T2m", "--variables: variable 'T2m' is named more than once"),
        ("", "--variables: a name is empty"),
    ])
    def test_bad_variable_list_exit_2_before_a_block_is_read(self, tmp_path, synth_files,
                                                             capsys, monkeypatch, names,
                                                             message):
        entered = []
        blocks = RolloutFile.blocks

        def counted(self, rows):
            entered.append(rows)
            return blocks(self, rows)

        monkeypatch.setattr(RolloutFile, "blocks", counted)
        out = tmp_path / "ratios.csv"
        assert run_cli("memorize", "--rollout", synth_files["pred"], "--index",
                       synth_files["pred"], "--variables", names, "-o", out) == 2
        assert message in capsys.readouterr().err
        assert entered == [] and not out.exists()

    def test_negative_window_exit_2_before_any_input_is_read(self, tmp_path, capsys):
        """Bad input, not an unmet precondition; the inputs named do not exist,
        so any attempt to read one would fail with another message."""
        assert run_cli("memorize", "--rollout", tmp_path / "none.rgf", "--index",
                       tmp_path / "none.rgf", "--window-days", "-1", "-o", tmp_path / "r.csv") == 2
        assert "--window-days must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReportCommand:
    def test_stable_run_fully_censored(self, tmp_path, synth_files):
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        rc = run_cli("report", "--prediction", synth_files["pred"],
                     "--reference", synth_files["ref"], "--name", "stable",
                     "-o", out, "--csv", csv)
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["blowup"]["T2m"]["censored"] is True
        assert doc["seasonality"]["T2m"]["censored"] is True
        assert doc["small_scale"]["T2m"] is None  # 240-lon grid: unresolved
        body = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "run,metric,T2m"
        assert body[1] == "stable,blowup_days,>90"
        assert body[3] == "stable,small_scale,unresolved"

    def test_byte_deterministic(self, tmp_path, synth_files):
        out = tmp_path / "r.json"
        argv = ("report", "--prediction", synth_files["pred"],
                "--reference", synth_files["ref"], "-o", out)
        assert run_cli(*argv) == 0
        first = out.read_bytes()
        assert run_cli(*argv) == 0
        assert out.read_bytes() == first

    def test_blowup_run_detected_in_label_window(self, tmp_path, synth_files):
        pred = tmp_path / "blow.rgf"
        assert run_cli("synth", "--regime", "BLOWUP", "--delta", "0.1",
                       "--onset-days", "150", "--horizon-days", "730",
                       "--seed", "7", "--grid", "16x240", "-o", pred) == 0
        out = tmp_path / "rep.json"
        assert run_cli("report", "--prediction", pred,
                       "--reference", synth_files["ref"], "-o", out) == 0
        doc = json.loads(out.read_text())
        day = doc["blowup"]["T2m"]["day"]
        assert 150.0 <= day <= 170.0

    def test_no_shared_variables_exit_2(self, tmp_path, synth_files):
        other = tmp_path / "other.rgf"
        assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 90,
                       "--variables", "Q100", "--grid", "16x240",
                       "-o", other) == 0
        assert run_cli("report", "--prediction", other,
                       "--reference", synth_files["pred"],
                       "-o", tmp_path / "x.json") == 2


class TestAggregateCommand:
    def test_aggregates_reports(self, tmp_path, synth_files):
        reports = []
        for i, days in enumerate((90, 90)):
            rep = tmp_path / f"rep{i}.json"
            assert run_cli("report", "--prediction", synth_files["pred"],
                           "--reference", synth_files["ref"],
                           "--name", f"run{i}", "-o", rep) == 0
            reports.append(rep)
        out = tmp_path / "agg.json"
        csv = tmp_path / "agg.csv"
        assert run_cli("aggregate", *reports, "-o", out, "--csv", csv) == 0
        doc = json.loads(out.read_text())
        entry = doc["metrics"]["blowup_day"]["T2m"]
        assert entry["mean"] == 90.0 and entry["std"] == 0.0


def _report_doc():
    """A report JSON with an uncensored blow-up, a censored seasonality entry
    and resolved small-scale ratios, so every kind of key appears."""
    return {
        "name": "r", "horizon_days": 90.0, "variables": ["T2m"],
        "blowup": {"T2m": {"censored": False, "day": 41.0, "triggered_by": "max",
                           "r2": 0.97, "slope_sign": 1}},
        "seasonality": {"T2m": {"censored": True, "horizon": 90.0, "multiplier": 2.0,
                                "run_length": None}},
        "small_scale": {"T2m": {"ratio_vs_reference": 1.5, "ratio_vs_self": 2.0,
                                "window_days": 30.0, "truncated": False}},
        "manifest": {"tool": "rollstab"},
    }


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


_REPORT_KEYS = [
    ("name",), ("horizon_days",), ("variables",), ("blowup",), ("seasonality",),
    ("small_scale",), ("blowup", "T2m"), ("seasonality", "T2m"), ("small_scale", "T2m"),
    *(("blowup", "T2m", k) for k in ("censored", "day", "triggered_by", "r2", "slope_sign")),
    *(("seasonality", "T2m", k) for k in ("censored", "horizon", "multiplier", "run_length")),
    *(("small_scale", "T2m", k)
      for k in ("ratio_vs_reference", "ratio_vs_self", "window_days", "truncated")),
]


class TestAggregateReadsReportsStrictly:
    """aggregate takes every key of a report as written and invents none."""

    def _aggregate(self, tmp_path, doc):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(_report_doc()))
        bad.write_text(json.dumps(doc))
        out = tmp_path / "agg.json"
        rc = run_cli("aggregate", good, bad, "-o", out)
        return rc, out

    def test_report_as_written_is_read(self, tmp_path):
        rc, out = self._aggregate(tmp_path, _report_doc())
        assert rc == 0
        assert json.loads(out.read_text())["metrics"]["blowup_day"]["T2m"]["mean"] == 41.0

    @pytest.mark.parametrize("path", _REPORT_KEYS, ids="/".join)
    def test_missing_key_exit_2(self, tmp_path, capsys, path):
        doc = _report_doc()
        del _at(doc, path[:-1])[path[-1]]
        rc, out = self._aggregate(tmp_path, doc)
        assert rc == 2
        assert f"missing key {path[-1]!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted({p[:-1] for p in _REPORT_KEYS}),
                             ids=lambda p: "/".join(p) or "top")
    def test_unknown_key_exit_2(self, tmp_path, capsys, path):
        doc = _report_doc()
        _at(doc, path)["bogus"] = 1
        rc, out = self._aggregate(tmp_path, doc)
        assert rc == 2
        assert "unknown key 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("variables",), 5, "report: variables must be a list of names"),
        (("variables",), [["T2m"]], "report: variables must be a list of names"),
        (("blowup",), [], "blowup: expected a JSON object, got list"),
        (("blowup", "T2m"), None, "blowup['T2m']: expected a JSON object, got NoneType"),
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, path, value, message):
        doc = _report_doc()
        _at(doc, path[:-1])[path[-1]] = value
        rc, out = self._aggregate(tmp_path, doc)
        assert rc == 2
        assert capsys.readouterr().err == f"rollstab: {tmp_path / 'bad.json'}: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize("path, value, message", [
        (("name",), 5, "report: name: expected str, got 5"),
        (("horizon_days",), "90", "report: horizon_days: expected float, got '90'"),
        (("blowup", "T2m", "day"), "12", "blowup['T2m']: day: expected float, got '12'"),
        (("blowup", "T2m", "slope_sign"), 1.0,
         "blowup['T2m']: slope_sign: expected int, got 1.0"),
        (("seasonality", "T2m", "censored"), "yes",
         "seasonality['T2m']: censored: expected bool, got 'yes'"),
        (("seasonality", "T2m", "horizon"), "90",
         "seasonality['T2m']: horizon: expected float, got '90'"),
        (("small_scale", "T2m", "truncated"), 0,
         "small_scale['T2m']: truncated: expected bool, got 0"),
    ])
    def test_value_of_the_wrong_kind_exit_2(self, tmp_path, capsys, path, value, message):
        doc = _report_doc()
        _at(doc, path[:-1])[path[-1]] = value
        rc, out = self._aggregate(tmp_path, doc)
        assert rc == 2
        assert capsys.readouterr().err == f"rollstab: {tmp_path / 'bad.json'}: {message}\n"
        assert not out.exists()


class TestEverySubcommandByteStable:
    def test_rerun_reproduces_bytes(self, tmp_path, synth_files):
        """Each subcommand, run twice with one argv, emits identical bytes."""
        d = tmp_path
        pred, ref = synth_files["pred"], synth_files["ref"]
        grid = GridSpec.regular(8, 16)
        rng = np.random.default_rng(5)
        train = make_series(grid, rng.standard_normal((120, 1, 8, 16)),
                            start=datetime(1990, 1, 1), step_seconds=86400)
        roll = make_series(grid, rng.standard_normal((3, 1, 8, 16)),
                           start=datetime(1990, 2, 1), step_seconds=86400)
        write_rollout(train, d / "train.rgf")
        write_rollout(roll, d / "roll.rgf")
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=4)
        (d / "cfg.json").write_text(json.dumps(config_to_dict(cfg)))
        (d / "regions.json").write_text(json.dumps(
            [{"name": "tropics", "lat_min": -20, "lat_max": 20,
              "lon_min": 0, "lon_max": 360}]))
        rep = d / "rep.json"
        assert run_cli("report", "--prediction", pred, "--reference", ref,
                       "-o", rep) == 0

        year = make_series(grid, rng.standard_normal((365 * 4, 1, 8, 16)),
                           start=datetime(2021, 1, 1))
        write_rollout(year, d / "year.rgf")
        cases = {
            "synth": (["synth", "--regime", "STABLE", "--horizon-days", "60",
                       "--grid", "8x64", "--seed", "2", "-o", d / "s.rgf",
                       "--labels", d / "s.json"],
                      [d / "s.rgf", d / "s.json"]),
            "cycle-rmse": (["cycle-rmse", "--input", d / "year.rgf",
                            "--reference", d / "year.rgf", "--variable", "T2m",
                            "-o", d / "c.json"], [d / "c.json"]),
            "spectra": (["spectra", "--input", pred, "--variable", "T2m",
                         "-o", d / "sp.csv"], [d / "sp.csv"]),
            "blowup": (["blowup", "--input", pred, "--variable", "T2m",
                        "-o", d / "b.json"], [d / "b.json"]),
            "seasonality": (["seasonality", "--input", pred, "--variable",
                             "T2m", "--reference", ref, "-o", d / "se.json"],
                            [d / "se.json"]),
            "perturb": (["perturb", "--adapter", f"synth:{d / 'cfg.json'}",
                         "--kind", "white", "--k", "1", "--seed", "3",
                         "--stats-from", pred, "--steps", "4",
                         "-o", d / "p.rgf"], [d / "p.rgf"]),
            "extremes": (["extremes", "--input", pred, "--reference", ref,
                          "--variable", "T2m", "--regions", d / "regions.json",
                          "--outdir", d / "ext"],
                         [d / "ext" / "tropics_qq.csv",
                          d / "ext" / "summary.json"]),
            "memorize": (["memorize", "--rollout", d / "roll.rgf", "--index",
                          d / "train.rgf", "-o", d / "m.csv"], [d / "m.csv"]),
            "report": (["report", "--prediction", pred, "--reference", ref,
                        "-o", d / "r.json", "--csv", d / "r.csv"],
                       [d / "r.json", d / "r.csv"]),
            "aggregate": (["aggregate", str(rep), str(rep), "-o", d / "a.json",
                           "--csv", d / "a.csv"], [d / "a.json", d / "a.csv"]),
        }
        fine = GridSpec.regular(16, 384)
        for i in range(2):
            write_rollout(make_series(fine, rng.standard_normal((241, 1, 16, 384))),
                          d / f"fine{i}.rgf")
        cases.update({
            "spectra-daily-full": (["spectra", "--input", pred, "--variable", "T2m", "--daily",
                                    "-o", d / "spd.csv", "--full-output", d / "spf.csv"],
                                   [d / "spd.csv", d / "spf.csv"]),
            "seasonality-save-envelope": (["seasonality", "--input", pred, "--variable", "T2m",
                                           "--reference", ref, "--save-envelope", d / "e.json",
                                           "-o", d / "se2.json"],
                                          [d / "e.json", d / "se2.json"]),
            "blowup-csv": (["blowup", "--min-csv", synth_files["min"],
                            "--max-csv", synth_files["max"], "-o", d / "bc.json"],
                           [d / "bc.json"]),
            "smallscale": (["smallscale", "--input", d / "fine0.rgf", "--reference",
                            d / "fine1.rgf", "--variable", "T2m", "-o", d / "ss.json"],
                           [d / "ss.json"]),
        })
        for name, (argv, outputs) in cases.items():
            assert run_cli(*argv) == 0, name
            first = [p.read_bytes() for p in outputs]
            assert run_cli(*argv) == 0, name
            second = [p.read_bytes() for p in outputs]
            assert first == second, f"{name} output not byte-stable"


class TestThreadCountByteStable:
    def test_unset_and_one_thread_agree(self, tmp_path, synth_files, monkeypatch):
        """ROLLOUT_STAB_THREADS sets the FFT workers; with it unset or 1, and
        each read hashing its blocks on a helper thread, the bytes are the same."""
        pred, ref = synth_files["pred"], synth_files["ref"]
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([{"name": "across_0", "lat_min": 20, "lat_max": 70,
                                        "lon_min": -30, "lon_max": 40}]))
        monkeypatch.setattr(rollstab.gridio, "BLOCK_BYTES", 50 * 16 * 240 * 4)  # 50 steps
        out = tmp_path / "out"
        runs = [
            ["extremes", "--input", pred, "--reference", ref, "--variable", "T2m",
             "--regions", regions, "--outdir", out / "ext"],
            ["report", "--prediction", pred, "--reference", ref, "-o", out / "r.json",
             "--csv", out / "r.csv"],
            ["perturb", "--adapter", f"synth:{synth_files['cfg']}", "--kind", "grf",
             "--k", "0.5", "--correlation-length", "10", "--stats-from", ref,
             "--steps", "8", "--seed", "3", "-o", out / "p.rgf"],
        ]
        outputs = []
        for threads in (None, "1"):
            if threads is None:
                monkeypatch.delenv("ROLLOUT_STAB_THREADS", raising=False)
            else:
                monkeypatch.setenv("ROLLOUT_STAB_THREADS", threads)
            for argv in runs:
                assert run_cli(*argv) == 0, argv[0]
            outputs.append({p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 4 + 2 + 1  # extremes' 3 CSVs and summary, report's 2, one RGF
        assert outputs[0] == outputs[1]


    def test_memorize_unset_one_and_three_threads_agree(self, tmp_path, synth_files,
                                                        monkeypatch):
        """memorize sizes no pool by ROLLOUT_STAB_THREADS, which ``cli.main``
        only checks; the ratios are the same bytes with it unset, 1 or 3."""
        monkeypatch.setattr(rollstab.gridio, "BLOCK_BYTES", 50 * 16 * 240 * 4)  # 50 steps
        out = tmp_path / "ratios.csv"
        outputs = []
        for threads in (None, "1", "3"):
            if threads is None:
                monkeypatch.delenv("ROLLOUT_STAB_THREADS", raising=False)
            else:
                monkeypatch.setenv("ROLLOUT_STAB_THREADS", threads)
            assert run_cli("memorize", "--rollout", synth_files["pred"],
                           "--index", synth_files["pred"], "-o", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def _manifest_inputs(path):
    if path.suffix == ".rgf":
        return rollstab.read_rollout(path).attrs["manifest"]["inputs"]
    if path.suffix == ".csv":
        line = next(x for x in path.read_text().splitlines() if x.startswith("# manifest: "))
        return json.loads(line.removeprefix("# manifest: "))["inputs"]
    return json.loads(path.read_text())["manifest"]["inputs"]


class TestManifestInputs:
    """Each input the run used is listed once, under a fixed key."""

    @pytest.mark.parametrize("case", [
        "blowup-rgf", "blowup-csv", "seasonality-envelope", "seasonality-reference",
        "perturb", "aggregate", "synth-regime-config", "synth-regime-config-labels",
    ])
    def test_input_keys(self, tmp_path, synth_files, case):
        f = synth_files
        out = tmp_path / ("out.rgf" if case.startswith(("perturb", "synth")) else "out.json")
        rep = tmp_path / "rep.json"
        argv, keys = {
            "blowup-rgf": (["blowup", "--input", f["pred"], "--variable", "T2m"], {"input"}),
            "blowup-csv": (["blowup", "--min-csv", f["min"], "--max-csv", f["max"]],
                           {"min_csv", "max_csv"}),
            "seasonality-envelope": (["seasonality", "--input", f["pred"], "--variable", "T2m",
                                      "--envelope", f["env"]], {"input", "envelope"}),
            "seasonality-reference": (["seasonality", "--input", f["pred"], "--variable", "T2m",
                                       "--reference", f["ref"]], {"input", "reference"}),
            "perturb": (["perturb", "--adapter", f"synth:{f['cfg']}", "--kind", "white",
                         "--stats-from", f["pred"], "--steps", "2"], {"adapter", "stats_from"}),
            "aggregate": (["aggregate", rep, rep], {"report_0", "report_1"}),
            "synth-regime-config": (["synth", "--regime-config", f["cfg"],
                                     "--horizon-days", "60"], {"regime_config"}),
            "synth-regime-config-labels": (["synth", "--regime-config", f["cfg"],
                                            "--horizon-days", "60", "--labels", rep],
                                           {"regime_config"}),
        }[case]
        if case == "aggregate":
            assert run_cli("report", "--prediction", f["pred"], "--reference", f["ref"],
                           "-o", rep) == 0
        assert run_cli(*argv, "-o", out) == 0
        inputs = _manifest_inputs(rep if case.endswith("labels") else out)
        assert set(inputs) == keys
        if case == "perturb":
            assert inputs["adapter"]["path"] == str(f["cfg"])  # no "synth:" prefix


class TestRejectedFlagPairs:
    """A flag the run would ignore is an input error, not silently dropped."""

    @pytest.mark.parametrize("case", [
        "blowup-input-csv", "blowup-variable-csv", "seasonality-envelope-reference",
        "perturb-stats-without-kind",
    ])
    def test_exit_2_naming_both_flags(self, tmp_path, synth_files, capsys, case):
        f = synth_files
        argv, flags = {
            "blowup-input-csv": (["blowup", "--input", f["pred"], "--variable", "T2m",
                                  "--min-csv", f["min"], "--max-csv", f["max"]],
                                 ("--input", "--min-csv")),
            "blowup-variable-csv": (["blowup", "--variable", "T2m", "--min-csv", f["min"],
                                     "--max-csv", f["max"]], ("--variable", "--min-csv")),
            "seasonality-envelope-reference": (["seasonality", "--input", f["pred"],
                                                "--variable", "T2m", "--envelope", f["env"],
                                                "--reference", f["ref"]],
                                               ("--envelope", "--reference")),
            "perturb-stats-without-kind": (["perturb", "--adapter", f"synth:{f['cfg']}",
                                            "--stats-from", f["pred"], "--steps", "2"],
                                           ("--stats-from", "--kind")),
        }[case]
        out = tmp_path / "out"
        assert run_cli(*argv, "-o", out) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not out.exists()


class TestPerturbFlagsWithoutKind:
    """Flags only --kind uses are rejected without it."""

    @pytest.mark.parametrize("extra, named", [
        (["--k", "3"], ["--k"]),
        (["--correlation-length", "50"], ["--correlation-length"]),
        (["--target", "both"], ["--target"]),
        (["--k", "3", "--correlation-length", "50", "--target", "both"],
         ["--k", "--correlation-length", "--target"]),
        (["--k", "3", "--time-shift-days", "1"], ["--k", "--kind"]),
        (["--target", "static", "--time-shift-days", "1"], ["--target", "--kind"]),
        (["--seed", "4"], ["--seed", "--kind"]),
        (["--seed", "4", "--time-shift-days", "1"], ["--seed", "--kind"]),
    ])
    def test_exit_2_naming_the_flags(self, tmp_path, synth_files, capsys, extra, named):
        out = tmp_path / "out.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "2",
                       *extra, "-o", out) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in named), err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        [], ["--time-shift-days", "1"],
        ["--kind", "grf", "--k", "3", "--correlation-length", "50", "--target", "both",
         "--seed", "4"],
    ])
    def test_valid_runs_record_every_value_used(self, tmp_path, synth_files, extra):
        out = tmp_path / "out.rgf"
        stats = ["--stats-from", synth_files["pred"]] if "--kind" in extra else []
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "2",
                       *extra, *stats, "-o", out) == 0
        params = rollstab.read_rollout(out).attrs["manifest"]["params"]
        given = dict(zip(extra[::2], extra[1::2]))
        assert params["k"] == float(given.get("--k", 1.0))
        assert params["correlation_length"] == float(given.get("--correlation-length", 10.0))
        assert params["target"] == given.get("--target", "dynamic")
        assert params["seed"] == int(given.get("--seed", 0))


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDigestsFromTheRead:
    """Each RGF input's manifest digest, taken while reading it, is the file's SHA-256."""

    @pytest.mark.parametrize("case", [
        "report", "extremes", "memorize", "spectra", "blowup", "seasonality", "smallscale",
        "perturb", "cycle-rmse",
    ])
    def test_digest_equals_file_sha256(self, tmp_path, synth_files, case):
        f = synth_files
        out = tmp_path / {"perturb": "out.rgf", "memorize": "out.csv", "spectra": "out.csv",
                          "extremes": "ext/summary.json"}.get(case, "out.json")
        init, year = tmp_path / "init.rgf", tmp_path / "year.rgf"
        if case == "perturb":
            assert run_cli("synth", "--regime-config", f["cfg"], "--horizon-days", "60",
                           "-o", init) == 0
        if case == "smallscale":  # a grid that resolves the small band
            assert run_cli("synth", "--grid", "8x384", "--horizon-days", "60", "-o", init) == 0
        if case == "cycle-rmse":  # whole calendar months
            write_rollout(make_series(GridSpec.regular(4, 8), np.random.default_rng(0)
                                      .standard_normal((365 * 4, 1, 4, 8))), year)
        argv, inputs = {
            "report": (["report", "--prediction", f["pred"], "--reference", f["ref"]],
                       {"prediction": f["pred"], "reference": f["ref"]}),
            "extremes": (["extremes", "--input", f["pred"], "--reference", f["ref"],
                          "--variable", "T2m", "--outdir", tmp_path / "ext"],
                         {"input": f["pred"], "reference": f["ref"]}),
            "memorize": (["memorize", "--rollout", f["pred"], "--index", f["pred"]],
                         {"rollout": f["pred"], "index": f["pred"]}),
            "spectra": (["spectra", "--input", f["pred"], "--variable", "T2m"],
                        {"input": f["pred"]}),
            "blowup": (["blowup", "--input", f["pred"], "--variable", "T2m"],
                       {"input": f["pred"]}),
            "seasonality": (["seasonality", "--input", f["pred"], "--variable", "T2m",
                             "--reference", f["ref"]],
                            {"input": f["pred"], "reference": f["ref"]}),
            "smallscale": (["smallscale", "--input", init, "--reference", init,
                            "--variable", "T2m"], {"input": init, "reference": init}),
            "perturb": (["perturb", "--adapter", f"synth:{f['cfg']}", "--init", init,
                         "--kind", "white", "--stats-from", f["pred"], "--steps", "2"],
                        {"init": init, "stats_from": f["pred"]}),
            "cycle-rmse": (["cycle-rmse", "--input", year, "--reference", year,
                            "--variable", "T2m"], {"input": year, "reference": year}),
        }[case]
        want = {name: _sha(p) for name, p in inputs.items()}
        assert run_cli(*argv, *([] if case == "extremes" else ["-o", out])) == 0
        got = _manifest_inputs(out)
        assert {name: got[name]["sha256"] for name in inputs} == want

    def test_perturb_init_overwritten_in_place_records_the_old_digest(self, tmp_path,
                                                                      synth_files):
        x = tmp_path / "x.rgf"
        assert run_cli("synth", "--regime-config", synth_files["cfg"], "--horizon-days", "60",
                       "-o", x) == 0
        before = _sha(x)
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--init", x,
                       "--steps", "2", "-o", x) == 0
        assert _sha(x) != before
        assert _manifest_inputs(x)["init"]["sha256"] == before


class TestIncompleteInputs:
    """A fill-value cell fails the detectors, a NaN without a fill value fails the
    read: the same error, message and exit code however the file is walked."""

    @pytest.fixture(scope="class")
    def holed(self, synth_files, tmp_path_factory):
        d = tmp_path_factory.mktemp("holed")
        for name in ("pred", "ref"):
            r = rollstab.read_rollout(synth_files[name])
            data = r.data.copy()
            data[r.n_time // 2, 0, 3, 5] = np.nan
            write_rollout(RolloutSeries(grid=r.grid, variables=r.variables,
                                        start_time=r.start_time, data=data,
                                        fill_value=-9e30), d / f"{name}_fill.rgf")
            raw = bytearray(synth_files[name].read_bytes())
            raw[-400:-396] = np.float32(np.nan).tobytes()
            (d / f"{name}_nan.rgf").write_bytes(bytes(raw))
        return {"dir": d, **{k: v for k, v in synth_files.items() if k in ("pred", "ref", "cfg")}}

    @pytest.mark.parametrize("case", [
        "report-pred", "report-ref", "blowup", "spectra", "seasonality-input",
        "seasonality-reference", "smallscale", "extremes-input", "extremes-reference",
        "memorize-rollout", "memorize-index", "perturb-stats-from",
    ])
    @pytest.mark.parametrize("hole", ["fill", "nan"])
    def test_error_and_exit_code(self, tmp_path, holed, capsys, case, hole):
        d = holed["dir"]
        pred, ref = holed["pred"], holed["ref"]
        bad_pred, bad_ref = d / f"pred_{hole}.rgf", d / f"ref_{hole}.rgf"
        argv, bad = {
            "report-pred": (["report", "--prediction", bad_pred, "--reference", ref], bad_pred),
            "report-ref": (["report", "--prediction", pred, "--reference", bad_ref], bad_ref),
            "blowup": (["blowup", "--input", bad_pred, "--variable", "T2m"], bad_pred),
            "spectra": (["spectra", "--input", bad_pred, "--variable", "T2m"], bad_pred),
            "seasonality-input": (["seasonality", "--input", bad_pred, "--reference", ref,
                                   "--variable", "T2m"], bad_pred),
            "seasonality-reference": (["seasonality", "--input", pred, "--reference", bad_ref,
                                       "--variable", "T2m"], bad_ref),
            "smallscale": (["smallscale", "--input", bad_pred, "--reference", ref,
                            "--variable", "T2m"], bad_pred),
            "extremes-input": (["extremes", "--input", bad_pred, "--reference", ref,
                                "--variable", "T2m"], bad_pred),
            "extremes-reference": (["extremes", "--input", pred, "--reference", bad_ref,
                                    "--variable", "T2m"], bad_ref),
            "memorize-rollout": (["memorize", "--rollout", bad_pred, "--index", ref], bad_pred),
            "memorize-index": (["memorize", "--rollout", pred, "--index", bad_ref], bad_ref),
            "perturb-stats-from": (["perturb", "--adapter", f"synth:{holed['cfg']}",
                                    "--kind", "white", "--stats-from", bad_ref,
                                    "--steps", 2], bad_ref),
        }[case]
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--outdir" if case.startswith("extremes") else "-o", out) == 2
        want = ("variable 'T2m' contains fill/NaN values; detectors require complete fields"
                if hole == "fill" else
                "invalid header or payload: non-finite values present but no fill value declared")
        assert capsys.readouterr().err == f"rollstab: {bad}: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize("frame", [0, 5])
    def test_perturb_init_needs_a_complete_frame_0(self, tmp_path, holed, capsys, frame):
        """Frame 0 is the initial state, so a fill cell there exits 2 naming the
        file and the variable; later frames are only walked for the digest."""
        clean, init = tmp_path / "clean.rgf", tmp_path / "init.rgf"
        assert run_cli("synth", "--regime-config", holed["cfg"], "--horizon-days", "60",
                       "-o", clean) == 0
        r = rollstab.read_rollout(clean)
        data = r.data.copy()
        data[frame, 0, 3, 5] = np.nan
        write_rollout(RolloutSeries(grid=r.grid, variables=r.variables, start_time=r.start_time,
                                    data=data, fill_value=-9999.0), init)
        out = tmp_path / "out.rgf"
        code = run_cli("perturb", "--adapter", f"synth:{holed['cfg']}", "--init", init,
                       "--steps", "2", "-o", out)
        if frame == 0:
            assert code == 2
            assert capsys.readouterr().err == (
                f"rollstab: {init}: variable 'T2m' holds fill cells in frame 0, the initial "
                "state\n")
            assert not out.exists()
        else:
            assert code == 0
            assert rollstab.read_rollout(out).n_time == 3

    def test_types_from_build_report(self, holed):
        d = holed["dir"]
        with rollstab.gridio.RolloutFile(d / "pred_fill.rgf") as p, \
                rollstab.gridio.RolloutFile(holed["ref"]) as r:
            with pytest.raises(rollstab.gridio.IncompleteFieldError):
                rollstab.build_report(p, r)
        with rollstab.gridio.RolloutFile(d / "pred_nan.rgf") as p, \
                rollstab.gridio.RolloutFile(holed["ref"]) as r:
            with pytest.raises(rollstab.gridio.FormatError, match=re.escape(str(d))):
                rollstab.build_report(p, r)


class TestCliSurface:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("synth", "spectra", "blowup", "seasonality", "smallscale",
                    "cycle-rmse", "perturb", "extremes", "memorize",
                    "aggregate", "report"):
            assert sub in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--regime", "--horizon-days", "--seed", "--labels"):
            assert flag in out

    def test_invalid_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--no-such-flag", "1", "-o", "x.rgf"])
        assert exc.value.code == 2

    def test_internal_key_error_propagates(self, tmp_path, synth_files, monkeypatch):
        """Only input errors exit 2: a KeyError is a bug in rollstab, not bad
        input, so it is raised rather than reported as one."""
        def missing_level(*args, **kwargs):
            raise KeyError("level 99.0 not present in threshold set 'globe'")

        monkeypatch.setattr(spectra, "spectrum_series", missing_level)
        out = tmp_path / "x.csv"
        with pytest.raises(KeyError, match="level 99.0"):
            run_cli("spectra", "--input", synth_files["pred"], "--variable", "T2m", "-o", out)
        assert not out.exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli("spectra", "--input", tmp_path / "absent.rgf",
                       "--variable", "T2m", "-o", tmp_path / "x.csv") == 2

    def test_config_file_sets_defaults(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "grid": "8x64",
                                    "seed": 9}))
        out = tmp_path / "from_config.rgf"
        assert run_cli("synth", "--config", conf, "-o", out) == 0
        r = rollstab.read_rollout(out)
        assert r.n_time == 241
        assert r.grid.n_lon == 64

    def test_config_equals_form_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60}))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", f"--config={conf}", "-o", out) == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "grdi": "8x64"}))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", "--config", conf, "-o", out) == 2
        assert "'grdi'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_of_another_subcommand_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "csv": "t.csv"}))
        assert run_cli("synth", "--config", conf, "-o", tmp_path / "x.rgf") == 2
        assert "'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_thread_count_exit_2(self, synth_files, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", value)
        out = tmp_path / "s.csv"
        assert run_cli("spectra", "--input", synth_files["pred"], "--variable", "T2m",
                       "-o", out) == 2
        err = capsys.readouterr().err
        assert "ROLLOUT_STAB_THREADS" in err and repr(value) in err
        assert not out.exists()

    def test_entry_point_runs(self):
        res = subprocess.run([sys.executable, "-m", "rollstab.cli", "--version"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "rollstab" in res.stdout

    def test_package_runs_as_a_module(self, tmp_path):
        """``python -m rollstab`` is the command: help exits 0, bad input 2."""
        res = subprocess.run([sys.executable, "-m", "rollstab", "--help"],
                             capture_output=True, text=True)
        assert res.returncode == 0 and "memorize" in res.stdout
        res = subprocess.run([sys.executable, "-m", "rollstab", "memorize", "--rollout",
                              tmp_path / "none.rgf", "--index", tmp_path / "none.rgf",
                              "--window-days", "-1", "-o", tmp_path / "r.csv"],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stderr == "rollstab: --window-days must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []


def _numbers():
    return st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)


_START_TIMES = st.sampled_from(["2021-01-01", "2021-03-01T06:00:00"])
# typed flags of synth and perturb with valid values; the required ones first
_TYPED_FLAGS = {
    "synth": ({"horizon-days": st.integers(60, 10**4) | st.floats(60, 1e4)}, {
        "regime": st.sampled_from(synth.REGIMES), "grid": st.sampled_from(["4x8", "16x240"]),
        "variables": st.sampled_from(["T2m", "T2m,Z500"]), "g-large": _numbers(),
        "g-small": _numbers(), "tau-days": _numbers(), "noise": _numbers(),
        "noise-small": _numbers(), "blowup-band": st.sampled_from(spectra.BANDS),
        "start-time": _START_TIMES, "step-seconds": st.integers(1, 86400),
        "seed": st.integers(0, 2**32 - 1), "labels": st.just("l.json"),
    }),
    "perturb": ({"adapter": st.just("synth:cfg.json"), "steps": st.integers(0, 10**4)}, {
        "kind": st.sampled_from(["white", "grf", "pure_noise"]), "k": _numbers(),
        "correlation-length": _numbers(), "target": st.sampled_from(perturb.TARGETS),
        "time-shift-days": _numbers(), "stats-from": st.just("ref.rgf"),
        "start-time": _START_TIMES, "step-seconds": st.integers(1, 86400),
        "seed": st.integers(0, 2**32 - 1),
    }),
}


class TestConfigFile:
    """``--config`` values are spliced in as flags, so argparse checks each one."""

    @pytest.mark.parametrize("argv, config", [
        (["synth", "--grid", "4x8", "--horizon-days", "60"], {"labels": True}),
        (["synth", "--grid", "4x8"], {"horizon-days": [60]}),
        (["synth", "--horizon-days", "60"], {"grid": 16}),
        (["perturb", "--adapter", "synth:CFG"], {"steps": 2.5}),
        (["perturb", "--adapter", "synth:CFG", "--steps", "1", "--stats-from", "REF"],
         {"kind": "WHITE"}),
    ], ids=["bool_for_path", "list", "number_for_grid", "float_for_int", "bad_choice"])
    def test_value_checked_as_its_flag(self, tmp_path, synth_files, argv, config):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        out = tmp_path / "x.rgf"
        argv = [a.replace("CFG", str(synth_files["cfg"])).replace("REF", str(synth_files["pred"]))
                for a in argv]
        res = subprocess.run([sys.executable, "-m", "rollstab.cli", *argv, "--config", str(conf),
                              "-o", str(out)], capture_output=True, text=True)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr and next(iter(config)) in res.stderr, res.stderr
        assert res.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"steps": 2.5}, "argument --steps: invalid int value: '2.5'"),
        ({"kind": "WHITE"}, "argument --kind: invalid choice: 'WHITE' (choose from "
                            "'white', 'grf', 'pure_noise')"),
    ])
    def test_rejected_value_names_the_file_and_flag(self, tmp_path, synth_files, capsys,
                                                    config, message):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "1",
                       "--stats-from", synth_files["pred"], "--config", conf, "-o", out) == 2
        key = next(iter(config))
        assert capsys.readouterr().err == f"rollstab: {conf}: config key {key!r}: {message}\n"
        assert not out.exists()

    def test_true_or_false_selects_a_switch(self, tmp_path, synth_files):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"daily": True}))
        spectra_argv = ["spectra", "--input", synth_files["pred"], "--variable", "T2m", "-o"]
        assert run_cli(*spectra_argv, tmp_path / "a.csv", "--config", conf) == 0
        assert run_cli(*spectra_argv, tmp_path / "b.csv", "--daily") == 0
        rows = [[l for l in (tmp_path / f).read_text().splitlines() if not l.startswith("#")]
                for f in ("a.csv", "b.csv")]
        assert rows[0] == rows[1]

        conf.write_text(json.dumps({"match-window": False}))
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([{"name": "tropics", "lat_min": -20, "lat_max": 20,
                                        "lon_min": 0, "lon_max": 360}]))
        extremes_argv = ["extremes", "--input", synth_files["pred"], "--reference",
                         synth_files["ref"], "--variable", "T2m", "--regions", regions,
                         "--outdir"]
        summaries = []
        for d, extra in (("c", ["--config", conf]), ("f", ["--no-match-window"]), ("w", [])):
            assert run_cli(*extremes_argv, tmp_path / d, *extra) == 0
            summaries.append(json.loads((tmp_path / d / "summary.json").read_text()))
        assert summaries[0]["manifest"]["params"]["match_window"] is False
        assert summaries[0]["regions"] == summaries[1]["regions"] != summaries[2]["regions"]

    @pytest.mark.parametrize("subcommand, config", [
        ("spectra", {"daily": "yes"}), ("spectra", {"daily": 1}),
        ("extremes", {"match-window": 0}),
    ])
    def test_switch_takes_only_true_or_false(self, tmp_path, synth_files, capsys, subcommand,
                                             config):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = {"spectra": ["-o", out],
                "extremes": ["--reference", synth_files["ref"], "--outdir", out]}[subcommand]
        assert run_cli(subcommand, "--config", conf, "--input", synth_files["pred"],
                       "--variable", "T2m", *argv) == 2
        key, value = next(iter(config.items()))
        assert capsys.readouterr().err == (
            f"rollstab: {conf}: config key {key!r}: expected true or false, got {value!r}\n")
        assert not out.exists()

    def test_integer_for_a_float_flag_is_recorded_as_a_float(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "grid": "4x8"}))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", "--config", conf, "-o", out) == 0
        horizon = rollstab.read_rollout(out).attrs["manifest"]["params"]["horizon_days"]
        assert horizon == 60.0 and isinstance(horizon, float)

    def test_null_keeps_the_default_and_the_command_line_wins(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "grid": "4x8", "seed": None,
                                    "init-std": 2.0}))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", "--config", conf, "--init-std", "0.5", "-o", out) == 0
        params = rollstab.read_rollout(out).attrs["manifest"]["params"]
        assert (params["seed"], params["init_std"]) == (0, 0.5)

    def test_positional_is_not_a_config_key(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"reports": ["a.json"]}))
        assert run_cli("aggregate", "--config", conf, "b.json", "-o", tmp_path / "x.json") == 2
        assert capsys.readouterr().err == (
            f"rollstab: {conf}: config key 'reports' is not a flag of 'rollstab aggregate'\n")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("subcommand", sorted(_TYPED_FLAGS))
    def test_config_parses_like_the_command_line(self, tmp_path_factory, subcommand, data):
        required, optional = _TYPED_FLAGS[subcommand]
        values = data.draw(st.fixed_dictionaries(required, optional=optional))
        conf = tmp_path_factory.getbasetemp() / f"{subcommand}-conf.json"
        conf.write_text(json.dumps(values))
        parser, sps = build_parser()
        argv = [subcommand, "--config", str(conf), "-o", "o.rgf"]
        _apply_config(argv, sps)
        from_config = vars(parser.parse_args(argv))
        typed = [f"--{key}={value}" for key, value in values.items()]
        from_flags = vars(build_parser()[0].parse_args([subcommand, *typed, "-o", "o.rgf"]))
        # equal values of equal types: the manifest records 60 and 60.0 differently
        assert ({k: (type(v), v) for k, v in from_config.items()}
                == {k: (type(v), v) for k, v in (from_flags | {"config": str(conf)}).items()})


class TestReferenceGrids:
    """``report``, ``seasonality --reference`` and ``smallscale`` score a run
    against a reference on its own grid: any other grid exits 2 naming both
    files and both grids, before either is walked."""

    @pytest.fixture(scope="class")
    def grids(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("grids")
        for name, grid, seed in (("run", "4x384", 1), ("ref", "4x768", 2)):
            assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 60, "--seed", seed,
                           "--grid", grid, "-o", d / f"{name}.rgf") == 0
        r = rollstab.read_rollout(d / "run.rgf")  # the run's grid, stored south to north
        write_rollout(RolloutSeries(grid=GridSpec(lats=r.grid.lats[::-1], lons=r.grid.lons),
                                    variables=r.variables, start_time=r.start_time,
                                    data=r.data[:, :, ::-1]), d / "flipped.rgf")
        write_rollout(RolloutSeries(grid=GridSpec(lats=r.grid.lats, lons=r.grid.lons,
                                                  earth_radius_km=3000.0),
                                    variables=r.variables, start_time=r.start_time,
                                    data=r.data), d / "radius.rgf")
        return d

    @pytest.mark.parametrize("reference, described", [
        ("ref", "4x768 (lats 90 to -90, lons from 0)"),
        ("flipped", "4x384 (lats -90 to 90, lons from 0)"),
    ])
    @pytest.mark.parametrize("command", ["report", "seasonality", "smallscale"])
    def test_exit_2_before_a_walk(self, tmp_path, grids, capsys, entered, command, reference,
                                  described):
        run, ref, out = grids / "run.rgf", grids / f"{reference}.rgf", tmp_path / "out.json"
        inputs = ({"report": ["--prediction", run]}.get(command)
                  or ["--input", run, "--variable", "T2m"])
        assert run_cli(command, *inputs, "--reference", ref, "-o", out) == 2
        assert capsys.readouterr().err == (
            f"rollstab: {run} and {ref} lie on different grids: "
            f"4x384 (lats 90 to -90, lons from 0, radius 6371 km) and "
            f"{described[:-1]}, radius 6371 km)\n")
        assert not out.exists() and entered == []

    @pytest.mark.parametrize("command", ["report", "seasonality", "smallscale", "cycle-rmse",
                                         "memorize"])
    def test_another_radius_exit_2_before_a_walk(self, tmp_path, grids, capsys, entered,
                                                 command):
        """The bands are 2πR/k, so a reference that differs from the run only
        in its radius lies on another grid."""
        run, ref, out = grids / "run.rgf", grids / "radius.rgf", tmp_path / "out.json"
        argv = {"report": ["--prediction", run, "--reference", ref],
                "memorize": ["--rollout", run, "--index", ref]}.get(
            command, ["--input", run, "--reference", ref, "--variable", "T2m"])
        assert run_cli(command, *argv, "-o", out) == 2
        assert capsys.readouterr().err == (
            f"rollstab: {run} and {ref} lie on different grids: "
            "4x384 (lats 90 to -90, lons from 0, radius 6371 km) and "
            "4x384 (lats 90 to -90, lons from 0, radius 3000 km)\n")
        assert not out.exists() and entered == []


class TestMemorizeGrids:
    """The rollout must lie on the index's grid, not only match its shape."""

    def test_latitudes_stored_south_to_north_exit_2(self, tmp_path, capsys):
        grid = GridSpec.regular(8, 16)
        rng = np.random.default_rng(21)
        train = make_series(grid, rng.standard_normal((200, 1, 8, 16)),
                            start=datetime(2021, 1, 1), step_seconds=86400)
        data = rng.standard_normal((20, 1, 8, 16)).astype(np.float32)
        data[0] = train.data[0]  # a planted copy at 2021-01-01T00
        roll = make_series(grid, data, start=datetime(2021, 1, 1), step_seconds=86400)
        flipped = RolloutSeries(grid=GridSpec(lats=grid.lats[::-1], lons=grid.lons),
                                variables=roll.variables, start_time=roll.start_time,
                                data=roll.data[:, :, ::-1], step_seconds=86400)
        for name, r in (("train", train), ("roll", roll), ("flipped", flipped)):
            write_rollout(r, tmp_path / f"{name}.rgf")
        out = tmp_path / "ratios.csv"
        assert run_cli("memorize", "--rollout", tmp_path / "roll.rgf",
                       "--index", tmp_path / "train.rgf", "-o", out) == 0
        first = next(l for l in out.read_text().splitlines() if l.startswith("2021-01-01T"))
        assert first.split(",")[1] == "0"
        out.unlink()
        assert run_cli("memorize", "--rollout", tmp_path / "flipped.rgf",
                       "--index", tmp_path / "train.rgf", "-o", out) == 2
        assert capsys.readouterr().err == (
            f"rollstab: {tmp_path / 'flipped.rgf'} and {tmp_path / 'train.rgf'} lie on "
            "different grids: 8x16 (lats -90 to 90, lons from 0, radius 6371 km) and "
            "8x16 (lats 90 to -90, lons from 0, radius 6371 km)\n")
        assert not out.exists()


class TestMemorizeWalks:
    """``memorize`` checks the grids and every step's window from the headers,
    then walks the index for its stats, the rollout to embed it, and the
    index again to score it."""

    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(22)
        grid = GridSpec.regular(8, 16)
        for name, start, days in (("train", datetime(1990, 1, 1), 60),
                                  ("roll", datetime(1991, 1, 20), 10),
                                  ("late", datetime(1991, 2, 1), 60)):
            write_rollout(make_series(grid, rng.standard_normal((days, 1, 8, 16)),
                                      start=start, step_seconds=86400),
                          tmp_path / f"{name}.rgf")
        write_rollout(make_series(GridSpec.regular(8, 32), rng.standard_normal((10, 1, 8, 32)),
                                  start=datetime(1991, 1, 20), step_seconds=86400),
                      tmp_path / "wide.rgf")
        return tmp_path

    def test_index_walked_twice_and_rollout_once(self, files, entered):
        out = files / "ratios.csv"
        assert run_cli("memorize", "--rollout", files / "roll.rgf", "--index",
                       files / "train.rgf", "-o", out) == 0
        assert entered == [files / "train.rgf", files / "roll.rgf", files / "train.rgf"]
        assert len([l for l in out.read_text().splitlines() if not l.startswith("#")]) == 11

    def test_another_grid_exit_2_before_a_walk(self, files, entered, capsys):
        out = files / "ratios.csv"
        assert run_cli("memorize", "--rollout", files / "wide.rgf", "--index",
                       files / "train.rgf", "-o", out) == 2
        assert capsys.readouterr().err == (
            f"rollstab: {files / 'wide.rgf'} and {files / 'train.rgf'} lie on different "
            "grids: 8x32 (lats 90 to -90, lons from 0, radius 6371 km) and "
            "8x16 (lats 90 to -90, lons from 0, radius 6371 km)\n")
        assert not out.exists() and entered == []

    def test_too_few_candidates_exit_3_before_a_walk(self, files, entered, capsys):
        """The index holds Jan 1 to Mar 1; Mar 11, day of year 70, is the first
        rollout day with one snapshot within 10 days."""
        out = files / "ratios.csv"
        assert run_cli("memorize", "--rollout", files / "late.rgf", "--index",
                       files / "train.rgf", "-o", out) == 3
        assert capsys.readouterr().err == (
            "rollstab: precondition not met: only 1 training snapshots within 10 days of "
            "day-of-year 70; need at least 2\n")
        assert not out.exists() and entered == []


class TestCycleRmseIncompleteInputs:
    """cycle-rmse walks its inputs, so a fill cell or a NaN without a fill
    value exits as it does for every other subcommand."""

    @pytest.fixture(scope="class")
    def years(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("years")
        data = np.random.default_rng(0).standard_normal((365 * 4, 1, 4, 8)).astype(np.float32)
        clean = make_series(GridSpec.regular(4, 8), data)
        write_rollout(clean, d / "year.rgf")
        holed = data.copy()
        holed[900, 0, 1, 2] = np.nan
        write_rollout(RolloutSeries(grid=clean.grid, variables=clean.variables,
                                    start_time=clean.start_time, data=holed,
                                    fill_value=-9e30), d / "year_fill.rgf")
        raw = bytearray((d / "year.rgf").read_bytes())
        raw[-400:-396] = np.float32(np.nan).tobytes()
        (d / "year_nan.rgf").write_bytes(bytes(raw))
        return d

    @pytest.mark.parametrize("bad_input", ["input", "reference"])
    @pytest.mark.parametrize("hole", ["fill", "nan"])
    def test_error_and_exit_code(self, tmp_path, years, capsys, bad_input, hole):
        bad = years / f"year_{hole}.rgf"
        paths = {"input": years / "year.rgf", "reference": years / "year.rgf", bad_input: bad}
        out = tmp_path / "out.json"
        assert run_cli("cycle-rmse", "--input", paths["input"], "--reference",
                       paths["reference"], "--variable", "T2m", "-o", out) == 2
        want = ("variable 'T2m' contains fill/NaN values; detectors require complete fields"
                if hole == "fill" else
                "invalid header or payload: non-finite values present but no fill value declared")
        assert capsys.readouterr().err == f"rollstab: {bad}: {want}\n"
        assert not out.exists()


class TestOneReadPath:
    """Every subcommand walks its RGF inputs in blocks; none reads one whole."""

    def test_every_subcommand_runs_without_read_rollout(self, tmp_path, synth_files,
                                                        monkeypatch):
        f, d = synth_files, tmp_path
        write_rollout(make_series(GridSpec.regular(4, 8), np.random.default_rng(0)
                                  .standard_normal((365 * 4, 1, 4, 8))), d / "year.rgf")
        assert run_cli("synth", "--regime-config", f["cfg"], "--horizon-days", "60",
                       "-o", d / "init.rgf") == 0

        def whole_read(path):
            raise AssertionError(f"{path} was read whole")

        # no other module calls it (test_gridio.py::test_only_gridio_calls_the_whole_file_helpers)
        for module in (rollstab, rollstab.gridio):
            monkeypatch.setattr(module, "read_rollout", whole_read)
        runs = {
            # a grid that resolves the small band, for smallscale
            "synth": ["synth", "--grid", "8x384", "--horizon-days", "60", "-o", d / "fine.rgf"],
            "spectra": ["spectra", "--input", f["pred"], "--variable", "T2m",
                        "-o", d / "sp.csv"],
            "blowup": ["blowup", "--input", f["pred"], "--variable", "T2m",
                       "-o", d / "b.json"],
            "seasonality": ["seasonality", "--input", f["pred"], "--variable", "T2m",
                            "--reference", f["ref"], "-o", d / "se.json"],
            "smallscale": ["smallscale", "--input", d / "fine.rgf", "--reference",
                           d / "fine.rgf", "--variable", "T2m", "-o", d / "ss.json"],
            "cycle-rmse": ["cycle-rmse", "--input", d / "year.rgf", "--reference",
                           d / "year.rgf", "--variable", "T2m", "-o", d / "c.json"],
            "perturb": ["perturb", "--adapter", f"synth:{f['cfg']}", "--init", d / "init.rgf",
                        "--kind", "white", "--stats-from", d / "init.rgf", "--steps", "2",
                        "-o", d / "p.rgf"],
            "extremes": ["extremes", "--input", f["pred"], "--reference", f["ref"],
                         "--variable", "T2m", "--outdir", d / "ext"],
            "memorize": ["memorize", "--rollout", f["pred"], "--index", f["pred"],
                         "-o", d / "m.csv"],
            "report": ["report", "--prediction", f["pred"], "--reference", f["ref"],
                       "-o", d / "r.json"],
            "aggregate": ["aggregate", d / "r.json", d / "r.json", "-o", d / "a.json"],
        }
        assert sorted(runs) == sorted(build_parser()[1])
        for name, argv in runs.items():
            assert run_cli(*argv) == 0, name


# runs each argv of the JSON list in argv[1] through the CLI, then prints the
# names of the scipy modules the interpreter has loaded
_RUN_THEN_LIST_SCIPY = """
import json, sys
from rollstab.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


class TestNumpyOnly:
    """The package runs on numpy alone; scipy serves only the tests."""

    def test_no_module_imports_scipy(self):
        src = Path(rollstab.__file__).parent
        importers = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                importers += [path.name for n in names if n.split(".")[0] == "scipy"]
        assert importers == []

    def test_commands_load_no_scipy(self, tmp_path, synth_files):
        f, d = synth_files, tmp_path
        rng = np.random.default_rng(7)
        grid = GridSpec.regular(8, 16)
        write_rollout(make_series(grid, rng.standard_normal((60, 1, 8, 16)),
                                  start=datetime(1990, 1, 1), step_seconds=86400),
                      d / "train.rgf")
        write_rollout(make_series(grid, rng.standard_normal((3, 1, 8, 16)),
                                  start=datetime(1990, 2, 1), step_seconds=86400),
                      d / "roll.rgf")
        runs = [
            ["synth", "--regime", "BLOWUP", "--delta", "0.1", "--onset-days", "30",
             "--grid", "4x240", "--horizon-days", "60", "-o", d / "s.rgf"],
            ["report", "--prediction", f["pred"], "--reference", f["ref"], "-o", d / "r.json"],
            ["extremes", "--input", f["pred"], "--reference", f["ref"], "--variable", "T2m",
             "--outdir", d / "ext"],
            ["memorize", "--rollout", d / "roll.rgf", "--index", d / "train.rgf",
             "-o", d / "m.csv"],
            ["perturb", "--adapter", f"synth:{f['cfg']}", "--kind", "white",
             "--stats-from", f["pred"], "--steps", "2", "-o", d / "p.rgf"],
        ]
        res = subprocess.run([sys.executable, "-c", _RUN_THEN_LIST_SCIPY,
                              json.dumps([[str(a) for a in argv] for argv in runs])],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == []


class TestNonFiniteSettings:
    """A setting that is not a finite number exits 2 naming its field,
    before any file is opened."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, field", [
        ("--g-large", "g_large"), ("--g-medium", "g_medium"), ("--g-small", "g_small"),
        ("--amplitude", "seasonal_amplitude"), ("--tau-days", "tau_days"),
        ("--onset-days", "onset_day"), ("--delta", "growth_rate"),
        ("--seed-amplitude", "seed_amplitude"), ("--noise", "noise_large"),
        ("--noise-small", "noise_small"), ("--cap", "cap"), ("--init-std", "init_std"),
        ("--year-jitter", "year_jitter"),
    ])
    def test_synth_flag(self, tmp_path, capsys, flag, field, value):
        assert run_cli("synth", f"{flag}={value}", "--grid", "4x16", "--horizon-days", 60,
                       "-o", tmp_path / "s.rgf", "--labels", tmp_path / "s.json") == 2
        assert capsys.readouterr().err == f"rollstab: {field} must be finite, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", [f.name for f in fields(RegimeConfig)
                                       if f.type.startswith("float")])
    def test_regime_config_field(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"regime": "STABLE", "grid": {"n_lat": 4, "n_lon": 16},
                                   field: value}))
        out = tmp_path / "s.rgf"
        assert run_cli("synth", "--regime-config", cfg, "--horizon-days", 60, "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {cfg}: {field} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, field", [("--k", "k"),
                                             ("--correlation-length", "correlation_length")])
    def test_perturbation_flag(self, tmp_path, synth_files, capsys, flag, field, value):
        assert [f.name for f in fields(perturb.PerturbationSpec) if f.type == "float"] == [
            "k", "correlation_length"]
        out = tmp_path / "p.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--kind", "grf",
                       f"{flag}={value}", "--stats-from", synth_files["pred"], "--steps", 3,
                       "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {field} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_synth_horizon(self, tmp_path, capsys, value):
        out = tmp_path / "s.rgf"
        assert run_cli("synth", f"--horizon-days={value}", "--grid", "4x16", "-o", out) == 2
        assert capsys.readouterr().err == (
            f"rollstab: horizon must be a finite number of days, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("steps", [0, 3])  # 0: no first-step check of the clock
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e9"])
    def test_perturb_time_shift(self, tmp_path, synth_files, capsys, value, steps):
        out = tmp_path / "p.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", steps,
                       f"--time-shift-days={value}", "-o", out) == 2
        assert capsys.readouterr().err == (
            "rollstab: time_shift_days must be finite and at most 999999999 in magnitude, "
            f"got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("value", ["1e8", "-1e8"])
    def test_perturb_time_shift_beyond_the_calendar(self, tmp_path, synth_files, capsys,
                                                    value, steps):
        """A finite shift that moves the clock past year 1 or 9999 is bad input."""
        out = tmp_path / "p.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", steps,
                       f"--time-shift-days={value}", "-o", out) == 2
        assert capsys.readouterr().err == (
            f"rollstab: time_shift_days {float(value)} moves the start time "
            "2021-01-01T00:00:00 beyond a datetime's range\n")
        assert not out.exists()

    def test_perturb_start_in_the_last_step_of_the_calendar(self, tmp_path, synth_files,
                                                          capsys):
        out = tmp_path / "p.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", 3,
                       "--start-time", "9999-12-31T18:00:00", "-o", out) == 2
        assert capsys.readouterr().err == (
            "rollstab: a step from clock 9999-12-31T18:00:00 ends beyond a datetime's range\n")
        assert not out.exists()


class TestDetectorParameters:
    """Each detector checks its own parameters, so every subcommand that runs
    it rejects a bad one: exit 2 naming it, no traceback and no output, before
    it reads a block of any input."""

    @pytest.mark.parametrize("argv, message", [
        (["--window-days", "0"], "window_days must span at least 2 steps, got 0.0"),
        (["--window-days", "0.1"], "window_days must span at least 2 steps, got 0.1"),
        (["--window-days=-5"], "window_days must span at least 2 steps, got -5.0"),
        (["--window-days", "nan"], "window_days must be finite, got nan"),
        (["--smoothing-days", "nan"], "smoothing_days must be finite, got nan"),
        (["--smoothing-days=-1"], "smoothing_days must be >= 0, got -1.0"),
        (["--stride-days", "nan"], "stride_days must be finite, got nan"),
        (["--stride-days", "0"], "stride_days must be > 0, got 0.0"),
        (["--r2-threshold", "nan"], "r2_threshold must be finite, got nan"),
        (["--r2-threshold", "1"], "r2_threshold must be in [0, 1), got 1.0"),
        (["--r2-threshold=-0.1"], "r2_threshold must be in [0, 1), got -0.1"),
    ])
    @pytest.mark.parametrize("source", ["input", "csv"])
    def test_blowup(self, tmp_path, synth_files, capsys, entered, argv, message, source):
        inputs = (["--input", synth_files["pred"], "--variable", "T2m"] if source == "input"
                  else ["--min-csv", synth_files["min"], "--max-csv", synth_files["max"]])
        out = tmp_path / "b.json"
        assert run_cli("blowup", *inputs, *argv, "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {message}\n"
        assert not out.exists() and entered == []

    @pytest.mark.parametrize("argv, message", [
        (["--window-days", "0"], "window_days must span at least 2 steps, got 0.0"),
        (["--smoothing-days", "nan"], "smoothing_days must be finite, got nan"),
        (["--r2-threshold", "nan"], "r2_threshold must be finite, got nan"),
        (["--multiplier", "nan"], "multiplier must be a finite number > 0, got nan"),
        (["--multiplier", "inf"], "multiplier must be a finite number > 0, got inf"),
        (["--multiplier=-1"], "multiplier must be a finite number > 0, got -1.0"),
        (["--run-days", "0"], "run_days must be >= 1, got 0"),
        (["--run-days=-3"], "run_days must be >= 1, got -3"),
    ])
    def test_report(self, tmp_path, synth_files, capsys, entered, argv, message):
        out, csv = tmp_path / "r.json", tmp_path / "r.csv"
        assert run_cli("report", "--prediction", synth_files["pred"], "--reference",
                       synth_files["ref"], *argv, "-o", out, "--csv", csv) == 2
        assert capsys.readouterr().err == f"rollstab: {message}\n"
        assert list(tmp_path.iterdir()) == [] and entered == []

    SEASONALITY_BAD = [
        (["--multiplier", "nan"], "multiplier must be a finite number > 0, got nan"),
        (["--multiplier", "0"], "multiplier must be a finite number > 0, got 0.0"),
        (["--multiplier=-1"], "multiplier must be a finite number > 0, got -1.0"),
        (["--run-days", "0"], "run_days must be >= 1, got 0"),
        (["--run-days=-3"], "run_days must be >= 1, got -3"),
    ]

    @staticmethod
    def _seasonality_exit_2(tmp_path, capsys, entered, pred, source, given, argv, message):
        out, env = tmp_path / "se.json", tmp_path / "env.json"
        assert run_cli("seasonality", "--input", pred, "--variable", "T2m",
                       f"--{source}", given, "--save-envelope", env, *argv, "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {message}\n"
        assert list(tmp_path.iterdir()) == [] and entered == []

    @pytest.mark.parametrize("argv, message", SEASONALITY_BAD)
    def test_seasonality(self, tmp_path, synth_files, capsys, entered, argv, message):
        self._seasonality_exit_2(tmp_path, capsys, entered, synth_files["pred"], "envelope",
                                 synth_files["env"], argv, message)

    @pytest.mark.parametrize("argv, message", SEASONALITY_BAD)
    def test_seasonality_reference(self, tmp_path, synth_files, capsys, entered, argv, message):
        self._seasonality_exit_2(tmp_path, capsys, entered, synth_files["pred"], "reference",
                                 synth_files["ref"], argv, message)

    @pytest.mark.parametrize("argv, message", [
        (["--window-days", "0"], "window_days must be a finite number > 0, got 0.0"),
        (["--window-days=-5"], "window_days must be a finite number > 0, got -5.0"),
        (["--window-days", "nan"], "window_days must be a finite number > 0, got nan"),
        (["--window-days", "inf"], "window_days must be a finite number > 0, got inf"),
        (["--blowup-day", "nan"], "blowup_day must be finite, got nan"),
        (["--blowup-day", "inf"], "blowup_day must be finite, got inf"),
    ])
    def test_smallscale(self, tmp_path, synth_files, capsys, entered, argv, message):
        """A bad parameter wins over the small band, unresolved on this grid."""
        out = tmp_path / "ss.json"
        assert run_cli("smallscale", "--input", synth_files["pred"], "--reference",
                       synth_files["pred"], "--variable", "T2m", *argv, "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {message}\n"
        assert not out.exists() and entered == []

"""Command-line interface: subcommands, formats, and exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otfswin.cli import main
from otfswin.windows import _MAX_DC_LENGTH

CE_CONFIG = (
    "M = 16\nN = 16\npaths = 2\nk_max = 2\nl_max = 2\nk_hat = 1\n"
    "snr_db = 30\ntrials = 25\nseed = 5\n"
)


# The CLI with scipy, hypothesis and pytest unimportable: the package needs
# numpy alone.  CI runs the same command.
NUMPY_ONLY = ("import sys; "
              "sys.modules.update(dict.fromkeys(('scipy', 'hypothesis', 'pytest'))); "
              "from otfswin.cli import main; sys.exit(main(sys.argv[1:]))")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def ce_config(tmp_path):
    path = tmp_path / "ce.cfg"
    path.write_text(CE_CONFIG, encoding="utf-8")
    return str(path)


class TestFloor:
    def test_rectangular_floor_row(self, capsys):
        rc = main(["floor", "--N", "20", "--kmax", "3", "--lmax", "4",
                   "--khat", "1", "--sl-db", "-26.0205999133"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("N,k_max,l_max,k_hat")
        assert float(out[1].split(",")[5]) == pytest.approx(0.3375, rel=1e-6)

    def test_json_format(self, capsys):
        rc = main(["floor", "--N", "20", "--kmax", "3", "--lmax", "4",
                   "--khat", "1", "--sl-db", "-40", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mse_floor"] == pytest.approx(0.0135, rel=1e-9)

    @pytest.mark.parametrize("args, floor_db", [
        # the guard covers every Doppler row: no data leaks into the window
        (["--N", "5", "--kmax", "1", "--lmax", "2", "--sl-db", "-3"], None),
        (["--N", "20", "--kmax", "3", "--lmax", "4", "--khat", "1", "--sl-db", "-40"],
         pytest.approx(10 * math.log10(0.0135), rel=1e-12)),
    ])
    def test_json_output_is_strict_json(self, capsys, args, floor_db):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert main(["floor", *args, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert data["mse_floor_db"] == floor_db
        assert main(["floor", *args]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[6] == ("-inf" if floor_db is None else f"{data['mse_floor_db']:.12g}")

    @pytest.mark.parametrize("args, field", [
        (["--sl-db", "nan"], "--sl-db"),
        (["--sl-db", "inf"], "--sl-db"),
        (["--sl-db=-inf"], "--sl-db"),
        (["--sl-db", "1e6"], "--sl-db"),
        (["--sl-db", "0.5"], "--sl-db"),
        (["--sl-db", "-40", "--kmax", "-3"], "spread"),
        (["--sl-db", "-40", "--lmax", "-1"], "spread"),
        # N = 20, k_max = 3 leaves room for k_hat <= 1 only
        (["--sl-db", "-40", "--khat", "9"], "k_hat=9 outside [0, 1]"),
        (["--sl-db", "-40", "--khat", "-1"], "k_hat=-1"),
        (["--sl-db", "-40", "--N", "-5"], "N=-5"),
        # k_max = 2 leaves no room for the guard on N = 8, whatever k_hat is
        (["--sl-db", "-40", "--N", "8", "--kmax", "2"], "k_max=2 needs N >= 4 k_max + 1 = 9"),
        # the only N below 2 that the k_hat bound lets through
        (["--sl-db", "-40", "--N", "1", "--kmax", "0", "--lmax", "0"], "N=1"),
        (["--sl-db", "-40", "--N", "1" + "0" * 400], "--N"),
    ])
    def test_bad_input_exits_2_with_one_line(self, capsys, args, field):
        # a flag given twice takes its last value
        rc = main(["floor", "--N", "20", "--kmax", "3", "--lmax", "4", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0], err


class TestDesignWindow:
    def test_writes_csv_and_json_sidecar(self, tmp_path):
        out = tmp_path / "win.csv"
        rc = main(["design-window", "--N", "20", "--sl-db", "-40", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 21
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(v * v for v in values) == pytest.approx(20.0, rel=1e-9)
        sidecar = json.loads((tmp_path / "win.json").read_text())
        assert sidecar["SL_db_target"] == -40.0
        assert sidecar["SL_db_measured"] <= -39.5
        assert 2.5 <= sidecar["k_main_measured"] <= 4.0

    def test_infeasible_design_exits_2(self, capsys):
        rc = main(["design-window", "--N", "3", "--sl-db", "-100"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sl_db", ["-400", "-1000"])
    def test_unreachable_sidelobe_target_exits_2_with_one_line(self, capsys, sl_db):
        rc = main(["design-window", "--N", "16", "--sl-db", sl_db])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: requested {float(sl_db):g} dB "
                                                   "is infeasible for N=16: the designed "
                                                   "window's sidelobes measure -3"), err

    @pytest.mark.parametrize("n", [str(_MAX_DC_LENGTH + 1), "1" + "0" * 30])
    def test_too_long_window_exits_2_with_one_line(self, capsys, n):
        rc = main(["design-window", "--N", n, "--sl-db", "-40"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(_MAX_DC_LENGTH) in err[0]

    @pytest.mark.parametrize("n, sl_db", [("20", "nan"), ("20", "-1e6"), ("400", "-1e6"),
                                          ("6", "-inf")])
    def test_non_finite_or_overflowing_sidelobe_exits_2(self, capsys, n, sl_db):
        # a NaN or infinite target, or a sidelobe ratio 10^(dB/20) beyond
        # the float range
        rc = main(["design-window", "--N", n, f"--sl-db={sl_db}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("args", [
        ["design-window", "--N", "20", "--sl-db", "-1e2"],
        ["design-window", "--N", "20", "--sl-db", "-4e1"],
        ["design-window", "--N", "6", "--sl-db", "-inf"],
        ["floor", "--N", "20", "--kmax", "3", "--lmax", "4", "--sl-db", "-4e1"],
        ["floor", "--N", "20", "--kmax", "3", "--lmax", "4", "--sl-db", "-1e2"],
    ])
    def test_a_negative_value_parses_alike_apart_from_or_joined_to_its_flag(self, capsys, args):
        # argparse takes neither -1e2 nor -inf for a number on its own
        rc = main(args)
        apart = capsys.readouterr()
        rc_joined = main(args[:-2] + [f"--sl-db={args[-1]}"])
        joined = capsys.readouterr()
        assert (rc, apart.out, apart.err) == (rc_joined, joined.out, joined.err)
        assert rc == (2 if args[-1] == "-inf" else 0)
        assert apart.out if rc == 0 else apart.err.startswith("error: ")

    @pytest.mark.parametrize("n, sl_db", [("3", "-40"), ("8", "-120"), ("20", "-40")])
    def test_json_sidecar_is_strict_json(self, capsys, n, sl_db):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert main(["design-window", "--N", n, "--sl-db", sl_db]) == 0
        lines = capsys.readouterr().out.splitlines()
        sidecar = json.loads("\n".join(lines[int(n) + 1:]), parse_constant=reject)
        assert sidecar["SL_db_target"] == float(sl_db)
        assert sidecar["SL_db_measured"] <= float(sl_db) + 0.5
        assert all(math.isfinite(v) for v in sidecar.values())


class TestExperiments:
    def test_ce_mse_writes_rows_metadata_and_summary(self, tmp_path, ce_config):
        out = tmp_path / "rows.csv"
        summary = tmp_path / "ce.csv"
        rc = main(["ce-mse", "--config", ce_config, "--out", str(out),
                   "--ce-rows", str(summary)])
        assert rc == 0
        assert out.read_text().startswith("experiment,config_hash")
        meta = json.loads((out.parent / "rows.csv.meta.json").read_text())
        assert meta["trials"] == 25
        assert summary.read_text().startswith("snr_db,pilot_dbw")

    def test_repeat_runs_are_byte_identical(self, tmp_path, ce_config):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["ce-mse", "--config", ce_config, "--out", str(out1)]) == 0
        assert main(["ce-mse", "--config", ce_config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, ce_config):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["ce-mse", "--config", ce_config, "--out", str(out1)])
        main(["ce-mse", "--config", ce_config, "--out", str(out2), "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_fer_json_output(self, tmp_path):
        cfg = tmp_path / "fer.cfg"
        cfg.write_text(
            "M = 8\nN = 8\npaths = 2\nk_max = 2\nl_max = 2\n"
            "csi = perfect-csir\nsnr_db = 10\ntrials = 20\nseed = 2\n",
            encoding="utf-8",
        )
        out = tmp_path / "fer.json"
        rc = main(["fer", "--config", str(cfg), "--out", str(out), "--format", "json"])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert {r["metric"] for r in rows} == {"fer", "ber"}

    def test_missing_config_exits_2(self, capsys, tmp_path):
        rc = main(["ce-mse", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_config_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"\xff\xfe = 3\n")
        rc = main(["fer", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "latin.cfg" in err[0]

    @pytest.mark.parametrize("line, field", [
        ("snr_db = 10, nan", "SNR"),
        ("snr_db = 10, x", "snr_db"),
        ("spa_iters = 0", "spa_iters"),
        ("spa_damping = 2", "spa_damping"),
        ("snr_db = 10, -3100", "noise power"),
        ("snr_db = 3300", "noise power"),
        ("rx_window = dc", "rx_window"),
        ("pilot_power_dbw = nan", "pilot_power_dbw"),
        ("pilot_power_dbw = 400", "pilot_power_dbw"),
        ("pilot_power_dbw = -400", "pilot_power_dbw"),
        ("tx_window = dc\ndc_sl_db = -1e6", "-1e+06 dB is infeasible for N=16: the sidelobe "
                                            "ratio 10^(|dB|/20) overflows a float"),
        ("tx_window = dc\ndc_sl_db = -400", "infeasible for N=16: the designed window's "
                                            "sidelobes measure -3"),
        ("spa_taps = 100000", "Q^L = 2^128 configurations"),
        ("dc_sl_db = nan", "dc_sl_db"),
        ("delta_f = nan", "delta_f"),
        ("fc = inf", "fc"),
        ("fc = 1e-300", "fc"),
        ("spa_taps = -2", "spa_taps"),
        ("seed = -1", "seed"),
        ("k_hat = -1", "k_hat"),
        ("csi = csit-csir\ntx_window = optimal\nrx_window = dc", "optimal TX window"),
        # arrays far beyond any address space: numpy is refused before any
        # memory is touched, under every overcommit setting
        ("paths = 10000000000000000", "memory"),
        ("M = 100000000000000000", "memory"),
        # arrays numpy refuses to create at all: rejected with the config
        ("M = 100000000000000000000", "M = 100000000000000000000"),
        ("N = 100000000000000000000", "N = 100000000000000000000"),
        ("paths = 1000000000000000000", "paths = 1000000000000000000"),
        ("paths = 100000000000000000000", "paths = 100000000000000000000"),
        # one 13-frame chunk of 30x20 frames
        ("M = 30\nN = 20\ntrials = 13\npaths = 100000000000000000", "paths = 100000000000000000"),
        # past the 64 MiB ceiling on one chunk's path draws and phases
        ("M = 30\nN = 20\npaths = 100000000", "paths = 100000000"),
        ("M = 5000000\nN = 20", "M = 5000000, N = 20: "),
        # past the 16 MiB ceiling on one complex frame
        ("M = 100000\nN = 100000\ntrials = 1", "M = 100000, N = 100000: "),
        ("M = 1025\nN = 1024\ntrials = 1", "M = 1025, N = 1024: "),
        ("N = 8\ncsi = estimated-csir", "k_max=2 needs N >= 4 k_max + 1 = 9"),
    ])
    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "bad.cfg"
        keys = {entry.split("=")[0].strip() for entry in line.splitlines()}
        base = [entry for entry in ("M = 8", "N = 16", "constellation = bpsk", "paths = 2",
                                    "k_max = 2", "l_max = 2", "detector = spa", "trials = 2")
                if entry.split("=")[0].strip() not in keys]
        cfg.write_text("\n".join(base) + f"\n{line}\n", encoding="utf-8")
        rc = main(["fer", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert len(err.splitlines()) == 1, err

    def test_optimal_tx_window_exits_2_on_ce_mse(self, tmp_path, capsys):
        cfg = tmp_path / "csit.cfg"
        cfg.write_text(CE_CONFIG + "csi = csit-csir\ntx_window = optimal\n", encoding="utf-8")
        rc = main(["ce-mse", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ce-mse needs a fixed TX window")

    def test_overflowing_noise_power_exits_2_on_ce_mse(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CE_CONFIG.replace("snr_db = 30", "snr_db = -3100"), encoding="utf-8")
        rc = main(["ce-mse", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: SNR point -3100 dB")

    @pytest.mark.parametrize("threads", ["0", "-3", "65"])
    def test_thread_count_out_of_range_exits_2(self, capsys, ce_config, threads):
        # refused before any worker pool is created
        rc = main(["ce-mse", "--config", ce_config, "--threads", threads])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err

    def test_optimal_window_dead_end_exits_3_without_traceback(self, tmp_path, capsys):
        # at -3075 dB the gains are so small that no power map is representable
        cfg = tmp_path / "csit.cfg"
        cfg.write_text(
            "M = 8\nN = 8\npaths = 2\nk_max = 2\nl_max = 2\ncsi = csit-csir\n"
            "tx_window = optimal\nsnr_db = -3075\ntrials = 2\n",
            encoding="utf-8",
        )
        rc = main(["fer", "--config", str(cfg)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: optimal TX window")

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        rc = main(["ce-mse", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestParser:
    def test_unknown_flag_rejected_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["floor", "--no-such-flag", "1"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSelfcheckCommand:
    def test_exit_zero_and_one_line_per_check(self, capsys):
        rc = main(["selfcheck"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 6
        assert all(line.startswith("ok") for line in lines)

    def test_negative_seed_exits_2(self, capsys):
        rc = main(["selfcheck", "--seed", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0], err

    def test_violation_exits_3(self, capsys, monkeypatch):
        from otfswin.selfcheck import CheckResult

        monkeypatch.setattr(
            "otfswin.cli.run_selfcheck",
            lambda seed=0: [CheckResult("forced", False, "err=1.0e+00 tol=1.0e-09")],
        )
        rc = main(["selfcheck"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "FAIL forced" in captured.out
        assert "numerical failure" in captured.err


# Config fuzzing: each key draws from a few valid values plus invalid ones.
# M, N, trials, the channel spread and the pilot guard are always set, so
# that no example runs the large default grid or a layout that only fits it.
_INVALID = ("-1", "0", "nan", "inf", "-inf", "-1e6", "1e6", "bogus")
_VALID = {
    "M": ("3", "4", "8"),
    "N": ("4", "5", "8"),
    "trials": ("1", "2"),
    "delta_f": ("5e3", "15e3"),
    "fc": ("3e9", "28e9"),
    "constellation": ("bpsk", "qpsk", "QPSK"),
    "paths": ("1", "2", "3"),
    "k_max": ("0", "1"),
    "l_max": ("0", "1"),
    "k_hat": ("0", "1"),
    "pilot_power_dbw": ("30", "10", "-5"),
    "tx_window": ("rect", "dc", "optimal"),
    "rx_window": ("rect", "dc"),
    "dc_sl_db": ("-40", "-20", "-10", "-5"),
    "detector": ("mmse", "spa"),
    "spa_taps": ("0", "2", "5"),
    "spa_iters": ("1", "5"),
    "spa_damping": ("0.5", "1"),
    "csi": ("perfect-csir", "estimated-csir", "csit-csir"),
    "snr_db": ("10", "0, 30", "-10"),
    "seed": ("0", "7", "123456789"),
}
_REQUIRED = ("M", "N", "trials", "k_max", "l_max", "k_hat")


# Valid values everywhere would rarely reach the checks, and invalid values
# everywhere would rarely get past them, so a draw sets up to two keys to
# invalid values and the rest to valid ones.
_CONFIGS = st.builds(
    lambda valid, invalid: {**valid, **invalid},
    st.fixed_dictionaries(
        {key: st.sampled_from(_VALID[key]) for key in _REQUIRED},
        optional={key: st.sampled_from(_VALID[key]) for key in _VALID if key not in _REQUIRED},
    ),
    st.dictionaries(st.sampled_from(sorted(_VALID) + ["bogus_key"]),
                    st.sampled_from(_INVALID), max_size=2),
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestConfigFuzz:
    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fields=_CONFIGS)
    def test_any_config_exits_cleanly_with_finite_rows(self, fields):
        for command in ("ce-mse", "fer"):
            self._check_run(command, fields)

    @staticmethod
    def _check_run(command, fields):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "fuzz.cfg")
            out = os.path.join(tmp, "rows.csv")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.writelines(f"{key} = {value}\n" for key, value in fields.items())
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([command, "--config", cfg, "--out", out])
            err = stderr.getvalue()
            assert rc in (0, 2, 3), err
            assert "Traceback" not in err
            if rc != 0:
                assert len(err.splitlines()) == 1, err
                return
            with open(out, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert len(lines) > 1
            for line in lines[1:]:
                value, ci_lo, ci_hi = (float(v) for v in line.split(",")[4:7])
                assert math.isfinite(value) and math.isfinite(ci_lo) and math.isfinite(ci_hi), line
            with open(out + ".meta.json", encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)


class TestNumpyOnly:
    def test_selfcheck_ce_mse_and_fer_run_without_test_dependencies(self, tmp_path):
        cfg = tmp_path / "ce.cfg"
        cfg.write_text(CE_CONFIG.replace("trials = 25", "trials = 2"), encoding="utf-8")
        # a 13-row guard on 16 Doppler rows: the DC-RX LMMSE inverts the
        # guard band's blocks
        fer_cfg = tmp_path / "fer.cfg"
        fer_cfg.write_text(cfg.read_text(encoding="utf-8").replace("snr_db = 30", "snr_db = 20")
                           + "csi = estimated-csir\nrx_window = dc\ndetector = mmse\n",
                           encoding="utf-8")
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        for args in (["selfcheck"], ["ce-mse", "--config", str(cfg)],
                     ["fer", "--config", str(fer_cfg)]):
            proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY, *args],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout and not proc.stderr

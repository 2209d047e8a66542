import argparse
import configparser
import io
import json
import logging
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qap.cli import main
from qap.config import _KEYS, load_config, parse_grid
from qap.dynamics import METHODS
from qap.errors import ConfigError
from qap.experiments import COMMANDS
from qap.model import OscillatorSpec, t0_to_S20

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

BASE_INI = """\
[spec]
m = 1.0
k = 1.0
hbar_tilde = 0.0
T = 1.0
x0 = 0.0
xT = 1.0

[init]
S10 = 1.0
t0 = 0.0

[grid]
h = 1e-3
method = rk4

[optimize]
active = S10,S20
seed = 42

[sweep]
t0_grid = 0.1:0.9:9
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI)
    return str(path)


def write_config(tmp_path, text, name="custom.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliContract:
    def test_help_lists_every_command_with_its_summary(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert len(COMMANDS) == 7
        for name, fn in COMMANDS.items():
            summary = fn.__doc__.strip().splitlines()[0]
            assert re.search(rf"^  {re.escape(name)} +{re.escape(summary)}$", out, re.M), name

    @pytest.mark.parametrize("argv, error", [
        (["nope", "--config", "exp.ini"], "argument command: invalid choice: 'nope'"),
        (["integrate"], "the following arguments are required: --config"),
        (["--config", "exp.ini"], "the following arguments are required: command"),
    ])
    def test_usage_error_exits_2(self, tmp_path, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_options_before_or_after_the_command(self, config_path, tmp_path, capsys):
        options = ["--config", config_path, "--h", "0.1", "--method", "rk4_adaptive",
                   "--seed", "3"]
        outputs = []
        for i, (before, after) in enumerate(((options, []), ([], options),
                                             (options[:4], options[4:]))):
            out = tmp_path / str(i)
            assert main([*before, "integrate", *after, "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((stdout, (out / "solution.csv").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert b"method=rk4_adaptive step=0.10000000000000001" in outputs[0][1]

    def test_one_parser_per_call(self, config_path, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["eigenvalue", "--config", config_path, "--out", str(tmp_path)]) == 0
        assert len(built) == 1


def _never_run(cfg, out_dir):
    raise AssertionError("the command ran")


class TestStepCount:
    """T/h above MAX_STEPS (an overflow, a run that would never end, or a
    first adaptive step below h_min) exits 2 before any output."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("command, h", [
        ("integrate", "1e-320"), ("eigenvalue", "1e-300"), ("integrate", "1e-13"),
    ])
    def test_bundled_config_exits_2_naming_h(self, tmp_path, capsys, monkeypatch, command, h,
                                             method):
        monkeypatch.setitem(COMMANDS, command, _never_run)
        out = tmp_path / "out"
        config = str(ROOT / "configs" / "classical.ini")
        assert main([command, "--config", config, "--out", str(out), "--h", h,
                     "--method", method]) == 2
        assert (f"config error: h = {float(h)!r} gives T/h = " in capsys.readouterr().out)
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_checks_the_step_count(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setitem(COMMANDS, command, _never_run)
        path = write_config(tmp_path, BASE_INI.replace("h = 1e-3", "h = 1e-300"))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert "more than MAX_STEPS = 10000000" in capsys.readouterr().out
        assert not out.exists()

    def test_small_first_adaptive_step_completes(self, tmp_path, capsys):
        # T/h = 1e7 is allowed; the step starts at h_min = 1e-12
        path = write_config(tmp_path, "[spec]\nT = 1e-6\n[init]\nS10 = 1.0\n")
        out = tmp_path / "out"
        assert main(["integrate", "--config", path, "--out", str(out), "--h", "1e-13",
                     "--method", "rk4_adaptive"]) == 0
        assert "BLOWUP" not in capsys.readouterr().out


class TestConfigLoading:
    def test_full_ini(self, config_path):
        cfg = load_config(config_path)
        assert cfg.spec.T == 1.0
        assert cfg.init.S10 == 1.0
        assert cfg.init.S20 == 0.0  # from t0 = 0
        assert cfg.step == 1e-3
        assert cfg.t0_grid == pytest.approx([0.1 * i for i in range(1, 10)])
        assert cfg.seed == 42

    def test_json_equivalent(self, tmp_path):
        payload = {
            "spec": {"m": 1.0, "k": 1.0, "hbar_tilde": 0.0, "T": 1.0, "x0": 0.0, "xT": 1.0},
            "init": {"S10": 1.0, "t0": 0.0},
            "grid": {"h": 1e-3, "method": "rk4"},
            "sweep": {"t0_grid": [0.1, 0.5, 0.9]},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        cfg = load_config(path)
        assert cfg.spec.T == 1.0
        assert cfg.init.S20 == 0.0
        assert cfg.t0_grid == [0.1, 0.5, 0.9]

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[spec]\nmass = 2.0\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[specs]\nm = 2.0\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)

    def test_t0_and_S20_conflict(self, tmp_path):
        path = write_config(tmp_path, "[init]\nt0 = 0.5\nS20 = 1.0\n")
        with pytest.raises(ConfigError, match="not both"):
            load_config(path)

    def test_grid_must_increase(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\nt0_grid = 0.5,0.4\n")
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(path)

    def test_bad_step_rejected(self, tmp_path):
        path = write_config(tmp_path, "[grid]\nh = -0.1\n")
        with pytest.raises(ConfigError, match="positive"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("t0", "abc"), ("t0", "inf"), ("S10", "inf"), ("S20", "-inf"),
        ("sigma10", "nan"), ("sigma20", "inf"), ("t0", "1.5707963267948966"),
    ])
    def test_bad_init_value_exits_2_naming_key(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, f"[init]\n{key} = {value}\n")
        assert main(["integrate", "--config", path, "--out", str(tmp_path)]) == 2
        assert f"config error: {key} " in capsys.readouterr().out

    @pytest.mark.parametrize("section, key, value", [
        ("optimize", "penalty_weight", "nan"), ("optimize", "penalty_weight", "-1"),
        ("optimize", "grad_tol", "-1"), ("optimize", "grad_tol", "0"),
        ("optimize", "max_iter", "0"), ("optimize", "restarts", "0"),
        ("optimize", "seed", "-1"), ("grid", "t_probe", "0"), ("grid", "t_probe", "inf"),
        ("sweep", "t0_grid", "a:1:3"), ("sweep", "hbar_grid", "0.1,b"),
        ("sweep", "t0_grid", "0:1"), ("sweep", "t0_grid", "0:1:0"),
        ("sweep", "hbar_grid", "-0.1,0.2"), ("optimize", "active", "S10,foo"),
        ("optimize", "active", ""), ("spec", "T", "nan"), ("spec", "m", "inf"),
    ])
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, f"[init]\nS10 = 1.0\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["integrate", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {key} " in capsys.readouterr().out
        assert not out.exists()

    def test_json_section_not_an_object_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, '{"spec": 3}', name="exp.json")
        out = tmp_path / "out"
        assert main(["integrate", "--config", path, "--out", str(out)]) == 2
        assert "config error: section [spec] must be an object" in capsys.readouterr().out
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["integrate", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert "config error: cannot read config file" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["ini", "json"])
    @pytest.mark.parametrize("s20_key", ["S20", "t0"])
    def test_every_key_reaches_its_field(self, tmp_path, fmt, s20_key):
        # a valid non-default value for every key of the table
        values = {
            "spec": {"m": 2.0, "k": 3.0, "hbar_tilde": 0.25, "T": 1.5, "x0": 0.5, "xT": 2.0},
            "init": {"S10": 0.75, s20_key: 0.125, "sigma10": 0.2, "sigma20": 0.4},
            "grid": {"h": 0.01, "method": "rk4_adaptive", "t_probe": 0.25},
            "optimize": {
                "active": "S20,sigma20", "grad_tol": 1e-5, "max_iter": 7,
                "penalty_weight": 0.5, "restarts": 2, "seed": 9,
            },
            "sweep": {"t0_grid": [0.1, 0.2], "hbar_grid": [0.0, 0.3]},
            "output": {"out_dir": "elsewhere"},
        }
        covered = {sec: set(keys) for sec, keys in values.items()}
        covered["init"] |= {"S20", "t0"}
        assert covered == {sec: set(keys) for sec, keys in _KEYS.items()}
        if fmt == "json":
            path = write_config(tmp_path, json.dumps(values), name="every.json")
        else:
            text = ""
            for sec, keys in values.items():
                text += f"[{sec}]\n"
                for key, v in keys.items():
                    text += f"{key} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
            path = write_config(tmp_path, text)
        cfg = load_config(path)
        spec = OscillatorSpec(**values["spec"])
        assert cfg.spec == spec
        init = dict(values["init"])
        if "t0" in init:
            init["S20"] = t0_to_S20(init.pop("t0"), spec)
        assert cfg.init.to_dict() == init
        fields = {**values["grid"], **values["optimize"], **values["sweep"], **values["output"]}
        fields["step"] = fields.pop("h")
        assert {k: getattr(cfg, k) for k in fields} == fields

    def test_readme_names_every_key(self):
        block = re.search(r"### Config format.*?```ini\n(.*?)```", README.read_text(), re.S)
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.optionxform = str
        parser.read_string(block.group(1))
        documented = {sec: list(parser[sec]) for sec in parser.sections()}
        table = {sec: [k for k in keys if k != "S20"] for sec, keys in _KEYS.items()}
        assert list(documented) == list(table)
        assert {s: set(k) for s, k in documented.items()} == {s: set(k) for s, k in table.items()}

    def test_parse_grid_forms(self):
        assert parse_grid("1,2,3") == [1.0, 2.0, 3.0]
        assert parse_grid("0:1:5") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        # the shorthand gives numpy.linspace's floats exactly
        for text in ("0.05:0.45:9", "-1:1:7", "0.1:0.7:3", "2:3:1", "1e-3:1:1000"):
            start, stop, count = text.split(":")
            assert parse_grid(text) == np.linspace(float(start), float(stop), int(count)).tolist()

    @pytest.mark.parametrize("line, error", [
        ("hbar_grid = 0,0.5", None),
        ("hbar_grid = -1,0", "hbar_grid must be >= 0, got -1.0"),
        ("t0_grid = 0.5,0.4", "t0_grid must be strictly increasing"),
    ])
    def test_grids_checked_with_parse_grid_wrapped(self, tmp_path, monkeypatch, line, error):
        # perfbench's traced pass replaces qap.config.parse_grid by a wrapper
        monkeypatch.setattr("qap.config.parse_grid", lambda text: parse_grid(text))
        path = write_config(tmp_path, f"[sweep]\n{line}\n")
        if error is None:
            assert load_config(path).hbar_grid == [0.0, 0.5]
            return
        with pytest.raises(ConfigError, match=re.escape(error)):
            load_config(path)


class TestIntegrateCommand:
    def test_writes_grid_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["integrate", "--config", config_path, "--out", str(out)]) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 1001
        last = rows[-1].split(",")
        assert float(last[0]) == 1.0
        # S2(T) = -tan(1) for the zero-offset classical run
        assert float(last[2]) == pytest.approx(-math.tan(1.0), abs=1e-8)
        assert "final state" in capsys.readouterr().out

    def test_zero_horizon_exits_2(self, tmp_path):
        path = write_config(tmp_path, "[spec]\nT = 0.0\n[init]\nS10 = 1.0\n")
        assert main(["integrate", "--config", path, "--out", str(tmp_path)]) == 2

    def test_caustic_exits_3_with_partial_csv(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[spec]\nT = 1.5\n[init]\nS10 = 1.0\nt0 = -0.157\n[grid]\nh = 1e-3\n",
        )
        out = tmp_path / "out"
        assert main(["integrate", "--config", path, "--out", str(out)]) == 3
        text = (out / "solution.csv").read_text()
        assert text.rstrip().splitlines()[-1].startswith("# BLOWUP last_good_t=")
        assert "BLOWUP" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["rk4", "rk4_adaptive"])
    @pytest.mark.parametrize("key", ["S10", "S20", "sigma10", "sigma20", "t0"])
    def test_negative_zero_init_writes_the_bytes_of_zero(self, tmp_path, capsys, key, method):
        init = {"S10": "0.5", "S20": "0.2", "sigma10": "0.0", "sigma20": "0.0"}
        if key == "t0":
            del init["S20"]
        outputs = []
        for value in ("0.0", "-0.0"):
            lines = "".join(f"{k} = {v}\n" for k, v in {**init, key: value}.items())
            path = write_config(tmp_path, f"[spec]\nhbar_tilde = 0.4\n[init]\n{lines}"
                                          f"[grid]\nh = 0.05\nmethod = {method}\n")
            out = tmp_path / value
            assert main(["integrate", "--config", path, "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((stdout, (out / "solution.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["integrate", "--config", config_path, "--out", str(out_a)]) == 0
        assert main(["integrate", "--config", config_path, "--out", str(out_b)]) == 0
        assert (out_a / "solution.csv").read_bytes() == (out_b / "solution.csv").read_bytes()


class TestEigenvalueCommand:
    def test_writes_report(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["eigenvalue", "--config", config_path, "--out", str(out)]) == 0
        payload = json.loads((out / "eigenvalue.json").read_text())
        assert payload["quantum_term"] == 0.0
        assert payload["lambda"] == pytest.approx(
            payload["boundary_term"] + payload["kinetic_term"], abs=1e-15
        )


class TestClassicalCheckCommand:
    def test_default_passes(self, config_path, tmp_path, capsys):
        assert main(["classical-check", "--config", config_path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "0.321046" in out

    def test_resonant_horizon_exits_2(self, tmp_path):
        path = write_config(tmp_path, f"[spec]\nT = {math.pi}\n")
        assert main(["classical-check", "--config", path, "--out", str(tmp_path)]) == 2

    def test_quantum_scale_rejected(self, tmp_path):
        path = write_config(tmp_path, "[spec]\nhbar_tilde = 0.5\n")
        assert main(["classical-check", "--config", path, "--out", str(tmp_path)]) == 2

    def test_zero_boundary_passes_with_zero_eigenvalue(self, tmp_path, capsys):
        path = write_config(tmp_path, "[spec]\nxT = 0.0\n")
        assert main(["classical-check", "--config", path, "--out", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["classical-check", "scan-t0"])
class TestClassicalPreconditions:
    @pytest.mark.parametrize("line, reason", [
        ("hbar_tilde = 0.5", "needs hbar_tilde = 0"),
        ("k = 0.0", "needs k > 0"),
        (f"T = {math.pi}", "is undefined at resonance"),
    ])
    def test_rejected_with_reason(self, tmp_path, capsys, command, line, reason):
        path = write_config(tmp_path, f"[spec]\n{line}\n[sweep]\nt0_grid = 0.1,0.2\n")
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert f"config error: {command} {reason}" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_invalid_spec_exits_2_for_every_command(tmp_path, capsys, command):
    # the spec is checked as the config loads, before t0 -> S20 divides by
    # m and before any output directory is made
    out = tmp_path / "out"
    for spec, error in (("T = 0.0\nm = -1.0", "NonPositiveMass; NonPositiveHorizon"),
                        # coefficients of the flow that overflow
                        ("hbar_tilde = 1e160", "NonFinite(hbar_tilde**2/m)"),
                        ("hbar_tilde = 1e200", "NonFinite(hbar_tilde**2/m)"),
                        ("hbar_tilde = 1.3e154\nm = 0.6", "NonFinite(hbar_tilde**2/m)"),
                        ("m = 1e-320", "NonFinite(1/m)")):
        for init in ("S10 = 1.0", "t0 = 0.5"):
            path = write_config(tmp_path, f"[spec]\n{spec}\n[init]\n{init}\n")
            assert main([command, "--config", path, "--out", str(out)]) == 2
            assert f"error: {error}\n" in capsys.readouterr().out
            assert not out.exists()


NO_INIT = "[spec]\nm = 1.0\n"
GRID = "\n[sweep]\nt0_grid = 0.1,0.2\n"
ADAPTIVE = "[grid]\nmethod = rk4_adaptive\n"


@pytest.mark.parametrize("command, text, message", [
    ("integrate", NO_INIT, "integrate needs an [init] section"),
    ("eigenvalue", NO_INIT, "eigenvalue needs an [init] section"),
    ("sweep-hbar", NO_INIT, "sweep-hbar needs an [init] section"),
    ("sweep-hbar", "[init]\nS10 = 1.0\n", "sweep-hbar needs [sweep] hbar_grid"),
    ("scan-t0", NO_INIT, "scan-t0 needs [sweep] t0_grid"),
    ("scan-t0", "[spec]\nhbar_tilde = 0.5" + GRID, "scan-t0 needs hbar_tilde = 0"),
    ("scan-t0", "[spec]\nk = 0.0" + GRID, "scan-t0 needs k > 0"),
    ("scan-t0", f"[spec]\nT = {math.pi}" + GRID, "scan-t0 is undefined at resonance"),
    ("classical-check", "[spec]\nhbar_tilde = 0.5\n", "classical-check needs hbar_tilde = 0"),
    ("classical-check", "[spec]\nk = 0.0\n", "classical-check needs k > 0"),
    ("classical-check", f"[spec]\nT = {math.pi}\n", "classical-check is undefined at resonance"),
    ("classical-check", ADAPTIVE, "classical-check needs method = rk4, got rk4_adaptive"),
    ("extremize", ADAPTIVE, "extremize needs method = rk4, got rk4_adaptive"),
])
def test_command_precondition_exits_2_before_output(tmp_path, capsys, command, text, message):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("command, name", [
    ("integrate", "solution.csv"),
    ("eigenvalue", "eigenvalue.json"),
    ("extremize", "extremum.json"),
])
def test_unwritable_output_file_exits_2(config_path, tmp_path, capsys, command, name):
    # a directory where the output file goes: its write raises IsADirectoryError
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, "--config", config_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    errors = [ln for ln in captured.out.splitlines() if ln.startswith("config error")]
    assert len(errors) == 1 and str(out / name) in errors[0]
    assert errors[0].startswith("config error: cannot write output: ")
    assert "Traceback" not in captured.out + captured.err


def test_adaptive_method_override_rejected_for_extremize(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["extremize", "--config", config_path, "--out", str(out),
                 "--method", "rk4_adaptive"]) == 2
    assert "config error: extremize needs method = rk4" in capsys.readouterr().out
    assert not out.exists()


class TestScanT0Command:
    def test_degenerate_eigenvalue_across_grid(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["scan-t0", "--config", config_path, "--out", str(out)]) == 0
        lines = (out / "scan_t0.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 9
        assert all(r[-1] == "ok" for r in rows)
        lams = [float(r[3]) for r in rows]
        assert max(lams) - min(lams) <= 1e-6
        assert all(lam == pytest.approx(0.3210463079671654, abs=1e-6) for lam in lams)

    def test_residual_crosses_zero_at_half_horizon(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["scan-t0", "--config", config_path, "--out", str(out)])
        rows = [
            ln.split(",")
            for ln in (out / "scan_t0.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        residuals = {float(r[0]): float(r[4]) for r in rows}
        assert residuals[0.4] > 0 > residuals[0.6]
        assert abs(residuals[0.5]) <= 1e-9

    def test_caustic_rows_marked_failed_others_intact(self, tmp_path):
        path = write_config(
            tmp_path,
            "[spec]\nT = 1.5\n[sweep]\nt0_grid = -0.2,0.2,0.4,0.6\n[grid]\nh = 1e-3\n",
        )
        out = tmp_path / "out"
        assert main(["scan-t0", "--config", path, "--out", str(out)]) == 0
        rows = [
            ln.split(",")
            for ln in (out / "scan_t0.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        status = {float(r[0]): r[-1] for r in rows}
        assert status[-0.2] == "blowup"
        assert status[0.2] == status[0.4] == status[0.6] == "ok"

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["scan-t0", "--config", config_path, "--out", str(out_a)])
        main(["scan-t0", "--config", config_path, "--out", str(out_b)])
        assert (out_a / "scan_t0.csv").read_bytes() == (out_b / "scan_t0.csv").read_bytes()


QUANTUM_INI = """\
[spec]
hbar_tilde = 0.0

[init]
S10 = 1.0
S20 = 0.0
sigma10 = 0.3
sigma20 = 1.0

[grid]
h = 1e-3

[sweep]
hbar_grid = 0.02,0.04,0.08,0.16
"""


class TestSweepHbarCommand:
    def test_quadratic_correction_exponent(self, tmp_path):
        path = write_config(tmp_path, QUANTUM_INI)
        out = tmp_path / "out"
        assert main(["sweep-hbar", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_hbar_summary.json").read_text())
        assert summary["fitted_exponent"] == pytest.approx(2.0, abs=0.05)
        rows = [
            ln.split(",")
            for ln in (out / "sweep_hbar.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        assert len(rows) == 4
        assert all(r[-1] == "ok" for r in rows)
        # the closed-form slope is numpy's least-squares line up to rounding
        hbars, deltas = (np.log([float(r[i]) for r in rows]) for i in (0, 2))
        reference = np.polyfit(hbars, deltas, 1)[0]
        assert summary["fitted_exponent"] == pytest.approx(reference, rel=1e-13)

    def test_zero_row_matches_classical_bitwise(self, tmp_path):
        text = QUANTUM_INI.replace("hbar_grid = 0.02,0.04,0.08,0.16", "hbar_grid = 0.0,0.08")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep-hbar", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_hbar_summary.json").read_text())
        rows = [
            ln.split(",")
            for ln in (out / "sweep_hbar.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        assert float(rows[0][1]) == summary["lambda_at_zero"]
        assert float(rows[0][2]) == 0.0

    def test_negative_hbar_rejected_before_output(self, tmp_path, capsys):
        text = QUANTUM_INI.replace("hbar_grid = 0.02,0.04,0.08,0.16", "hbar_grid = -0.1,0.2")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep-hbar", "--config", path, "--out", str(out)]) == 2
        assert "config error: hbar_grid must be >= 0" in capsys.readouterr().out
        assert not out.exists()

    def test_overflowing_hbar_entry_rejected_before_output(self, tmp_path, capsys):
        text = QUANTUM_INI.replace("hbar_grid = 0.02,0.04,0.08,0.16", "hbar_grid = 0.1,1e160")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep-hbar", "--config", path, "--out", str(out)]) == 2
        assert ("config error: hbar_grid entry 1e+160 gives NonFinite(hbar_tilde**2/m)"
                in capsys.readouterr().out)
        assert not out.exists()

    def test_silent_amplitude_rows_identical(self, tmp_path):
        text = QUANTUM_INI.replace("sigma10 = 0.3", "sigma10 = 0.0").replace(
            "sigma20 = 1.0", "sigma20 = 0.0"
        )
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep-hbar", "--config", path, "--out", str(out)]) == 0
        rows = [
            ln.split(",")
            for ln in (out / "sweep_hbar.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        lams = {r[1] for r in rows}
        assert len(lams) == 1  # textual identity: quantum sector inert


CAUSTIC_INI = "[spec]\nT = 1.5\n[init]\nS10 = 1.0\nt0 = -0.157\n[grid]\nh = 1e-3\n"


@pytest.mark.parametrize("command, text", [
    ("eigenvalue", BASE_INI),
    ("eigenvalue", QUANTUM_INI.replace("hbar_tilde = 0.0", "hbar_tilde = 0.4")),
    ("eigenvalue", CAUSTIC_INI),
    ("scan-t0", BASE_INI),
    ("scan-t0", "[spec]\nT = 1.5\n[sweep]\nt0_grid = -0.2,0.2,0.4,0.6\n[grid]\nh = 1e-3\n"),
    ("sweep-hbar", QUANTUM_INI),
    ("sweep-hbar", CAUSTIC_INI + "[sweep]\nhbar_grid = 0.1,0.2\n"),
], ids=["classical", "quantum", "caustic", "scan", "scan-caustic", "sweep", "sweep-caustic"])
def test_reports_keep_no_trajectory_under_rk4(tmp_path, capsys, monkeypatch, command, text):
    # each rk4 report reads final_state's end row; the report of the kept
    # grid is the oracle, byte for byte
    import qap.experiments as experiments
    from qap.action import eigenvalue

    path = write_config(tmp_path, text)

    def run(name):
        out = tmp_path / name
        code = main([command, "--config", path, "--out", str(out)])
        files = {f.name: re.sub(rb', "timestamp": "[^"]*"', b"", f.read_bytes())
                 for f in sorted(out.iterdir())} if out.is_dir() else {}
        return code, capsys.readouterr().out.replace(str(out), "<OUT>"), files

    calls = []
    integrate = experiments.integrate
    monkeypatch.setattr(experiments, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k))
    got = run("final_state")
    assert calls == []
    monkeypatch.setattr(experiments, "_report", lambda spec, init, cfg: eigenvalue(
        integrate(spec, init, step=cfg.step, method=cfg.method)))
    assert run("grid") == got


class TestExtremizeCommand:
    def test_writes_extremum_json(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["extremize", "--config", config_path, "--out", str(out)]) == 0
        payload = json.loads((out / "extremum.json").read_text())
        assert payload["converged"] is True
        assert payload["report"]["lambda"] == pytest.approx(0.3210463079671654, abs=1e-6)
        assert payload["active"] == ["S10", "S20"]
        assert payload["seed"] == 42

    def test_blown_up_best_point_exits_3(self, tmp_path, capsys):
        # a guess behind the caustic wall that one iteration cannot leave
        path = write_config(
            tmp_path,
            "[init]\nS20 = -2.0\n[optimize]\nactive = S10,S20\nmax_iter = 1\nrestarts = 1\n",
        )
        out = tmp_path / "out"
        assert main(["extremize", "--config", path, "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().out
        assert not (out / "extremum.json").exists()

    def test_unknown_active_name_rejected_before_output(self, config_path, tmp_path, capsys):
        path = write_config(tmp_path, Path(config_path).read_text().replace(
            "active = S10,S20", "active = S10,foo"
        ))
        out = tmp_path / "out"
        assert main(["extremize", "--config", path, "--out", str(out)]) == 2
        assert "config error: active must be one or more of" in capsys.readouterr().out
        assert not out.exists()


class TestConvergenceCommand:
    def test_default_passes(self, config_path, tmp_path, capsys):
        assert main(["convergence", "--config", config_path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "classical" in out and "quantum" in out and "PASS" in out

    def test_forced_coarse_step_fails(self, config_path, tmp_path):
        code = main([
            "convergence", "--config", config_path, "--out", str(tmp_path),
            "--h", "0.5",
        ])
        assert code in (3, 4)  # out-of-band order or degenerate probe

    def test_zero_init_probe_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, "[init]\nS10 = 0.0\n")
        assert main(["convergence", "--config", path, "--out", str(tmp_path)]) == 0

    def test_probe_ignores_the_method(self, tmp_path, capsys):
        # the probe steps fixed-step rk4 whatever the method
        config = str(ROOT / "configs" / "quantum_sweep.ini")
        printed = []
        for method in METHODS:
            argv = ["convergence", "--config", config, "--out", str(tmp_path), "--method", method]
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and "PASS" in printed[0]


class TestOverridesAndLogging:
    def test_h_override_changes_grid(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["integrate", "--config", config_path, "--out", str(out), "--h", "0.1"])
        rows = [
            ln for ln in (out / "solution.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        assert len(rows) == 11

    def test_method_override_recorded(self, config_path, tmp_path):
        out = tmp_path / "out"
        main([
            "integrate", "--config", config_path, "--out", str(out),
            "--method", "rk4_adaptive",
        ])
        assert "method=rk4_adaptive" in (out / "solution.csv").read_text()

    @pytest.mark.parametrize("h", ["inf", "nan", "0", "-0.1"])
    def test_bad_h_override_exits_2_before_running(self, config_path, tmp_path, capsys, h):
        out = tmp_path / "out"
        assert main(["extremize", "--config", config_path, "--out", str(out), "--h", h]) == 2
        assert "h must be positive and finite" in capsys.readouterr().out
        assert not out.exists()

    def test_negative_seed_override_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["integrate", "--config", config_path, "--out", str(out), "--seed", "-1"]) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().out
        assert not out.exists()

    def test_seed_override_lands_in_outputs(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["extremize", "--config", config_path, "--out", str(out), "--seed", "7"])
        assert json.loads((out / "extremum.json").read_text())["seed"] == 7

    def test_qap_log_info_emits_to_stderr(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QAP_LOG", "info")
        main(["integrate", "--config", config_path, "--out", str(tmp_path)])
        assert "command=integrate" in capsys.readouterr().err

    def test_log_handler_follows_a_swapped_stderr(self, tmp_path, monkeypatch):
        # a record logged after main's stderr was closed and replaced lands
        # on the new stream, with no logging error
        monkeypatch.setenv("QAP_LOG", "info")
        first, second = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stderr", first)
        assert main(["integrate", "--config", str(tmp_path / "missing.ini")]) == 2
        first.close()
        monkeypatch.setattr(sys, "stderr", second)
        logging.getLogger("qap").info("after the swap")
        assert second.getvalue() == "INFO qap: after the swap\n"

    def test_default_log_level_silent(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("QAP_LOG", raising=False)
        main(["integrate", "--config", config_path, "--out", str(tmp_path)])
        assert capsys.readouterr().err == ""


def test_reading_a_run_loads_no_numpy():
    # a fresh interpreter, so no module of the test session is loaded; each
    # grid is read one row at a time before all its rows are built
    configs = ROOT / "configs"
    code = (
        "import io, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}]\n"
        "from qap import BlowUpError, eigenvalue, integrate\n"
        "from qap.config import load_config\n"
        "def read(grid):\n"
        "    grid.times, grid.row(-1), len(grid), grid.rows\n"
        "    grid.write_csv(io.StringIO())\n"
        f"classical = load_config({str(configs / 'classical.ini')!r})\n"
        f"caustic = load_config({str(configs / 'caustic.ini')!r})\n"
        "for method in ('rk4', 'rk4_adaptive'):\n"
        "    grid = integrate(classical.spec, classical.init, classical.step, method)\n"
        "    eigenvalue(grid)\n"
        "    read(grid)\n"
        "    try:\n"
        "        integrate(caustic.spec, caustic.init, caustic.step, method)\n"
        "    except BlowUpError as err:\n"
        "        read(err.partial)\n"
        "    else:\n"
        "        raise AssertionError(f'caustic.ini did not blow up with {method}')\n"
        "assert 'numpy' not in sys.modules, 'reading a run loaded numpy'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_only_a_search_loads_scipy(tmp_path, search_config):
    # a fresh interpreter, so no module of the test session is loaded
    configs = ROOT / "configs"
    # each kernel by the key (along, zero_amplitude, taped) a run asks
    # ``dynamics._kernel`` for; each run adds only the kernels it runs, and
    # the commands that never search only the row's and the zero-amplitude
    # row's: the classical config has sigma20 = 0, the quantum probe of
    # ``convergence`` does not
    row, zero = ("", False, False), ("", True, False)
    runs = [([cmd, "--config", str(configs / "classical.ini")], added) for cmd, added in
            (("integrate", [zero]), ("eigenvalue", []), ("scan-t0", []), ("convergence", [row]))]
    runs.append((["sweep-hbar", "--config", str(configs / "quantum_sweep.ini")], []))
    # the same search from in front of the caustic wall descends on the
    # coarse map and polishes at h with no Nelder-Mead
    front = tmp_path / "front.json"
    config = json.loads(Path(search_config).read_text())
    config["init"].update(S10=1.0, S20=0.5)
    front.write_text(json.dumps(config))
    # each search: its argv, the kernels it adds, and whether
    # scipy.optimize is loaded. The classical check runs the zero-amplitude
    # tangent kernel along S20 alone (sigma20 = 0), the quantum search
    # taped runs and, for its certificate, the tangent kernel along (S20,
    # sigma20)
    searches = [(["classical-check", "--config", str(configs / "classical.ini")],
                 [("S", True, False)], False),
                (["extremize", "--config", str(front)], [("", False, True), ("SG", False, False)],
                 False),
                (["extremize", "--config", search_config], [], True)]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}]\n"
        "import qap.cli\n"
        "kernel = sys.modules['qap.dynamics']._kernel\n"
        "rendered = []\n"
        "def check(added, what):\n"
        "    # the cache holds exactly the kernels rendered so far: as many, each a hit\n"
        "    rendered.extend(added)\n"
        "    info = kernel.cache_info()\n"
        "    assert info.currsize == len(rendered), f'{info.currsize} kernels after {what}'\n"
        "    for key in rendered:\n"
        "        kernel(*key)\n"
        "    assert kernel.cache_info().hits == info.hits + len(rendered), f'{what} rendered others'\n"
        "assert 'numpy' not in sys.modules, 'import qap.cli loaded numpy'\n"
        "check([], 'import qap.cli')\n"
        f"for i, (argv, added) in enumerate({runs!r}):\n"
        f"    assert qap.cli.main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}']) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, f'{argv[0]} loaded numpy'\n"
        "    check(added, argv)\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded before any search'\n"
        f"for i, (argv, added, scipy) in enumerate({searches!r}):\n"
        f"    assert qap.cli.main(argv + ['--out', {str(tmp_path)!r} + f'/s{{i}}']) == 0, argv\n"
        "    assert 'numpy' in sys.modules, f'{argv[0]} did not load numpy'\n"
        "    check(added, argv)\n"
        "    assert ('scipy.optimize' in sys.modules) == scipy, f'scipy.optimize after {argv}'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

"""Config grammar, CSV artifacts, determinism, and CLI exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbsim import cli, config
from cbsim.errors import ConfigurationError, ParseError
from conftest import count_phase_points

SRC_DIR = str(Path(cli.__file__).resolve().parents[1])


# -- parsing -------------------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg = config.parse_config("")
    assert cfg.scheme == "v_type"
    assert cfg.detuning == 0.0
    assert cfg.kr == 100.0
    assert cfg.coupling_mode == "vector"
    assert cfg.sweep_s is None and cfg.rabi is None


def test_logspace_sweep_parses():
    cfg = config.parse_config("detuning = 0\nsweep_s = logspace(0.01, 1000, 25)\n")
    assert len(cfg.sweep_s) == 25
    assert np.isclose(cfg.sweep_s[0], 0.01)
    assert np.isclose(cfg.sweep_s[-1], 1000.0)
    ratios = np.diff(np.log(cfg.sweep_s))
    assert np.allclose(ratios, ratios[0])


def test_explicit_sweep_list_parses():
    cfg = config.parse_config("sweep_s = 0.1, 0.5, 2.0")
    assert cfg.sweep_s == (0.1, 0.5, 2.0)


def test_comments_and_blank_lines_ignored():
    cfg = config.parse_config("# full-line comment\n\ndetuning = 3.5  # trailing\n")
    assert cfg.detuning == 3.5


def test_kr_constraint_rejected_with_key():
    with pytest.raises(ParseError) as exc:
        config.parse_config("kr = 5\n")
    assert "kr" in str(exc.value)
    assert "10" in str(exc.value)


def test_unknown_key_rejected_with_line():
    with pytest.raises(ParseError) as exc:
        config.parse_config("detuning = 1\nomega_rabi = 3\n")
    assert exc.value.line == 2
    assert exc.value.key == "omega_rabi"


def test_malformed_value_rejected():
    with pytest.raises(ParseError):
        config.parse_config("detuning = fast\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        config.parse_config("kr = 100\nkr = 120\n")


def test_unsorted_sweep_rejected():
    with pytest.raises(ParseError):
        config.parse_config("sweep_s = 1.0, 0.1\n")


def test_phase_grid_minimum_enforced():
    with pytest.raises(ParseError):
        config.parse_config("n_phase_a = 2\n")


def _expand_keys(name):
    """``n_phase_a/p`` -> ``n_phase_a``, ``n_phase_p``; other names unchanged."""
    stem, *tails = name.split("/")
    head = stem[:-1] if tails else stem
    return [stem] + [head + tail for tail in tails]


def test_documented_config_keys_match_parser():
    readme = (Path(SRC_DIR).parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config format", 1)[1].split("## Package layout", 1)[0]
    readme_keys = {key for row in section.splitlines() if row.startswith("| `")
                   for key in _expand_keys(row.split("`")[1])}
    lines = config.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    doc_keys = {line.split()[0] for line in lines[rules[1] + 1:rules[2]]
                if line[:1].strip()}
    assert readme_keys == set(config._PARSERS)
    assert doc_keys == set(config._PARSERS)


def test_negative_seed_rejected_with_line_and_key():
    with pytest.raises(ParseError) as info:
        config.parse_config("sweep_s = 0.5\nseed = -3\n")
    assert info.value.line == 2 and info.value.key == "seed"


def test_negative_seed_override_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "iso.cfg"
    cfg_path.write_text("sweep_s = 0.5\norientation_mode = isotropic\nn_configs = 1\n"
                        f"output_dir = {tmp_path}\n")
    assert cli.main(["alpha-sweep", str(cfg_path), "--seed", "-3"]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "alpha_sweep.csv").exists()


def test_orientation_vector_parses():
    cfg = config.parse_config("orientation = 0, 1, 0\norientation_mode = isotropic\n")
    assert cfg.orientation == (0.0, 1.0, 0.0)
    assert cfg.orientation_mode == "isotropic"


def test_config_propagates_into_physical_params():
    cfg = config.parse_config(
        "coupling_mode = scalar\nkr = 150\ndetuning = -3\norientation = 0, 0, 1\n")
    params = cfg.params(rabi=2.0)
    assert params.coupling_mode == "scalar"
    assert params.kr == 150.0
    assert params.detuning == -3.0
    assert params.orientation == (0.0, 0.0, 1.0)
    assert params.rabi == 2.0


# -- alpha-sweep artifact --------------------------------------------------------


SWEEP_CONFIG = "detuning = 0\nsweep_s = 0.5, 2.0\n"


def test_alpha_sweep_csv_round_trip(tmp_path):
    cfg = config.parse_config(SWEEP_CONFIG)
    cfg.output_dir = str(tmp_path)
    path, failures = cli.run_alpha_sweep(cfg)
    assert failures == 0
    metadata, header, rows = cli.read_csv(path)
    assert header == cli.ALPHA_HEADER.split(",")
    assert len(rows) == 2
    assert any(line.startswith("version") for line in metadata)
    assert any(line.startswith("seed") for line in metadata)
    assert any(line.startswith("sweep_s") for line in metadata)
    s_col = [float(r[0]) for r in rows]
    assert s_col == [0.5, 2.0]
    alphas = [float(r[6]) for r in rows]
    assert all(1.0 < a < 2.0 for a in alphas)


def test_alpha_sweep_deterministic_bytes(tmp_path):
    cfg1 = config.parse_config(SWEEP_CONFIG)
    cfg1.output_dir = str(tmp_path / "one")
    cfg2 = config.parse_config(SWEEP_CONFIG)
    cfg2.output_dir = str(tmp_path / "two")
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    p1, _ = cli.run_alpha_sweep(cfg1)
    p2, _ = cli.run_alpha_sweep(cfg2)
    b1 = p1.read_bytes().replace(str(cfg1.output_dir).encode(), b"")
    b2 = p2.read_bytes().replace(str(cfg2.output_dir).encode(), b"")
    assert b1 == b2
    # and rerunning in place is byte-identical
    p1_again, _ = cli.run_alpha_sweep(cfg1)
    assert p1.read_bytes() == p1_again.read_bytes()


def test_alpha_sweep_lf_endings_and_precision(tmp_path):
    cfg = config.parse_config("sweep_s = 0.5\n")
    cfg.output_dir = str(tmp_path)
    path, _ = cli.run_alpha_sweep(cfg)
    raw = path.read_bytes()
    assert b"\r" not in raw
    _, _, rows = cli.read_csv(path)
    # full double precision round-trips through the text format
    value = float(rows[0][6])
    assert f"{value:.17g}" == rows[0][6]


def test_alpha_sweep_records_point_failures(tmp_path, monkeypatch):
    from cbsim import cbs as cbs_module
    from cbsim.errors import ConditioningError

    real = cbs_module.cbs_components

    def failing(scheme, params, s=None, **kwargs):
        if s is not None and s > 1.0:
            raise ConditioningError("synthetic failure")
        return real(scheme, params, s=s, **kwargs)

    monkeypatch.setattr(cbs_module, "cbs_components", failing)
    cfg = config.parse_config("sweep_s = 0.5, 2.0\n")
    cfg.output_dir = str(tmp_path)
    path, failures = cli.run_alpha_sweep(cfg)
    assert failures == 1
    _, _, rows = cli.read_csv(path)
    assert rows[0][-1] == ""
    assert "ConditioningError" in rows[1][-1]
    assert rows[1][2] == ""  # numeric columns left empty on failure


def test_alpha_sweep_requires_sweep_key(tmp_path):
    cfg = config.parse_config("detuning = 1\n")
    cfg.output_dir = str(tmp_path)
    with pytest.raises(ParseError):
        cli.run_alpha_sweep(cfg)


def test_cli_main_alpha_sweep_and_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SWEEP_CONFIG + f"output_dir = {tmp_path}\n")
    code = cli.main(["alpha-sweep", str(cfg_path), "--seed", "17"])
    assert code == 0
    metadata, _, _ = cli.read_csv(tmp_path / "alpha_sweep.csv")
    assert "seed = 17" in metadata


def test_cli_main_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("kr = 5\n")
    assert cli.main(["alpha-sweep", str(cfg_path)]) == 1
    assert "ERROR:" in capsys.readouterr().err


def test_cli_main_missing_config_file(tmp_path, capsys):
    assert cli.main(["alpha-sweep", str(tmp_path / "absent.cfg")]) == 1
    assert "ERROR:" in capsys.readouterr().err


def test_alpha_sweep_reproduces_limit_rows(tmp_path):
    cfg = config.parse_config("detuning = 0\nsweep_s = logspace(0.001, 1000, 3)\n")
    cfg.output_dir = str(tmp_path)
    path, failures = cli.run_alpha_sweep(cfg)
    assert failures == 0
    _, _, rows = cli.read_csv(path)
    alphas = {float(r[0]): float(r[6]) for r in rows}
    assert abs(alphas[0.001] - 2.0) <= 0.02
    assert abs(alphas[1000.0] / (23.0 / 21.0) - 1.0) <= 0.02


def test_detuned_sweep_contains_anti_enhancement_row(tmp_path):
    cfg = config.parse_config("detuning = 20\nsweep_s = 0.5, 0.7\n")
    cfg.output_dir = str(tmp_path)
    path, _ = cli.run_alpha_sweep(cfg)
    _, _, rows = cli.read_csv(path)
    alphas = [float(r[6]) for r in rows]
    c2_inels = [float(r[5]) for r in rows]
    assert any(a < 1.0 for a in alphas)
    assert any(c < 0.0 for c in c2_inels)


def test_isotropic_sweep_runs_and_is_seeded(tmp_path):
    base = "sweep_s = 0.5\norientation_mode = isotropic\nn_configs = 2\nseed = 5\n"
    cfg = config.parse_config(base)
    cfg.output_dir = str(tmp_path)
    path, failures = cli.run_alpha_sweep(cfg)
    assert failures == 0
    _, _, rows = cli.read_csv(path)
    first_alpha = float(rows[0][6])
    assert 1.0 < first_alpha < 2.0
    # same seed reproduces the identical row
    path2, _ = cli.run_alpha_sweep(cfg)
    _, _, rows2 = cli.read_csv(path2)
    assert rows == rows2


def test_import_loads_no_process_pool():
    code = ("import sys, cbsim; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC_DIR}).stdout
    assert out.strip() == "[]"


#: A small run of each command: (runner, config text without ``output_dir``).
SMALL_RUNS = {"alpha-sweep": (cli.run_alpha_sweep, "sweep_s = 0.5, 2\n"),
              "spectrum": (cli.run_spectrum, "rabi = 8\n")}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_workers_other_than_one_rejected_before_solving(tmp_path, monkeypatch, command):
    calls = count_phase_points(monkeypatch)
    run, text = SMALL_RUNS[command]
    cfg = config.parse_config(text)
    cfg.output_dir = str(tmp_path)
    with pytest.raises(ConfigurationError):
        run(cfg, workers=2)
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
@pytest.mark.parametrize("missing", ["output_dir", "--output"])
def test_missing_output_directory_rejected_before_solving(tmp_path, monkeypatch, capsys,
                                                          command, missing):
    calls = count_phase_points(monkeypatch)
    absent = tmp_path / "absent"
    cfg_path = tmp_path / "run.cfg"
    argv = [command, str(cfg_path)]
    text = SMALL_RUNS[command][1]
    if missing == "output_dir":
        cfg_path.write_text(text + f"output_dir = {absent}\n")
    else:
        cfg_path.write_text(text + f"output_dir = {tmp_path}\n")
        argv += ["--output", str(absent / "out.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("ERROR:") == 1 and "output_dir" in err and str(absent) in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_detection_phase_grid_key_rejected_before_solving(tmp_path, monkeypatch, capsys):
    # b is averaged in closed form, so it has no grid-size key
    text = f"sweep_s = 0.5\nn_phase_b = 8\noutput_dir = {tmp_path}\n"
    with pytest.raises(ParseError) as info:
        config.parse_config(text)
    assert info.value.line == 2 and info.value.key == "n_phase_b"
    calls = count_phase_points(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main(["alpha-sweep", str(cfg_path)]) == 1
    assert "n_phase_b" in capsys.readouterr().err
    assert calls == []


# -- spectrum artifact -------------------------------------------------------------


SPECTRUM_CONFIG = ("rabi = 8\nomega_span = 40\nomega_step = 0.5\n"
                   "refine_step = 0.1\nrefine_halfwidth = 2\n")


def test_spectrum_csv_and_report(tmp_path):
    cfg = config.parse_config(SPECTRUM_CONFIG)
    cfg.output_dir = str(tmp_path)
    csv_path, report_path, result = cli.run_spectrum(cfg)
    metadata, header, rows = cli.read_csv(csv_path)
    assert header == cli.SPECTRUM_HEADER.split(",")
    assert len(rows) == result.background.omega.size
    omegas = np.array([float(r[0]) for r in rows])
    assert np.isclose(omegas.min(), -40.0) and np.isclose(omegas.max(), 40.0)
    report = report_path.read_text()
    assert "interference / background area ratio" in report
    assert "alpha" in report


def test_spectrum_coverage_validated_before_solving(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"rabi = 100\nomega_span = 150\noutput_dir = {tmp_path}\n")
    assert cli.main(["spectrum", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "ERROR:" in err and "cover" in err


def test_spectrum_requires_rabi(tmp_path):
    cfg = config.parse_config("detuning = 1\n")
    cfg.output_dir = str(tmp_path)
    with pytest.raises(ParseError):
        cli.run_spectrum(cfg)


# -- peaks and check ---------------------------------------------------------------


def test_cli_peaks_output(capsys):
    assert cli.main(["peaks", "--rabi", "100", "--detuning", "20"]) == 0
    out = capsys.readouterr().out
    assert "autler_townes_plus" in out
    assert "+40.99019514" in out
    assert "-60.99019514" in out


def test_cli_check_passes(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_check_reports_failing_steady_state_and_continues(monkeypatch, capsys):
    from cbsim import solver
    from cbsim.errors import ConditioningError

    def failing_steady_state(liou):
        raise ConditioningError("forced steady-state failure")

    monkeypatch.setattr(solver, "steady_state", failing_steady_state)
    assert cli.main(["check"]) == 2
    out = capsys.readouterr().out
    assert ("FAIL - steady-state density invariants (forced steady-state failure)"
            in out)
    for later in ("elastic reciprocity (detuning 0)", "elastic reciprocity (detuning 20)",
                  "inverse-square exchange scaling", "phase-grid refinement (4 vs 8)",
                  "weak-field enhancement = 2"):
        assert f"PASS - {later}" in out

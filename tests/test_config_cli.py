"""Config grammar, CSV artifacts, determinism, and CLI exit codes."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbsim import atoms, cbs, cli, config, liouvillian as lv, spectra
from cbsim.errors import ConfigurationError, DomainError, ParseError
from conftest import count_phase_points, forbid_builders, plant_failure_at
from oracles import read_csv

SRC_DIR = str(Path(cli.__file__).resolve().parents[1])


# -- parsing -------------------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg = config.parse_config("")
    assert cfg.scheme == "v_type"
    assert cfg.detuning == 0.0
    assert cfg.kr == 100.0
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


@pytest.mark.parametrize("line,key,match", [
    ("rabi 5", None, "expected 'key = value', got 'rabi 5'"),  # no '=', so no key
    ("rabi =", "rabi", "missing value"),
    ("orientation_mode = sideways", "orientation_mode", "must be one of fixed, isotropic"),
    ("sweep_s = logspace(0, 1, 3)", "sweep_s", "bounds must be finite and positive"),
], ids=["no_equals", "empty_value", "orientation_mode", "logspace_zero"])
def test_malformed_line_rejected_with_line_and_key(line, key, match):
    with pytest.raises(ParseError, match=match) as info:
        config.parse_config(f"detuning = 1\n{line}\n")
    assert (info.value.line, info.value.key) == (2, key)
    assert str(info.value).startswith("line 2: " + (f"key '{key}': " if key else ""))


def test_run_config_defaults_are_the_library_defaults():
    cfg, params = config.RunConfig(), lv.PhysicalParams()
    assert (cfg.detuning, cfg.kr, cfg.orientation) == (
        params.detuning, params.kr, params.orientation)
    defaults = {name: p.default for name, p in
                inspect.signature(cbs.cbs_components_isotropic).parameters.items()}
    assert (cfg.n_phase_a, cfg.n_phase_p, cfg.n_configs, cfg.seed) == (
        defaults["n_a"], defaults["n_p"], defaults["n_configs"], defaults["seed"])
    # and the metadata echo of an empty config is unchanged
    assert config.parse_config("").echo_lines() == [
        "scheme = v_type", "detuning = 0.0", "kr = 100.0", "n_phase_a = 4",
        "n_phase_p = 4", "orientation_mode = fixed", "orientation = 1,0,0",
        "n_configs = 64", "seed = 0", "output_dir = ."]


def _raised(call):
    with pytest.raises((ConfigurationError, DomainError)) as info:
        call()
    return info.value


_V_TYPE = atoms.build_scheme(atoms.V_TYPE)

#: One bad value per ruled key, with the library call that rejects it.
_LIBRARY_RULES = {
    "scheme": ("two_level", lambda: cbs.sweep_alpha_collect(
        atoms.build_scheme(atoms.TWO_LEVEL), 0.0, [0.5])),
    "scheme-unknown": ("lambda", lambda: atoms.build_scheme("lambda")),
    "detuning": ("nan", lambda: lv.PhysicalParams(detuning=np.nan)),
    "kr": ("5", lambda: lv.PhysicalParams(kr=5.0)),
    "kr-huge": ("1e200", lambda: lv.PhysicalParams(kr=1e200)),
    "rabi": ("-1", lambda: lv.PhysicalParams(rabi=-1.0)),
    "orientation": ("0, 0, 0", lambda: lv.PhysicalParams(orientation=(0.0, 0.0, 0.0))),
    "orientation-short": ("1, 0", lambda: lv.PhysicalParams(orientation=(1.0, 0.0))),
    "sweep_s": ("logspace(1, 10, 0)", lambda: cbs.sweep_alpha_collect(_V_TYPE, 0.0, [])),
    "sweep_s-negative": ("-1, 2", lambda: cbs.sweep_alpha_collect(_V_TYPE, 0.0, [-1, 2])),
    "sweep_s-unsorted": ("2, 1", lambda: cbs.sweep_alpha_collect(_V_TYPE, 0.0, [2, 1])),
    "sweep_s-long": ("logspace(1, 10, 10001)", lambda: cbs.sweep_alpha_collect(
        _V_TYPE, 0.0, np.geomspace(1.0, 10.0, 10001))),
    "n_phase_a": ("2", lambda: cbs.cbs_components(_V_TYPE, lv.PhysicalParams(), n_a=2)),
    "n_phase_p": ("3", lambda: cbs.cbs_components(_V_TYPE, lv.PhysicalParams(), n_p=3)),
    "n_phase_a-large": ("65", lambda: cbs.cbs_components(_V_TYPE, lv.PhysicalParams(), n_a=65)),
    "n_phase_p-large": ("65", lambda: cbs.cbs_components(_V_TYPE, lv.PhysicalParams(), n_p=65)),
    "n_configs": ("0", lambda: cbs.cbs_components_isotropic(
        _V_TYPE, lv.PhysicalParams(), s=0.5, n_configs=0)),
    "n_configs-large": ("10001", lambda: cbs.cbs_components_isotropic(
        _V_TYPE, lv.PhysicalParams(), s=0.5, n_configs=10001)),
    "seed": ("-1", lambda: cbs.cbs_components_isotropic(
        _V_TYPE, lv.PhysicalParams(), s=0.5, seed=-1)),
    "omega_span": ("1e308", lambda: spectra.default_omega_grid(8.0, 0.0, span=1e308)),
    "omega_span-negative": ("-1", lambda: spectra.default_omega_grid(8.0, 0.0, span=-1.0)),
}


@pytest.mark.parametrize("case", sorted(_LIBRARY_RULES))
def test_config_rule_is_the_library_rule(case):
    # config and library cannot drift apart: the config error carries the
    # library's own message for the same value
    key = case.split("-")[0]
    value, library_call = _LIBRARY_RULES[case]
    with pytest.raises(ParseError) as info:
        config.parse_config(f"output_dir = .\n{key} = {value}\n")
    assert (info.value.line, info.value.key) == (2, key)
    assert str(info.value).endswith(str(_raised(library_call)))


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
    err = capsys.readouterr().err
    library = _raised(lambda: cbs.cbs_components_isotropic(
        _V_TYPE, lv.PhysicalParams(), s=0.5, seed=-3))
    assert "--seed" in err and err.rstrip("\n").endswith(str(library))
    assert not (tmp_path / "alpha_sweep.csv").exists()


def test_orientation_rule_is_the_library_rule():
    # any vector with a nonzero norm, as PhysicalParams accepts
    cfg = config.parse_config("orientation = 1e-13, 0, 0\n")
    assert cfg.params(rabi=1.0).orientation == (1e-13, 0.0, 0.0)
    # a norm that underflows to 0 is rejected, naming line and key
    with pytest.raises(ParseError, match="nonzero norm") as exc:
        config.parse_config("kr = 150\norientation = 1e-170, 1e-170, 0\n")
    assert (exc.value.line, exc.value.key) == (2, "orientation")
    with pytest.raises(ConfigurationError, match="nonzero norm"):
        lv.PhysicalParams(orientation=(1e-170, 1e-170, 0.0))
    # so is one that overflows to inf, which would make T the identity
    with pytest.raises(ParseError, match="finite nonzero norm") as exc:
        config.parse_config("kr = 150\norientation = 1e200, 1e200, 0\n")
    assert (exc.value.line, exc.value.key) == (2, "orientation")


def test_orientation_vector_parses():
    cfg = config.parse_config("orientation = 0, 1, 0\norientation_mode = isotropic\n")
    assert cfg.orientation == (0.0, 1.0, 0.0)
    assert cfg.orientation_mode == "isotropic"


def test_config_propagates_into_physical_params():
    cfg = config.parse_config(
        "kr = 150\ndetuning = -3\norientation = 0, 0, 1\n")
    params = cfg.params(rabi=2.0)
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
    metadata, header, rows = read_csv(path)
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
    _, _, rows = read_csv(path)
    # full double precision round-trips through the text format
    value = float(rows[0][6])
    assert f"{value:.17g}" == rows[0][6]


def test_alpha_sweep_records_point_failures(tmp_path, monkeypatch):
    # planted below cbs_components, which a sweep no longer calls per point
    plant_failure_at(monkeypatch, 2.0)
    cfg = config.parse_config("sweep_s = 0.5, 2.0\n")
    cfg.output_dir = str(tmp_path)
    path, failures = cli.run_alpha_sweep(cfg)
    assert failures == 1
    _, _, rows = read_csv(path)
    assert rows[0][-1] == ""
    assert "ConditioningError" in rows[1][-1]
    assert rows[1][2] == ""  # numeric columns left empty on failure


@pytest.mark.parametrize("mode", ["", "orientation_mode = isotropic\nn_configs = 2\n"],
                         ids=["fixed", "isotropic"])
def test_failed_stack_fails_only_the_row_of_its_failing_point(tmp_path, monkeypatch,
                                                              capsys, mode):
    # the stack of all four saturations fails; solved one by one, only s = 2 does
    def data_lines(name):
        path = tmp_path / name
        path.mkdir()
        (path / "run.cfg").write_text(f"sweep_s = 0.5, 1, 2, 4\n{mode}output_dir = {path}\n")
        code = cli.main(["alpha-sweep", str(path / "run.cfg")])
        lines = (path / "alpha_sweep.csv").read_bytes().split(b"\n")
        return code, [line for line in lines if not line.startswith(b"#")]

    clean_code, clean = data_lines("clean")
    plant_failure_at(monkeypatch, 2.0)
    code, planted = data_lines("planted")
    assert (clean_code, code) == (0, 2)
    assert capsys.readouterr().err.count("ERROR") == 1
    assert b"ConditioningError: synthetic failure" in planted[3]
    del clean[3], planted[3]
    assert planted == clean


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
    metadata, _, _ = read_csv(tmp_path / "alpha_sweep.csv")
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
    _, _, rows = read_csv(path)
    alphas = {float(r[0]): float(r[6]) for r in rows}
    assert abs(alphas[0.001] - 2.0) <= 0.02
    assert abs(alphas[1000.0] / (23.0 / 21.0) - 1.0) <= 0.02


def test_detuned_sweep_contains_anti_enhancement_row(tmp_path):
    cfg = config.parse_config("detuning = 20\nsweep_s = 0.5, 0.7\n")
    cfg.output_dir = str(tmp_path)
    path, _ = cli.run_alpha_sweep(cfg)
    _, _, rows = read_csv(path)
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
    _, _, rows = read_csv(path)
    first_alpha = float(rows[0][6])
    assert 1.0 < first_alpha < 2.0
    # same seed reproduces the identical row
    path2, _ = cli.run_alpha_sweep(cfg)
    _, _, rows2 = read_csv(path2)
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
    assert err.count("ERROR:") == 1 and f"key '{missing}'" in err and str(absent) in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("command,artifact", [
    ("alpha-sweep", None), ("spectrum", None), ("alpha-sweep", "alpha_sweep.csv"),
    ("spectrum", "spectrum.csv"), ("spectrum", "spectrum_peaks.txt")])
def test_directory_output_path_rejected_before_solving(tmp_path, monkeypatch, capsys,
                                                       command, artifact):
    # a directory named by --output, or one in the place of a derived artifact
    calls = count_phase_points(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUNS[command][1] + f"output_dir = {tmp_path}\n")
    taken = tmp_path / (artifact or "taken")
    taken.mkdir()
    argv = [command, str(cfg_path)] + (["--output", str(taken)] if artifact is None else [])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    key = "--output" if artifact is None else "output_dir"
    assert err == f"ERROR: key '{key}': output path {str(taken)!r} is a directory\n"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.cfg", taken.name])
    assert list(taken.iterdir()) == []


def _rejected_before_solving(tmp_path, monkeypatch, capsys, line, key, match):
    """Parsing ``sweep_s = 0.5`` with ``line`` second raises a ParseError
    naming line 2, ``key`` and ``match``; ``cbsim alpha-sweep`` exits 1 with
    no steady state solved and no CSV written."""
    text = f"sweep_s = 0.5\n{line}\noutput_dir = {tmp_path}\n"
    with pytest.raises(ParseError, match=match) as info:
        config.parse_config(text)
    assert info.value.line == 2 and info.value.key == key
    calls = count_phase_points(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main(["alpha-sweep", str(cfg_path)]) == 1
    assert key in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "alpha_sweep.csv").exists()


def test_detection_phase_grid_key_rejected_before_solving(tmp_path, monkeypatch, capsys):
    # b is averaged in closed form, so it has no grid-size key
    _rejected_before_solving(tmp_path, monkeypatch, capsys, "n_phase_b = 8", "n_phase_b",
                             "unknown key")


def test_coupling_mode_key_rejected_before_solving(tmp_path, monkeypatch, capsys):
    # the model has one coupling: the vector exchange feeds the detected channel
    _rejected_before_solving(tmp_path, monkeypatch, capsys, "coupling_mode = scalar",
                             "coupling_mode", "unknown key")


@pytest.mark.parametrize("key", ["omega_step", "refine_step", "refine_halfwidth"])
def test_frequency_step_keys_rejected_before_solving(tmp_path, monkeypatch, capsys, key):
    # the steps are the library's own, converged at the defaults
    _rejected_before_solving(tmp_path, monkeypatch, capsys, f"{key} = 0.5", key,
                             "unknown key")


def test_scheme_without_detected_channel_rejected_before_solving(tmp_path, monkeypatch,
                                                                 capsys):
    # two_level has no sigma-minus transition, so every point would fail
    _rejected_before_solving(tmp_path, monkeypatch, capsys, "scheme = two_level", "scheme",
                             "no sigma_minus transition")


def test_kr_beyond_finite_intensities_rejected_before_solving(tmp_path, monkeypatch, capsys):
    # (1.5 / kr)^2 goes subnormal past kr ~ 1e154 and every point used to fail
    _rejected_before_solving(tmp_path, monkeypatch, capsys, "kr = 1e200", "kr",
                             "kr <= 1e\\+150")


@pytest.mark.parametrize("command,text,key,library_call", [
    ("alpha-sweep", "kr = 1e150\nsweep_s = 1e-20, 1e-12\n", "sweep_s",
     lambda: cbs.sweep_alpha_collect(_V_TYPE, 0.0, [1e-20, 1e-12],
                                     params=lv.PhysicalParams(kr=1e150))),
    ("spectrum", "kr = 1e150\nrabi = 1e-3\n", "rabi",
     lambda: cbs.cbs_spectrum(_V_TYPE, lv.PhysicalParams(rabi=1e-3, kr=1e150))),
], ids=["sweep", "spectrum"])
def test_subnormal_intensities_rejected_before_solving(tmp_path, monkeypatch, capsys, command,
                                                       text, key, library_call):
    # s = 1e-20 at kr = 1e150 puts the raw intensities near 1e-321, subnormal:
    # the sweep wrote alpha 1.99824561 there and exactly 2 at s = 1e-12, exit 0
    with pytest.raises(DomainError) as library:
        library_call()
    text += f"output_dir = {tmp_path}\n"
    with pytest.raises(ParseError) as info:
        config.parse_config(text)
    assert (info.value.line, info.value.key) == (2, key)
    assert str(library.value) in str(info.value)
    calls = count_phase_points(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("ERROR:") == 1 and key in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("text,key,library_call", [
    ("sweep_s = 1\ndetuning = 1e200\n", "detuning",
     lambda: cbs.sweep_alpha_collect(_V_TYPE, 1e200, [1.0])),
    ("detuning = 1e100\nsweep_s = 1, 1e300\n", "sweep_s",
     lambda: cbs.sweep_alpha_collect(_V_TYPE, 1e100, [1.0, 1e300])),
], ids=["detuning", "sweep_s"])
def test_sweep_drive_beyond_bound_rejected_before_solving(tmp_path, monkeypatch, capsys, text,
                                                          key, library_call):
    # detuning = 1e200 used to end the sweep in an OverflowError traceback, exit 1
    # with no ERROR line; the bound names the detuning when it is too large
    with pytest.raises(DomainError) as library:
        library_call()
    text += f"output_dir = {tmp_path}\n"
    with pytest.raises(ParseError) as info:
        config.parse_config(text)
    assert (info.value.line, info.value.key) == (2, key)
    assert str(info.value).endswith(str(library.value))
    calls = count_phase_points(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main(["alpha-sweep", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("ERROR:") == 1 and f"key '{key}'" in err and "Traceback" not in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_weak_sweep_at_default_kr_still_written(tmp_path):
    # the same saturations at kr = 100 are far from the subnormal range
    cfg = config.parse_config(f"sweep_s = 1e-20, 1e-12\noutput_dir = {tmp_path}\n")
    path, failures = cli.run_alpha_sweep(cfg)
    assert failures == 0
    alphas = [cbs.cbs_components(_V_TYPE, lv.PhysicalParams(), s=s, detuning=0.0).alpha
              for s in (1e-20, 1e-12)]
    assert [float(row[6]) for row in read_csv(path)[2]] == alphas


# -- spectrum artifact -------------------------------------------------------------


SPECTRUM_CONFIG = "rabi = 8\nomega_span = 40\n"


def test_spectrum_with_non_positive_background_area_writes_nothing(tmp_path, monkeypatch,
                                                                    capsys):
    original = spectra.real_pole_sum
    monkeypatch.setattr(spectra, "real_pole_sum", lambda *args: -original(*args))
    (tmp_path / "run.cfg").write_text(SPECTRUM_CONFIG + f"output_dir = {tmp_path}\n")
    assert cli.main(["spectrum", str(tmp_path / "run.cfg")]) == 2
    err = capsys.readouterr().err
    assert err == "ERROR: background spectrum integral is not positive\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_spectrum_csv_and_report(tmp_path):
    cfg = config.parse_config(SPECTRUM_CONFIG)
    cfg.output_dir = str(tmp_path)
    csv_path, report_path, result = cli.run_spectrum(cfg)
    metadata, header, rows = read_csv(csv_path)
    assert header == cli.SPECTRUM_HEADER.split(",")
    assert len(rows) == result.background.omega.size
    omegas = np.array([float(r[0]) for r in rows])
    assert np.isclose(omegas.min(), -40.0) and np.isclose(omegas.max(), 40.0)
    report = report_path.read_text()
    assert "interference / background area ratio" in report
    assert "alpha" in report


def test_spectrum_coverage_validated_before_solving(tmp_path, monkeypatch, capsys):
    # a span that misses a predicted peak is a configuration error of omega_span
    calls = count_phase_points(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    # at rabi 1e307 the peak windows lie at offsets that overflow a float
    for rabi in ("100", "1e307"):
        cfg_path.write_text(f"rabi = {rabi}\nomega_span = 150\noutput_dir = {tmp_path}\n")
        assert cli.main(["spectrum", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR:") and err.count("\n") == 1 and "cover" in err
        assert "line 2: key 'omega_span'" in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_isotropic_spectrum_rejected_before_solving(tmp_path, monkeypatch, capsys):
    # a spectrum is computed for the fixed axis only, so no orientation average
    # may be claimed for it
    calls = count_phase_points(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"rabi = 5\ndetuning = 1\norientation_mode = isotropic\n"
                        f"n_configs = 3\noutput_dir = {tmp_path}\n")
    assert cli.main(["spectrum", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR:") and err.count("\n") == 1 and "Traceback" not in err
    assert "line 3: key 'orientation_mode'" in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_weak_drive_spectrum_of_roundoff_writes_nothing(tmp_path, capsys):
    # at rabi 1e-6, detuning 5 the background density is roundoff of both signs
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"rabi = 1e-6\ndetuning = 5\noutput_dir = {tmp_path}\n")
    assert cli.main(["spectrum", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: background spectrum density dips to -")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_spectrum_without_detected_light_fails_cleanly(tmp_path, capsys):
    # along z no exchange turns sigma-plus light into sigma-minus: the kernel
    # has no coupled coordinates, no poles, and the background is zero
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"rabi = 5\ndetuning = 1\norientation = 0,0,1\noutput_dir = {tmp_path}\n")
    assert cli.main(["spectrum", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR:") and err.count("\n") == 1 and "Traceback" not in err
    assert "background intensity 0.0 is not positive" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_csv_rows_match_per_value_formatting(tmp_path):
    # one %-template over Python floats prints what f"{v:.17g}" prints per value
    # +-1.8e308 overflows to +-inf; the largest finite double is 1.7976931348623157e308
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    values = np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 1.8e308, -1.8e308,
                       huge, -huge, 1e-300, -1e300, 0.1, 1.0 / 3.0, 123456789.0, -7.0])
    columns = (values, -values[::-1], np.roll(values, 5))
    rows = cli._spectrum_rows(*columns)
    expected = [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    assert rows == expected
    printed = {v for row in rows for v in row.split(",")}
    assert {"-0", "4.9406564584124654e-324", "-inf", "1.7976931348623157e+308"} <= printed
    sweep_row = cli.ALPHA_ROW % tuple(values[:7].tolist())
    assert sweep_row == ",".join(f"{v:.17g}" for v in values[:7]) + ","
    cfg = config.parse_config(SPECTRUM_CONFIG)
    path = cli.write_csv(tmp_path / "rows.csv", "spectrum", cfg, cli.SPECTRUM_HEADER, rows)
    assert path.read_bytes().decode().splitlines()[-len(rows):] == expected


def test_oversized_spectrum_grid_rejected_before_solving(tmp_path, monkeypatch, capsys):
    # the auto span of rabi 1e7 is 2.5e7: a grid of about 5e8 frequencies
    calls = count_phase_points(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"rabi = 1e7\noutput_dir = {tmp_path}\n")
    assert cli.main(["spectrum", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR:") and err.count("\n") == 1 and "Traceback" not in err
    assert "points" in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_auto_span_error_names_the_key_that_set_the_span(tmp_path, monkeypatch, capsys):
    # the auto span follows the larger of rabi and |detuning|
    calls = count_phase_points(monkeypatch)
    for text, named in (("rabi = 1\ndetuning = 1e7\n", "line 2: key 'detuning'"),
                        ("detuning = -1e7\nrabi = 1\n", "line 1: key 'detuning'"),
                        ("detuning = 1\nrabi = 1e7\n", "line 2: key 'rabi'")):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text + f"output_dir = {tmp_path}\n")
        assert cli.main(["spectrum", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR: {named}: ") and "points" in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_sweep_length_bounded_before_the_sweep_is_built(tmp_path, monkeypatch, capsys):
    # logspace(1, 10, 1e10) would be an 80 GB array: its length is checked first
    def geomspace(*args, **kwargs):
        raise AssertionError("an oversized sweep was built")

    cbs._check_sweep(np.ones(cbs.MAX_SWEEP_POINTS))  # the longest allowed sweep
    monkeypatch.setattr(np, "geomspace", geomspace)
    text = "sweep_s = logspace(1, 10, 10000000000)\n"
    with pytest.raises(ParseError) as info:
        config.parse_config(text)
    assert (info.value.line, info.value.key) == (1, "sweep_s")
    assert "10,000,000,000" in str(info.value)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text + f"output_dir = {tmp_path}\n")
    assert cli.main(["alpha-sweep", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR:") and err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("command,text,key", [
    ("alpha-sweep", "sweep_s = 0.5\nn_phase_a = 1000000000\n", "n_phase_a"),
    ("alpha-sweep", "sweep_s = 0.5\norientation_mode = isotropic\nn_configs = 1000000000\n",
     "n_configs"),
    ("spectrum", "rabi = 8\nn_phase_p = 1000000000\n", "n_phase_p"),
], ids=["sweep_n_phase_a", "sweep_n_configs", "spectrum_n_phase_p"])
def test_oversized_grid_or_average_rejected_before_anything_is_built(tmp_path, monkeypatch,
                                                                     capsys, command, text, key):
    # these used to pass parse time and end in a MemoryError traceback
    forbid_builders(monkeypatch)
    with pytest.raises(ParseError, match="too large") as info:
        config.parse_config(text)
    assert (info.value.line, info.value.key) == (text.count("\n"), key)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text + f"output_dir = {tmp_path}\n")
    assert cli.main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR:") and err.count("\n") == 1 and f"key '{key}'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_cli_main_spectrum_writes_both_artifacts(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text(SMALL_RUNS["spectrum"][1] + f"output_dir = {tmp_path}\n")
    assert cli.main(["spectrum", str(tmp_path / "run.cfg")]) == 0
    csv_path, report_path = tmp_path / "spectrum.csv", tmp_path / "spectrum_peaks.txt"
    assert capsys.readouterr().out == f"wrote {csv_path}\nwrote {report_path}\n"
    metadata, header, rows = read_csv(csv_path)
    assert "rabi = 8.0" in metadata and header == cli.SPECTRUM_HEADER.split(",") and rows
    assert report_path.read_text().startswith("spectrum peak report\n")


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


@pytest.mark.parametrize("flag,value", [("--rabi", "-5"), ("--rabi", "nan"), ("--rabi", "inf"),
                                        ("--detuning", "nan"), ("--detuning", "inf")])
def test_cli_peaks_rejects_bad_drive(flag, value, capsys):
    # the rules of the config keys: rabi finite and >= 0, detuning finite
    argv = ["peaks", "--rabi", "100", "--detuning", "20"]
    argv[argv.index(flag) + 1] = value
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ERROR:") and err.count("\n") == 1 and flag in err
    library = _raised(lambda: lv.PhysicalParams(**{flag[2:]: float(value)}))
    assert err.rstrip("\n").endswith(str(library))


@pytest.mark.parametrize("argv", [["peaks", "--rabi", "abc"],
                                  ["alpha-sweep", "x.cfg", "--seed", "x"], []])
def test_cli_malformed_command_line_is_a_configuration_error(argv, capsys):
    # exit 2 is kept for numerical failures, so argparse must not exit with it
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ERROR:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["peaks", "--help"]])
def test_cli_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    assert "usage: cbsim" in capsys.readouterr().out


def test_cli_check_passes(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "PASS - phase-point symmetries" in out
    assert "PASS - spectral subspace" in out
    assert "PASS - sweep stack" in out
    assert out.count("PASS - ") == 13


def test_cli_check_reports_a_spectral_subspace_that_drops_a_coordinate(monkeypatch, capsys):
    original = spectra._coupled
    monkeypatch.setattr(spectra, "_coupled", lambda *args: original(*args)[1:])
    assert cli.main(["check"]) == 2
    assert "FAIL - spectral subspace" in capsys.readouterr().out


def test_cli_check_reports_a_generator_that_does_not_preserve_the_trace(monkeypatch, capsys):
    # a population that leaks at rate 1e-6 out of the trace: one column of
    # the trace rows no longer sums to zero
    original = lv.GeneratorStack.standard

    def leaking(stack, i):
        gen = original(stack, i)
        gen[0, 0] -= 1e-6
        return gen

    monkeypatch.setattr(lv.GeneratorStack, "standard", leaking)
    assert cli.main(["check"]) == 2
    assert "FAIL - trace preservation (max trace-row column sum = 1.00e-06)" in \
        capsys.readouterr().out


def test_cli_check_reports_a_broken_phase_point_symmetry(monkeypatch, capsys):
    # a crossed weight whose drive phase is off by 0.1 no longer has the mirror
    original = cbs._b_harmonics
    monkeypatch.setattr(cbs, "_b_harmonics",
                        lambda mat, weight: original(mat, weight * np.exp(0.1j)))
    assert cli.main(["check"]) == 2
    assert "FAIL - phase-point symmetries" in capsys.readouterr().out


def test_cli_check_reports_a_sweep_stack_off_its_pointwise_solves(monkeypatch, capsys):
    # a drive off by 1e-9 whenever a stack holds several saturations
    original = cbs.assemble

    def shifted(scheme, params, phases, rabi=None):
        if rabi is not None and len(set(np.asarray(rabi).tolist())) > 1:
            rabi = np.asarray(rabi) * (1.0 + 1e-9)
        return original(scheme, params, phases, rabi=rabi)

    monkeypatch.setattr(cbs, "assemble", shifted)
    assert cli.main(["check"]) == 2
    assert "FAIL - sweep stack (max relative deviation = " in capsys.readouterr().out


def test_cli_check_reports_a_failed_sweep_point(monkeypatch, capsys):
    plant_failure_at(monkeypatch, 10.0)  # a saturation that only the sweep solves
    assert cli.main(["check"]) == 2
    assert ("FAIL - sweep stack (ConditioningError: synthetic failure)"
            in capsys.readouterr().out)


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

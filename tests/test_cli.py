import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqdeg
from eqdeg.cli import (
    EXIT_DEGENERATE,
    EXIT_INVALID,
    EXIT_OK,
    ConfigError,
    bundled_example_path,
    load_config,
    main,
    run_analyze,
    validate_report,
)


def report_sha256(result):
    """sha256 of the report.json bytes that ``eqdeg analyze`` writes."""
    data = json.dumps(result.report_json(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(data.encode()).hexdigest()


def d1_config(mu_values=("-2", "-2")):
    return {
        "group": "D1",
        "representation": "natural",
        "delays": 1,
        "linearization": {"mu": {"1": [mu_values[0]], "2": [mu_values[1]]}},
    }


def test_load_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config({"group": "D6"})


def test_run_analyze_small_group():
    result = run_analyze(d1_config())
    assert result.exit_code == EXIT_OK
    assert result.report is not None
    assert result.report.conclusions
    payload = result.report_json()
    assert validate_report(payload) == []
    text = result.report_text()
    assert "guaranteed non-constant solution classes" in text


def test_degenerate_exit_code(tmp_path):
    config = d1_config(("0", "0"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["analyze", str(path), "--out", str(tmp_path)])
    assert code == EXIT_DEGENERATE


def test_degenerate_with_s_runs_parity_route():
    config = d1_config(("-4", "-4"))
    result = run_analyze(config)
    assert result.exit_code == EXIT_DEGENERATE  # resonance at k = 2
    result2 = run_analyze(config, s=1)
    assert result2.exit_code == EXIT_OK
    assert result2.report.omega is None
    assert all(c.mode % 2 == 1 for c in result2.report.conclusions)
    assert report_sha256(result2) == (
        "4b7ba9ae904b071d7c7afdb673157a2b6463377504f2b835a76fe0a90ef5b914"
    )


def test_malformed_json_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert main(["analyze", str(path)]) == EXIT_INVALID


def test_missing_key_exit_code(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"group": "D6"}))
    assert main(["analyze", str(path)]) == EXIT_INVALID


def test_lattice_subcommand(capsys):
    assert main(["lattice", "D6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "10 subgroup conjugacy classes (16 subgroups)" in out
    assert "|W|" in out


def test_burnside_subcommand(capsys):
    assert main(["burnside", "Z2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(Z1)*(Z1) = 2(Z1)" in out


def test_basic_deg_subcommand(capsys):
    assert main(["basic-deg", "D1", "0", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("deg(k=0, l=1) = (G)")


def test_spectrum_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d1_config()))
    assert main(["spectrum", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k=0" in out and "-" in out


def test_spectrum_rejects_complex_type_matrices(tmp_path, capsys):
    # Z3 on three nodes: the two nontrivial characters are of complex type
    config = {
        "group": "Z3",
        "representation": "natural",
        "delays": 1,
        "linearization": {
            "matrices": [[["-2", "0", "0"], ["0", "-2", "0"], ["0", "0", "-2"]]]
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["spectrum", str(path)]) == EXIT_INVALID
    assert "not of real type" in capsys.readouterr().err


def test_bundled_example_spectrum(capsys):
    path = bundled_example_path()
    assert path.exists()
    assert main(["spectrum", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    grid = [line.split()[1:] for line in out[1:]]
    assert grid[0] == ["-", "-", "-", "-"]
    assert grid[1] == ["-", "-", "-", "-"]
    assert grid[2] == ["+", "-", "-", "-"]
    assert grid[3] == ["+", "+", "+", "+"]


def test_reports_are_byte_stable(tmp_path):
    config = d1_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["analyze", str(path), "--out", str(out), "--json-only"]) == EXIT_OK
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    # the bytes are also pinned across versions of the engine
    assert hashlib.sha256(outs[0]).hexdigest() == (
        "c05073bf3696cef54ebdbc4a849b30ecd29fd46348ffbf063019216a2cfa5581"
    )


def test_console_script_help():
    # the child imports the same eqdeg as this process, installed or not
    src = str(Path(eqdeg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "eqdeg.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout


def test_bundled_example_full_run():
    config = load_config(bundled_example_path())
    result = run_analyze(config)
    assert result.exit_code == EXIT_OK
    assert len(result.report.conclusions) == 15
    assert all(abs(c.coefficient) == c.x_o == 1 for c in result.report.conclusions)
    payload = result.report_json()
    assert validate_report(payload) == []
    assert len(payload["spectrum"]["negative_blocks"]) == 11
    assert report_sha256(result) == (
        "62288c5e51f52e737983e886e163e04719c7e86f8e4381fe4c7438164779d03b"
    )


def test_verify_subcommand_small(tmp_path, capsys):
    config = {
        "group": "D1",
        "representation": "natural",
        "delays": 1,
        "linearization": {"matrices": [[["-2", "3/10"], ["3/10", "-2"]]]},
        "system": {
            "cubic": "1/2",
            "seed_component": 2,
            "seed_amplitude": 1.9,
            "fourier_modes": 16,
            "radius": 3.0,
            "growth_samples": 200,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["verify", str(path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert "growth_check" in out and "converged" in out


def test_triangle_network_pipeline():
    # a different symmetry group end to end: three nodes with S3 coupling
    config = {
        "group": "D3",
        "representation": "natural",
        "delays": 1,
        "linearization": {"mu": {"1": ["-2"], "3": ["-2"]}},
    }
    result = run_analyze(config)
    assert result.exit_code == EXIT_OK
    assert result.decomposition.multiplicities == (1, 0, 1)
    assert result.report.conclusions
    modes = {c.mode for c in result.report.conclusions}
    assert modes == {1}
    for c in result.report.conclusions:
        assert abs(c.coefficient) == c.x_o != 0
    assert report_sha256(result) == (
        "bd0606081e97b371c44bb734ee60a4512d1c2b1eda0cc3fbff16f0d680be6abf"
    )


def three_delay_config(group, leading):
    """mu[l] = [v_l, -1, -1] on every character row l of a preset group."""
    mu = {str(l + 1): [v, "-1", "-1"] for l, v in enumerate(leading)}
    return {
        "group": group,
        "representation": "natural",
        "delays": 3,
        "linearization": {"mu": mu},
    }


@pytest.mark.parametrize(
    "group, leading, digest",
    [
        (
            "D4",
            ["-15/2", "-13/4", "-17/3", "-1/3", "-11/2"],
            "fbfb85fb726023739d0bf80d0b017991bc5910631315ab361549ffd8fcc508db",
        ),
        (
            "S3",
            ["-15/2", "-17/3", "-13/4"],
            "ba8254f07d87c7c0041efa1fcc6895105828d03541adc9b6ac65a43d38eef9af",
        ),
    ],
)
def test_negative_blocks_at_modes_up_to_three_are_byte_stable(group, leading, digest):
    # negative blocks at modes 0-3 fold classes by 3 and multiply classes
    # whose reflection axes sit on grids of 2 and 3 points
    result = run_analyze(three_delay_config(group, leading))
    assert result.exit_code == EXIT_OK
    modes = {k for (k, _, _) in result.spectral.negative_factors()}
    assert {0, 1, 2, 3} <= modes
    assert report_sha256(result) == digest

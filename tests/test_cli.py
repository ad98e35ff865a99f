import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import eqdeg
from eqdeg import cli
from eqdeg.chartab import SignedGroup, bundled_table
from eqdeg.ddedeg import assemble_omega
from eqdeg.o2gamma import GammaContext, fixed_dim, mark
from eqdeg.permgroup import Group
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

from conftest import Q8_GENERATORS, Q8_TABLE, three_delay_config


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


def test_boolean_delays_rejected(tmp_path, capsys):
    # bool is a subclass of int, so `true` must be rejected on its own
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**d1_config(), "delays": True}))
    assert main(["analyze", str(path), "--out", str(tmp_path)]) == EXIT_INVALID
    assert "delays must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "rows, code",
    [
        ([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], EXIT_OK),
        # orthonormal, but the mean of each row over the whole group is 1/2
        ([[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [1, -1, -1, -1]], EXIT_INVALID),
    ],
)
def test_custom_table_rows_must_be_characters(tmp_path, capsys, rows, code):
    config = {
        "group": {"generators": ["(1 2)(3 4)", "(1 3)(2 4)"]},
        "character_table": {
            "class_reps": ["()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"],
            "class_sizes": [1, 1, 1, 1],
            "rows": rows,
        },
        "delays": 1,
        "linearization": {"mu": {str(l): ["-3"] for l in range(1, 5)}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", str(path), "--out", str(tmp_path), "--json-only"]) == code
    if code == EXIT_INVALID:
        assert "error: not a character" in capsys.readouterr().err


def test_quaternionic_component_rejected(tmp_path, capsys):
    # the 2-dim row of Q8 is quaternionic: its component is one 4-dim real
    # irreducible, not two copies of a 2-dim one
    config = {
        "group": {"generators": Q8_GENERATORS},
        "character_table": Q8_TABLE,
        "delays": 1,
        "linearization": {"mu": {"5": ["-3"]}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", str(path), "--out", str(tmp_path), "--json-only"]) == EXIT_INVALID
    assert "component 5 is not of real type; unsupported" in capsys.readouterr().err


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


def z1_config(mu, **changes):
    return {"group": "Z1", "delays": 1, "linearization": {"mu": {"1": [mu]}}, **changes}


def test_near_zero_block_is_a_resonance():
    # mu = -1 + 1.5e-9: xi at (k=1, l=1) is 7.5e-10, zero within the default
    # tol, so mode 1 is resonant and s = 1 is not admissible
    config = z1_config(-0.9999999985)
    result = run_analyze(config)
    assert result.exit_code == EXIT_DEGENERATE
    assert result.spectral.degenerate == [(1, 0)]
    assert result.spectral.resonance_set() == {1}
    result2 = run_analyze(config, s=1)
    assert result2.exit_code == EXIT_INVALID
    assert "not admissible" in result2.message


@pytest.mark.parametrize(
    "options, args",
    [({"tol": -1}, []), ({"tol": "nan"}, []), ({"tol": True}, []), ({}, ["--tol", "-1"])],
    ids=["negative", "nan", "bool", "negative-flag"],
)
def test_invalid_tolerance_exit_3(tmp_path, capsys, options, args):
    # mu = -1 makes the k = 1 block zero; a negative or nan tolerance would
    # turn it into a negative one and report a conclusion
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(z1_config(-1.0, options=options)))
    code = main(["analyze", str(path), "--out", str(tmp_path), "--json-only", *args])
    assert code == EXIT_INVALID
    assert "tol must be a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("options, args", [({"tol": 0}, []), ({"tol": None}, ["--tol", "0"])])
def test_zero_or_null_tolerance_picks_the_default(tmp_path, options, args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(z1_config(-0.9999999985, options=options)))
    code = main(["analyze", str(path), "--out", str(tmp_path), "--json-only", *args])
    assert code == EXIT_DEGENERATE


@pytest.mark.parametrize(
    "command, flags",
    [("analyze", ["--kmax", "-3"]), ("analyze", ["--s", "-1"]), ("spectrum", ["--kmax", "-3"])],
    ids=["analyze-kmax", "analyze-s", "spectrum-kmax"],
)
def test_negative_kmax_or_s_flag_exits_3(tmp_path, capsys, command, flags):
    # the flags obey the rule of options.k_max and options.s; --kmax -3
    # wrote a report with no signs and an empty omega, --s -1 ran as no s
    config = {"group": "D1", "delays": 1, "linearization": {"mu": {"1": ["-1/2"], "2": ["1"]}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = ["--out", str(tmp_path)] if command == "analyze" else []
    assert main([command, str(path), *out, *flags]) == EXIT_INVALID
    assert "k_max and s are integers >= 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("kwargs", [{"k_max": -3}, {"s": -1}, {"k_max": True}, {"s": 1.0}])
def test_run_analyze_refuses_what_the_options_refuse(kwargs):
    with pytest.raises(ConfigError, match="k_max and s are integers >= 0"):
        run_analyze(d1_config(), **kwargs)


# D3-symmetric up to 1e-7 in two entries: not scalar within the default tol
NEAR_D3_MATRIX = [[-5, 1, 1.0000001], [1, -5, 1], [1.0000001, 1, -5]]


@pytest.mark.parametrize(
    "options, args, code",
    [({}, [], EXIT_INVALID), ({}, ["--tol", "1e-5"], EXIT_OK), ({"tol": 1e-5}, [], EXIT_OK)],
    ids=["default", "flag", "option"],
)
def test_tolerance_reaches_the_scalarity_check(tmp_path, capsys, options, args, code):
    config = d3_config(options=options, linearization={"matrices": [NEAR_D3_MATRIX]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", str(path), "--out", str(tmp_path), "--json-only", *args]) == code
    if code == EXIT_INVALID:
        err = capsys.readouterr().err
        assert "error: component 1: matrix is not scalar on the isotypic block" in err


def near_reversible_config(form):
    """mu_1 and mu_2 of component 1 differ by 1e-7: reversible within tol
    1e-5 when a float is involved, never when both values are exact."""
    if form == "matrices":
        blocks = [
            [[v * (i == j) for j in range(3)] for i in range(3)] for v in (-3.0, -1.0, -1.0000001)
        ]
        return d3_config(delays=3, linearization={"matrices": blocks})
    last = "-1.0000001" if form == "exact-mu" else -1.0000001
    mu = {"1": [-3, -1, last], "2": [-3, -1, -1]}
    return {**d1_config(), "delays": 3, "linearization": {"mu": mu}}


@pytest.mark.parametrize("form", ["mu", "exact-mu", "matrices"])
@pytest.mark.parametrize(
    "options, args", [({}, []), ({}, ["--tol", "1e-5"]), ({"tol": 1e-5}, [])],
    ids=["default", "flag", "option"],
)
def test_tolerance_reaches_the_reversibility_check(tmp_path, capsys, form, options, args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**near_reversible_config(form), "options": options}))
    code = main(["analyze", str(path), "--out", str(tmp_path), "--json-only", *args])
    if form == "exact-mu" or not (options or args):
        assert code == EXIT_INVALID
        assert "error: component 1: mu_1 != mu_2" in capsys.readouterr().err
    else:
        assert code == EXIT_OK


def _rounded_bundled_config(tmp_path):
    """The bundled config with float matrices, one entry of the first delay
    block moved by 1e-13: reversible within the default tol."""
    config = load_config(bundled_example_path())
    mats = [
        [[float(Fraction(v)) for v in row] for row in mat]
        for mat in config["linearization"]["matrices"]
    ]
    mats[1][0][0] += 1e-13
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "linearization": {"matrices": mats}}))
    return path


def test_verify_accepts_the_rounding_that_analyze_accepts(tmp_path, capsys):
    path = _rounded_bundled_config(tmp_path)
    assert main(["analyze", str(path), "--out", str(tmp_path), "--json-only"]) == EXIT_OK
    assert main(["verify", str(path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["non_constant"] and out["residual_sup"] <= 1e-9
    # the reversal reduction holds within the same tol, as for the exact config
    assert out["converged"] and out["iterations"] == 5
    assert out["matched_classes"] == ["D2 ^D1 x_Z2 ^D2d D2p"]


def test_verify_note_gives_newtons_message(tmp_path, capsys):
    # at K = 16 Newton's mode-space norm drops below its tol while the grid
    # sup residual stays near 2.5e-4, with a non-constant orbit: the output
    # carries Newton's message, and the note gives it instead of calling
    # the orbit constant
    config = load_config(bundled_example_path())
    config["system"]["fourier_modes"] = 16
    path = tmp_path / "k16.json"
    path.write_text(json.dumps(config))
    assert main(["verify", str(path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["non_constant"] and not out["converged"]
    assert re.fullmatch(
        r"mode-space norm \S+ < tol but grid sup residual 0\.000252 > 1e-06", out["message"]
    ), out["message"]
    assert out["note"] == f"Newton did not converge ({out['message']}); report retained"


def test_verify_null_cubic_picks_one_half(tmp_path, capsys):
    # null picks the default for cubic, as for the other system keys
    outputs = []
    for cubic in (None, "1/2"):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(verify_config(seed_component=1, cubic=cubic)))
        assert main(["verify", str(path)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_a_key_given_twice_exits_3(tmp_path, capsys):
    # json.load alone keeps the later value: row 1 would read 5, not -2
    path = tmp_path / "cfg.json"
    mu = '{"1": ["-2"], "1": ["5"], "3": ["-2"]}'
    path.write_text('{"group": "D3", "delays": 1, "linearization": {"mu": ' + mu + "}}")
    assert main(["spectrum", str(path)]) == EXIT_INVALID
    assert "key '1' is given twice" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "group, digest",
    [
        ("D6", "ae01cbd64fac158eae5c0df509d30e548db6ad35f8ebf4151605d99a61d03dff"),
        ("S4", "e0575f5b444cb8e9f7aca887ac5fb40a8c7eaceaaccb356df5d543a4014c7914"),
        ("D12", "217a325c1ca27622ed1c3189cab633c7630606aceb27209ac634ae5fdfca9e97"),
        # no bundled character table: a context without character rows
        ("S5", "a2266da59a1c770a8c0dd337271b90843d31db402b1f8c21b11562e837efa49d"),
    ],
)
def test_burnside_output_is_byte_stable(capsys, group, digest):
    assert main(["burnside", group]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "group, digest",
    [
        ("D6", "4d96b09c964e93f56c03d2788d79dfd5910e3f1ddd2fda0883941aef7eb1caf4"),
        ("S4", "d5340d3e9e0f247d1c7947f126567f01d14f9ac7077400458b1a11e75f2ed9a4"),
        ("D12", "d80ba8b7a67de6542a055f00487b03867a987f75878dc8ed014d136b6343feaa"),
    ],
)
def test_lattice_output_is_byte_stable(capsys, group, digest):
    assert main(["lattice", group]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_basic_deg_subcommand(capsys):
    assert main(["basic-deg", "D1", "0", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("deg(k=0, l=1) = (G)")


def test_basic_deg_d6_output_is_byte_stable(capsys):
    assert main(["basic-deg", "D6", "1", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "D2d" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b49e497963cf8ac50d2c9e4a3fe1e75d03244c6eba078800a46063353fa1671c"
    )


def test_basic_deg_refuses_a_negative_mode_by_name(capsys):
    # the message names the argument as the command line gives it
    assert main(["basic-deg", "D6", "-1", "5"]) == EXIT_INVALID
    assert "error: k must be >= 0" in capsys.readouterr().err


def test_basic_deg_refuses_a_complex_type_row(capsys):
    # row 2 of Z3 is of complex type, as analyze says of such a component
    assert main(["basic-deg", "Z3", "1", "2"]) == EXIT_INVALID
    assert "error: component 2 is not of real type; unsupported" in capsys.readouterr().err
    # row 3 of Z4 is the real character r -> -1
    assert main(["basic-deg", "Z4", "1", "3"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("deg(k=1, l=3) = ")


def test_malformed_preset_exits_3_in_every_command(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**d1_config(), "group": "D+3"}))
    for args in (
        ["basic-deg", "Dx", "1", "1"],
        ["lattice", "D+3"],
        ["burnside", "D 3"],
        ["analyze", str(path), "--json-only", "--out", str(tmp_path)],
    ):
        assert main(args) == EXIT_INVALID, args
        assert "error: unknown group preset" in capsys.readouterr().err


def test_spectrum_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d1_config()))
    assert main(["spectrum", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k=0" in out and "-" in out


@pytest.mark.parametrize("command", ["spectrum", "analyze"])
@pytest.mark.parametrize(
    "linearization",
    [
        {"matrices": [[["-2", "0", "0"], ["0", "-2", "0"], ["0", "0", "-2"]]]},
        {"mu": {"1": ["-2"], "2": ["-2"]}},
    ],
    ids=["matrices", "mu"],
)
def test_analyze_and_spectrum_reject_complex_type_components(tmp_path, capsys, command, linearization):
    # Z3 on three nodes: the two nontrivial characters are of complex type,
    # refused in either form of the linearization by both commands
    config = {"group": "Z3", "representation": "natural", "delays": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "linearization": linearization}))
    out = ["--out", str(tmp_path)] if command == "analyze" else []
    assert main([command, str(path), *out]) == EXIT_INVALID
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


@pytest.mark.parametrize(
    "config, s, digest",
    [
        (
            load_config(bundled_example_path()),
            None,
            "ad1f2430bad7b11aab3f7d8960db94a35903ed6e09c6bc2d4fae02aab8578e5e",
        ),
        # degenerate (exit 2): the text ends with the message
        (
            d1_config(("-4", "-4")),
            None,
            "4e50625bfbb05abbace3452c5c44f2c997cf2816534cd57271faf971bbba13cd",
        ),
        (
            d1_config(("-4", "-4")),
            1,
            "4ab3042c7f9d2fed834dddb64ceb201bbee7a12eca0503cc40b16dc02314c6d7",
        ),
    ],
    ids=["bundled", "d1-degenerate", "d1-parity-route"],
)
def test_report_text_is_byte_stable(config, s, digest):
    # the report.txt bytes that `eqdeg analyze` writes, pinned across versions
    text = run_analyze(config, s=s).report_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_analyze_builds_the_report_payload_once(tmp_path, monkeypatch, capsys):
    # report.txt renders the payload that report.json dumps
    from eqdeg.cli import AnalysisResult

    built = []
    report_json = AnalysisResult.report_json
    monkeypatch.setattr(AnalysisResult, "report_json", lambda self: built.append(1) or report_json(self))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d1_config(("-4", "-4"))))
    assert main(["analyze", str(path), "--s", "1", "--out", str(tmp_path)]) == 0
    assert len(built) == 1
    text = (tmp_path / "report.txt").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == "4ab3042c7f9d2fed834dddb64ceb201bbee7a12eca0503cc40b16dc02314c6d7"
    assert capsys.readouterr().out == text


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


def test_library_context_names_classes_like_analyze():
    # a D6 context built in library code names every reported class as
    # `eqdeg analyze` does, the D6 labels included
    result = run_analyze(load_config(bundled_example_path()))
    ctx = GammaContext.from_signed_group(SignedGroup(bundled_table("D6")))
    report = assemble_omega(ctx, result.spectral)

    def names(rep):
        return (
            [(c.key, c.name()) for c in rep.omega.support()],
            [(c.mode, c.component, c.cls.key, c.cls.name()) for c in rep.conclusions],
        )

    assert names(report) == names(result.report)
    assert any("^D2d" in c.cls.name() for c in report.conclusions)


@pytest.mark.parametrize(
    "config, bound",
    [(None, 3.0e6), (three_delay_config("S4", ["-10"] * 5), 5.0e6)],
    ids=["D6-bundled", "S4-10"],
)
def test_bundled_analysis_keeps_each_class_once(config, bound):
    # the context keeps one interned class per walked element set, no
    # product and no conjugation table per grid; with a product memo and a
    # key per walked set the bundled peak read 3.6-3.8 MB, and with the
    # per-grid conjugation tables the S4 peak read 6.5-6.7 MB
    config = config or load_config(bundled_example_path())
    tracemalloc.start()
    try:
        result = run_analyze(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == EXIT_OK
    assert peak <= bound, f"traced peak {peak / 1e6:.2f} MB"


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
    assert result.config.decomposition.multiplicities == (1, 0, 1)
    assert result.report.conclusions
    modes = {c.mode for c in result.report.conclusions}
    assert modes == {1}
    for c in result.report.conclusions:
        assert abs(c.coefficient) == c.x_o != 0
    assert report_sha256(result) == (
        "bd0606081e97b371c44bb734ee60a4512d1c2b1eda0cc3fbff16f0d680be6abf"
    )


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
        (
            "D8",
            ["-15/2", "-13/4", "-17/3", "-1/3", "-11/2", "-7/2", "-9/4"],
            "6655589006b7473262f9c4528080be2fb42a0396e508aba576b2aa88035ae732",
        ),
        (
            "S4",
            ["-15/2", "-13/4", "-17/3", "-1/3", "-11/2"],
            "e7d54b1a2ceb5ad5699c107224049911f1dcacbf02bd00339a2111616b0f79d1",
        ),
        (
            "D5",
            ["-15/2", "-13/4", "-17/3", "-1/3"],
            "b652bf8c5bf4a52459d68c6602f2383461e09273d046218280a8397549dbea91",
        ),
        (
            "D10",
            ["-15/2", "-13/4", "-17/3", "-1/3", "-11/2", "-7/2", "-9/4", "-5/2"],
            "e3f8051b8f7d13c8b2804c97350988f9c722a33533fa52371f7a9bce74539575",
        ),
        (
            "D12",
            ["-15/2", "-13/4", "-17/3", "-1/3", "-11/2", "-7/2", "-9/4", "-5/2", "-19/4"],
            "c51d6689e014de524974913a4104531858d571bbd07273bc283b08e7c98c40f9",
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


@lru_cache(maxsize=None)
def deep_result(group):
    """The analysis with every leading value -30 in `three_delay_config`:
    c_0 = -32, so every component has negative blocks at modes 0-5."""
    return run_analyze(three_delay_config(group, ["-30"] * bundled_table(group).n_irreps))


# D12 takes seconds; its digest is checked in CI
DEEP_DIGESTS = {
    "D4": "7a919666eb218b5374642cde6ea3e5560e0053ddb757e7ce318a2237660473e2",
    "D6": "a5930fa0e1c0017c441e31ad7a4beec9728d0efaed9b411975f1902f3d9fe468",
    "S4": "b76009890f9daa869bc8133a3a458f17fed31156c6763acb6ea8609dfd05d37f",
}


@pytest.mark.parametrize("group", sorted(DEEP_DIGESTS))
def test_deep_spectra_are_byte_stable(group):
    result = deep_result(group)
    assert result.exit_code == EXIT_OK
    assert max(k for (k, _, _) in result.spectral.negative_factors()) == 5
    assert report_sha256(result) == DEEP_DIGESTS[group]


@pytest.mark.parametrize("group", [*sorted(DEEP_DIGESTS), "bundled"])
def test_omega_satisfies_the_marks_identity(group):
    # the mark at H is a ring homomorphism, (G) has mark 1 and each basic
    # degree (-1)^dim Fix(H), so omega = (G) - prod deg has the mark
    # 1 - (-1)^e, e the fixed dimension of H summed over the negative blocks
    if group == "bundled":
        result = run_analyze(load_config(bundled_example_path()))
    else:
        result = deep_result(group)
    omega = result.report.omega
    factors = result.spectral.negative_factors()
    for h in omega.support():
        e = sum(m * fixed_dim(h, k, l) for (k, l, m) in factors)
        assert sum(n * mark(h, c) for c, n in omega.coeffs.items()) == 1 - (-1) ** e, h.name()


def d3_config(**changes):
    return {
        "group": "D3",
        "representation": "natural",
        "delays": 1,
        "linearization": {"mu": {"1": ["-2"], "3": ["-2"]}},
        **changes,
    }


@pytest.mark.parametrize(
    "images, message",
    [
        # the reflection of D3 has order 2, but its image (1 2 3 4) has order 4
        ([[0, 1, 2, 3], "(1 2 3 4)"], "do not define a homomorphism"),
        (["(1 2 3)"], "expected 2 generator images, got 1"),
        ([[1, 2, 0], [0, 0, 1]], "images must be permutations"),
    ],
    ids=["not-homomorphic", "too-few", "not-a-permutation"],
)
def test_representation_images_are_checked(tmp_path, capsys, images, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d3_config(representation={"images": images})))
    assert main(["analyze", str(path), "--out", str(tmp_path)]) == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_generator_images_of_the_natural_action_reproduce_it():
    natural = run_analyze(d3_config())
    images = [list(g) for g in Group.from_name("D3").generators]
    imaged = run_analyze(d3_config(representation={"images": images}))
    assert imaged.config.decomposition == natural.config.decomposition
    assert report_sha256(imaged) == report_sha256(natural)


# D3 acting on two nodes through its sign character: the rotation fixes
# both, the reflection swaps them
TWO_NODE_D3 = {"images": ["()", "(1 2)"]}


def test_matrix_form_reads_the_representation(tmp_path, capsys):
    matrix = [["-2", "1/2"], ["1/2", "-2"]]
    config = d3_config(representation=TWO_NODE_D3, linearization={"matrices": [matrix]})
    result = run_analyze(config)
    assert result.exit_code == EXIT_OK
    assert result.report_json()["mu"] == {"1": ["-3/2"], "2": ["-5/2"]}
    # a matrix of the group's natural size is the wrong size here
    config = d3_config(representation=TWO_NODE_D3, linearization={"matrices": [D3_MATRIX]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", str(path), "--out", str(tmp_path)]) == EXIT_INVALID
    assert "must match the network size" in capsys.readouterr().err


def test_matrix_form_with_irrational_characters_is_rejected(tmp_path, capsys):
    # D5 on five nodes: the 2-dim characters take values in Q(cos(2 pi/5)),
    # so no rational isotypic projector exists for them
    circulant = [
        ["-1" if i == j else "1/10" if (i - j) % 5 in (1, 4) else "0" for j in range(5)]
        for i in range(5)
    ]
    config = {
        "group": "D5",
        "representation": "natural",
        "delays": 1,
        "linearization": {"matrices": [circulant]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", str(path), "--out", str(tmp_path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "component 3" in err and "'mu' form" in err


def verify_config(**system):
    return d3_config(
        linearization={
            "matrices": [[["-2", "3/10", "3/10"], ["3/10", "-2", "3/10"], ["3/10", "3/10", "-2"]]]
        },
        system={"fourier_modes": 8, "growth_samples": 20, **system},
    )


@pytest.mark.parametrize(
    "config, message",
    [
        (d3_config(system={"seed_component": 3}), "linearization as 'matrices'"),
        (verify_config(), "seed_component must be in 1..3"),
        (verify_config(seed_component=0), "seed_component must be in 1..3"),
        (
            verify_config(seed_component=1) | {"representation": TWO_NODE_D3},
            "verification needs the natural representation",
        ),
    ],
    ids=["mu-form", "default-seed-beyond-rows", "seed-zero", "non-natural-representation"],
)
def test_verify_rejects_invalid_config(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["verify", str(path)]) == EXIT_INVALID
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "system, message",
    [
        ({"seed_component": 0}, "seed_component must be in 1..3"),
        ({}, "seed_component must be in 1..3"),
        # D3 on its three vertices has no copy of the sign row
        ({"seed_component": 2}, "component 2 absent from the representation"),
    ],
    ids=["seed-zero", "default-seed-beyond-rows", "seed-row-absent"],
)
def test_verify_checks_the_seed_row_before_any_analysis(
    tmp_path, capsys, monkeypatch, system, message
):
    def no_analysis(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(cli, "analyze", no_analysis)
    monkeypatch.setattr(GammaContext, "from_signed_group", no_analysis)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(verify_config(**system)))
    assert main(["verify", str(path)]) == EXIT_INVALID
    assert message in capsys.readouterr().err


D3_MATRIX = [["-2", "3/10", "3/10"], ["3/10", "-2", "3/10"], ["3/10", "3/10", "-2"]]
Z2_TABLE = {"class_reps": ["()", "(1 2)"], "class_sizes": [1, 1], "rows": [["1", "1"], ["1", "-1"]]}


def z2_config(generators=("(1 2)",), **table):
    """A custom two-point Z2 group; table entries given as None are left out."""
    table = {key: v for key, v in {**Z2_TABLE, **table}.items() if v is not None}
    return {
        "group": {"generators": generators},
        "character_table": table,
        "delays": 1,
        "linearization": {"mu": {"1": ["-3"], "2": ["-3"]}},
    }


S3_TABLE = {
    "class_reps": ["()", "(1 2)", "(1 2 3)"],
    "class_sizes": [1, 3, 2],
    "rows": [["1", "1", "1"], ["1", "-1", "1"], ["2", "0", "-1"]],
}


def s3_config(**table):
    """A custom S3 group on three points with its 3-class table, entries
    replaced by `table`."""
    return {
        **z2_config(generators=["(1 2 3)", "(1 2)"]),
        "character_table": {**S3_TABLE, **table},
    }


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("analyze", d3_config(linearization=5), "linearization must be an object"),
        ("analyze", d3_config(linearization={"mu": {"1": ["1/0"]}}), "not a number: '1/0'"),
        (
            "analyze",
            d3_config(linearization={"matrices": [[*D3_MATRIX[:2], ["3/10", None, "-2"]]]}),
            "not a number: None",
        ),
        (
            "analyze",
            d3_config(linearization={"matrices": [[*D3_MATRIX[:2], 5]]}),
            "expected a list of values, got 5",
        ),
        (
            "analyze",
            d3_config(linearization={"matrices": [[*D3_MATRIX[:2], ["3/10", float("nan"), "-2"]]]}),
            "not a finite number: nan",
        ),
        (
            "analyze",
            d3_config(linearization={"mu": {"1": [float("nan")], "3": ["-2"]}}),
            "not a finite number: nan",
        ),
        ("verify", verify_config(seed_component=1, cubic=float("nan")), "not a finite number: nan"),
        ("analyze", d3_config(options={"k_max": "5"}), "k_max and s are integers"),
        ("analyze", d3_config(representation={"images": 5}), "representation images must be"),
        ("analyze", "group delays linearization", "config must be a JSON object"),
        ("verify", verify_config(seed_component=1, fourier_modes=0), "fourier_modes must be"),
        ("verify", verify_config(seed_component=1, radius="nan"), "radius must be a finite"),
        ("verify", verify_config(seed_component=1, growth_samples=0), "growth_samples must be"),
        ("verify", verify_config(seed_component=1, fourier_modes=8.9), "fourier_modes must be"),
        ("verify", verify_config(seed_component=1, fourier_modes=True), "fourier_modes must be"),
        ("verify", verify_config(seed_component=1, seed_amplitude="inf"), "seed_amplitude must be"),
        ("verify", verify_config(seed_component="1"), "seed_component must be an integer"),
        ("analyze", z2_config(generators=5), "generators must be"),
        ("analyze", z2_config(generators=[5]), "generators must be"),
        ("analyze", z2_config(class_sizes=None), "needs class_reps, class_sizes and rows"),
        ("analyze", z2_config(rows=7), "needs class_reps, class_sizes and rows"),
        (
            "analyze",
            z2_config() | {"character_table": json.dumps(Z2_TABLE)},
            "needs class_reps, class_sizes and rows",
        ),
        (
            "analyze",
            s3_config(class_reps=[*S3_TABLE["class_reps"], "(1 3)"], class_sizes=[1, 3, 2, 0]),
            "a class size and a value in every row for each class rep",
        ),
        (
            "analyze",
            s3_config(
                class_reps=[*S3_TABLE["class_reps"], "(1 3)"],
                class_sizes=[1, 3, 2, 0],
                rows=[[*row, row[1]] for row in S3_TABLE["rows"]],
            ),
            "class reps (1 2) and (1 3) are conjugate",
        ),
        (
            "analyze",
            s3_config(rows=[*S3_TABLE["rows"][:2], ["2", "0", "-1", "9"]]),
            "a class size and a value in every row for each class rep",
        ),
        ("analyze", s3_config(class_sizes=[1, 2, 3]), "the class of (1 2) has 3 elements, not 2"),
        ("analyze", s3_config(class_sizes=[1, 3.9, 2]), "class size 3.9 is not an integer"),
        ("analyze", s3_config(class_sizes=[1, "3.5", 2]), "class size '3.5' is not an integer"),
        ("analyze", s3_config(class_sizes=[True, 3, 2]), "class size True is not an integer"),
        (
            "analyze",
            z2_config(generators=["(1 2)(3 4)"], class_reps=["()", "(1 2)"]),
            "class rep (1 2) is not in the group",
        ),
        (
            "analyze",
            d3_config(delays=3, linearization={"mu": {"1": ["-2", "-1", "-3"], "3": ["-2", 0, 0]}}),
            "error: component 1: mu_1 != mu_2\n",
        ),
        (
            "analyze",
            d3_config(linearization={"mu": {"1": ["-2", "-1"], "3": ["-2"]}}),
            "error: component 1: expected 1 delay values\n",
        ),
        (
            "spectrum",
            d3_config(linearization={"mu": {"1": ["-2"], "01": ["5"], "3": ["-2"]}}),
            "mu key '01' is not a row number",
        ),
        ("spectrum", d3_config(linearization={"mu": {"one": ["-2"], "3": ["-2"]}}), "mu key 'one' is not a row number"),
    ],
    ids=[
        "linearization-not-object",
        "zero-denominator",
        "null-matrix-entry",
        "matrix-row-not-list",
        "nan-matrix-entry",
        "nan-mu",
        "nan-cubic",
        "k-max-string",
        "images-not-list",
        "config-is-string",
        "zero-fourier-modes",
        "nan-radius",
        "zero-growth-samples",
        "float-fourier-modes",
        "bool-fourier-modes",
        "infinite-seed-amplitude",
        "string-seed-component",
        "generators-not-list",
        "generator-is-integer",
        "table-without-class-sizes",
        "table-rows-not-list",
        "table-as-json-string",
        "table-rep-without-values",
        "table-rep-conjugate-to-another",
        "table-row-longer-than-reps",
        "table-class-size-wrong",
        "table-class-size-float",
        "table-class-size-fraction-string",
        "table-class-size-bool",
        "table-rep-outside-the-group",
        "irreversible-mu-row",
        "mu-row-of-wrong-length",
        "mu-key-with-a-leading-zero",
        "mu-key-not-a-number",
    ],
)
def test_malformed_config_values_exit_3(tmp_path, capsys, command, config, message):
    # a malformed value is invalid input (exit 3), not a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    args = [command, str(path)] + (["--out", str(tmp_path)] if command == "analyze" else [])
    assert main(args) == EXIT_INVALID
    assert message in capsys.readouterr().err

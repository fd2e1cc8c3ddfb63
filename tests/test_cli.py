import cmath
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from stabdyn.cli import main

GOLDEN2 = (3.0 + math.sqrt(5.0)) / 2.0


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def hyperbolic_triple_payload():
    return {
        "auto": {"p": [[2, 1], [1, 1]], "label": "stretch"},
        "sigma": {
            "rank": 2,
            "Z": [[1.0, 0.0], [0.0, 1.0]],
            "semistables": [
                {"v": [1, 0], "phase": 0.0},
                {"v": [0, 1], "phase": 0.5},
                {"v": [1, 1], "phase": 0.25},
            ],
        },
        "g": {"m": [[2.0, 1.0], [1.0, 1.0]], "f0": math.atan2(1.0, 2.0) / math.pi},
    }


def unipotent_triple_payload(deg=3):
    return {
        "auto": {"p": [[1, 0], [deg, 1]], "label": "tensor"},
        "sigma": {
            "rank": 2,
            "Z": [[0.0, -1.0], [1.0, 0.0]],
            "semistables": [
                {"v": [1, 0], "phase": 0.5},
                {"v": [0, 1], "phase": 1.0},
                {"v": [1, 1], "phase": math.atan2(1.0, -1.0) / math.pi},
            ],
        },
        "g": {"m": [[1.0, -float(deg)], [0.0, 1.0]], "f0": 0.0},
    }


def ginzburg_triple_payload(p1=0.3, p2=0.6, d=3):
    z1 = cmath.exp(1j * math.pi * p1)
    z2 = cmath.exp(1j * math.pi * p2)
    B = np.array([[z1.real, z2.real], [z1.imag, z2.imag]])
    Bp = np.array([[z1.real, z1.real + z2.real], [z1.imag, z1.imag + z2.imag]])
    M = Bp @ np.linalg.inv(B)
    z12 = z1 + z2
    return {
        "auto": {"p": [[1, 1], [0, 1]], "label": "twist"},
        "sigma": {
            "rank": 2,
            "Z": [[z1.real, z2.real], [z1.imag, z2.imag]],
            "semistables": [
                {"v": [1, 0], "phase": p1},
                {"v": [0, 1], "phase": p2},
            ],
        },
        "g": {"m": M.tolist(), "f0": math.atan2(M[1, 0], M[0, 0]) / math.pi},
        "images": [
            {"v": [1, 0], "phase": p1 + 1 - d},
            {"v": [1, 1], "phase": math.atan2(z12.imag, z12.real) / math.pi},
        ],
    }


# --- spectral ----------------------------------------------------------------


def test_spectral_identity(tmp_path, capsys):
    path = write(tmp_path / "m.json", [[1, 0], [0, 1]])
    assert main(["spectral", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho"] == 1.0
    assert out["s"] == 0


def test_spectral_unipotent(tmp_path, capsys):
    path = write(tmp_path / "m.json", [[1, 3], [0, 1]])
    assert main(["spectral", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho"] == pytest.approx(1.0, abs=1e-9)
    assert out["s"] == 1


def test_spectral_hyperbolic(tmp_path, capsys):
    path = write(tmp_path / "m.json", [[2, 1], [1, 1]])
    assert main(["spectral", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho"] == pytest.approx(2.618034, abs=1e-6)


def test_spectral_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["spectral", str(path)]) == 2


def test_spectral_missing_file():
    assert main(["spectral", "/nonexistent/input.json"]) == 2


# --- check-triple ---------------------------------------------------------------


def test_check_triple_verified(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main(["check-triple", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is True
    assert out["spanning"] is True


def test_check_triple_ginzburg_fails_with_window_reason(tmp_path, capsys):
    path = write(tmp_path / "t.json", ginzburg_triple_payload())
    assert main(["check-triple", path]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is False
    assert out["failure"]["kind"] == "heart_window"


def test_check_triple_bad_schema(tmp_path):
    path = write(tmp_path / "t.json", {"sigma": {}})
    assert main(["check-triple", path]) == 2


# --- growth -----------------------------------------------------------------------


def test_growth_hyperbolic_all_t(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main(["growth", path, "--n-max", "2048", "--t-grid=-1,0,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    for rep in out["reports"]:
        assert rep["exp_rate"] == pytest.approx(math.log(GOLDEN2), abs=1e-3)


def test_growth_unipotent_poly_one(tmp_path, capsys):
    path = write(tmp_path / "t.json", unipotent_triple_payload())
    assert main(["growth", path, "--n-max", "65536", "--t-grid", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    rep = out["reports"][0]
    assert rep["exp_rate"] == pytest.approx(0.0, abs=1e-3)
    assert rep["poly_rate"] == pytest.approx(1.0, abs=0.15)


def test_growth_csv_format(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main(["growth", path, "--n-max", "64", "--t-grid", "0,1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,n,value"
    assert len(lines) > 2
    # single weight keeps the plain two-column stream
    assert main(["growth", path, "--n-max", "64", "--t-grid", "0", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,value"


def test_growth_linear_schedule(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main(["growth", path, "--n-max", "512", "--t-grid", "0",
                 "--schedule", "linear"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reports"][0]["exp_rate"] == pytest.approx(math.log(GOLDEN2), abs=1e-3)


def test_verify_images_misaligned_is_input_error(tmp_path):
    payload = ginzburg_triple_payload()
    payload["images"] = payload["images"][:1]
    path = write(tmp_path / "t.json", payload)
    assert main(["check-triple", path]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # top moduli 1000001 vs 1000000 fall in the ambiguity guard band
    path = write(tmp_path / "m.json", [[1000001, 0], [0, 1000000]])
    assert main(["spectral", path]) == 3


def test_config_invariants_rejected(tmp_path):
    path = write(tmp_path / "m.json", [[1, 0], [0, 1]])
    assert main(["spectral", path, "--tol", "-1"]) == 2
    assert main(["spectral", path, "--n-max", "4"]) == 2


# --- translation ---------------------------------------------------------------------


def test_translation_hyperbolic(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main(["translation", path, "--n-max", "64"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closed_form"] == pytest.approx(math.log(GOLDEN2), abs=1e-9)
    assert abs(out["estimate"] - out["closed_form"]) <= 0.05


def test_translation_csv(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main(["translation", path, "--n-max", "16", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,distance,A,B,re_alpha,im_alpha"


def test_translation_not_compatible_exit(tmp_path, capsys):
    payload = ginzburg_triple_payload()
    path = write(tmp_path / "t.json", payload)
    assert main(["translation", path]) == 4


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("f0", float("nan"), "f0 = nan is not finite"),
        ("m", [[math.inf, 1.0], [1.0, 1.0]], "m = [[inf, 1.0], [1.0, 1.0]] is not finite"),
        ("m", [[2.0, float("nan")], [1.0, 1.0]], "m = [[2.0, nan], [1.0, 1.0]] is not finite"),
        ("m", [[1e300, 0.0], [1e300, 1e300]], "det(M) = inf is not finite"),
    ],
)
@pytest.mark.parametrize("sub", ["check-triple", "translation"])
def test_non_finite_cover_element_is_input_error(tmp_path, capsys, sub, field, value, message):
    payload = hyperbolic_triple_payload()
    payload["g"][field] = value
    path = write(tmp_path / "t.json", payload)
    assert main([sub, path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: %s\n" % message
    assert captured.out == ""


def test_huge_finite_matrix_is_input_error_without_warnings(tmp_path):
    # a cold process, so a numpy RuntimeWarning would reach stderr
    payload = hyperbolic_triple_payload()
    payload["g"] = {"m": [[1e300, 0.0], [1e300, 1e300]], "f0": 0.25}
    path = write(tmp_path / "t.json", payload)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "stabdyn.cli", "check-triple", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "input error: det(M) = inf is not finite\n"


def test_flags_attach_only_where_they_are_read(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    for argv in (["translation", path, "--t-grid", "0"],
                 ["translation", path, "--schedule", "linear"],
                 ["check-triple", path, "--t-grid", "0"],
                 ["scenario", "curve", "--tol", "1e-6"],
                 ["scenario", "curve", "--schedule", "geom"],
                 ["scenario", "curve", "--genus-class", "zero"]):
        assert main(argv) == 2, argv
    capsys.readouterr()
    assert main(["growth", path, "--n-max", "64", "--schedule", "linear", "--t-grid", "0",
                 "--tol", "1e-9"]) == 0


# --- scenario ---------------------------------------------------------------------------


def test_scenario_curve(capsys):
    assert main(["scenario", "curve", "--degL", "3", "--m", "1", "--n-max", "1024"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True


def test_scenario_ginzburg_negative_is_exit_zero(capsys):
    assert main(["scenario", "ginzburg", "--p1", "0.3", "--p2", "0.6", "--d", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True
    assert out["triple"]["verified"] is False


def test_scenario_unknown_name():
    assert main(["scenario", "does-not-exist"]) == 2


def test_scenario_text_format(capsys):
    assert main(["scenario", "pseudo-anosov", "--matrix", "2,1;1,1",
                 "--n-max", "16", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text


# --- determinism ------------------------------------------------------------------------


def test_json_output_byte_identical(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    outputs = []
    for _ in range(2):
        assert main(["growth", path, "--n-max", "512"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    for _ in range(2):
        assert main(["scenario", "ginzburg"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]

    for _ in range(2):
        assert main(["translation", path, "--n-max", "32"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[4] == outputs[5]


def test_out_file_writing(tmp_path):
    path = write(tmp_path / "m.json", [[2, 1], [1, 1]])
    target = tmp_path / "report.json"
    assert main(["spectral", path, "--out", str(target)]) == 0
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["s"] == 0

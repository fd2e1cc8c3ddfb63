import argparse
import cmath
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from stabdyn import families, growth, scenarios, stability
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


def test_spectral_odd_rank_hyperbolic_block_map(tmp_path, capsys):
    # Jordan data is exact: this rank-15 block map has an eigenvalue of
    # multiplicity 7 near 0.09 whose blocks all have size 1
    P = families.compatible_triple(np.random.default_rng(9), rank=15, kind="hyperbolic").auto.P
    path = write(tmp_path / "m.json", P.to_json())
    assert main(["spectral", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["s"] == 0
    assert sorted(ev["multiplicity"] for ev in out["eigenvalues"]) == [1, 7, 7]
    assert all(ev["block_sizes"] == [1] * ev["multiplicity"] for ev in out["eigenvalues"])


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


@pytest.mark.parametrize("entry, shown", [(2.5, "2.5"), (True, "true"), ("3", '"3"')],
                         ids=["float", "bool", "string"])
def test_spectral_rejects_non_integer_entry(tmp_path, capsys, entry, shown):
    path = write(tmp_path / "m.json", [[entry, 1], [1, 1]])
    assert main(["spectral", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: matrix entry %s is not an integer\n" % shown
    assert captured.out == ""


def test_spectral_text_format(tmp_path, capsys):
    path = write(tmp_path / "m.json", [[2, 1], [1, 1]])
    assert main(["spectral", path, "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "dim 2\n"
        "char_poly [1, -3, 1]\n"
        "rho 2.61803398875\n"
        "s 0\n"
        "eigenvalue 2.61803398875+0i multiplicity 1 blocks [1]\n"
        "eigenvalue 0.38196601125+0i multiplicity 1 blocks [1]\n")


def test_spectral_reads_a_matrix_key_and_refuses_other_json(tmp_path, capsys):
    assert main(["spectral", write(tmp_path / "m.json", [[2, 1], [1, 1]])]) == 0
    bare = capsys.readouterr().out
    assert main(["spectral", write(tmp_path / "k.json", {"matrix": [[2, 1], [1, 1]]})]) == 0
    assert capsys.readouterr().out == bare
    for i, payload in enumerate([{"rows": [[2, 1], [1, 1]]}, [2, 1], 7]):
        assert main(["spectral", write(tmp_path / ("bad%d.json" % i), payload)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: expected a JSON array of arrays of integers\n"
        assert captured.out == ""


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


def test_check_triple_reads_back_its_own_triple_json(tmp_path, capsys):
    # a non-unimodular lattice map writes allow_nonunimodular, which reads back
    triple = scenarios.run_scenario("coh1", lam=2).triple
    path = write(tmp_path / "t.json", triple.to_json())
    assert main(["check-triple", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is True
    assert out["auto"] == {"p": [[1, 0], [0, 2]], "label": triple.auto.label,
                           "allow_nonunimodular": True}


def test_check_triple_text_format(tmp_path, capsys):
    path = write(tmp_path / "t.json", readme_triple_payload())
    assert main(["check-triple", path, "--format", "text"]) == 0
    assert capsys.readouterr().out == "verified True\nspanning True\n"
    payload = readme_triple_payload()
    payload["images"] = [{"v": [-1, 0], "phase": 0.0}] + payload["sigma"]["semistables"][1:]
    path = write(tmp_path / "bad.json", payload)
    assert main(["check-triple", path, "--format", "text"]) == 4
    assert capsys.readouterr().out == (
        "verified False\nspanning True\n"
        "failure image_class: image class (-1, 0) of entry 0 is not P v = (2, 1)\n")


def test_check_triple_bad_schema(tmp_path):
    path = write(tmp_path / "t.json", {"sigma": {}})
    assert main(["check-triple", path]) == 2


# --- growth -----------------------------------------------------------------------


def test_growth_of_an_unverified_triple_is_its_failure_and_exit_four(tmp_path, capsys):
    path = write(tmp_path / "t.json", ginzburg_triple_payload())
    assert main(["growth", path]) == 4
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out.keys() == {"verified", "failure"}
    assert out["verified"] is False
    assert out["failure"]["kind"] == "heart_window"
    assert captured.err == ""


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


def test_growth_fits_a_custom_t_grid_in_one_batch(tmp_path, capsys, monkeypatch):
    batches = []
    fit = growth._fit_streams

    def counting(ns, Y):
        batches.append(len(Y))
        return fit(ns, Y)

    monkeypatch.setattr(growth, "_fit_streams", counting)
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main(["growth", path, "--n-max", "2048", "--t-grid", "0.25,-3,1,0.25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t_grid"] == [0.25, -3.0, 1.0, 0.25] and len(out["reports"]) == 4
    assert batches == [len(set(growth.DEFAULT_T_GRID) | {0.25, -3.0})]
    assert main(["growth", path, "--n-max", "2048"]) == 0
    assert batches[1:] == [len(growth.DEFAULT_T_GRID)]


def test_growth_default_seed_skips_zero_charge(tmp_path, capsys):
    # the (0, 1) entry of the weak intersection-0 triple has zero charge
    triple = scenarios.run_scenario("weak", intersection_number=0.0).triple
    assert stability.charge_of(triple.sigma.Z, (0, 1)) == 0
    seed = families.seed_object(triple)
    assert seed == stability.HNObject((stability.SemistableDatum((1, 0), 0.5),))
    path = write(tmp_path / "t.json", triple.to_json())
    assert main(["growth", path, "--t-grid", "0"]) == 0
    default = json.loads(capsys.readouterr().out)
    payload = dict(triple.to_json(), seed=seed.to_json())
    assert main(["growth", write(tmp_path / "s.json", payload), "--t-grid", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == default


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


@pytest.mark.parametrize("n_max", ["8", "4096"])
def test_n_max_is_rejected_where_it_is_not_read(tmp_path, capsys, n_max):
    matrix = write(tmp_path / "m.json", [[2, 1], [1, 1]])
    triple = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main(["spectral", matrix, "--n-max", n_max]) == 2
    assert main(["check-triple", triple, "--n-max", n_max]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --n-max" in err and "at least 16" not in err


def test_n_max_lower_bound_holds_where_it_is_read(tmp_path, capsys):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    for sub in ("growth", "translation"):
        assert main([sub, path, "--n-max", "15"]) == 2
        assert "n_max must be at least 16" in capsys.readouterr().err
        assert main([sub, path, "--n-max", "16"]) == 0


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


def test_translation_text_format(tmp_path, capsys):
    path = write(tmp_path / "t.json", readme_triple_payload())
    assert main(["translation", path, "--n-max", "64", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "estimate 0.962423650119\nclosed_form 0.962423650119\nfekete_min 0.962423650119\n")


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


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("sigma", "weak"), "no", 'weak = "no" is not a JSON boolean'),
        (("sigma", "weak"), 1, "weak = 1 is not a JSON boolean"),
        (("auto", "allow_nonunimodular"), "yes", 'allow_nonunimodular = "yes" is not a JSON boolean'),
        (("auto", "allow_nonunimodular"), 0, "allow_nonunimodular = 0 is not a JSON boolean"),
        (("sigma", "C"), float("nan"), "support constant C = nan must be finite and positive"),
        (("sigma", "C"), math.inf, "support constant C = inf must be finite and positive"),
        (("sigma", "C"), 0, "support constant C = 0.0 must be finite and positive"),
        (("sigma", "C"), -2.0, "support constant C = -2.0 must be finite and positive"),
        (("auto", "p"), [[2.5, 1], [1, 1]], "auto.p entry 2.5 is not an integer"),
        (("auto", "p"), [[2, True], [1, 1]], "auto.p entry true is not an integer"),
        (("sigma", "semistables", 0, "v"), [1.5, 0], "semistable v entry 1.5 is not an integer"),
        (("sigma", "semistables", 2, "v"), [1, 1.0], "semistable v entry 1.0 is not an integer"),
        (("seed",), {"factors": [{"v": [1.5, 0], "phase": 0.0}]},
         "seed v entry 1.5 is not an integer"),
        (("images",), [{"v": [2, "1"], "phase": 0.1}], 'image v entry "1" is not an integer'),
        (("sigma", "semistables", 0, "phase"), "0.0", 'semistable phase entry "0.0" is not a number'),
        (("sigma", "semistables", 1, "phase"), True, "semistable phase entry true is not a number"),
        (("seed",), {"factors": [{"v": [1, 0], "phase": "0.0"}]},
         'seed phase entry "0.0" is not a number'),
        (("g", "f0"), "0.1475836176504333", 'g.f0 entry "0.1475836176504333" is not a number'),
        (("g", "m"), [[2.0, "1.0"], [1.0, 1.0]], 'g.m entry "1.0" is not a number'),
        (("sigma", "Z"), [["1.0", 0.0], [0.0, 1.0]], 'Z entry "1.0" is not a number'),
        (("sigma", "C"), "2", 'C entry "2" is not a number'),
        (("sigma", "C"), True, "C entry true is not a number"),
        (("sigma", "rank"), 2.7, "rank entry 2.7 is not an integer"),
        (("sigma", "rank"), "two", 'rank entry "two" is not an integer'),
        (("sigma", "semistables", 0, "v"), [1, 0, 0], "semistable v has length 3, charge rank is 2"),
        (("auto", "p"), [[1]], "auto.p is 1 x 1, charge rank is 2"),
        (("seed",), {"factors": [{"v": [1, 0, 0], "phase": 0.0}]},
         "seed v has length 3, charge rank is 2"),
        (("images",), [{"v": [2, 1, 0], "phase": 0.1}], "image v has length 3, charge rank is 2"),
    ],
)
@pytest.mark.parametrize("sub", ["check-triple", "growth", "translation"])
def test_bad_triple_data_is_input_error(tmp_path, capsys, sub, where, value, message):
    # flags must be JSON booleans, C finite and positive, lattice data integers
    payload = hyperbolic_triple_payload()
    node = payload
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = write(tmp_path / "t.json", payload)
    assert main([sub, path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("where", [("g",), ("sigma",), ("auto",), ("g", "f0"), ("sigma", "Z")])
def test_missing_key_is_named(tmp_path, capsys, where):
    payload = hyperbolic_triple_payload()
    node = payload
    for key in where[:-1]:
        node = node[key]
    del node[where[-1]]
    path = write(tmp_path / "t.json", payload)
    assert main(["check-triple", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == 'input error: missing key "%s"\n' % where[-1]
    assert captured.out == ""


def test_json_boolean_flags_and_a_finite_support_constant_are_accepted(tmp_path, capsys):
    payload = hyperbolic_triple_payload()
    payload["sigma"].update(weak=False, C=2.0)
    payload["auto"]["allow_nonunimodular"] = False
    payload["seed"] = {"factors": [{"v": [0, 1], "phase": 0.5}, {"v": [1, 0], "phase": 0.0}]}
    path = write(tmp_path / "t.json", payload)
    assert main(["check-triple", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma"]["C"] == 2.0 and out["sigma"]["weak"] is False
    assert main(["growth", path, "--n-max", "64", "--format", "text"]) == 0


@pytest.mark.parametrize("scale", [5e307, 1e300])
@pytest.mark.parametrize("sub", ["check-triple", "growth", "translation"])
def test_huge_central_charge_is_input_error(tmp_path, capsys, sub, scale):
    # 5e307 overflowed abs() in a raw traceback, 1e300 leaked a numpy warning
    payload = hyperbolic_triple_payload()
    payload["sigma"]["Z"] = [[x * scale for x in row] for row in payload["sigma"]["Z"]]
    path = write(tmp_path / "t.json", payload)
    assert main([sub, path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("input error: triple data overflows float arithmetic: "
                            "overflow encountered in dot\n")
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid, message",
    [
        ("nan", "argument --t-grid: weights must be finite, got nan"),
        ("inf", "argument --t-grid: weights must be finite, got inf"),
        ("1,nan", "argument --t-grid: weights must be finite, got 1,nan"),
        ("-1e308", "t grid overflows float arithmetic: overflow encountered in multiply"),
    ],
)
def test_non_finite_or_overflowing_weight_is_input_error(tmp_path, capsys, grid, message):
    # nan exited 0 with an all-NaN report; inf and -1e308 leaked numpy warnings
    payload = hyperbolic_triple_payload()
    payload["g"]["f0"] += 2.0  # phases drift by 2 per step, so t phi overflows
    path = write(tmp_path / "t.json", payload)
    assert main(["growth", path, "--t-grid=" + grid]) == 2
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
                 ["scenario", "curve", "--genus-class", "zero"],
                 ["growth", path, "--schedule", "linear"],
                 ["growth", path, "--schedule", "geom"],
                 ["scenario", "coh1", "--degL", "3"],
                 ["scenario", "curve", "--p1", "0.3"],
                 ["scenario", "ginzburg", "--n-max", "64"],
                 ["scenario", "pseudo-anosov", "--m", "1"]):
        assert main(argv) == 2, argv
    capsys.readouterr()
    assert main(["growth", path, "--n-max", "64", "--t-grid", "0", "--tol", "1e-9"]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["growth", "{path}", "--schedule", "linear"], "unrecognized arguments: --schedule linear"),
        (["scenario", "coh1", "--degL", "3"], "scenario coh1 takes no --degL"),
        (["scenario", "coh1", "--degL", "3", "--p1", "0.9"], "scenario coh1 takes no --degL, --p1"),
        (["scenario", "ginzburg", "--n-max", "64"], "scenario ginzburg takes no --n-max"),
        (["scenario", "pseudo-anosov", "--m", "1"], "scenario pseudo-anosov takes no --m"),
    ],
)
def test_a_flag_that_is_not_read_is_one_input_error_line(tmp_path, capsys, argv, message):
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["growth", "{path}", "--t-grid", "a"],
         "argument --t-grid: expected comma-separated numbers, got a"),
        (["scenario", "pseudo-anosov", "--matrix", "2,x;1,1"],
         'argument --matrix: expected integer rows "a,b;c,d", got 2,x;1,1'),
        (["spectral", "{path}", "--format", "csv"], None),
        (["check-triple", "{path}", "--format", "csv"], None),
    ],
    ids=["t-grid", "matrix", "spectral-csv", "check-triple-csv"],
)
def test_a_usage_error_says_what_was_expected(tmp_path, capsys, argv, message):
    # csv was accepted by spectral and check-triple, which wrote JSON; the
    # wording of a refused choice is argparse's own and varies with Python
    if message is None:
        probe = argparse.ArgumentParser(exit_on_error=False)
        probe.add_argument("--format", choices=("json", "text"))
        with pytest.raises(argparse.ArgumentError) as refused:
            probe.parse_args(["--format", "csv"])
        message = str(refused.value)
    path = write(tmp_path / "t.json", hyperbolic_triple_payload())
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[10**400, 0], [0, 1]], "int too large to convert to float"),
        ([[10**200, 1], [1, 1]], "(34, 'Numerical result out of range')"),
    ],
    ids=["int-to-float", "root-residual"],
)
def test_spectral_overflow_is_input_error(tmp_path, capsys, matrix, message):
    # both leaked a raw OverflowError traceback
    path = write(tmp_path / "m.json", matrix)
    assert main(["spectral", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: matrix overflows float arithmetic: %s\n" % message
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ginzburg", "--d", "2"], "the construction needs an odd shift parameter >= 3"),
        (["ginzburg", "--p1", "0.9", "--p2", "0.1"], "phases must satisfy 0 < phase1 < phase2 < 1"),
        (["coh1", "--lambda", "0.5"],
         "the divisor eigenvalue must be a positive integer: rescaling coordinates cannot "
         "make a non-integer eigenvalue integral"),
        (["pseudo-anosov", "--matrix", "1,1;0,2"], "the action matrix must have determinant one"),
    ],
    ids=["ginzburg-d", "ginzburg-phases", "coh1-lambda", "pseudo-anosov-det"],
)
def test_a_scenario_flag_that_fails_a_precondition_is_input_error(capsys, argv, message):
    # each exited 3 as a numerical failure
    assert main(["scenario"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: %s\n" % message
    assert captured.out == ""


BIG = "1" + "0" * 400  # an integer flag beyond the float range


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curve", "--degL", BIG], "scenario curve overflows float arithmetic: "
                                   "int too large to convert to float"),
        (["coh1", "--m", BIG], "scenario coh1 overflows float arithmetic: "
                               "int too large to convert to float"),
        (["pseudo-anosov", "--matrix", "1,%s;0,1" % BIG],
         "scenario pseudo-anosov overflows float arithmetic: int too large to convert to float"),
        (["weak", "--intersection", "1e308"],
         "scenario weak overflows float arithmetic: overflow encountered in dot"),
    ],
    ids=["curve-degL", "coh1-m", "pseudo-anosov-matrix", "weak-intersection"],
)
def test_a_scenario_flag_that_overflows_float_arithmetic_is_input_error(capsys, argv, message):
    # the first three leaked an OverflowError traceback (exit 1); weak printed
    # numpy's overflow warning and then "math domain error"
    assert main(["scenario"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["curve"], ["coh1"], ["weak"], ["ginzburg"], ["pseudo-anosov"],
     ["coh1", "--lambda", "1e300"], ["weak", "--intersection", "1e-320"]],
    ids=["curve", "coh1", "weak", "ginzburg", "pseudo-anosov", "coh1-lambda-1e300",
         "weak-intersection-1e-320"],
)
def test_scenarios_in_the_float_range_run_without_stderr(capsys, argv):
    assert main(["scenario"] + argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["name"]


def test_scenario_csv_format(capsys):
    assert main(["scenario", "pseudo-anosov", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "claim,value,expected,tolerance,passed\n"
        '"mass growth equals the lattice radius log",0.962423650119,0.962423650119,0.001,True\n'
        '"translation length equals the lattice radius log",'
        "0.962423650119,0.962423650119,0.05,True\n"
        '"closed form agrees with the lattice radius log",'
        "0.962423650119,0.962423650119,1e-09,True\n")


def test_scenario_unknown_name():
    assert main(["scenario", "does-not-exist"]) == 2


@pytest.mark.parametrize("name", ["curve", "coh1", "weak", "pseudo-anosov"])
def test_scenario_n_max_defaults_to_the_scenarios_own(capsys, name):
    default = inspect.signature(scenarios.SCENARIOS[name]).parameters["n_max"].default
    assert main(["scenario", name]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["n_max"] == default
    assert main(["scenario", name, "--n-max", "1024"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["n_max"] == 1024
    assert main(["scenario", name, "--n-max", "8"]) == 2


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


# --- limits of --n-max and of the weights -----------------------------------------------


def readme_triple_payload():
    """The JSON block under "A triple file looks like" in README.md."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("A triple file looks like", 1)[1].split("```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


@pytest.mark.parametrize("n_max", ["100000000000000000000", str(2**63)])
@pytest.mark.parametrize("argv", [["growth", "T"], ["translation", "T"], ["scenario", "curve"],
                                  ["scenario", "coh1"], ["scenario", "weak"]],
                         ids=["growth", "translation", "curve", "coh1", "weak"])
def test_n_max_beyond_int64_is_one_input_error_line(tmp_path, capsys, argv, n_max):
    # 1e20 raised a raw OverflowError, growth blamed the t grid, and 2^63
    # leaked a numpy cast warning
    path = write(tmp_path / "t.json", readme_triple_payload())
    argv = [path if a == "T" else a for a in argv]
    assert main(argv + ["--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: --n-max must be below 2^63, got %s\n" % n_max
    assert captured.out == ""


def test_n_max_just_below_two_to_the_sixty_three_runs(tmp_path, capsys):
    path = write(tmp_path / "t.json", readme_triple_payload())
    argv = ["growth", path, "--n-max", str(2**63 - 1), "--t-grid", "0", "--format", "text"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "t 0 exp_rate 0.962423650119 poly_rate 0\n"


@pytest.mark.parametrize(
    "grid, message",
    [
        ("-1e12", "weight t = -1e+12 is too large for this stream: |t| max|phi| = 2.5e+11 "
                  "is resolved only to 3.05e-05, beyond 1e-10 n_max = 4.1e-07"),
        ("0,1e19", "weight t = 1e+19 is too large for this stream: |t| max|phi| = 2.5e+18 "
                   "is resolved only to 512, beyond 1e-10 n_max = 4.1e-07"),
        ("-1e100", "weight t = -1e+100 is too large for this stream: |t| max|phi| = 2.5e+99 "
                   "is resolved only to 4.86e+83, beyond 1e-10 n_max = 4.1e-07"),
    ],
)
def test_a_weight_that_rounds_the_log_masses_away_is_input_error(tmp_path, capsys, grid, message):
    # README's triple exited 0 with exp_rate 0.962434 at -1e15, 1.738 at
    # -1e19 and 0 at -1e100 (closed form 0.962423650119)
    path = write(tmp_path / "t.json", readme_triple_payload())
    assert main(["growth", path, "--t-grid=" + grid]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: %s\n" % message
    assert captured.out == ""

"""End-to-end checks of the carleman command line driver."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from carleman import cli
from carleman.fbi import GridFunction
from carleman.fixtures import sign_grid
from carleman.jets import jet_from_dict, jet_max_diff, jet_to_dict, jet_variable
from carleman.weights import assoc, make_sequence

GEVREY2 = {"kind": "gevrey", "s": 2.0, "K_max": 64}


def run(tmp_path, args, config=None, out="out"):
    argv = list(args)
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    argv += ["--out", str(tmp_path / out)]
    return cli.main(argv), tmp_path / out


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# jet serialization used by the config loader

def test_jet_dict_roundtrip():
    a = jet_variable(1, 2, 1, 6, base_x=(0.5, -0.25), base_zeta=(1 + 2j,))
    b = jet_from_dict(jet_to_dict(a))
    assert jet_max_diff(a, b) == 0.0
    assert b.base_x == a.base_x
    assert b.base_zeta == a.base_zeta
    assert b.degree == a.degree


def test_jet_dict_accepts_bare_base_numbers():
    d = {"base_point": [0.5], "n_x": 1, "n_zeta": 0, "D": 4,
         "coeffs": [[[1], 2.0, 0.0]]}
    a = jet_from_dict(d)
    assert a.base_x == (0.5,)
    assert a.coeffs[(1,)] == 2.0


# ---------------------------------------------------------------------------
# weights

WEIGHTS_CFG = {"seq": {"kind": "gevrey", "s": 2.0, "K_max": 4096},
               "r": {"lo": 0.05, "hi": 4.0, "n": 12, "spacing": "log"},
               "absorption": {"n": [1, 2],
                              "r": {"lo": 1e-3, "hi": 1.0, "n": 40,
                                    "spacing": "log"}}}


def test_weights_outputs(tmp_path):
    rc, out = run(tmp_path, ["weights"], WEIGHTS_CFG)
    assert rc == 0
    header, rows = read_csv(out / "weights.csv")
    assert header == ["r", "h", "h1", "bigN"]
    assert len(rows) == 12
    seq = make_sequence("gevrey", s=2.0, K_max=4096)
    r = np.array([float(row[0]) for row in rows])
    h = np.array([float(row[1]) for row in rows])
    assert np.allclose(h, assoc(seq, "h", r), rtol=0, atol=0)

    rep = json.loads((out / "weights.json").read_text())
    assert rep["results"]["regular"] is True
    fits = rep["results"]["absorption"]
    assert [f["n"] for f in fits] == [1, 2]
    assert all(f["passed"] for f in fits)
    assert set(rep["versions"]) == {"carleman", "numpy", "scipy"}


def test_weights_rerun_byte_identical(tmp_path):
    run(tmp_path, ["weights"], WEIGHTS_CFG, out="a")
    run(tmp_path, ["weights"], WEIGHTS_CFG, out="b")
    for name in ("weights.csv", "weights.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_weights_floats_full_precision(tmp_path):
    _, out = run(tmp_path, ["weights"], WEIGHTS_CFG)
    # 0.05 is not a binary float; 17 significant digits expose that
    assert "0.050000000000000003" in (out / "weights.csv").read_text()


def test_weights_guard_is_failure_not_usage(tmp_path):
    cfg = dict(WEIGHTS_CFG, seq=GEVREY2)   # table too small for r = 1e-3
    rc, _ = run(tmp_path, ["weights"], cfg)
    assert rc == 1


# ---------------------------------------------------------------------------
# jets

JETS_CFG = {"field": {"a": [{"base_point": [[0.0, 0.0]], "n_x": 1,
                             "n_zeta": 0, "D": 8,
                             "coeffs": [[[0], 1.0, 0.0]]}], "b": []},
            "datum": {"base_point": [[0.0, 0.0]], "n_x": 1, "n_zeta": 0,
                      "D": 8, "coeffs": [[[2], 1.0, 0.0]]},
            "n_max": 6}


def test_jets_transport_oracle(tmp_path):
    rc, out = run(tmp_path, ["jets"], JETS_CFG)
    assert rc == 0
    header, rows = read_csv(out / "jets.csv")
    assert header == ["n", "residual"]
    assert all(float(r[1]) <= 1e-12 for r in rows)

    rep = json.loads((out / "jets.json").read_text())
    u = rep["results"]["u"]
    assert len(u) == 7
    # transport of x^2 along d/dt + d/dx: u1 = -2x, u2 = 1, u3 = 0
    assert u[1]["coeffs"] == [[[1], -2.0, 0.0]]
    assert u[2]["coeffs"] == [[[0], 1.0, 0.0]]
    assert u[3]["coeffs"] == []
    assert rep["results"]["max_residual"] == 0.0


def test_jets_missing_datum_is_config_error(tmp_path):
    rc, _ = run(tmp_path, ["jets"], {"field": {"a": [], "b": []}})
    assert rc == 2


@pytest.mark.parametrize("counts", [{"n_max": "abc"}, {"residual_n": "x"},
                                    {"residual_n": 6}])
def test_jets_bad_counts_are_config_errors(tmp_path, capsys, counts):
    rc, _ = run(tmp_path, ["jets"], dict(JETS_CFG, **counts))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("rows", [
    [[[1], 1.0, 0.0], [[0, 1], 1.0, 0.0], [[1.5], 2.0, 0.0],
     [[9], 1.0, 0.0]],                             # every fault at once
    [[[0, 2], 1.0, 0.0]],                          # wrong length
    [[[1.5], 1.0, 0.0]],                           # non-integer exponent
    [[[-1], 1.0, 0.0]],                            # negative exponent
    [[[9], 1.0, 0.0]],                             # degree above D = 8
    [[[2], 1.0, 0.0], [[2], 1.0, 0.0]],            # index given twice
])
def test_jets_bad_datum_is_config_error(tmp_path, capsys, rows):
    datum = dict(JETS_CFG["datum"], coeffs=rows)
    rc, out = run(tmp_path, ["jets"], dict(JETS_CFG, datum=datum))
    assert rc == 2 and one_line_error(capsys)
    assert not (out / "jets.json").exists()


# d/dt + t d/dx: the coefficient lives on (x, t), the datum u(x, 0) on x
JETS_TD_CFG = {"field": {"a": [{"n_x": 2, "n_zeta": 0, "D": 8,
                                "coeffs": [[[0, 1], 1.0, 0.0]]}], "b": [],
                         "time_dependent": True},
               "datum": {"n_x": 1, "n_zeta": 0, "D": 8,
                         "coeffs": [[[2], 1.0, 0.0]]},
               "n_max": 4}


def test_jets_time_dependent_oracle(tmp_path):
    # (d/dt + t d/dx) u = 0, u(x, 0) = x^2 has u = (x - t^2/2)^2
    rc, out = run(tmp_path, ["jets"], JETS_TD_CFG)
    assert rc == 0
    _, rows = read_csv(out / "jets.csv")
    assert [float(r[1]) for r in rows] == [0.0] * 4
    res = json.loads((out / "jets.json").read_text())["results"]
    assert res["n_max"] == 4 and res["max_residual"] == 0.0
    assert [u["n_x"] for u in res["u"]] == [1] * 5
    # the t^m coefficients x^2, 0, -x, 0, 1/4
    assert [u["coeffs"] for u in res["u"]] == [
        [[[2], 1.0, 0.0]], [], [[[1], -1.0, 0.0]], [], [[[0], 0.25, 0.0]]]


def test_jets_time_dependent_datum_of_wrong_arity_is_config_error(
        tmp_path, capsys):
    # a datum over (x, t) has one variable more than u(x, 0)
    datum = {"n_x": 2, "n_zeta": 0, "D": 8, "coeffs": [[[1, 0], 1.0, 0.0]]}
    rc, out = run(tmp_path, ["jets"], dict(JETS_TD_CFG, datum=datum))
    assert rc == 2 and one_line_error(capsys)
    assert not out.exists()


def test_weights_absorption_overflow_is_fit_failure(tmp_path, capsys):
    # n = 300 needs C ~ e^1418, past the largest float
    cfg = dict(WEIGHTS_CFG, absorption={"n": [300], "r": {
        "lo": 1e-3, "hi": 1.0, "n": 40, "spacing": "log"}})
    rc, _ = run(tmp_path, ["weights"], cfg)
    assert rc == 1 and one_line_error(capsys)


# ---------------------------------------------------------------------------
# extend

EXTEND_CFG = {"datum": {"base_point": [[0.0, 0.0]], "n_x": 1, "n_zeta": 0,
                        "D": 12,
                        "coeffs": [[[0], 1.0, 0.0], [[2], -1.0, 0.0],
                                   [[4], 1.0, 0.0], [[6], -1.0, 0.0]]},
              "seq": {"kind": "gevrey", "s": 2.0, "K_max": 4096},
              "n_max": 10,
              "x": {"lo": -0.5, "hi": 0.5, "n": 15},
              "t": {"lo": 1e-3, "n": 12}}


def test_extend_flatness_report(tmp_path):
    rc, out = run(tmp_path, ["extend"], EXTEND_CFG)
    assert rc == 0
    res = json.loads((out / "extend.json").read_text())["results"]
    assert res["passed"] is True
    assert res["A"] >= 1.0
    assert res["sup_ratio"] <= 1.0
    assert 0.0 < res["delta"] < 1.0

    header, rows = read_csv(out / "extend.csv")
    assert header == ["t", "sup_abs_Lu", "h_Q_t", "ratio"]
    assert len(rows) == 12
    for row in rows:
        t, sup, h, ratio = map(float, row)
        assert 0.0 < t < res["delta"]
        assert ratio <= 1.0 + 1e-12
        if h > 0.0:
            assert ratio == pytest.approx(sup / (res["A"] * h), rel=1e-12)


def test_extend_t_grid_beyond_delta_is_config_error(tmp_path, capsys):
    # criterion-4 datum sum (-c)^j x^(2j) at c = 2: the growth fit gives
    # delta ~ 1.5e-4, below the default t floor of 1e-3
    D = 24
    cfg = {"datum": {"n_x": 1, "n_zeta": 0, "D": D,
                     "coeffs": [[[2 * j], (-2.0) ** j, 0.0]
                                for j in range(D // 2 + 1)]},
           "seq": {"kind": "gevrey", "s": 2.0, "K_max": 4096},
           "n_max": 12}
    rc, out = run(tmp_path, ["extend"], cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "delta = 0.000153" in err
    assert not (out / "extend.csv").exists()


# ---------------------------------------------------------------------------
# fbi

def test_fbi_sign_fixture(tmp_path):
    cfg = {"grid": {"fixture": "sign", "n": 4096}, "seq": GEVREY2,
           "x0": [0.0]}
    rc, out = run(tmp_path, ["fbi"], cfg)
    assert rc == 0
    rep = json.loads((out / "fbi.json").read_text())["results"]
    # jump at the origin: neither half line decays
    assert rep["failed_indices"] == [0, 1]

    header, rows = read_csv(out / "fbi.csv")
    assert header == ["direction_index", "omega_0", "lambda", "abs_F",
                      "envelope", "passed"]
    keys = [(int(r[0]), float(r[2])) for r in rows]
    assert keys == sorted(keys)
    assert all(r[5] == "false" for r in rows)


def test_fbi_reads_saved_grid(tmp_path):
    path = tmp_path / "sign.bin"
    sign_grid(n=4096).save(str(path))
    cfg = {"grid": {"file": str(path)}, "seq": GEVREY2, "x0": [0.0]}
    rc, out = run(tmp_path, ["fbi"], cfg)
    assert rc == 0
    rep = json.loads((out / "fbi.json").read_text())["results"]
    assert rep["failed_indices"] == [0, 1]


def test_fbi_missing_grid_file(tmp_path, capsys):
    cfg = {"grid": {"file": str(tmp_path / "nope.bin")}, "x0": [0.0]}
    rc, _ = run(tmp_path, ["fbi"], cfg)
    assert rc == 2
    assert "nope.bin" in capsys.readouterr().err


def _mangled(data: bytes, case: str) -> bytes:
    if case == "truncated":
        return data[:-8]
    if case == "trailing bytes":
        return data + b"\0"
    if case == "no header":
        return data[:2]
    dim = {"dim 0": 0, "dim 3": 3, "dim 2^31": 2 ** 31}[case]
    return dim.to_bytes(4, "little") + data[4:]


@pytest.mark.parametrize("case", ["truncated", "trailing bytes", "no header",
                                  "dim 0", "dim 3", "dim 2^31"])
def test_fbi_malformed_grid_file(tmp_path, capsys, case):
    path = tmp_path / "sign.bin"
    sign_grid(n=64).save(str(path))
    path.write_bytes(_mangled(path.read_bytes(), case))
    cfg = {"grid": {"file": str(path)}, "seq": GEVREY2, "x0": [0.0]}
    rc, _ = run(tmp_path, ["fbi"], cfg)
    assert rc == 2 and one_line_error(capsys)


def test_fbi_noise_respects_seed(tmp_path):
    cfg = {"grid": {"fixture": "sign", "n": 4096, "noise": 1e-6},
           "seq": GEVREY2, "x0": [0.0]}
    for out, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        rc, _ = run(tmp_path, ["fbi", "--seed", seed], cfg, out=out)
        assert rc == 0
    a = (tmp_path / "a" / "fbi.csv").read_bytes()
    assert a == (tmp_path / "b" / "fbi.csv").read_bytes()
    assert a != (tmp_path / "c" / "fbi.csv").read_bytes()


def _nan_sign_grid_file(tmp_path):
    gf = sign_grid(n=4096)
    gf.values[1000] = np.nan
    path = tmp_path / "nan.bin"
    gf.save(str(path))
    return {"file": str(path)}


@pytest.mark.parametrize("grid, size", [
    # the pole at offset 0 puts 1/0 on the sample y = 0
    pytest.param(lambda tmp: {"fixture": "pole", "n": 4097, "offset": 0},
                 4097, id="pole-offset-0"),
    pytest.param(_nan_sign_grid_file, 4096, id="saved-nan"),
])
def test_fbi_non_finite_grid_fails_in_one_line(tmp_path, capsys, grid, size):
    cfg = {"grid": grid(tmp_path), "x0": [0.5]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run(tmp_path, ["fbi"], cfg)
    assert not caught
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert f"NaN or infinite samples: 1 of {size}" in err
    assert not (out / "fbi.json").exists()


def test_fbi_three_dimensional_grid_is_config_error(tmp_path, capsys):
    path = tmp_path / "gauss3.bin"
    GridFunction.from_function(lambda a, b, c: np.exp(-a * a - b * b - c * c),
                               [-1.0] * 3, [1.0] * 3, 8).save(str(path))
    rc, _ = run(tmp_path, ["fbi"], {"grid": {"file": str(path)}})
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "1-D and 2-D grids" in err


# ---------------------------------------------------------------------------
# wf-experiment

def test_wf_conormal_fixture(tmp_path):
    rc, out = run(tmp_path, ["wf-experiment", "--fixture", "conormal"])
    assert rc == 0
    res = json.loads((out / "wf-experiment.json").read_text())["results"]
    assert res["pass"] is True
    assert res["n"] == 368                  # derived from the sampling guard
    assert res["scan"]["singular_indices"] == [24, 56]
    assert res["a0"] == [[-1.0, 0.0]]
    assert max(res["char_distances"]) < 1e-9
    header, rows = read_csv(out / "wf-experiment.csv")
    assert header[:3] == ["direction_index", "omega_0", "omega_1"]
    assert len(rows) == 64 * 12


def test_wf_holomorphic_fixture(tmp_path):
    rc, out = run(tmp_path, ["wf-experiment", "--fixture", "holomorphic"])
    assert rc == 0
    res = json.loads((out / "wf-experiment.json").read_text())["results"]
    assert res["pass"] is True
    assert res["n"] == 368
    assert res["scan"]["singular_indices"] == []
    assert res["char_distances"] == []


def test_wf_echoes_an_explicit_n(tmp_path):
    rc, out = run(tmp_path, ["wf-experiment"], _WF_SMALL)
    assert rc == 0
    res = json.loads((out / "wf-experiment.json").read_text())["results"]
    assert res["n"] == _WF_SMALL["n"]
    assert res["scan"]["singular_indices"] == [24, 56]


def test_wf_derived_n_stops_at_the_ceiling(tmp_path):
    # radius 6 asks for n = 3424 at half the allowed step; GRID_N = 2752
    # is within the allowed step, so the experiment scans at 2752
    cfg = {"solution": {"fixture": "conormal"}, "radius": 6.0}
    rc, out = run(tmp_path, ["wf-experiment"], cfg)
    assert rc == 0
    res = json.loads((out / "wf-experiment.json").read_text())["results"]
    assert res["pass"] is True and res["n"] == 2752
    assert res["scan"]["singular_indices"] == [24, 56]


def test_wf_radius_beyond_the_ceiling_fails_in_one_line(tmp_path, capsys,
                                                        monkeypatch):
    # radius 10 needs n = 3668 at lambda = 64 even at the full allowed
    # step, so GRID_N fails the guard; no grid may be built
    def no_grid(*args):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(GridFunction, "from_function", classmethod(no_grid))
    cfg = {"solution": {"fixture": "holomorphic"}, "radius": 10.0}
    rc, out = run(tmp_path, ["wf-experiment"], cfg)
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith("error: axis 0 step")
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [
    pytest.param("wf-experiment", {"solution": {"fixture": "conormal"},
                                   "n": 512, "base": [0.1, 0.1],
                                   "scan": {"a_threshold": 1e-3}}, id="wf"),
    pytest.param("fbi", {"grid": {"fixture": "conormal", "n": 512},
                         "scan": {"a_threshold": 1e-3}}, id="fbi"),
])
def test_scan_failing_every_direction_has_no_verdict(tmp_path, capsys,
                                                     command, cfg):
    # all 64 directions fail, so no band stands out against a regular one
    rc, out = run(tmp_path, [command], cfg)
    assert rc == 1 and one_line_error(capsys)
    assert not out.exists()


def test_wf_mismatched_model_fails(tmp_path):
    # transport speed 2 does not match the |x - t|^3 kink direction
    cfg = {"solution": {"fixture": "conormal"},
           "model": {"base_point": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     "n_x": 1, "n_zeta": 2, "D": 8,
                     "coeffs": [[[0, 0, 1], -2.0, 0.0]]},
           "seq": GEVREY2}
    rc, out = run(tmp_path, ["wf-experiment"], cfg)
    assert rc == 1
    res = json.loads((out / "wf-experiment.json").read_text())["results"]
    assert res["pass"] is False
    assert res["included"] == [False, False]
    assert min(res["char_distances"]) > res["step"]


@pytest.mark.parametrize("model", [
    pytest.param({}, id="fixture-model"),
    pytest.param({"model": {"n_x": 1, "n_zeta": 2, "D": 8,
                            "coeffs": [[[0, 0, 1], -1.0, 0.0]]}},
                 id="config-model"),
])
def test_wf_trust_radius_bounds_either_model(tmp_path, capsys, model):
    # |x - t|^3 = 1e-3 at the base point, beyond the trusted 1e-9
    cfg = dict(_WF_SMALL, trust_radius=1e-9, base=[0.1, 0.2], **model)
    rc, out = run(tmp_path, ["wf-experiment"], cfg)
    assert rc == 1 and one_line_error(capsys)
    assert not out.exists()


# ---------------------------------------------------------------------------
# acceptance

def test_acceptance_subset(tmp_path, capsys):
    rc, out = run(tmp_path, ["acceptance"], {"criteria": [2, 5]})
    assert rc == 0
    text = capsys.readouterr().out
    assert "[ 2] PASS" in text
    assert "2/2 criteria passed" in text
    rep = json.loads((out / "acceptance.json").read_text())
    assert [r["number"] for r in rep["results"]["results"]] == [2, 5]
    assert all(r["passed"] for r in rep["results"]["results"])


def test_acceptance_rejects_unknown_criterion(tmp_path):
    rc, _ = run(tmp_path, ["acceptance"], {"criteria": [11]})
    assert rc == 2


def test_acceptance_needs_selection(tmp_path):
    rc, _ = run(tmp_path, ["acceptance"])
    assert rc == 2


# ---------------------------------------------------------------------------
# driver plumbing

def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_config_must_parse(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["weights", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


_WF_SMALL = {"solution": {"fixture": "conormal"}, "n": 256}


def _sign_scan(**scan):
    return {"grid": {"fixture": "sign"}, "seq": GEVREY2, "scan": scan}

# shorter than EXTEND_CFG's series of n_max = 10 terms
_SHORT_SEQ = {"kind": "gevrey", "s": 2.0, "K_max": 8}


@pytest.mark.parametrize("command, cfg", [
    pytest.param("weights", [], id="weights"),
    pytest.param("weights", {"seq": []}, id="weights.seq"),
    pytest.param("weights", dict(WEIGHTS_CFG, absorption=[1, 2]),
                 id="weights.absorption"),
    pytest.param("jets", dict(JETS_CFG, field=[]), id="jets.field"),
    pytest.param("extend", dict(EXTEND_CFG, seq=[]), id="extend.seq"),
    pytest.param("extend", dict(EXTEND_CFG, kernel="x"), id="extend.kernel"),
    pytest.param("extend", dict(EXTEND_CFG, t=[]), id="extend.t"),
    pytest.param("fbi", {"grid": []}, id="fbi.grid"),
    pytest.param("fbi", {"grid": {"fixture": "sign"}, "seq": None},
                 id="fbi.seq"),
    pytest.param("fbi", {"grid": {"fixture": "sign"}, "scan": []},
                 id="fbi.scan"),
    pytest.param("wf-experiment", {"solution": []}, id="wf.solution"),
    pytest.param("wf-experiment", dict(_WF_SMALL, seq=3), id="wf.seq"),
    pytest.param("wf-experiment", dict(_WF_SMALL, scan=[]), id="wf.scan"),
    pytest.param("acceptance", [2, 5], id="acceptance"),
])
def test_non_object_section_is_config_error(tmp_path, capsys, command, cfg):
    rc, _ = run(tmp_path, [command], cfg)
    assert rc == 2 and one_line_error(capsys)


@pytest.mark.parametrize("command, cfg", [
    pytest.param("wf-experiment", dict(_WF_SMALL, n="x"), id="wf.n"),
    pytest.param("wf-experiment", dict(_WF_SMALL, base=[0.0]), id="wf.base"),
    pytest.param("wf-experiment", {"n": 1}, id="wf.n-1"),
    pytest.param("fbi", {"grid": {"fixture": "conormal", "n": 1}},
                 id="fbi.grid.n-1"),
    pytest.param("fbi", {"grid": {"fixture": "sign", "n": "many"}},
                 id="fbi.grid.n"),
    pytest.param("fbi", {"grid": {"fixture": "sign"}, "x0": 3}, id="fbi.x0"),
    pytest.param("fbi", {"grid": {"fixture": "sign"}, "x0": [0.0, 0.0]},
                 id="fbi.x0-length"),
    pytest.param("fbi", {"grid": {"fixture": "sign"},
                         "scan": {"a_threshold": "high"}},
                 id="fbi.scan.a_threshold"),
    pytest.param("extend", dict(EXTEND_CFG, x=[]), id="extend.x"),
    pytest.param("extend", dict(EXTEND_CFG, n_max=[10]), id="extend.n_max"),
    pytest.param("extend", dict(EXTEND_CFG, C_star=0), id="extend.C_star-0"),
    pytest.param("extend", dict(EXTEND_CFG, C_star=-2.0),
                 id="extend.C_star-negative"),
    pytest.param("extend", dict(EXTEND_CFG, kernel={"epsilon": 1.5}),
                 id="extend.kernel.epsilon"),
    pytest.param("extend", dict(EXTEND_CFG, n_max=-3),
                 id="extend.n_max-negative"),
    pytest.param("extend", dict(EXTEND_CFG, seq=_SHORT_SEQ),
                 id="extend.seq.K_max-short"),
    pytest.param("extend", dict(EXTEND_CFG, seq=_SHORT_SEQ, C_star=2.0),
                 id="extend.seq.K_max-short-C_star"),
    pytest.param("weights", dict(WEIGHTS_CFG, absorption={"n": 3}),
                 id="weights.absorption.n-int"),
    pytest.param("weights", dict(WEIGHTS_CFG, absorption={"n": "abc"}),
                 id="weights.absorption.n-str"),
    pytest.param("weights", dict(WEIGHTS_CFG, r={"values": [0.5, -1.0]}),
                 id="weights.r-negative"),
    pytest.param("weights", dict(WEIGHTS_CFG, absorption={
        "r": {"values": [0.0, 1.0]}}), id="weights.absorption.r-0"),
    pytest.param("wf-experiment", dict(_WF_SMALL, model={
        "n_x": 1, "n_zeta": 1, "D": 8, "coeffs": [[[0, 1], 1.0, 0.0]]}),
                 id="wf.model-no-gradient-slot"),
    pytest.param("wf-experiment", dict(_WF_SMALL, model={
        "n_x": 2, "n_zeta": 3, "D": 8,
        "coeffs": [[[0, 0, 0, 1, 0], 1.0, 0.0]]}),
                 id="wf.model-two-space-variables"),
    pytest.param("wf-experiment", dict(_WF_SMALL, radius=0),
                 id="wf.radius-0"),
    pytest.param("wf-experiment", dict(_WF_SMALL, radius=-1.0),
                 id="wf.radius-negative"),
    pytest.param("fbi", _sign_scan(n_directions=0),
                 id="fbi.scan.n_directions-0"),
    pytest.param("wf-experiment", dict(_WF_SMALL, scan={"n_directions": -4}),
                 id="wf.scan.n_directions-negative"),
    pytest.param("fbi", _sign_scan(lambda_min=100.0),
                 id="fbi.scan.lambda_min-above"),
    pytest.param("fbi", _sign_scan(lambdas={"values": [0.0, 8.0, 64.0]}),
                 id="fbi.scan.lambdas-0"),
    pytest.param("fbi", _sign_scan(a_threshold=0),
                 id="fbi.scan.a_threshold-0"),
    pytest.param("wf-experiment", dict(_WF_SMALL, scan={"a_threshold": -1.0}),
                 id="wf.scan.a_threshold-negative"),
    pytest.param("weights", dict(WEIGHTS_CFG, r={"lo": -1.0, "hi": 4.0,
                                                 "n": 5, "spacing": "log"}),
                 id="weights.r-log-negative"),
    pytest.param("jets", dict(JETS_CFG, field={"a": 3, "b": []}),
                 id="jets.field.a-int"),
    pytest.param("jets", dict(JETS_CFG, field={"a": [dict(
        JETS_CFG["field"]["a"][0], coeffs=[[[0], 1e300, 0.0]])], "b": []}),
                 id="jets.field.a-overflow"),
    pytest.param("extend", dict(EXTEND_CFG, kernel={"n_theta": 0}),
                 id="extend.kernel.n_theta-0"),
    pytest.param("fbi", {"grid": {"fixture": "sign", "half_width": 0}},
                 id="fbi.grid.half_width-0"),
    pytest.param("fbi", {"grid": {"fixture": "sign", "n": 1e300}},
                 id="fbi.grid.n-huge"),
    pytest.param("wf-experiment", dict(_WF_SMALL, base=[1e300, 0.0]),
                 id="wf.base-huge"),
    pytest.param("wf-experiment", dict(_WF_SMALL, base=[0.0, 1e13]),
                 id="wf.base-beyond-a0-stencil"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, command, cfg):
    rc, out = run(tmp_path, [command], cfg)
    assert rc == 2 and one_line_error(capsys)
    assert not out.exists()


def test_unwritable_out_is_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc, _ = run(tmp_path, ["wf-experiment", "--fixture", "holomorphic"],
                out="file/sub")
    assert rc == 1


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "carleman.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("weights", "jets", "extend", "fbi", "wf-experiment",
                 "acceptance"):
        assert name in proc.stdout

"""End-to-end checks of the carleman command line driver."""

import argparse
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from carleman import cli
from carleman.fbi import GridFunction
from carleman.fixtures import sign_grid
from carleman.jets import jet_from_dict, jet_max_diff, jet_to_dict, jet_variable
from carleman.weights import assoc, fbi_envelope, make_sequence

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


@pytest.mark.parametrize("cfg, lo", [
    # the default table certifies r from m_63/m_64, about 1/64, up
    ({}, float(np.exp(-make_sequence("gevrey", s=2.0).increments(63, 64)[0]))),
    ({"seq": WEIGHTS_CFG["seq"]}, 0.01),
], ids=["defaults", "long-table"])
def test_weights_default_r_starts_where_the_table_certifies(tmp_path, capsys,
                                                            cfg, lo):
    rc, out = run(tmp_path, ["weights"], cfg)
    assert rc == 0 and capsys.readouterr().err == ""
    _, rows = read_csv(out / "weights.csv")
    r = [float(row[0]) for row in rows]
    assert len(r) == 50 and r[0] == lo and r[-1] == 10.0
    assert lo == pytest.approx(1.0 / 64.0, rel=1e-12) or lo == 0.01


@pytest.mark.parametrize("s, lo", [(2.0, 1.0 / 64.0), (1.5, 0.125)],
                         ids=["gevrey-2", "gevrey-1.5"])
def test_weights_default_absorption_r_starts_where_the_table_certifies(
        tmp_path, capsys, s, lo):
    # K_max 64 certifies r from m_63/m_64 = 64^-(s-1) up, above the 1e-3
    # the default absorption grid starts at on a long table
    seq = {"kind": "gevrey", "s": s}
    rc, out = run(tmp_path, ["weights"], {"seq": seq,
                                          "absorption": {"n": [1, 2, 3]}})
    assert rc == 0 and capsys.readouterr().err == ""
    fits = json.loads((out / "weights.json").read_text())["results"]
    least = float(np.exp(-make_sequence("gevrey", s=s).increments(63, 64)[0]))
    assert least == pytest.approx(lo, rel=1e-12)
    explicit = {"lo": least, "hi": 1.0, "n": 40, "spacing": "log"}
    rc, again = run(tmp_path, ["weights"], {"seq": seq, "absorption": {
        "n": [1, 2, 3], "r": explicit}}, out="explicit")
    assert rc == 0
    assert json.loads((again / "weights.json").read_text())["results"] == fits
    assert [f["n"] for f in fits["absorption"]] == [1, 2, 3]


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


@pytest.mark.parametrize("counts, message", [
    ({"n_max": 0}, "n_max must be a 64-bit integer >= 1, not 0"),
    ({"n_max": -1}, "n_max must be a 64-bit integer >= 1, not -1"),
    ({"residual_n": -1}, "residual_n must be a 64-bit integer >= 0, not -1"),
], ids=["n_max-0", "n_max-negative", "residual_n-negative"])
def test_jets_counts_out_of_range_name_their_key(tmp_path, capsys, counts,
                                                 message):
    rc, out = run(tmp_path, ["jets"], dict(JETS_CFG, **counts))
    assert rc == 2 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


def test_weights_gevrey_table_that_overflows_is_config_error(tmp_path,
                                                             capsys):
    # log m_k = (s - 1) log k! is inf from k = 4 on, where the NaN second
    # differences would pass conditions b) to d)
    cfg = {"seq": {"kind": "gevrey", "s": 1e308, "K_max": 64}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run(tmp_path, ["weights"], cfg)
    assert not caught
    assert rc == 2 and capsys.readouterr().err == (
        "error: bad sequence spec: Gevrey exponent 1e+308: log m_4 is not "
        "finite\n")
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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the x stencil of step 1e-4 reads about 1.4e-8 where "
    "the series has ended and L U is roundoff"))
def test_extend_reads_no_flatness_where_the_series_ends(tmp_path):
    # the datum is a polynomial of degree 6, so its series ends at u_6 and
    # L U is roundoff wherever no node truncates it: the 8 rows t <= 0.031
    rc, out = run(tmp_path, ["extend"], EXTEND_CFG)
    assert rc == 0
    _, rows = read_csv(out / "extend.csv")
    early = [float(sup) for t, sup, _, _ in rows if float(t) <= 0.031]
    assert len(early) == 8
    assert max(early) <= 1e-15


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


@pytest.mark.parametrize("fixture", ["gaussian", "sign", "pole"])
@pytest.mark.parametrize("scan, n", [
    # the sampling guard at lambda = 64 over half-width 8 needs 2609
    pytest.param({}, 2609, id="default-scan"),
    # lambdas up to 32 need fewer than the fixtures' own 2048
    pytest.param({"lambdas": {"lo": 4.0, "hi": 32.0, "n": 6,
                              "spacing": "log"}}, 2048, id="lambda-32"),
    # lambdas up to 128 need more than GRID_N = 2752, less than GRID_N ** 2
    pytest.param({"lambdas": {"lo": 4.0, "hi": 128.0, "n": 12,
                              "spacing": "log"}}, 4453, id="lambda-128"),
])
def test_fbi_profile_without_n_takes_the_guard_n(tmp_path, fixture, scan, n):
    rc, derived = run(tmp_path, ["fbi"], {"grid": {"fixture": fixture},
                                          "scan": scan}, out="derived")
    assert rc == 0
    rc, pinned = run(tmp_path, ["fbi"], {"grid": {"fixture": fixture, "n": n},
                                         "scan": scan}, out="pinned")
    assert rc == 0
    assert (derived / "fbi.csv").read_bytes() == \
        (pinned / "fbi.csv").read_bytes()
    results = [json.loads((out / "fbi.json").read_text())["results"]
               for out in (derived, pinned)]
    assert results[0] == results[1]


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
    for out, seed in (("a", "7"), ("b", "7"), ("c", "8"),
                      ("d", str(2 ** 64 - 1))):     # the top u64
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


@pytest.mark.parametrize("shape, half", [((4096,), 8.0), ((512, 512), 1.0)],
                         ids=["1d", "2d"])
def test_fbi_all_zero_grid_fails_in_one_line(tmp_path, capsys, shape, half):
    # both grids pass the sampling guard; the transform vanishes everywhere,
    # which main reports in one line instead of letting it escape
    path = tmp_path / "zeros.bin"
    GridFunction.from_function(lambda *ys: 0.0 * sum(ys), [-half] * len(shape),
                               [half] * len(shape), shape[0]).save(str(path))
    rc, out = run(tmp_path, ["fbi"], {"grid": {"file": str(path)}})
    assert rc == 1 and capsys.readouterr().err == (
        "error: transform vanished identically; nothing to classify\n")
    assert not (out / "fbi.json").exists()


@pytest.mark.parametrize("shape, bound, value", [
    ((4096,), 0, math.nan),         # 1-D lo: scanned as "singular" before
    ((4096,), 1, math.nan),
    ((256, 256), 2, math.nan),      # 2-D second-axis lo
    ((4096,), 0, -math.inf),
    ((4096,), 1, math.inf),
    ((256, 256), 3, math.inf),
], ids=["1d-nan-lo", "1d-nan-hi", "2d-nan-lo", "1d-minus-inf-lo",
        "1d-inf-hi", "2d-inf-hi"])
def test_fbi_non_finite_grid_bounds_are_config_errors(tmp_path, capsys, shape,
                                                      bound, value):
    # the header holds u4 dim, u4 n per axis, then f8 (lo, hi) per axis
    path = tmp_path / "bounds.bin"
    GridFunction.from_function(lambda *ys: np.exp(-sum(y * y for y in ys)),
                               [-8.0] * len(shape), [8.0] * len(shape),
                               shape[0]).save(str(path))
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, 4 + 4 * len(shape) + 8 * bound, value)
    path.write_bytes(bytes(data))
    rc, out = run(tmp_path, ["fbi"], {"grid": {"file": str(path)}})
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert err.startswith(f"error: cannot read grid file {path}: ")
    assert not out.exists()


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
                                   "scan": {"a_threshold": 0.25}}, id="wf"),
    pytest.param("fbi", {"grid": {"fixture": "conormal", "n": 512},
                         "scan": {"a_threshold": 0.25}}, id="fbi"),
])
def test_scan_failing_every_direction_has_no_verdict(tmp_path, capsys,
                                                     command, cfg):
    # every direction fits at A >= 0.5, so at the certified threshold 0.25
    # all 64 fail and no band stands out against a regular one
    rc, out = run(tmp_path, [command], cfg)
    assert rc == 1 and one_line_error(capsys)
    assert not out.exists()


def _below_the_certified_levels(monkeypatch, tmp_path, capsys, command,
                                cfg):
    # the table certifies the envelope at lambda <= 64 from A = 2^-6 up, so
    # no verdict and no envelope column at a_threshold 1e-3 is certified:
    # a config error before any grid is built
    from carleman import fbi

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(fbi.GridFunction, "from_function", no_grid)
    rc, out = run(tmp_path, [command], {**cfg, "scan": {"a_threshold": 1e-3}})
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: scan.a_threshold 0.001 lies below 0.015625, the lowest level "
        "the seq table certifies at lambda = 64; enlarge K_max (now 64)\n")
    assert not out.exists()


def test_fbi_a_threshold_below_the_certified_levels_fails_in_one_line(
        monkeypatch, tmp_path, capsys):
    _below_the_certified_levels(monkeypatch, tmp_path, capsys, "fbi",
                                {"grid": {"fixture": "sign", "n": 4096}})


def test_wf_a_threshold_below_the_certified_levels_fails_in_one_line(
        monkeypatch, tmp_path, capsys):
    _below_the_certified_levels(monkeypatch, tmp_path, capsys,
                                "wf-experiment",
                                {"solution": {"fixture": "conormal"}})


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


@pytest.mark.parametrize("args", [
    ["wf-experiment", "--fixture", "holomorphic"],
    ["acceptance", "--all"],
], ids=["wf-fixture", "acceptance-all"])
def test_config_beside_its_alternative_flag_is_config_error(tmp_path, capsys,
                                                            args):
    # the config is never read, so even an unknown key would go unseen
    rc, out = run(tmp_path, args, {"no_such_key": 1})
    assert rc == 2 and one_line_error(capsys)
    assert not out.exists()


# ---------------------------------------------------------------------------
# driver plumbing

def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, message", [
    pytest.param(["--threads", "1"], "unrecognized arguments: --threads",
                 id="threads"),
    pytest.param(["--seed", "-1"], "argument --seed", id="seed-negative"),
    pytest.param(["--seed", str(2 ** 64)], "argument --seed",
                 id="seed-2**64"),
])
def test_bad_flag_is_usage_error(tmp_path, capsys, flag, message):
    cfg = tmp_path / "weights.json"
    cfg.write_text("{}")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["weights", "--config", str(cfg), "--out", str(out)] + flag)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_no_module_reads_or_writes_the_environment():
    # BLAS takes its thread count from the caller's environment, which
    # the package leaves as it found it
    src = pathlib.Path(cli.__file__).parent
    assert [p.name for p in src.glob("*.py") if "environ" in p.read_text()] \
        == []


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_blas_thread_count_leaves_payloads_unchanged(tmp_path):
    # each thread count set in a fresh interpreter's environment, before
    # numpy loads; with the variables unset BLAS takes its own default
    cfg = tmp_path / "fbi.json"
    cfg.write_text(json.dumps({"grid": {"fixture": "conormal", "n": 300}}))
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).parents[1])
    payloads = []
    for threads in ({}, dict.fromkeys(_THREAD_VARS, "1"),
                    dict.fromkeys(_THREAD_VARS, "2")):
        out = tmp_path / f"threads{threads.get('OMP_NUM_THREADS', '')}"
        runs = [argv + ["--out", str(out)]
                for argv in (["fbi", "--config", str(cfg)],
                             ["wf-experiment", "--fixture", "holomorphic"])]
        code = ("from carleman import cli\n"
                f"for argv in {runs!r}:\n"
                "    assert cli.main(argv) == 0, argv")
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**env, **threads}, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        payloads.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(payloads[0]) == ["fbi.csv", "fbi.json", "wf-experiment.csv",
                                   "wf-experiment.json"]
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


def test_impossible_allocation_is_one_line_error(tmp_path, capsys,
                                                 monkeypatch):
    # numpy's refusal of a 14.6 TiB grid, raised without allocating
    def refuse(**kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with "
                          "shape (1000000, 1000000) and data type complex128")
    monkeypatch.setattr("carleman.fixtures.conormal_grid", refuse)
    rc, out = run(tmp_path, ["fbi"],
                  {"grid": {"fixture": "conormal", "n": 1000000}})
    assert rc == 1 and one_line_error(capsys)
    assert not out.exists()


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


@pytest.mark.parametrize("command, cfg, name", [
    pytest.param("fbi", _sign_scan(), "fbi", id="fbi-sign"),
    pytest.param("fbi", _sign_scan(a_threshold=0.25, floor_rel=1e-5), "fbi",
                 id="fbi-sign-floor"),
    pytest.param("wf-experiment", dict(_WF_SMALL, seq=GEVREY2),
                 "wf-experiment", id="wf"),
])
def test_scan_payload_columns(tmp_path, command, cfg, name):
    # envelope is max(E(a_threshold, lambda), floor_rel) bit for bit, and
    # passed says whether the row's direction passed
    rc, out = run(tmp_path, [command], cfg)
    assert rc == 0
    res = json.loads((out / f"{name}.json").read_text())["results"]
    failed = res.get("scan", res)["failed_indices"]
    header, rows = read_csv(out / f"{name}.csv")
    col = {h: [row[i] for row in rows] for i, h in enumerate(header)}
    lams = np.array([float(v) for v in col["lambda"]])
    scan = cfg.get("scan", {})
    want = np.maximum(fbi_envelope(make_sequence(**GEVREY2),
                                   scan.get("a_threshold", 1.0), lams),
                      scan.get("floor_rel", 1e-11))
    assert np.array_equal(lams[:12], np.geomspace(4.0, 64.0, 12))
    assert [float(v) for v in col["envelope"]] == want.tolist()
    assert col["passed"] == ["false" if int(j) in failed else "true"
                             for j in col["direction_index"]]
    assert failed


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
    # samples normalized to a max of 1 fail nothing under a floor of 1
    pytest.param("fbi", _sign_scan(floor_rel=1.0), id="fbi.scan.floor_rel-1"),
    pytest.param("wf-experiment", dict(_WF_SMALL, scan={"floor_rel": -1e-3}),
                 id="wf.scan.floor_rel-negative"),
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
    *[pytest.param("extend", dict(EXTEND_CFG, kernel={key: value}),
                   id=f"extend.kernel.{key}{value}")
      for key in ("n_r", "n_theta") for value in (0, -3)],
    pytest.param("fbi", {"grid": {"fixture": "sign", "half_width": 0}},
                 id="fbi.grid.half_width-0"),
    pytest.param("fbi", {"grid": {"fixture": "sign", "n": 1e300}},
                 id="fbi.grid.n-huge"),
    pytest.param("wf-experiment", dict(_WF_SMALL, base=[1e300, 0.0]),
                 id="wf.base-huge"),
    pytest.param("wf-experiment", dict(_WF_SMALL, base=[0.0, 1e13]),
                 id="wf.base-beyond-a0-stencil"),
    # booleans are JSON booleans, never strings that bool() reads as true
    pytest.param("jets", dict(JETS_TD_CFG, field=dict(
        JETS_TD_CFG["field"], time_dependent="true")),
                 id="jets.field.time_dependent-string"),
    # enumerated values and keys a grid does not take
    pytest.param("weights", dict(WEIGHTS_CFG, r={
        "lo": 0.05, "hi": 4.0, "n": 5, "spacing": "logarithmic"}),
                 id="weights.r.spacing-logarithmic"),
    pytest.param("extend", dict(EXTEND_CFG, t={"lo": 1e-3, "n": 12,
                                               "spacing": "log"}),
                 id="extend.t.spacing"),
    pytest.param("fbi", {"grid": {"fixture": "conormal", "n": 512,
                                  "half_width": 2.0}},
                 id="fbi.grid.conormal-half_width"),
    pytest.param("fbi", {"grid": {"fixture": "holomorphic", "n": 512,
                                  "half_width": 2.0}},
                 id="fbi.grid.holomorphic-half_width"),
    *[pytest.param("fbi", {"grid": {"fixture": name, "offset": 0.5}},
                   id=f"fbi.grid.{name}-offset")
      for name in ("gaussian", "sign", "conormal", "holomorphic")],
    # a series needs a term, and a residual table an n of 0 or more
    pytest.param("jets", dict(JETS_CFG, n_max=0), id="jets.n_max-0"),
    pytest.param("jets", dict(JETS_CFG, residual_n=-1),
                 id="jets.residual_n-negative"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, command, cfg):
    rc, out = run(tmp_path, [command], cfg)
    assert rc == 2 and one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_r", "n_theta"])
@pytest.mark.parametrize("value", [0, -3])
def test_kernel_count_below_one_names_its_key(tmp_path, capsys, key, value):
    rc, out = run(tmp_path, ["extend"], dict(EXTEND_CFG, kernel={key: value}))
    assert rc == 2 and capsys.readouterr().err == (
        f"error: kernel.{key} must be a 64-bit integer >= 1, not {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("extra", [{"noise": 1e-6}, {"n": 4096}],
                         ids=["noise", "n"])
def test_fbi_grid_file_takes_no_fixture_key(tmp_path, capsys, extra):
    path = tmp_path / "sign.bin"
    sign_grid(n=4096).save(str(path))
    cfg = {"grid": {"file": str(path), **extra}, "seq": GEVREY2, "x0": [0.0]}
    rc, out = run(tmp_path, ["fbi"], cfg)
    assert rc == 2 and one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, message", [
    pytest.param("weights", {"seq": {"kind": "gevrey", "s": 2.0,
                                     "Kmax": 4096}},
                 "unknown key seq.Kmax; did you mean K_max?", id="seq"),
    pytest.param("fbi", {"scna": {}}, "unknown key scna; did you mean scan?",
                 id="top-level"),
    pytest.param("extend", dict(EXTEND_CFG, datum=dict(
        EXTEND_CFG["datum"], coefs=[])),
                 "unknown key datum.coefs; did you mean coeffs?", id="jet"),
    pytest.param("jets", dict(JETS_CFG, field=dict(JETS_CFG["field"], a=[
        dict(JETS_CFG["field"]["a"][0], Dee=8)])),
                 "unknown key field.a[0].Dee", id="jet-in-list"),
    # the sign-convention key the wave-front experiment no longer has
    pytest.param("wf-experiment", dict(_WF_SMALL, convention="paper"),
                 "unknown key convention", id="wf.convention"),
    # the switch to the uncertified envelope, which is gone
    pytest.param("fbi", _sign_scan(certified=False),
                 "unknown key scan.certified", id="fbi.scan.certified"),
    # read as an inline jet, yet the hint comes from the file variant
    pytest.param("jets", dict(JETS_CFG, datum={"fil": "u.json"}),
                 "unknown key datum.fil; did you mean file?",
                 id="jets.datum.fil"),
    # a windowed 2-D fixture takes no noise; the hint, drawn from every
    # variant, does not offer the 1-D fixtures' noise key back
    pytest.param("fbi", {"grid": {"fixture": "conormal", "n": 512,
                                  "noise": 1e-10}},
                 "unknown key grid.noise", id="fbi.grid.conormal.noise"),
])
def test_unknown_key_is_config_error_naming_its_path(tmp_path, capsys,
                                                     command, cfg, message):
    rc, out = run(tmp_path, [command], cfg)
    assert rc == 2 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    # Python's json reads 1e400 as inf, and Infinity and NaN as given
    pytest.param("weights", '{"seq": {"kind": "table", "values": '
                 '[1, 1, 2, 6, 24, 120, 720, 5040, 1e400]}}',
                 "seq.values[8] must be a finite number, not Infinity",
                 id="weights.seq.values-1e400"),
    pytest.param("weights", '{"seq": {"kind": "table", "values": '
                 '[1, 1, 2, 6, 24, 120, 720, 5040, NaN]}}',
                 "seq.values[8] must be a finite number, not NaN",
                 id="weights.seq.values-nan"),
    pytest.param("weights", '{"seq": {"kind": "gevrey", "s": -Infinity}}',
                 "seq.s must be a finite number, not -Infinity",
                 id="weights.seq.s"),
    pytest.param("wf-experiment", '{"radius": Infinity}',
                 "radius must be a finite number, not Infinity",
                 id="wf.radius"),
    pytest.param("wf-experiment", '{"trust_radius": NaN}',
                 "trust_radius must be a number or Infinity, not NaN",
                 id="wf.trust_radius-nan"),
    pytest.param("wf-experiment", '{"trust_radius": -Infinity}',
                 "trust_radius must be a number or Infinity, not -Infinity",
                 id="wf.trust_radius-minus-infinity"),
])
def test_non_finite_number_is_config_error_naming_its_path(
        tmp_path, capsys, command, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(config), "--out", str(out)])
    assert rc == 2 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_trust_radius_alone_takes_infinity():
    def parse(**cfg):
        return cli._parse(cli._SCHEMAS["wf-experiment"], cfg)["trust_radius"]
    assert parse() == parse(trust_radius=float("inf")) == float("inf")
    assert parse(trust_radius=2) == 2.0 and parse(trust_radius=1e-9) == 1e-9


@pytest.mark.parametrize("command, text, keys", [
    # no certified level: the sign fixture fails at A = inf
    pytest.param("fbi", '{"grid": {"fixture": "sign"}, "seq": {"kind": '
                 '"table", "values": [1, 1, 1e-300, 1e-200, 1e-100, 1, 1e100, '
                 '1e200, 1e300]}}', ["results", "per_direction", 0, "A_fit"],
                 id="fbi.A_fit"),
    # finite values whose increments pass log(max float)
    pytest.param("weights", '{"seq": {"kind": "table", "values": [1, 5e-324, '
                 '1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308]}}',
                 ["results", "c_bound"], id="weights.c_bound"),
    pytest.param("wf-experiment", '{"trust_radius": Infinity}',
                 ["config", "trust_radius"], id="wf.trust_radius"),
])
def test_infinite_payload_value_reads_back_as_inf(tmp_path, command, text,
                                                  keys):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    value = json.loads((out / f"{command}.json").read_text())
    for key in keys:
        value = value[key]
    assert value == math.inf


def test_jet_file_is_checked_as_an_inline_jet(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(dict(JETS_CFG["datum"], coefs=[])))
    cfg = dict(JETS_CFG, datum={"file": str(path)})
    rc, out = run(tmp_path, ["jets"], cfg)
    assert rc == 2 and capsys.readouterr().err == \
        "error: unknown key datum.file.coefs; did you mean coeffs?\n"
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


# ---------------------------------------------------------------------------
# the README's key tables and flags

_README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def _readme_key_tables() -> dict:
    """{title: {key: fixtures cell or None}} for every table of the README
    whose first column is key; the title is the command named first in the
    paragraph above the table, or "scan" or "grid" for the shared tables."""
    lines = _README.splitlines()
    tables = {}
    for i, line in enumerate(lines):
        if not line.startswith("| key |"):
            continue
        j = i - 1                       # the paragraph above the table
        while not lines[j].strip():
            j -= 1
        para = []
        while lines[j].strip():
            para.insert(0, lines[j])
            j -= 1
        text = " ".join(para)
        title = "scan" if text.startswith("A scan") else \
            "grid" if text.startswith("A grid") else \
            re.match(r"`([\w-]+)`", text).group(1)
        header = [c.strip() for c in line.strip("|").split("|")]
        rows = {}
        for row in lines[i + 2:]:
            if not row.startswith("|"):
                break
            cells = [c.strip() for c in row.strip("|").split("|")]
            for key in re.findall(r"`([^`]+)`", cells[0]):
                rows[key] = cells[1] if header[1] == "fixtures" else None
        tables[title] = rows
    return tables


def _dotted_keys(schema, prefix="") -> set:
    """The dotted keys of a schema table, into nested objects but not into
    the scan, which has a table of its own."""
    out = set()
    for key, (kind, _) in schema.items():
        out.add(prefix + key)
        if isinstance(kind, dict) and kind is not cli._SCAN:
            out |= _dotted_keys(kind, f"{prefix}{key}.")
    return out


def test_readme_key_tables_match_the_schemas():
    tables = _readme_key_tables()
    assert sorted(tables) == sorted([*cli._SCHEMAS, "scan", "grid"])
    for command, schema in cli._SCHEMAS.items():
        assert set(tables[command]) == _dotted_keys(schema), command
    assert set(tables["scan"]) == set(cli._SCAN)
    # the grid table: every key a fixture takes, and which fixtures take it
    takes = {}
    for key, value, keys in cli._GRID:
        if key == "fixture":
            for k in keys:
                takes.setdefault(k, []).append(value)
    assert set(tables["grid"]) == set(takes)
    for key, fixtures in takes.items():
        cell = tables["grid"][key]
        named = cli._FIXTURE_GRIDS if cell == "all" else \
            tuple(re.findall(r"`(\w+)`", cell))
        assert sorted(named) == sorted(fixtures), key


def test_readme_common_flags_match_the_parser():
    # the backticked flags of the "Common flags:" sentence, against the
    # options every subcommand takes from the common parser
    text = " ".join(_README.split())
    sentence = re.search(r"Common flags:(.*?)\.\s", text).group(1)
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    common = set.intersection(*[
        {s for a in p._actions for s in a.option_strings}
        for p in sub.choices.values()]) - {"-h", "--help"}
    flags = re.findall(r"`(--[\w-]+)", sentence)
    assert sorted(flags) == sorted(common) == ["--config", "--out", "--seed"]

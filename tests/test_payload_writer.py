"""The payload writer against the recursive writer in json_oracle.

One writer: every command writes its files through cli.write_payload,
once, and nothing else lands in --out.
Parity: random payload trees, and the jets payload, whose coeffs rows
cli writes straight from Jet.data, give the oracle's text byte for byte;
every command's JSON file is the oracle's text of its own parse.
Round trip: a jets payload read back through jet_from_dict gives the
series' coefficients bit for bit, and a rerun writes the same bytes.
Streaming: writing the jets payload holds less than one copy of its text,
and a write that fails leaves neither the payload nor its .part file.
"""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import carleman
import json_oracle
from carleman import cli
from carleman.errors import ConfigError
from carleman.jets import (Jet, VectorFieldJet, formal_solution, jet_from_dict,
                           jet_mul, jet_to_dict, residual_check)

EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               1e308, 0.1, 1 / 3]

floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(EDGE_FLOATS))
scalars = st.one_of(
    st.booleans(), st.booleans().map(np.bool_), st.none(),
    st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    floats, floats.map(np.float64),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.text(max_size=5))
arrays = st.one_of(
    st.lists(floats, max_size=6).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=6).map(np.array),
    st.lists(st.booleans(), max_size=6).map(np.array),
    st.lists(st.complex_numbers(allow_nan=False), max_size=4).map(
        lambda v: np.array(v, dtype=complex)))
# flat lists of exact ints and floats take the writer's fast path
flat = st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), floats), max_size=8)
trees = st.recursive(
    st.one_of(scalars, arrays, flat, st.just([]), st.just({}), st.just(())),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


def json_text(obj, indent=0):
    """The text cli._write_json streams for obj, gathered in one string."""
    buf = io.StringIO()
    cli._write_json(obj, buf.write, indent)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(trees, st.integers(0, 3))
def test_json_text_matches_oracle(tree, indent):
    assert json_text(tree, indent) == json_oracle._json_text(tree, indent)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=4), min_size=1, max_size=4),
       st.lists(st.lists(st.one_of(scalars, st.text(max_size=4)), max_size=5)
                .map(tuple), max_size=6))
def test_csv_text_matches_oracle(header, rows):
    if not rows:
        for write in (cli._csv_text, json_oracle._csv_text):
            with pytest.raises(ConfigError):
                write(header, rows)
        return
    assert cli._csv_text(header, rows) == json_oracle._csv_text(header, rows)


# ---------------------------------------------------------------------------
# the jets payload

SHAPES = {                  # name: (n_x, n_zeta, D, n_max, residual_n)
    "five-variable": (2, 3, 10, 6, 5),
    "three-variable": (1, 2, 12, 8, 7),
}


def _exponents(nvars, degree):
    if nvars == 0:
        return [()]
    return [(k,) + rest for k in range(degree + 1)
            for rest in _exponents(nvars - 1, degree - k)]


def _random_jet(rng, n_x, n_zeta, D, degree, scale):
    return {"n_x": n_x, "n_zeta": n_zeta, "D": D,
            "coeffs": [[list(e), float(rng.uniform(-scale, scale)),
                        float(rng.uniform(-scale, scale))]
                       for e in _exponents(n_x + n_zeta, degree)]}


def jets_config(name, seed):
    """A dense random field and datum of the benchmark's jets shapes."""
    n_x, n_zeta, D, n_max, n_res = SHAPES[name]
    rng = np.random.default_rng([seed, n_x + n_zeta])
    coeff = [_random_jet(rng, n_x, n_zeta, D, 2, 0.25)
             for _ in range(n_x + n_zeta)]
    return {"field": {"a": coeff[:n_x], "b": coeff[n_x:]},
            "datum": _random_jet(rng, n_x, n_zeta, D, 6, 0.5),
            "n_max": n_max, "residual_n": n_res}


def series_of(cfg):
    field = VectorFieldJet(a=[jet_from_dict(j) for j in cfg["field"]["a"]],
                           b=[jet_from_dict(j) for j in cfg["field"]["b"]])
    return formal_solution(field, jet_from_dict(cfg["datum"]), cfg["n_max"])


def run_jets(tmp_path, cfg, out="out"):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["jets", "--config", str(path),
                     "--out", str(tmp_path / out)]) == 0
    return tmp_path / out


def special_jets():
    lossy = jet_mul(Jet(2, 1, 4, {(2, 0, 1): 1.5 - 2j, (0, 1, 0): -0.25}),
                    Jet(2, 1, 4, {(1, 1, 0): 3.0, (0, 0, 2): 1e-300j}))
    assert lossy.lossy
    return {
        "lossy": lossy,
        "all zero": Jet(2, 3, 5),
        "base point": Jet(1, 2, 6, {(0, 0, 0): -0.0 + 1j, (3, 1, 2): 5e-324,
                                    (1, 0, 0): 1 / 3},
                          base_x=(0.5,), base_zeta=(1 - 2j, -0.0 + 0.125j)),
        "no variables": Jet(0, 0, 3, {(): 2.5}),
    }


@pytest.mark.parametrize("name", sorted(special_jets()))
def test_special_jet_rows_match_oracle(name):
    jet = special_jets()[name]
    for indent in range(4):
        got = json_text(jet_to_dict(jet, rows=cli._CoeffRows(jet)), indent)
        assert got == json_oracle._json_text(jet_to_dict(jet), indent)
    assert (jet_to_dict(jet)["coeffs"] == []) == (name == "all zero")


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_jets_payload_matches_oracle(tmp_path, name):
    cfg = jets_config(name, 1)
    out = run_jets(tmp_path, cfg)
    series = series_of(cfg)
    rows = [(n, residual_check(series, n)) for n in range(cfg["residual_n"] + 1)]
    results = {"n_max": series.n_max,
               "lossy": bool(any(u.lossy for u in series.u)),
               "max_residual": max(r for _, r in rows),
               "u": [jet_to_dict(u) for u in series.u]}
    versions = {"carleman": carleman.__version__, "numpy": np.__version__,
                "scipy": scipy.__version__}
    text = (out / "jets.json").read_text()
    assert text == json_oracle._json_text(
        {"config": cfg, "results": results, "versions": versions}) + "\n"
    assert (out / "jets.csv").read_text() == \
        json_oracle._csv_text(["n", "residual"], rows)
    # the rows are the nonzero coefficients in lexicographic order
    for d, u in zip(json.loads(text)["results"]["u"], series.u, strict=True):
        assert [tuple(r[0]) for r in d["coeffs"]] == sorted(u.coeffs)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_jets_payload_round_trip(tmp_path, name):
    cfg = jets_config(name, 2)
    out = run_jets(tmp_path, cfg)
    series = series_of(cfg)
    parsed = json.loads((out / "jets.json").read_text())["results"]
    assert len(parsed["u"]) == len(series.u)
    for d, u in zip(parsed["u"], series.u):
        back = jet_from_dict(d)
        nz = u.data != 0
        assert np.array_equal(back.data != 0, nz)
        assert np.array_equal(back.data[nz].view(np.uint64),
                              u.data[nz].view(np.uint64))
    again = run_jets(tmp_path, cfg, "again")
    for name in ("jets.json", "jets.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_jets_payload_streams_in_less_than_its_size(tmp_path, monkeypatch):
    peaks = []
    write_payload = cli.write_payload

    def traced(*args):
        tracemalloc.start()
        try:
            write_payload(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    monkeypatch.setattr(cli, "write_payload", traced)
    out = run_jets(tmp_path, jets_config("five-variable", 1))
    size = (out / "jets.json").stat().st_size
    assert size > 2 ** 20            # the payload dwarfs the fixed costs
    assert peaks[0] < size


def test_a_failed_write_leaves_no_payload(tmp_path, monkeypatch, capsys):
    rows_text = cli._coeff_rows_text
    calls = []

    def fail_on_third(jet, indent):
        calls.append(jet)
        if len(calls) == 3:
            assert (tmp_path / "out" / "jets.json.part").exists()
            raise OSError("No space left on device")
        return rows_text(jet, indent)
    monkeypatch.setattr(cli, "_coeff_rows_text", fail_on_third)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(jets_config("three-variable", 1)))
    assert cli.main(["jets", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    assert len(calls) == 3
    assert capsys.readouterr().err == "error: No space left on device\n"
    # the table was complete and is renamed into place before the JSON
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["jets.csv"]


# ---------------------------------------------------------------------------
# one writer for every command

_GEVREY2 = {"kind": "gevrey", "s": 2.0, "K_max": 64}
_X2 = {"n_x": 1, "n_zeta": 0, "D": 8, "coeffs": [[[2], 1.0, 0.0]]}
# command: (flags, config or None, whether it writes a CSV table)
WRITER_CASES = {
    "weights": ([], {"seq": _GEVREY2}, True),
    "jets": ([], {"field": {"a": [{"n_x": 1, "n_zeta": 0, "D": 8,
                                   "coeffs": [[[0], 1.0, 0.0]]}]},
                  "datum": _X2, "n_max": 4}, True),
    "extend": ([], {"datum": _X2, "n_max": 6,
                    "x": {"lo": -0.5, "hi": 0.5, "n": 5},
                    "t": {"lo": 1e-3, "n": 6}}, True),
    "fbi": ([], {"grid": {"fixture": "gaussian"},
                 "seq": _GEVREY2}, True),
    "wf-experiment": (["--fixture", "holomorphic"], None, True),
    "acceptance": ([], {"criteria": [1]}, False),
}


@pytest.mark.parametrize("command", sorted(WRITER_CASES))
def test_every_command_writes_once_through_write_payload(
        tmp_path, monkeypatch, capsys, command):
    flags, cfg, tabled = WRITER_CASES[command]
    calls = []
    write_payload = cli.write_payload

    def spy(args, config, results, table=None):
        calls.append((args.command, table is not None))
        write_payload(args, config, results, table)
    monkeypatch.setattr(cli, "write_payload", spy)
    if cfg is not None:
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        flags = [*flags, "--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    assert cli.main([command, *flags, "--out", str(out)]) == 0
    assert calls == [(command, tabled)]
    names = [f"{command}.csv"] * tabled + [f"{command}.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [f"wrote {out / name}" for name in names]


@pytest.mark.parametrize("command", sorted(WRITER_CASES))
def test_every_payload_is_the_oracle_text_of_its_parse(tmp_path, command):
    flags, cfg, _ = WRITER_CASES[command]
    if cfg is not None:
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        flags = [*flags, "--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    cli.main([command, *flags, "--out", str(out)])
    text = (out / f"{command}.json").read_text()
    # "%.17g" writes the float -0.0 as -0, which json reads as the int 0
    parsed = json.loads(text,
                        parse_int=lambda s: -0.0 if s == "-0" else int(s))
    assert text == json_oracle._json_text(parsed) + "\n"

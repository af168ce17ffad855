"""The row-block thread pool behind grid builds and the sampling check."""

import sys
import threading
import warnings

import numpy as np
import pytest

from carleman import cli, fbi, fixtures
from carleman.errors import NonFiniteSamples
from carleman.fbi import GridFunction
from carleman.fixtures import conormal_grid, holomorphic_grid
from carleman.pde import RhsModel, wf_inclusion_experiment
from carleman.weights import make_sequence

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _wf_windowed(n):
    conormal = fixtures.WAVE_SOLUTIONS["conormal"]
    wf_inclusion_experiment(RhsModel(conormal.rhs), conormal.u,
                            make_sequence("gevrey", s=2.0, K_max=64),
                            base=(0.1, -0.2), n=n)


def _built_values(monkeypatch, build, workers):
    """The values of every grid that build makes, with `workers` threads."""
    monkeypatch.setattr(fbi, "_pool_workers", lambda: workers)
    built = []
    blocked = GridFunction.from_function.__func__

    def spy(cls, *args):
        gf = blocked(cls, *args)
        built.append(gf.values)
        return gf

    monkeypatch.setattr(GridFunction, "from_function", classmethod(spy))
    build()
    monkeypatch.undo()
    return built


@pytest.mark.parametrize("build, grids", [
    pytest.param(lambda: conormal_grid(257), 1, id="conormal"),
    pytest.param(lambda: holomorphic_grid(257), 1, id="holomorphic"),
    # the scanned grid and its certification rescan
    pytest.param(lambda: _wf_windowed(257), 2, id="wf-windowed"),
])
def test_pool_builds_the_serial_bytes(monkeypatch, build, grids):
    serial = _built_values(monkeypatch, build, 1)
    assert len(serial) == grids
    # more workers than cores, switching threads as often as they can, so
    # a block written twice or lost would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 8):
            pooled = _built_values(monkeypatch, build, workers)
            assert [v.tobytes() for v in pooled] == \
                [v.tobytes() for v in serial]
    finally:
        sys.setswitchinterval(interval)


def _divide(y1, y2):
    return 1.0 / (y1 - y2)      # divides by zero on the diagonal


def test_pool_keeps_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(fbi, "_pool_workers", lambda: 2)
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            GridFunction.from_function(_divide, [-1.0, -1.0], [1.0, 1.0], 257)
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(divide="ignore"):
        warnings.simplefilter("always")
        gf = GridFunction.from_function(_divide, [-1.0, -1.0], [1.0, 1.0], 257)
    assert not caught
    assert np.isinf(gf.values[128, 128])


def test_pool_raises_the_callers_exception(monkeypatch):
    monkeypatch.setattr(fbi, "_pool_workers", lambda: 2)
    calls = []

    def fn(y1, y2):
        calls.append(y1.shape[0])
        if len(calls) == 3:
            raise ValueError("block three")
        return y1 + y2

    with pytest.raises(ValueError, match="block three"):
        GridFunction.from_function(fn, [-1.0, -1.0], [1.0, 1.0], 1024)
    # the other worker stops at its next block
    assert len(calls) < len(fbi._row_blocks((1024, 1024),
                                            fbi._BLOCK_ELEMENTS // 2))


@pytest.mark.parametrize("cap, workers", [("1", 1), ("64", None),
                                          ("junk", None), ("0", None)])
def test_pool_workers_cap(monkeypatch, cap, workers):
    monkeypatch.setattr(fbi.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setenv("OMP_NUM_THREADS", cap)
    assert fbi._pool_workers() == (workers or 3)


def test_threads_one_builds_on_one_thread(tmp_path, monkeypatch):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "2")
    threads = set()
    cutoff = fixtures.radial_cutoff

    def spy(*coords, **kw):
        threads.add(threading.get_ident())
        return cutoff(*coords, **kw)

    monkeypatch.setattr(fixtures, "radial_cutoff", spy)
    cfg = tmp_path / "fbi.json"
    cfg.write_text('{"grid": {"fixture": "conormal", "n": 300}}')
    rc = cli.main(["fbi", "--threads", "1", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert threads == {threading.get_ident()}


def test_pool_counts_non_finite_samples_over_every_block(monkeypatch):
    monkeypatch.setattr(fbi, "_pool_workers", lambda: 3)
    gf = conormal_grid(257)
    gf.values[0, 5] = np.nan
    gf.values[128, 7] = np.inf
    gf.values[256, 256] = complex(np.nan, np.inf)
    with pytest.raises(NonFiniteSamples, match="3 of 66049"):
        fbi._check_sampling(gf, [0.0, 0.0], [4.0])

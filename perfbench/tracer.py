"""Spans around the public functions of the carleman modules, installed
from outside the package.

A span is ``[name, start_ns, end_ns, parent, tag]``; spans are kept in
memory and written out when the run ends.  Self time is a span's duration
minus the time its direct children cover.  Names bound into another module
by ``from ... import`` (``pde.wavefront_scan``, ``fbi.fbi_envelope``, ...)
are replaced in every carleman namespace that holds them, or those calls
would go uncounted.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "weights", "jets", "dynkin", "fbi", "pde", "fixtures")
ROOT = "bench.pass"


def _scan_work(args, kwargs, out) -> dict:
    """Computed work of one ``fbi_direction_scan``: the real flops of its
    complex matrix products and the bytes those products read and write,
    from the grid shape and the direction and lambda counts."""
    gf, dirs, lams = args[0], args[2], args[3]
    nd, nl = len(dirs), len(lams)
    shape = gf.values.shape
    if len(shape) == 1:
        flops = 8 * shape[0] * nd
        moved = 16 * (shape[0] + shape[0] * nd + nd)
    else:
        n0, n1 = shape
        flops = 8 * nd * (n0 * n1 + n0)
        moved = 16 * (n0 * n1 + (n0 + n1) * nd + n0 * nd)
    return {"fbi.scan_flops": nl * flops, "fbi.scan_bytes": nl * moved}


def _q_tried(kwargs) -> int:
    from carleman import dynkin
    q = kwargs.get("q_grid")
    return len(dynkin._Q_GRID if q is None else q)


# counts computed at layer boundaries: span name -> (args, kwargs, result)
# -> {counter: increment}
HOOKS = {
    "weights.make_sequence": lambda a, kw, out: {
        "weights.table_entries": out.K_max + 1},
    "jets.jet_mul": lambda a, kw, out: {
        "jets.jet_mul.term_pairs": len(a[0].coeffs) * len(a[1].coeffs)},
    "fbi.fbi_direction_scan": _scan_work,
    "fbi.GridFunction.from_function": lambda a, kw, out: {
        "fbi.grid_points": out.values.size},
    "fbi.GridFunction.save": lambda a, kw, out: {
        "fbi.grid_file_bytes": os.path.getsize(a[1])},
    "fbi.decay_classify": lambda a, kw, out: {
        "fbi.decay_classify.passed": int(out.passed)},
    "dynkin.flatness_fit": lambda a, kw, out: {
        "dynkin.flatness_fit.skipped_q": len(out.skipped_Q),
        "dynkin.flatness_fit.q_tried": _q_tried(kw)},
}
# spans tagged with a label from their arguments: cli.main by its command
TAGS = {"cli.main": lambda a, kw: (a[0] if a else kw["argv"])[0]}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        hook, tag = HOOKS.get(name), TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                counts.update(hook(args, kwargs, out))
            return out
        return traced

    def install(self) -> None:
        """Wrap every public function, method and property defined in the
        layer modules, wherever a carleman module binds it."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"carleman.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for name, space in list(sys.modules.items()):
            if name.split(".")[0] != "carleman":
                continue
            for attr, obj in list(vars(space).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(space, attr, hit[1])

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self.wrap(name, member.__func__))
            elif isinstance(member, property) and member.fset is None:
                new = property(self.wrap(name, member.fget), doc=member.__doc__)
            elif inspect.isfunction(member):
                new = self.wrap(name, member)
            else:
                continue
            setattr(cls, attr, new)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "tag"],
                       "spans": self.spans}, fh)


def summarize(spans, counts, passes: int) -> dict:
    """Per-pass self seconds and calls by span name, inclusive seconds of
    each ``cli`` command, the counts from HOOKS, and envelope tries per
    decay classification."""
    child = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_ns = collections.Counter()
    calls = collections.Counter()
    cmd_ns = collections.Counter()
    tries = 0
    for i, (name, t0, t1, parent, tag) in enumerate(spans):
        self_ns[name] += t1 - t0 - child[i]
        calls[name] += 1
        if name == "cli.main":
            cmd_ns[tag] += t1 - t0
        if name == "weights.fbi_envelope" and parent >= 0 \
                and spans[parent][0] == "fbi.decay_classify":
            tries += 1
    out = {f"{n}.self_s": ns / 1e9 / passes for n, ns in self_ns.items()}
    out.update({f"{n}.calls": c / passes for n, c in calls.items()})
    out.update({f"cli.{c}.s": ns / 1e9 / passes for c, ns in cmd_ns.items()})
    out.update({n: c / passes for n, c in counts.items()})
    n_classify = calls["fbi.decay_classify"]
    if n_classify:
        out["fbi.decay_classify.a_tries"] = tries / n_classify
        out["fbi.decay_classify.a_useful_ratio"] = \
            counts["fbi.decay_classify.passed"] / tries
    return out

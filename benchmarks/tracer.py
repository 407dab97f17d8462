"""Span tracer for qdisc's layers, kept entirely in the benchmark.

``Tracer.install`` wraps the public functions of each traced module (and
the named private helpers in ``PRIVATE``) and replaces every binding of
the original function in every ``qdisc.*`` module namespace, including
bindings made by ``from .x import f`` and functions held in module-level
tuples such as ``verify.REGISTRY``.  A name listed in ``expected`` that no
longer exists is reported as absent instead of failing.

Spans are kept in flat arrays in memory (name, parent span, op id, start,
end) and written out once at the end.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("qspecial", "discalg", "uqsl2", "spherical", "green", "verify")
PRIVATE = {"discalg": ("_poch_down", "_poch_up")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._op_id = [-1]
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._op.append(self._op_id[0])
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(sid)
        return sid

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, start, end, open_ = self._stack, self._start, self._end, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()

        return traced

    def install(self, expected: list[str]) -> None:
        """Wrap every traced function; `expected` lists the "layer.name"
        entries the caller's metrics rely on."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"qdisc.{layer}")
            except ImportError:
                continue
            modname = mod.__name__
            for attr, val in list(vars(mod).items()):
                if (
                    inspect.isfunction(val)
                    and val.__module__ == modname
                    and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))
                ):
                    wrappers[id(val)] = (val, self._wrap(f"{layer}.{attr}", val))
        self.absent = sorted(n for n in expected if n not in self._ids)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qdisc" or modname.startswith("qdisc.")):
                continue
            ns = vars(mod)
            changes = {}
            for attr, val in ns.items():
                new = _swap(val, wrappers)
                if new is not val:
                    changes[attr] = new
            ns.update(changes)

    def op(self, op_id: int, kind: str, fn, *args):
        """Run one benchmark op under a root span named "op.<kind>"."""
        self._op_id[0] = op_id
        wrapped = self._wrap(f"op.{kind}", fn)
        return wrapped(*args)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self._start, dtype=float)
        end = np.frombuffer(self._end, dtype=float)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self._name, dtype=np.int64),
            "parent": parent,
            "op": np.frombuffer(self._op, dtype=np.int64),
            "start": start,
            "end": end,
            "self": dur - child,
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _swap(value, wrappers):
    if isinstance(value, tuple):
        items = tuple(_swap(v, wrappers) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
        return value
    hit = wrappers.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    return value


def summarize(tracer: Tracer) -> dict:
    """Per-name call counts, self and total time, plus the time covered by
    outermost spans of each layer (a layer's inclusive time)."""
    arr = tracer.arrays()
    names = tracer.names
    nid = arr["name"]
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    self_s = np.bincount(nid, weights=arr["self"], minlength=k)
    total_s = np.bincount(nid, weights=arr["end"] - arr["start"], minlength=k)
    bit_of = [
        1 << LAYERS.index(layer) if layer in LAYERS else 0
        for layer in (n.split(".", 1)[0] for n in names)
    ]
    bits = [bit_of[n] for n in nid.tolist()]
    dur = (arr["end"] - arr["start"]).tolist()
    inclusive = dict.fromkeys(LAYERS, 0.0)
    # a span counts towards its layer's inclusive time when no ancestor
    # belongs to the same layer; parents precede children in the arrays,
    # so one forward sweep over the ancestors' layer bits settles it
    above = [0] * len(bits)
    for sid, p in enumerate(arr["parent"].tolist()):
        if p >= 0:
            above[sid] = above[p] | bits[p]
        if bits[sid] and not above[sid] & bits[sid]:
            inclusive[LAYERS[bits[sid].bit_length() - 1]] += dur[sid]
    return {
        "by_name": {
            names[i]: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i in range(k)
        },
        "inclusive_s": inclusive,
        "spans": int(len(nid)),
    }

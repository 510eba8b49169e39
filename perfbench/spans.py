"""Traced runs: wall time per ``repro.<subpackage>``, timed from outside.

:func:`install` wraps the kernel's public entry points inside the calling
process, without editing the program:

* ``Simulator.process`` hands the kernel a generator proxy; each resume
  (``send``/``throw``) is a span charged to the subpackage of the
  innermost generator, found by walking ``gi_yieldfrom``;
* ``Simulator.call_in``/``call_at`` wrap their callback; each call is a
  span charged to the callback's subpackage;
* synchronous public calls become child spans of whatever span is open:
  ``WanNetwork.route``/``transfer`` (geo), the declustered RAID pool
  (raid), the PFS (fs), ``Disk.read``/``write`` (hardware) and the
  planner (plan).

Spans stay in memory (four flat arrays) and are written out at the end.
A span's self time is its duration minus its children's; the kernel's
own time (``sim``) is the traced wall minus every span charged elsewhere.
"""

from __future__ import annotations

import json
import os
from array import array
from functools import partial
from time import perf_counter

#: Layers reported by name; spans in any other subpackage count as
#: ``other`` and code outside ``repro`` (the benchmark's own client
#: generators) as ``clients``.
LAYERS = ("sim", "cache", "hardware", "raid", "core", "fs", "geo", "faults",
          "workloads", "cluster", "plan", "clients", "other")

_PUMP = "resume:geo.pump"
_TRANSFER = "call:geo.transfer"
_ROUTE = "call:geo.route"


def _layer_of_file(filename: str) -> str:
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts:
        return "clients"
    i = len(parts) - 1 - parts[::-1].index("repro")
    sub = parts[i + 1] if i + 2 < len(parts) else "sim"
    return sub if sub in LAYERS else "other"


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._file_ids: dict[str, int] = {}
        self.wan_bytes = 0

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _resume_id(self, code) -> int:
        """Span name for resuming in ``code``'s file (cached per file)."""
        filename = code.co_filename
        nid = self._file_ids.get(filename)
        if nid is None:
            nid = self._file_ids[filename] = self.intern(
                "resume:" + _layer_of_file(filename))
        return nid

    def span(self, nid: int, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``nid``."""
        stack = self._stack
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        stack.append(idx)
        t0 = perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            stack.pop()

    # -- wrappers --------------------------------------------------------------

    def callback(self, fn):
        """A call_in/call_at callback that runs inside a span."""
        target = fn
        while isinstance(target, partial):
            target = target.func
        target = getattr(target, "__func__", target)
        code = getattr(target, "__code__", None)
        nid = (self._resume_id(code) if code is not None
               else self.intern("resume:sim"))
        span = self.span

        def traced_callback():
            return span(nid, fn)

        return traced_callback

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Make ``owner.attr`` a child span named ``name``."""
        orig = getattr(owner, attr)
        nid = self.intern(name)
        span = self.span

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            return span(nid, orig, *args, **kwargs)

        setattr(owner, attr, traced)

    # -- analysis --------------------------------------------------------------

    def analyse(self, t0: float, t1: float) -> dict:
        """Per-layer self time and counts for spans started in [t0, t1)."""
        names, name_id, parent = self.names, self.name_id, self.parent
        start, end = self.start, self.end
        first = next((i for i in range(len(start)) if start[i] >= t0),
                     len(start))
        last = next((i for i in range(first, len(start)) if start[i] >= t1),
                    len(start))
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = parent[i]
            if p >= first:
                child[p - first] += end[i] - start[i]
        self_by_name = [0.0] * len(names)
        count_by_name = [0] * len(names)
        pump_transfers = 0
        pump = self._ids.get(_PUMP, -2)
        transfer = self._ids.get(_TRANSFER, -2)
        for i in range(first, last):
            nid = name_id[i]
            self_by_name[nid] += end[i] - start[i] - child[i - first]
            count_by_name[nid] += 1
            if nid == transfer and parent[i] >= 0 \
                    and name_id[parent[i]] == pump:
                pump_transfers += 1
        wall = t1 - t0
        self_s = dict.fromkeys(LAYERS, 0.0)
        resumes = dict.fromkeys(LAYERS, 0)
        calls: dict[str, int] = {}
        for nid, name in enumerate(names):
            kind, label = name.split(":", 1)
            layer = label.split(".", 1)[0]
            self_s[layer] += self_by_name[nid]
            if kind == "resume":
                resumes[layer] += count_by_name[nid]
            else:
                calls[label] = calls.get(label, 0) + count_by_name[nid]
        attributed = sum(v for k, v in self_s.items() if k != "sim")
        self_s["sim"] = wall - attributed
        route = self._ids.get(_ROUTE)
        pump_resumes = count_by_name[pump] if pump >= 0 else 0
        return {
            "wall_s": wall,
            "spans": last - first,
            "self_s": self_s,
            "resumes": resumes,
            "calls": calls,
            "route_s": self_by_name[route] if route is not None else 0.0,
            "pump_resumes": pump_resumes,
            "pump_transfers": pump_transfers,
        }

    def dump(self, path: str) -> str:
        """Write every span to ``path``.json (names and layout) and
        ``path``.bin (the four raw arrays); returns ``path``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.start),
                       "arrays": [["name_id", "i"], ["parent", "i"],
                                  ["start", "d"], ["end", "d"]]}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        return path


class _TracedGen:
    """Generator proxy: each resume is a span charged to the layer of the
    innermost generator it resumes in."""

    def __init__(self, gen, tracer: Tracer, pump_id: int | None) -> None:
        self._gen = gen
        self._tracer = tracer
        self._pump_id = pump_id
        self.__name__ = getattr(gen, "__name__", "process")

    def _name_id(self) -> int:
        if self._pump_id is not None:
            return self._pump_id
        inner = self._gen
        while True:
            nxt = getattr(inner, "gi_yieldfrom", None)
            if nxt is None or not hasattr(nxt, "gi_code"):
                break
            inner = nxt
        return self._tracer._resume_id(inner.gi_code)

    def send(self, value):
        return self._tracer.span(self._name_id(), self._gen.send, value)

    def throw(self, *args):
        return self._tracer.span(self._name_id(), self._gen.throw, *args)

    def close(self):
        return self._gen.close()


def install() -> Tracer:
    """Wrap the public entry points; returns the tracer that records."""
    from repro import plan as plan_api
    from repro.fs.pfs import ParallelFileSystem
    from repro.geo.wan import WanNetwork
    from repro.hardware.disk import Disk
    from repro.plan.planner import Plan
    from repro.plan.scenario import BuiltScenario
    from repro.raid.decluster import DeclusteredPool
    from repro.sim import engine

    tracer = Tracer()
    pump_id = tracer.intern(_PUMP)
    sim_cls = engine.Simulator
    process, call_in, call_at = (sim_cls.process, sim_cls.call_in,
                                 sim_cls.call_at)

    def traced_process(self, gen, name=""):
        code = getattr(gen, "gi_code", None)
        is_pump = (code is not None and code.co_name == "_pump"
                   and _layer_of_file(code.co_filename) == "geo")
        return process(self, _TracedGen(gen, tracer,
                                        pump_id if is_pump else None),
                       name=name)

    def traced_call_in(self, delay, fn):
        return call_in(self, delay, tracer.callback(fn))

    def traced_call_at(self, when, fn):
        return call_at(self, when, tracer.callback(fn))

    sim_cls.process = traced_process
    sim_cls.call_in = sim_cls.schedule_callback = traced_call_in
    sim_cls.call_at = traced_call_at

    def count_wan_bytes(*args, **kwargs):
        tracer.wan_bytes += args[3] if len(args) > 3 else kwargs["nbytes"]

    tracer.wrap(WanNetwork, "route", _ROUTE)
    tracer.wrap(WanNetwork, "transfer", _TRANSFER, on_call=count_wan_bytes)
    for attr in ("read", "write", "stripe_members", "chunk_slot"):
        tracer.wrap(DeclusteredPool, attr, "call:raid")
    for attr in ("create", "open", "write", "block_key", "blade_for_block",
                 "blocks_for_range"):
        tracer.wrap(ParallelFileSystem, attr, "call:fs")
    for attr in ("read", "write"):
        tracer.wrap(Disk, attr, "call:hardware.disk")
    tracer.wrap(plan_api, "plan_storage", "call:plan")
    tracer.wrap(Plan, "build", "call:plan")
    tracer.wrap(BuiltScenario, "provision", "call:plan")
    return tracer

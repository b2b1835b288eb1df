"""Spans and counts recorded around frobkit's public functions.

The wrappers live here, in the benchmark, not in the program: every public
function of each frobkit module is rebound in every frobkit module that holds
it (modules import names directly), and `Mat.__matmul__` and `Poly.__divmod__`
are replaced on their classes. A span is (name, start, end, parent); the
counting wrappers are installed in a separate run, because wrapping every field
operation would distort the spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("fields", "poly", "matrix", "rankone", "canonical", "triples",
          "census", "formats", "verify", "cli")
FIELD_OPS = ("add", "sub", "neg", "mul", "inv")


def targets() -> list:
    """(span name, owning class or None, function or method name)."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module("frobkit." + layer)
        for name, obj in sorted(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name[0] != "_":
                out.append((f"{layer}.{name}", None, obj))
    from frobkit.matrix import Mat
    from frobkit.poly import Poly

    out.append(("matrix.matmul", Mat, "__matmul__"))
    out.append(("poly.divmod", Poly, "__divmod__"))
    return out


def install(make) -> list:
    """Replace each target by make(name, fn); returns what `restore` undoes."""
    mods = [m for k, m in list(sys.modules.items()) if k == "frobkit" or k.startswith("frobkit.")]
    undo = []
    for name, cls, fn in targets():
        if cls is not None:
            orig = cls.__dict__[fn]
            setattr(cls, fn, make(name, orig))
            undo.append((cls, fn, orig))
            continue
        wrapped = make(name, fn)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, fn))
    return undo


def restore(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


class Spans:
    """Spans kept in flat arrays while the run lasts; parent -1 is a root."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrapper(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def merge(self, dump: dict) -> None:
        """Graft a child process's spans under the currently open span."""
        base, top = len(self.name), self.stack[-1]
        for nid, parent, start, end in zip(dump["name"], dump["parent"], dump["start"], dump["end"]):
            self.add(dump["names"][nid], start, end, top if parent < 0 else base + parent)

    def dump(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(), "parent": self.parent.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist()}

    def write(self, path: str) -> None:
        """One line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for nid, s, e, p in zip(self.name, self.start, self.end, self.parent):
                fh.write(f"{names[nid]}\t{s:.9f}\t{e:.9f}\t{p}\n")

    def self_times(self) -> dict:
        """Per span name: its spans' durations minus their children's."""
        n = len(self.name)
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total = [0.0] * len(self.names)
        for i in range(n):
            total[self.name[i]] += self.end[i] - self.start[i] - child[i]
        return dict(zip(self.names, total))


class Counts:
    """Calls per wrapped function, field operations per field kind, and the
    sizes that explain elimination and enumeration costs."""

    def __init__(self):
        self.c: Counter = Counter()
        self.orbit_depth = 0

    def wrapper(self, name: str, fn):
        c, key = self.c, name + ".calls"
        if name == "matrix.solve_linear":
            def counted(a, b, *rest, **kw):
                c[key] += 1
                c["matrix.solve_linear.cells"] += a.nrows * a.ncols
                return fn(a, b, *rest, **kw)
        elif name == "matrix.charpoly":
            def counted(*args, **kw):
                c[key] += 1
                if self.orbit_depth:
                    c["census.matrices_enumerated"] += 1
                return fn(*args, **kw)
        elif name == "census.orbit_stats":
            def counted(*args, **kw):
                c[key] += 1
                self.orbit_depth += 1
                try:
                    return fn(*args, **kw)
                finally:
                    self.orbit_depth -= 1
        else:
            def counted(*args, **kw):
                c[key] += 1
                return fn(*args, **kw)
        return counted

    def install(self) -> list:
        from frobkit.fields import ExtensionField, PrimeField, RationalField

        c, undo = self.c, install(self.wrapper)
        for cls, kind in ((PrimeField, "prime"), (RationalField, "rational"), (ExtensionField, None)):
            for op in FIELD_OPS:
                orig = cls.__dict__[op]
                if kind is None:
                    def counted(self_, *args, _orig=orig):
                        c["fields.ext_table.ops" if self_._tables_built else "fields.ext_poly.ops"] += 1
                        return _orig(self_, *args)
                else:
                    def counted(self_, *args, _orig=orig, _key=f"fields.{kind}.ops"):
                        c[_key] += 1
                        return _orig(self_, *args)
                setattr(cls, op, counted)
                undo.append((cls, op, orig))
        return undo

    def merge(self, dump: dict) -> None:
        self.c.update(dump)

    def dump(self) -> dict:
        return dict(self.c)


def boot(mode: str, out_path: str, argv: list, spawned: float, booted: float) -> int:
    """Run frobkit's command line with wrappers installed; write what they saw."""
    t0 = perf_counter()
    import frobkit.cli

    t1 = perf_counter()
    rec = Spans() if mode == "span" else Counts()
    if mode == "span":
        rec.add("cli.interpreter", spawned, booted, -1)
        rec.add("cli.import", t0, t1, -1)
        install(rec.wrapper)
    else:
        rec.install()
    code = frobkit.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(rec.dump(), fh)
    return code

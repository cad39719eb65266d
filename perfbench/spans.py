"""Call spans at the boundaries of the charpoly layers.

A :class:`Tracer` wraps every public function of each layer module and
rebinds the wrapper wherever the package holds the original: the module
itself, every module that did ``from .x import name``, and module-level
registries such as ``verification.SUITES``.  Private helpers (``_mn``,
``_skew_count``) are not wrapped, so their time counts as the self time
of the public function that called them.

Each call of a plain function records one span: function id, start,
end, parent span and an integer tag (the symmetric-group size for
``character_mn``, otherwise 0).  Spans live in flat arrays while the
workload runs and are written to one file at the end; :func:`derive`
turns them into per-layer metrics.  Generator functions are not timed,
because their body runs interleaved with the caller; their yielded
items are counted instead.
"""

from __future__ import annotations

import importlib
import inspect
import json
import struct
from array import array
from functools import wraps
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "stability", "tableaux", "characters", "partitions", "binom_poly",
          "verification")

# Arguments -> tag, for the functions whose cost is split by input size.
TAGGERS = {
    "characters.character_mn": lambda mu, ct, *a, **kw: ct.n,
}

_HEADER = struct.Struct("<Q")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.fid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.tag = array("l")
        self.items: dict[str, int] = {}
        self._stack = [-1]

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind the wrappers."""
        modules = [importlib.import_module(f"charpoly.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("charpoly"))
        replace: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replace[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
                elif isinstance(obj, list):
                    obj[:] = [
                        tuple(replace.get(id(x), x) for x in item)
                        if isinstance(item, tuple) else item
                        for item in obj
                    ]

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        index = len(self.names)
        self.names.append(name)
        self.kinds.append("call")
        fid, start, end, parent, tags = self.fid, self.start, self.end, self.parent, self.tag
        stack = self._stack
        tagger = TAGGERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(*args, **kwargs) if tagger else 0
            span = len(fid)
            fid.append(index)
            parent.append(stack[-1])
            tags.append(tag)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()

        return traced

    def _wrap_generator(self, name: str, fn):
        self.names.append(name)
        self.kinds.append("items")
        items = self.items
        items[name] = 0

        @wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                items[name] += 1
                yield item

        return counted

    def dump(self, path: Path) -> None:
        """Write the function table, item counts and every span to ``path``."""
        header = json.dumps({"names": self.names, "kinds": self.kinds,
                             "items": self.items, "spans": len(self.fid)}).encode()
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(len(header)))
            fh.write(header)
            for column in (self.fid, self.start, self.end, self.parent, self.tag):
                column.tofile(fh)


def load(path: Path):
    """Read a file written by :meth:`Tracer.dump`."""
    with open(path, "rb") as fh:
        (size,) = _HEADER.unpack(fh.read(_HEADER.size))
        header = json.loads(fh.read(size))
        columns = []
        for code in "Hddll":
            column = array(code)
            column.fromfile(fh, header["spans"])
            columns.append(column)
    return header, columns


def derive(path: Path) -> dict[str, float]:
    """Per-function and per-layer totals from one span file.

    For every wrapped function ``<layer>.<fn>``: ``.calls`` and ``.s``
    (inclusive time, counting only calls not nested in a call of the same
    function).  For every layer: ``<layer>.self_s``, the time in its
    functions minus the time in their traced callees.  Generators give
    ``.items``.  ``character_mn`` time is also split by group size as
    ``.s.n<size>``.
    """
    header, (fid, start, end, parent, tag) = load(path)
    names = header["names"]
    out: dict[str, float] = {}
    for name, kind in zip(names, header["kinds"]):
        if kind == "call":
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    layer_of = [name.split(".", 1)[0] for name in names]
    n = len(fid)
    duration = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += duration[i]
    for i in range(n):
        f = fid[i]
        name = names[f]
        out[f"{name}.calls"] += 1
        out[f"{layer_of[f]}.self_s"] += duration[i] - child[i]
        p = parent[i]
        while p >= 0 and fid[p] != f:
            p = parent[p]
        if p < 0:
            out[f"{name}.s"] += duration[i]
            if tag[i]:
                key = f"{name}.s.n{tag[i]}"
                out[key] = out.get(key, 0.0) + duration[i]
    for name, count in header["items"].items():
        out[f"{name}.items"] = count
    return out

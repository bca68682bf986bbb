"""In-memory spans around calls into permpack's public functions.

The tracer wraps functions from outside the program: `install` replaces
each listed function, in every permpack module that holds it, with a
wrapper that records a span, and `uninstall` puts the originals back.
With no tracer installed the program runs unmodified, which is how the
end-to-end metrics are measured.

A span is [id, name, start, end, parent, pass_id, counts]; times come
from time.perf_counter, which is system-wide monotonic on Linux, so spans
recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs wrapped by `install`; the span name is
# "<module>.<function>".  Only coarse entry points: wrapping per-vertex
# helpers such as lex_rank or closed_sphere would cost more than they do.
TRACED = [
    ("search", "find_eset"), ("search", "max_packing"),
    ("certify", "verify_packing"), ("certify", "verify_eset"),
    ("certify", "verify_on_subgraph"), ("certify", "uniformity_check"),
    ("certify", "cert_to_dict"), ("certify", "cert_from_dict"),
    ("constructions", "xprime_perfect_code"),
    ("constructions", "uniform_from_exact"),
    ("constructions", "nonuniform_extension"),
    ("johnson", "search_exact_2factor"), ("johnson", "is_exact"),
    ("johnson", "validate_nest"), ("johnson", "alternate_cops"),
]


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counters read off a traced call's arguments and result."""
    if name in ("search.find_eset", "search.max_packing"):
        return {"nodes": result.nodes_explored}
    if name == "certify.verify_packing":
        cert = args[1] if len(args) > 1 else kwargs["cert"]
        return {"centers": len(cert.centers)}
    if name == "johnson.search_exact_2factor":
        return {"n": args[0], "r": args[1]}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self.pass_id, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        span[6] = _counts(name, args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "permpack" or k.startswith("permpack.")) and m is not None]
        for modname, fname in TRACED:
            orig = getattr(sys.modules["permpack." + modname], fname)
            wrapper = self.wrap(f"{modname}.{fname}", orig)
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    self._saved.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process under span `parent`."""
        base = len(self.spans)
        for sid, name, start, end, par, _, counts in child_spans:
            self.spans.append([base + sid, name, start, end,
                               parent if par is None else base + par,
                               self.pass_id, counts])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer (span-name prefix) not covered by child spans.

    Children of one span run one after another, so the part of the
    parent's interval they cover is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s[4] is not None:
            covered[s[4]] = covered.get(s[4], 0.0) + s[3] - s[2]
    out: dict[str, float] = {}
    for s in spans:
        layer = s[1].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s[3] - s[2]) - covered.get(s[0], 0.0)
    return out


def total(spans: list[list], name: str) -> float:
    """Inclusive seconds in spans called `name`, outermost ones only."""
    by_id = {s[0]: s for s in spans}

    def nested(s):
        p = s[4]
        while p is not None:
            if by_id[p][1] == name:
                return True
            p = by_id[p][4]
        return False

    return sum(s[3] - s[2] for s in spans if s[1] == name and not nested(s))


def count(spans: list[list], name: str, key: str) -> int:
    return sum(s[6].get(key, 0) for s in spans if s[1] == name)

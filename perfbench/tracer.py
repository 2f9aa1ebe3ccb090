"""Span tracer for the benchmark's traced run.

The tracer works from outside the program: it replaces each public function
of the traced factorbench modules, in every factorbench namespace that
imported it, by a wrapper that records a span, and it wraps the __init__ of
the classes named in CLASSES.  `restore` puts every original back.  No line
of factorbench changes, and nothing is wrapped unless a tracer is installed.
The `words` and `errors` modules are not layers: time spent in them counts
as self time of the layer that called them, as do FiniteMonoid methods and
cached properties.

A span is (name, start, end, parent, request).  Spans are kept in memory in
flat integer arrays and written out when the run ends.  The program is
single-threaded, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "core", "factorization", "power", "presentations", "corpus")
CLASSES = {"core": ("FiniteMonoid",)}
CAP_ERRORS = ("ExplosionGuard", "CapExceeded")
PACKAGE = "factorbench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.stack: list[int] = []
        self.current_request = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.current_request)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        elif idx in self.stack:  # a generator closed out of order
            self.stack.remove(idx)

    def _parent_name(self) -> str:
        return self.names[self.name_of[self.stack[-1]]] if self.stack else ""

    def _count_cap_error(self, exc: BaseException) -> None:
        if type(exc).__name__ in CAP_ERRORS and not getattr(exc, "_traced", False):
            exc._traced = True
            self.counters["factorization.guard_trips"] += 1

    # -- wrappers ---------------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_cap_error(exc)
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counters, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Runs on the first next(): the span covers the whole iteration.
            idx = self._open(name)
            try:
                for item in fn(*args, **kwargs):
                    self.counters[name + ".yielded"] += 1
                    yield item
            finally:
                self._close(idx)

        return wrapper

    def _wrap_init(self, name: str, init):
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            if self._parent_name() == "corpus.small_monoids":
                self.counters["corpus.candidates"] += 1
            idx = self._open(name)
            try:
                init(obj, *args, **kwargs)
            except BaseException:
                self.counters[name + ".rejected"] += 1
                raise
            finally:
                self._close(idx)
            self.counters["core.assoc_triples"] += obj.size ** 3

        return wrapper

    # -- install and restore -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer in every namespace that
        holds it, and the __init__ of each class in CLASSES."""
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        replacement: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replacement[id(obj)] = (obj, self._wrap_generator(name, obj))
                else:
                    replacement[id(obj)] = (obj, self._wrap_function(name, obj))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patches.append((cls, "__init__", cls.__dict__["__init__"]))
                setattr(cls, "__init__", self._wrap_init(f"{layer}.{cls_name}", cls.__init__))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                pair = replacement.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, pair[1])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span, in nanoseconds."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        return own

    def summary(self) -> dict[str, float]:
        """Inclusive seconds and calls per span name, self seconds per layer,
        and the counters; all totals over the run."""
        out: dict[str, float] = defaultdict(float)
        own = self.self_times()
        for idx, nid in enumerate(self.name_of):
            name = self.names[nid]
            out[name + ".s"] += (self.end[idx] - self.start[idx]) / 1e9
            out[name + ".calls"] += 1
            out[name.split(".", 1)[0] + ".self_s"] += own[idx] / 1e9
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)

    def write(self, path) -> None:
        """Write every span as a CSV line: name,start_ns,end_ns,parent,request."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,request\n")
            for idx, nid in enumerate(self.name_of):
                fh.write(f"{self.names[nid]},{self.start[idx]},{self.end[idx]},"
                         f"{self.parent[idx]},{self.request[idx]}\n")


# -- counters read off return values ----------------------------------------------------


def _catalog(counters, cat):
    counters["factorization.minimal_classes"] += sum(len(v) for v in cat.per_element.values())


def _words(counters, words):
    counters["factorization.words_enumerated"] += len(words)


def _congruence(counters, res):
    counters["presentations.decided"] += res.status.value != "unknown"
    if res.chain is not None:
        counters["presentations.chain_steps"] += len(res.chain) - 1


def _probe(counters, probe):
    counters["presentations.incomplete_probes"] += not probe.complete


RESULT_HOOKS = {
    "factorization.minimal_catalog": _catalog,
    "factorization.enumerate_factorizations": _words,
    "presentations.congruent_bounded": _congruence,
    "presentations.bounded_length_set": _probe,
}

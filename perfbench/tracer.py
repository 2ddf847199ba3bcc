"""Span tracer that wraps the package's public functions from outside.

`Tracer.install` replaces every public module-level function of each
`dipath_ramsey` module, plus a few named methods, with a timing wrapper.  A
function re-exported under several namespaces (``classic.gallai_roy`` and
``builder.gallai_roy``, or the package root) is wrapped once and the wrapper
is placed in every namespace that held the original object, so each call is
seen whichever name it went through.  Nothing inside the package is edited.

A span's self time is its duration minus the durations of its direct child
spans.  Recursive calls are ordinary children, so summing self time over all
spans never counts an interval twice, and the self times of all spans add up
to the durations of the root spans.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "dipath_ramsey"

# Methods that do enough work per call to deserve a span.  Per-edge
# accessors (has_edge, color, out_mask, ...) are left alone: wrapping them
# would cost more than the work they do.
METHODS = (
    ("graphs", "OrientedGraph", "subgraph"),
    ("graphs", "EdgeColoring", "validate_total"),
    ("graphs", "EdgeColoring", "class_graph"),
    ("classic", "HamiltonDecomposition", "validate"),
    ("builder", "BuilderCertificate", "validate"),
)

# Per-call helpers that sit inside inner loops; a span around each call
# would dominate the time it measures.
SKIP = {"graphs.mask_of"}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: Counter = field(default_factory=Counter)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Collects span statistics while `active` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.stats: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.installed: set[str] = set()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[list[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame, self.clock()

    def _close(self, name: str, frame: list[float], start: float,
               error: BaseException | None = None) -> None:
        dur = self.clock() - start
        self._stack.pop()
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.self_s += dur - frame[0]
        if error is not None:
            st.errors[type(error).__name__] += 1
        if self._stack:
            self._stack[-1][0] += dur
        else:
            self.root_s += dur

    def wrap(self, name: str, fn):
        """A function that records a span named `name` around `fn`."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame, start, exc)
                raise
            tracer._close(name, frame, start)
            hook = tracer._hooks.get(name)
            if hook is not None:
                hook(tracer.counts, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def region(self, name: str):
        """Context manager recording a span for the benchmark's own code."""
        return _Region(self, name)

    def on_return(self, name: str, hook) -> None:
        """Call hook(counts, result) after each traced return of `name`."""
        self._hooks[name] = hook

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{_short(mod.__name__)}.{attr}"
                if name in SKIP:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
                self.installed.add(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._replace(mod, attr, hit[1])
        by_short = {_short(m.__name__): m for m in modules[1:]}
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(by_short.get(mod_name), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if not inspect.isfunction(fn):
                continue  # reported as absent, see `has`
            name = f"{mod_name}.{cls_name}.{meth}"
            self._replace(cls, meth, self.wrap(name, fn))
            self.installed.add(name)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def has(self, name: str) -> bool:
        """Whether `install` found and wrapped `name`."""
        return name in self.installed

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_s if st else 0.0

    def errors(self, name: str, kind: str) -> int:
        st = self.stats.get(name)
        return st.errors[kind] if st else 0


class _Region:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.active:
            self.frame, self.start = self.tracer._open()
        else:
            self.frame = None
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.frame is not None:
            self.tracer._close(self.name, self.frame, self.start, exc)
        return False

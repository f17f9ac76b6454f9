"""In-process tracer that wraps framelab functions at their module bindings.

A hook names a function by its defining module and attribute. Installing
the tracer replaces every binding of that same function object across the
loaded framelab modules, so each call that crosses a module boundary (lab
to spectral, the benchmark to frames) goes through one wrapper; leaving
the tracer puts every original back, also when the traced code raised.

Span hooks keep one record per call (name, start, end, parent, root).
Kernel hooks run hundreds of thousands of times per run, so they are
aggregated per name into count, total and self time under the enclosing
span instead. Self time is a call's duration minus the time its traced
children cover.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "framelab"


@dataclass(frozen=True)
class Hook:
    """One wrapped function; several hooks may share a metric group."""

    group: str
    target: str
    span: bool = False
    observe: object = None  # observe(stats, result, exc, args, kwargs)


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    root: int
    self_s: float
    kernels: dict  # kernel group -> [count, total_s, self_s]


class _Open:
    __slots__ = ("group", "start", "child_s", "span_id", "root", "kernels",
                 "owner")

    def __init__(self, group, start, span_id, root, kernels, owner):
        self.group = group
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id
        self.root = root
        self.kernels = kernels
        self.owner = owner


def resolve(target):
    """The object named by a dotted module path plus attribute, or None."""
    modname, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return None
    return getattr(module, attr, None)


class Tracer:
    """Use as a context manager around the traced phase only."""

    def __init__(self, hooks):
        self.hooks = tuple(hooks)
        self.stats = {h.group: Stats() for h in self.hooks}
        self.spans = []
        self.root_kernels = {}
        self.missing_targets = []
        self._stack = []
        self._spans_open = []
        self._bindings = []
        self._next_id = 0

    @property
    def missing_groups(self):
        """Groups none of whose targets could be wrapped."""
        present = {h.group for h in self.hooks
                   if h.target not in self.missing_targets}
        return sorted({h.group for h in self.hooks} - present)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for hook in self.hooks:
            original = resolve(hook.target)
            if original is None or not callable(original):
                self.missing_targets.append(hook.target)
                continue
            wrapper = self._wrap(hook, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        while self._bindings:
            mod, name, original = self._bindings.pop()
            setattr(mod, name, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    def _push(self, group, is_span):
        if is_span:
            span_id = self._next_id
            self._next_id += 1
            root = self._spans_open[-1].root if self._spans_open else span_id
            entry = _Open(group, 0.0, span_id, root, {}, None)
            self._spans_open.append(entry)
        else:
            owner = (self._spans_open[-1].kernels if self._spans_open
                     else self.root_kernels)
            entry = _Open(group, 0.0, None, None, None, owner)
        self._stack.append(entry)
        entry.start = time.perf_counter()
        return entry

    def _pop(self, entry, stats):
        end = time.perf_counter()
        dur = end - entry.start
        self_s = dur - entry.child_s
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += dur
        stats.calls += 1
        stats.total_s += dur
        stats.self_s += self_s
        if entry.span_id is None:
            agg = entry.owner.get(entry.group)
            if agg is None:
                entry.owner[entry.group] = [1, dur, self_s]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_s
            return
        self._spans_open.pop()
        parent = self._spans_open[-1].span_id if self._spans_open else None
        self.spans.append(Span(id=entry.span_id, name=entry.group,
                               start=entry.start, end=end, parent=parent,
                               root=entry.root, self_s=self_s,
                               kernels=entry.kernels))

    def span(self, name):
        """A span recorded from the benchmark's own code, e.g. one op."""
        return _BenchSpan(self, name)

    def _wrap(self, hook, fn):
        stats = self.stats[hook.group]
        push, pop = self._push, self._pop
        group, is_span, observe = hook.group, hook.span, hook.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = push(group, is_span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                pop(entry, stats)
                if observe is not None:
                    observe(stats, result, exc, args, kwargs)

        return wrapper

    def kernels_by_parent(self):
        """Kernel aggregates summed over spans of the same name."""
        out = {}
        for sp in self.spans:
            dst = out.setdefault(sp.name, {})
            for kname, (count, total, self_s) in sp.kernels.items():
                agg = dst.setdefault(kname, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += total
                agg[2] += self_s
        if self.root_kernels:
            out["(no span)"] = {k: list(v)
                                for k, v in self.root_kernels.items()}
        return out


class _BenchSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        if name not in tracer.stats:
            tracer.stats[name] = Stats()
        self.stats = tracer.stats[name]

    def __enter__(self):
        self.entry = self.tracer._push(self.name, True)
        return self

    def __exit__(self, *exc_info):
        self.tracer._pop(self.entry, self.stats)
        return False

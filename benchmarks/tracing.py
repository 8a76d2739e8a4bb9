"""Spans around the package's public functions, recorded from outside it.

A :class:`Tracer` replaces chosen functions of ``catrank`` modules with
wrappers that record one span per call (name, layer, start, end, parent)
and optionally keep the call's result for the output checks. Names bound
into other modules by ``from x import f`` are wrapped as well, under the
importing module's name, so ``coherence.knn_by_count`` and
``cli.load_votes`` show up as their own spans. Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts every original back.

Spans stay in memory; the caller writes them out once at the end. Wrapped
functions must be called from the main thread (the package's worker
threads only run unwrapped kernels).
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` or ``module.Class.attr``.

    ``count`` maps ``(args, kwargs, result)`` to counters added under the
    target's key. It runs after the call's span has ended, and its time is
    left out of the parent span's self time.
    ``rss`` samples the process's resident set size during each call.
    """

    module: str
    attr: str
    count: object = None
    rss: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"

    @property
    def layer(self) -> str:
        return self.module


class RssSampler:
    """Peak resident-set growth of the process while :meth:`__enter__` is open.

    A background thread reads ``/proc/self/statm`` every ``interval`` seconds;
    the result is the largest RSS seen minus the RSS at entry, in MB.
    """

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = None
        self._fd = None

    def _rss_mb(self) -> float:
        return int(os.pread(self._fd, 64, 0).split()[1]) * _PAGE_MB

    def _run(self, base: float):
        peak = base
        while not self._stop.wait(self.interval):
            peak = max(peak, self._rss_mb())
        self.peak_mb = max(peak, self._rss_mb()) - base

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, args=(self._rss_mb(),),
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.close(self._fd)
        return False


@dataclass
class Span:
    name: str
    key: str
    layer: str
    start: float
    end: float
    parent: int
    #: time spent after ``end`` on the span's counters and captures
    count_s: float = 0.0


@dataclass
class Tracer:
    """Wraps :class:`Target` functions of the imported ``catrank`` package."""

    package: object
    targets: list
    capture: frozenset = frozenset()
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    rss_peak_mb: dict = field(default_factory=lambda: defaultdict(float))
    captured: dict = field(default_factory=lambda: defaultdict(list))

    def __post_init__(self):
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark itself ---------------------------------

    def span(self, name: str, layer: str):
        """A span around code the benchmark runs itself, keyed by its name."""
        return _ManualSpan(self, name, layer)

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        return i, parent

    def _close(self, i: int, parent: int, name: str, key: str, layer: str,
               start: float, end: float):
        self._stack.pop()
        self.spans[i] = Span(name, key, layer, start, end, parent)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, target: Target, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            i, parent = tracer._open()
            sampler = RssSampler() if target.rss else None
            start = time.perf_counter()
            try:
                if sampler is None:
                    result = fn(*args, **kwargs)
                else:
                    with sampler:
                        result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(i, parent, name, target.key, target.layer, start, end)
            if sampler is not None:
                peak = tracer.rss_peak_mb
                peak[target.key] = max(peak[target.key], sampler.peak_mb)
            if target.count is not None:
                for k, v in target.count(args, kwargs, result).items():
                    tracer.counts[f"{target.key}.{k}"] += v
            if target.key in tracer.capture:
                tracer.captured[target.key].append((args, kwargs, result))
            tracer.spans[i].count_s = time.perf_counter() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        return wrapper

    def install(self):
        modules = {name: getattr(self.package, name) for name in _submodules(self.package)}
        for t in self.targets:
            owner = modules[t.module]
            attr = t.attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(original.__func__, t, t.key))
                self._patch(cls, meth, original, wrapped)
                continue
            original = getattr(owner, attr)
            self._patch(owner, attr, original, self._wrap(original, t, t.key))
            for mod_name, mod in modules.items():
                if mod_name != t.module and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original,
                                self._wrap(original, t, f"{mod_name}.{attr}"))
        return self

    def _patch(self, obj, attr, original, replacement):
        self._patches.append((obj, attr, original))
        setattr(obj, attr, replacement)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its children's.

        A child's counting time is subtracted too, so a parent's self time
        is the package's own work.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start + s.count_s
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def busy_by(self, attr: str) -> dict[str, float]:
        """Summed self time grouped by span ``key`` or ``layer``."""
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            out[getattr(s, attr)] += t
        return out

    def calls_by_key(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.key] += 1
        return out

    def as_records(self) -> list[list]:
        return [[s.name, s.layer, s.start, s.end, s.parent, s.count_s] for s in self.spans]


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.i, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.i, self.parent, self.name, self.name, self.layer,
                           self.start, time.perf_counter())
        return False


def _submodules(package) -> list[str]:
    import pkgutil

    return [m.name for m in pkgutil.iter_modules(package.__path__)
            if hasattr(package, m.name)]

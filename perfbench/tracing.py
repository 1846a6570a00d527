"""Span tracing of indstab's layer boundaries, installed from outside the package.

Every function a module imports from another indstab module is rebound, in the
importing module's namespace, to a wrapper that records one span per call.  A
module imported whole (``from indstab import families``) is replaced in the
importer's namespace by a proxy whose functions are wrapped the same way.  A
few functions are also rebound inside their own module (``extra``), so that
calls within one layer, such as ``run_all`` calling each verify suite, are
seen too.  Nothing under ``src/`` is edited, and ``uninstall`` restores every
binding.

Spans are aggregated in memory per (layer, function, caller layer): a traced
n = 8 search makes hundreds of thousands of calls, too many to keep one by
one.  A span's self time is its duration minus the time its child spans
cover; spans nest strictly, so the covered time is the sum of the children's
durations.  A generator function gets one span per resumption, so the work
done while the caller iterates is charged to the generator's layer, not to
the caller.

Calls that pass through no rebound name, such as Graph methods and the
``Graph`` constructor, get no span and count toward their caller's layer.
``Sampler`` measures how much time that misattributes: it samples which
module is running and compares it with the layer of the innermost open span.
"""

from __future__ import annotations

import inspect
import signal
import time
import types
from contextlib import contextmanager

# aggregate record fields
CALLS, TOTAL, SELF, TRUES, ITEMS = range(5)
# the sampler's period in CPU seconds; the kernel rounds it up to its tick
SAMPLE_S = 1e-3


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Aggregated spans of the calls crossing the patched bindings.

    ``clock`` is injectable so that tests can check the self-time arithmetic
    with exact, synthetic durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # one accumulator per open span: the time its child spans cover; the
        # bottom entry collects spans opened outside any other span
        self._stack: list[float] = [0.0]
        # the layer of each open span, innermost last
        self.layers: list[str] = ["-"]
        # (layer, function, caller layer) -> [calls, total_s, self_s, trues, items]
        self.records: dict[tuple[str, str, str], list] = {}
        self._saved: list[tuple[dict, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _record(self, layer: str, name: str, caller: str) -> list:
        return self.records.setdefault((layer, name, caller), [0, 0.0, 0.0, 0, 0])

    def wrap(self, fn, caller: str):
        """A wrapper of `fn` that records spans charged to `caller` as caller layer."""
        layer = layer_of(fn.__module__)
        rec = self._record(layer, fn.__name__, caller)
        stack = self._stack
        layers = self.layers
        clock = self.clock

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                rec[CALLS] += 1
                it = fn(*args, **kwargs)
                while True:
                    layers.append(layer)
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        covered = stack.pop()
                        layers.pop()
                        stack[-1] += dt
                        rec[TOTAL] += dt
                        rec[SELF] += dt - covered
                    rec[ITEMS] += 1
                    yield item

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            layers.append(layer)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = stack.pop()
                layers.pop()
                stack[-1] += dt
                rec[CALLS] += 1
                rec[TOTAL] += dt
                rec[SELF] += dt - covered
            if result is True:
                rec[TRUES] += 1
            elif type(result) is list:
                rec[ITEMS] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, layer: str, name: str, caller: str = "-"):
        """A root span around code the benchmark runs itself."""
        rec = self._record(layer, name, caller)
        self.layers.append(layer)
        self._stack.append(0.0)
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            covered = self._stack.pop()
            self.layers.pop()
            self._stack[-1] += dt
            rec[CALLS] += 1
            rec[TOTAL] += dt
            rec[SELF] += dt - covered

    # -- installing -----------------------------------------------------------

    def _rebind(self, namespace: dict, name: str, value) -> None:
        self._saved.append((namespace, name, namespace[name]))
        namespace[name] = value

    def install(self, modules, package: str, extra=(), caller_names=None) -> None:
        """Rebind cross-module imports in each of `modules`.

        `package` names the traced package; functions and modules from
        outside it are left alone.  `extra` lists (module, function name)
        pairs to rebind inside their own module.  `caller_names` maps a
        module name to the caller layer charged for its calls (by default
        the module's last dotted component).
        """
        caller_names = caller_names or {}
        prefix = package + "."
        for mod in modules:
            caller = caller_names.get(mod.__name__, layer_of(mod.__name__))
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType):
                    src = obj.__module__ or ""
                    if src.startswith(prefix) and src != mod.__name__:
                        self._rebind(ns, name, self.wrap(obj, caller))
                elif isinstance(obj, types.ModuleType):
                    if obj.__name__.startswith(prefix) and obj is not mod:
                        self._rebind(ns, name, self._proxy(obj, caller))
        for mod, name in extra:
            ns = vars(mod)
            caller = caller_names.get(mod.__name__, layer_of(mod.__name__))
            self._rebind(ns, name, self.wrap(ns[name], caller))

    def _proxy(self, mod: types.ModuleType, caller: str) -> types.ModuleType:
        proxy = types.ModuleType(mod.__name__)
        for name, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                obj = self.wrap(obj, caller)
            setattr(proxy, name, obj)
        return proxy

    def uninstall(self) -> None:
        while self._saved:
            ns, name, value = self._saved.pop()
            ns[name] = value

    # -- reading --------------------------------------------------------------

    def spans(self) -> list[dict]:
        """The aggregated records, largest self time first."""
        out = [
            {
                "layer": layer,
                "function": name,
                "caller": caller,
                "calls": r[CALLS],
                "total_s": r[TOTAL],
                "self_s": r[SELF],
                "true_results": r[TRUES],
                "items": r[ITEMS],
            }
            for (layer, name, caller), r in self.records.items()
            if r[CALLS]
        ]
        out.sort(key=lambda d: -d["self_s"])
        return out


class Sampler:
    """Samples the running module, to measure what the spans misattribute.

    Every SAMPLE_S seconds of CPU time (SIGPROF), the running frame and its
    callers are looked up in `files`, which maps a source file to its module's
    layer, or to ``"trace"`` for the tracer's own code.  The first frame found
    gives the module running; the innermost open span gives the layer charged.
    Samples in which the two differ, apart from the tracer's own, are time
    the spans charge to the wrong layer.
    """

    def __init__(self, tracer: Tracer, files: dict[str, str]):
        self.tracer = tracer
        self.files = files
        # (module running, layer charged) -> samples
        self.counts: dict[tuple[str, str], int] = {}
        self._previous = None

    def sample(self, frame) -> None:
        files = self.files
        module = "other"
        while frame is not None:
            found = files.get(frame.f_code.co_filename)
            if found is not None:
                module = found
                break
            frame = frame.f_back
        key = (module, self.tracer.layers[-1])
        self.counts[key] = self.counts.get(key, 0) + 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, lambda _, frame: self.sample(frame))
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def records(self) -> list[dict]:
        """The sample counts, largest first."""
        out = [
            {"module": module, "charged": charged, "samples": n}
            for (module, charged), n in self.counts.items()
        ]
        out.sort(key=lambda d: -d["samples"])
        return out

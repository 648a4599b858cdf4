"""Span tracing applied to the erconsensus package from outside.

`traced(tracer, modules, namespaces)` replaces every public function of the
given modules, and every public method of the classes they define, with a
wrapper that records one span per call: name, start, end, parent span and
op id. Every namespace that bound an original (the defining module, the
modules that imported it, the package itself) is rebound, so calls between
modules, such as montecarlo calling dynamics.run_consensus, are traced too.
The package source is left untouched and everything is restored on exit.

Spans are kept in memory and written out when the run ends. The parent of a
span is the innermost open span of the tracer, so traced runs must be
single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span store with a stack of open spans and a current op id.

    hooks maps a span name to f(tracer, span, args, result, error), called
    when the span closes; it may set span[ATTRS] or the current op.
    """

    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_op = 0
        self._hooks = hooks or {}

    def new_op(self) -> int:
        self.op = self._next_op
        self._next_op += 1
        return self.op

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:  # noted on the span, then re-raised
                error = exc
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, span, args, result, error)

        return traced_call

    def write(self, path) -> None:
        """One JSON object per span: name, start/end in ns, parent index, op."""
        with open(path, "w") as handle:
            for span in self.spans:
                record = dict(zip(("name", "start_ns", "end_ns", "parent", "op"), span))
                if span[ATTRS]:
                    record["attrs"] = span[ATTRS]
                handle.write(json.dumps(record) + "\n")


@contextlib.contextmanager
def traced(tracer: Tracer, modules, namespaces):
    """Wrap the public callables of `modules` and rebind them in `namespaces`."""
    wrappers: dict[int, object] = {}
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for name, member in list(vars(obj).items()):
                        span_name = f"{layer}.{attr}.{name}"
                        if name.startswith("_"):
                            continue
                        if inspect.isfunction(member):
                            patch(obj, name, tracer.wrap(span_name, member))
                        elif isinstance(member, classmethod):
                            patch(obj, name, classmethod(tracer.wrap(span_name, member.__func__)))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    patch(namespace, attr, wrappers[id(obj)])
        yield tracer
    finally:
        for owner, attr, old in reversed(patched):
            setattr(owner, attr, old)


def self_times(spans) -> list[int]:
    """Duration of each span minus the durations of its direct children, in ns.

    Children of one span run one after another on one thread, so they never
    overlap, and the self times of a tree add up to its root's duration.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own

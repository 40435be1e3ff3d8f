"""Spans around calls into rieszlab, recorded from outside the package.

The package is not instrumented.  Instead :func:`patched` swaps chosen
functions for wrappers everywhere a loaded ``rieszlab`` module refers
to them: the defining module's attribute, names another module imported
with ``from .riesz import assemble``, and default arguments such as
``bisect_ground_state(shooter=shoot)``.  Everything is restored on exit.

A span is ``[name, start, end, parent, job, note]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``job`` labels the job
that caused it and ``note`` holds what the span's counter recorded
(points evaluated, a cache key, bytes written).  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import types
from time import perf_counter


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rieszlab"
                                  or name.startswith("rieszlab."))]


@contextlib.contextmanager
def patched(replacements):
    """Substitute ``{original: wrapper}`` across the loaded package."""
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}

    def swap(value):
        hit = by_id.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    undo = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                new = swap(value)
                if new is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, new)
                if (isinstance(value, types.FunctionType)
                        and value.__defaults__):
                    defaults = value.__defaults__
                    swapped = tuple(swap(d) or d for d in defaults)
                    if any(a is not b for a, b in zip(swapped, defaults)):
                        undo.append((value, "__defaults__", defaults))
                        value.__defaults__ = swapped
        yield
    finally:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)


@contextlib.contextmanager
def recording(module, name):
    """Spans of ``module.name`` (as currently bound) while active."""
    tracer = Tracer()
    original = getattr(module, name)
    with patched({original: tracer.wrap(name, original)}):
        yield tracer.spans


class Tracer:
    """Collects spans of the functions it wraps."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def wrap(self, name, fn, note=None):
        """Wrapper of ``fn`` recording a span named ``name``.

        ``note(args, kwargs, result)`` is evaluated after the span ends.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out


def span_cost(calls=20000, repeats=5):
    """Seconds one :meth:`Tracer.wrap` wrapper adds to a call.

    The best of ``repeats`` timings of ``calls`` wrapped no-op calls,
    minus the same for the bare no-op; a span's note is not included.
    """
    def noop(*args, **kwargs):
        return None

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn(1)
            times.append(perf_counter() - t0)
        return min(times)

    wrapped = Tracer().wrap("noop", noop)
    return max(best(wrapped) - best(noop), 0.0) / calls

"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the program from the outside: it
replaces a function or method on the object that defines it, and also
every binding of that function in modules that imported it by name
(``from repro.crypto import seal`` leaves a second reference in the
importing module, which a patch of ``repro.crypto.envelope`` alone
would miss).

Each call of a wrapped function records one span: its name, its parent
span, the thread it ran on, the benchmark phase it started in, and its
host start and end times.  The span stack is thread-local, so a job
that runs on a pipeline-pool thread opens a root span of that thread
instead of nesting under whatever the main thread was doing.  Spans
stay in memory until :meth:`Tracer.summary` reduces them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable

# Span record layout (a list, so a child can add to its parent's
# child time in place).
NAME, GROUP, LAYER, PARENT, THREAD, PHASE, START, END, CHILD_S, AMOUNT, OUTER = range(11)


class Tracer:
    """Wraps functions with spans and reduces the spans to totals."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.phase = "setup"
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        #: name -> the original (unwrapped) function, for the profile check.
        self.originals: dict[str, list[Callable]] = {}

    # -- recording -----------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str,
        group: str,
        layer: str,
        amount: Callable | None,
    ) -> Callable:
        local = self._local
        spans = self.spans
        perf = time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            outer = True
            for open_span in stack:
                if open_span[GROUP] == group:
                    outer = False
                    break
            record = [
                name, group, layer, parent, get_ident(), tracer.phase,
                perf(), 0.0, 0.0, 0, outer,
            ]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = perf()
                record[END] = end
                if parent is not None:
                    parent[CHILD_S] += end - record[START]
                spans.append(record)
            if amount is not None:
                record[AMOUNT] = amount(args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch_function(
        self,
        module: Any,
        attr: str,
        name: str,
        layer: str,
        group: str | None = None,
        amount: Callable | None = None,
    ) -> None:
        """Wrap a module-level function and every by-name import of it."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, group or name, layer, amount)
        self.originals.setdefault(name, []).append(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        layer: str,
        group: str | None = None,
        amount: Callable | None = None,
    ) -> None:
        """Wrap a method, classmethod or property getter on the class in
        ``cls``'s MRO that defines it."""
        for owner in cls.__mro__:
            if attr in vars(owner):
                break
        else:
            raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")
        raw = vars(owner)[attr]
        group = group or name
        if isinstance(raw, classmethod):
            original = raw.__func__
            wrapped: Any = classmethod(self._wrap(original, name, group, layer, amount))
        elif isinstance(raw, property):
            original = raw.fget
            wrapped = property(
                self._wrap(original, name, group, layer, amount), raw.fset, raw.fdel
            )
        else:
            original = raw
            wrapped = self._wrap(original, name, group, layer, amount)
        self.originals.setdefault(name, []).append(original)
        setattr(owner, attr, wrapped)

    # -- reduction -----------------------------------------------------------

    def summary(self, phase: str) -> dict[str, Any]:
        """Totals over the spans that started in ``phase``.

        Per span name: ``count``, ``main_count`` (main-thread calls),
        ``s`` (inclusive time of the calls not nested inside another
        span of the same group), ``self_s`` (inclusive minus child
        spans) and ``amount`` (sum of the per-call measure).  Per layer:
        ``self_s``.  ``root_main_s`` is the time covered by main-thread
        root spans, ``root_worker_s`` the same for other threads.
        """
        names: dict[str, dict[str, float]] = {}
        layers: dict[str, float] = {}
        root_main = root_worker = 0.0
        for span in self.spans:
            if span[PHASE] != phase:
                continue
            duration = span[END] - span[START]
            own = duration - span[CHILD_S]
            entry = names.setdefault(
                span[NAME],
                {"count": 0, "main_count": 0, "s": 0.0, "self_s": 0.0, "amount": 0},
            )
            entry["count"] += 1
            if span[THREAD] == self.main_thread:
                entry["main_count"] += 1
            if span[OUTER]:
                entry["s"] += duration
            entry["self_s"] += own
            entry["amount"] += span[AMOUNT]
            layers[span[LAYER]] = layers.get(span[LAYER], 0.0) + own
            if span[PARENT] is None:
                if span[THREAD] == self.main_thread:
                    root_main += duration
                else:
                    root_worker += duration
        return {
            "names": names,
            "layers": layers,
            "root_main_s": root_main,
            "root_worker_s": root_worker,
        }

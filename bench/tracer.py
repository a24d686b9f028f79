"""Span tracing around the program's public functions, from outside it.

Every public function of every module of ``birkhoff_poisson`` is replaced,
in every module namespace that binds it, by a wrapper that records a span.
Bindings are found by object identity, because ``from .poisson import
omega_apply`` and similar imports bind one function under several modules;
the span carries the name of the defining module.  The entries of
``verify.SUITES`` are wrapped as spans named ``verify.<suite>``.

``cli`` is one layer: only ``cli.main`` is wrapped, so its self time covers
the ``cmd_*`` handlers, argument parsing and output serialization.

Spans are folded into per-function accumulators as they close (call count
and self time, which is the span's duration minus the time its child spans
cover), so memory stays flat however many spans a round makes.  ``install``
binds the wrappers and ``restore`` puts the original functions back; the
accumulators only grow while the wrappers are installed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

PACKAGE = "birkhoff_poisson"
MODULES = ("cli", "errors", "lie", "linalg", "momentum", "poisson", "sampling",
           "strata", "symspace", "verify")


class Tracer:
    """Wraps the package's public functions and accumulates their spans.

    ``nested`` lists (child, ancestor) span-name pairs whose child calls are
    also counted separately when they happen inside an ancestor span; the
    per-call ratios are measured there.
    """

    def __init__(self, nested: tuple[tuple[str, str], ...] = ()) -> None:
        self.names: list[str] = []
        self._stack: list[float] = []
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES
        ]
        wrapped: dict[int, object] = {}
        for short, mod in zip(MODULES, modules[1:]):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and (short != "cli" or name == "main")  # cli is one layer
                    and obj.__module__ == mod.__name__
                    and id(obj) not in wrapped
                ):
                    span = f"{short}.{obj.__name__}"
                    wrapped[id(obj)] = self._make_wrapper(obj, span)
        # (namespace, name, original, wrapper) for every binding to replace
        self._bindings: list[tuple[object, str, object, object]] = [
            (mod, name, obj, wrapped[id(obj)])
            for mod in modules
            for name, obj in vars(mod).items()
            if id(obj) in wrapped
        ]
        suites = importlib.import_module(f"{PACKAGE}.verify").SUITES
        self._bindings += [
            (suites, suite, fn, self._make_wrapper(fn, f"verify.{suite}"))
            for suite, fn in suites.items()
        ]
        self._watch: list[list[tuple[tuple[str, str], int]]] = [[] for _ in self.names]
        for child, ancestor in nested:
            if child in self.names and ancestor in self.names:
                self._watch[self.names.index(child)].append(
                    ((child, ancestor), self.names.index(ancestor))
                )
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._active = [0] * len(self.names)
        self.nested = {pair: 0 for pair in nested}

    def install(self) -> None:
        for owner, name, _, wrapper in self._bindings:
            self._bind(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original, _ in self._bindings:
            self._bind(owner, name, original)

    @staticmethod
    def _bind(owner, name: str, value) -> None:
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)

    def _make_wrapper(self, fn, span: str):
        index = len(self.names)
        self.names.append(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            active = tracer._active
            for pair, ancestor in tracer._watch[index]:
                if active[ancestor]:
                    tracer.nested[pair] += 1
            active[index] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                active[index] -= 1
                tracer.calls[index] += 1
                tracer.self_s[index] += duration - child

        return wrapper

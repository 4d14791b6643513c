"""Run one resolv CLI command with a span around every public function call.

Usage: python bench/traced_cli.py SPANS_JSON <resolv cli arguments...>

Every public function of the traced modules is wrapped once and the wrapper
is bound at every module attribute that held the original, so calls made
through names imported elsewhere (``resolv.cli`` and ``resolv.multiscale``
import ``louvain_maximize`` directly, for example) are traced as well.
Spans are kept in memory and written to SPANS_JSON when the command ends.
The exit code is the command's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

from resolv.graph import Graph

LAYERS = ("cli", "graph", "modularity", "multiscale", "model_selection",
          "metrics", "seeding", "generators")

FIELDS = ("id", "name", "parent", "thread", "start", "end", "cpu", "n", "m")


class Tracer:
    """Span recorder: (id, name, parent, thread, start, end, thread cpu, n, m).

    ``parent`` is the span open on the same thread, or the outermost span when
    a worker thread has none open. ``n`` and ``m`` are the node and edge counts
    of the first argument when it is a Graph, else None.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if self._root is None:
                self._root = sid
            stack.append(sid)
            graph = args[0] if args and isinstance(args[0], Graph) else None
            n, m = (graph.n, graph.m) if graph is not None else (None, None)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                self.spans.append((sid, name, parent, threading.get_ident(),
                                   start, end, cpu, n, m))
        return traced


def instrument(tracer: Tracer) -> None:
    """Replace each public function of LAYERS at every resolv module binding."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"resolv.{layer}")
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == module.__name__):
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    for name, module in list(sys.modules.items()):
        if name != "resolv" and not name.startswith("resolv."):
            continue
        for attr, value in list(vars(module).items()):
            try:
                wrapper = wrappers.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    cli = importlib.import_module("resolv.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

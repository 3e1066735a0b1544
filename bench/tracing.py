"""In-memory spans around bowforge's public functions, recorded from outside.

The tracer replaces each target function, in every loaded ``bowforge``
module that binds it, with a wrapper that records a span: name, layer
(the bowforge module the function belongs to), start and end on the
monotonic clock, parent span and job id.  Nothing inside the library is
edited; calls the library makes to these names through module globals
(``generate`` running the validators, ``scan_local_freeness`` calling
``fiber_at``) are caught the same way, so spans nest.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs timed in a traced run; the layer is the module.
TARGETS = (
    ("bowforge.generator", "generate"),
    ("bowforge.generator", "generate_mirror"),
    ("bowforge.bowdata", "validate_relations"),
    ("bowforge.bowdata", "check_exactness_all"),
    ("bowforge.bowdata", "check_chain_invariants"),
    ("bowforge.orthosymplectic", "verify_pairing_relations"),
    ("bowforge.orthosymplectic", "fiber_form"),
    ("bowforge.monad", "assemble_monad"),
    ("bowforge.monad", "fiber_at"),
    ("bowforge.monad", "is_locally_free_at"),
    ("bowforge.monad", "scan_local_freeness"),
    ("bowforge.bowfile", "parse"),
    ("bowforge.bowfile", "parse_topology"),
    ("bowforge.bowfile", "serialize"),
    ("bowforge.bowfile", "canonical_dumps"),
    ("bowforge.export", "export_bow_complex"),
    ("bowforge.cli", "main"),
)

# Span fields, stored as lists so the end can be filled in place.
NAME, LAYER, START, END, PARENT, JOB, FAILED = range(7)


class Tracer:
    """Collects spans in memory; ``spans`` is read once the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent, self.job, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[FAILED] = failed
        self._stack.pop()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by a child process under the open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] is None else span[PARENT] + offset
            span[JOB] = self.spans[parent][JOB]
            self.spans.append(span)

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, failed=True)
                raise
            self.end(index)
            return result

        return traced

    def instrument(self) -> None:
        for module_name, attr in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            layer = module_name.rsplit(".", 1)[-1]
            wrapper = self._wrap(f"{layer}.{attr}", layer, original)
            for name, module in list(sys.modules.items()):
                if name != "bowforge" and not name.startswith("bowforge."):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._patched.append((module, binding, original))

    def uninstrument(self) -> None:
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]

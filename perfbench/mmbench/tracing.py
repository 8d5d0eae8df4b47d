"""Span recording around the package's public callables, from outside.

A Tracer replaces every public module-level function of each layer module,
and a few public methods listed in METHODS, with a wrapper that records one
span per call. The replacement is made at every import site: each attribute
of each loaded ``mmchat`` module that is the original function object gets
the wrapper, so ``toy_model.multi_head_forward``, ``attn.build_mask``,
``blend.render`` and ``cli.filter_limits`` are all covered. Nothing under
the package's source changes, and ``uninstall`` puts every original back.

A span is ``[name, tag, parent, start, end, extra]``. Spans stay in memory
until the traced phase ends; ``write_spans`` then writes them out. ``tag`` is whatever the benchmark set on the tracer when
the span opened; the copy-task workload sets it to the attention variant
whose model is being trained, so per-variant attention time comes from which
model ran, not from kernel function names. ``extra`` holds a count taken
from the call's result (see RESULT_COUNTS).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

PACKAGE = "mmchat"
LAYERS = ("modseq", "mask", "attn", "toy_model", "template", "blend", "cli")

# Methods that do a layer's work but are reached through construction or an
# instance rather than a module-level function. Per-token ModalityTag
# construction is deliberately absent: wrapping it would put a span on every
# token, so its cost stays with the caller (template.render).
METHODS: dict[str, dict[str, tuple[str, ...]]] = {
    "modseq": {"ModalitySequence": ("__post_init__", "is_image", "block_ids")},
    "mask": {"MmcaMask": ("__post_init__", "allowed")},
    "attn": {"AttentionInputs": ("__post_init__",), "CrossParams": ("__post_init__",)},
    "template": {"RenderedSample": ("__post_init__",), "HashTokenizer": ("encode",)},
}

# Counts read off a call's result, kept in the span's ``extra`` slot.
RESULT_COUNTS: dict[str, Callable[[tuple, Any], Any]] = {
    # tokens emitted by one render call
    "template.render": lambda args, result: result.d,
    # (records kept, records offered) by one filter call
    "blend.filter_limits": lambda args, result: (len(result[0]), len(args[0])),
}

NAME, TAG, PARENT, START, END, EXTRA = range(6)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = RESULT_COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, tracer.tag, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[EXTRA] = count(args, result)
                return result
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def _patch(self, holder: object, attr: str, value: object) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for layer in LAYERS:
                module = sys.modules.get(f"{PACKAGE}.{layer}")
                if module is None:
                    continue
                for attr, fn in list(vars(module).items()):
                    if (
                        attr.startswith("_")
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                    ):
                        continue
                    wrapper = self._wrap(fn, f"{layer}.{attr}")
                    for site in modules:
                        for site_attr, value in list(vars(site).items()):
                            if value is fn:
                                self._patch(site, site_attr, wrapper)
                for cls_name, methods in METHODS.get(layer, {}).items():
                    cls = vars(module).get(cls_name)
                    for method in methods:
                        if cls is not None and method in vars(cls):
                            wrapper = self._wrap(vars(cls)[method], f"{layer}.{cls_name}.{method}")
                            self._patch(cls, method, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def write_spans(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: a header naming the
        fields, then one ``[name, tag, parent, start, end, extra]`` list per
        span in the order they opened. ``parent`` is a span's line number
        among the span lines (-1 at top level); times are seconds since the
        first span opened."""
        origin = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"fields": ["name", "tag", "parent", "start", "end", "extra"]}) + "\n")
            for name, tag, parent, start, end, extra in self.spans:
                handle.write(json.dumps([name, tag, parent, start - origin, end - origin, extra]) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Summary:
    """Self times and counts derived from a finished list of spans.

    A span's self time is its duration minus the durations of its direct
    children; children of one span run one after another, so they never
    overlap. A layer's self time is the sum over its spans.
    """

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        self.self_time = [r[END] - r[START] - c for r, c in zip(spans, child)]
        self._within: dict[str, list[bool]] = {}

    def within(self, ancestor: str) -> list[bool]:
        """Per span: True when it, or a span it runs inside, is named
        ``ancestor``. Parents are recorded before their children."""
        if ancestor not in self._within:
            flags: list[bool] = []
            for record in self.spans:
                parent = record[PARENT]
                flags.append(record[NAME] == ancestor or (parent >= 0 and flags[parent]))
            self._within[ancestor] = flags
        return self._within[ancestor]

    def _select(self, name=None, layer=None, tag=None, within=None):
        inside = self.within(within) if within is not None else None
        for index, record in enumerate(self.spans):
            if name is not None and record[NAME] != name:
                continue
            if layer is not None and layer_of(record[NAME]) != layer:
                continue
            if tag is not None and record[TAG] != tag:
                continue
            if inside is not None and not inside[index]:
                continue
            yield index, record

    def self_s(self, *, name=None, layer=None, tag=None, within=None) -> float:
        return sum(self.self_time[i] for i, _ in self._select(name, layer, tag, within))

    def count(self, *, name=None, layer=None, within=None) -> int:
        return sum(1 for _ in self._select(name, layer, None, within))

    def extras(self, name: str, within: str | None = None) -> list:
        return [r[EXTRA] for _, r in self._select(name, None, None, within) if r[EXTRA] is not None]

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] < 0)

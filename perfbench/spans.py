"""Span tracing of calls into convncf, installed from outside the package.

Each traced function is replaced by a wrapper at every name it is looked up
by: its defining module and every convncf module that imported it with
``from ... import``. A wrapper records one span per call (name, start, end,
parent) and keeps running totals per span name: calls, inclusive seconds,
self seconds (inclusive minus the time of direct child spans) and counters
taken from the call's arguments. Totals are kept per phase ("setup",
"round" or "checks") so that each can be divided by the number of units its
phase ran, and the benchmark's own checks can be left out.

Nothing here runs unless ``install`` is called; the untraced benchmark run
never calls it.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# Modules searched for aliases of a traced function.
MODULES = (
    "synthetic", "data", "embeddings", "tensor", "model",
    "training", "evaluation", "gradcheck", "cli",
)


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _conv_flops(args, kwargs) -> int:
    """Flops of one 2x2/stride-2 layer call: 2 * out_positions * 4*cin * cout."""
    h = _arg(args, kwargs, 0, "inp").shape[0]
    kernel = _arg(args, kwargs, 1, "kernel")
    return 2 * (h // 2) ** 2 * 4 * kernel.shape[2] * kernel.shape[3]


# (defining module, function, {counter: f(args, kwargs, result) -> number})
TARGETS: tuple[tuple[str, str, dict[str, Callable]], ...] = (
    ("synthetic", "planted_interactions", {}),
    ("synthetic", "write_interactions", {}),
    ("data", "load_interactions", {}),
    ("data", "split_leave_latest_out", {}),
    ("data", "minibatches", {}),
    ("data", "sample_negative", {}),
    ("embeddings", "init_tables", {}),
    ("embeddings", "user_embedding", {}),
    ("embeddings", "scatter_user_gradient", {}),
    ("embeddings", "item_embedding", {}),
    ("tensor", "conv2x2s2_forward", {"flops": lambda a, k, r: _conv_flops(a, k)}),
    ("tensor", "conv2x2s2_backward", {"flops": lambda a, k, r: 2 * _conv_flops(a, k)}),
    ("model", "new_head", {}),
    ("model", "merge", {}),
    ("model", "merge_backward", {}),
    ("model", "head_forward", {}),
    ("model", "head_backward", {}),
    ("model", "predict_batch", {"candidates": lambda a, k, r: len(_arg(a, k, 3, "items"))}),
    ("model", "save_checkpoint", {"bytes": lambda a, k, r: os.path.getsize(_arg(a, k, 2, "path"))}),
    ("model", "load_checkpoint", {}),
    ("training", "train", {}),
    ("training", "train_step", {}),
    ("training", "compute_triple_gradients", {}),
    ("training", "adagrad_step", {}),
    ("evaluation", "evaluate", {"users": lambda a, k, r: r.users_evaluated}),
    ("evaluation", "rank_of_target", {}),
)

GENERATORS = {("data", "minibatches")}


class Stat:
    """Running totals of one span name within one phase."""

    __slots__ = ("calls", "total", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.counters: dict[str, float] = {}


class Tracer:
    """Span recorder. Spans of the first ``keep`` calls are stored whole;
    totals cover every call."""

    def __init__(self, keep: int = 50_000) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phase = "round"
        self.stats: dict[str, dict[str, Stat]] = {"setup": {}, "round": {}, "checks": {}}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.keep = keep
        self.records: list[tuple[int, int, int, float, float]] = []  # id, parent, name, start, end
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stat(self, name: str) -> Stat:
        table = self.stats[self.phase]
        if name not in table:
            table[name] = Stat()
        return table[name]

    def _open(self) -> tuple[list, int, float]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent, perf_counter()

    def _close(self, name_id: int, frame: list, parent: int, t0: float) -> Stat:
        t1 = perf_counter()
        self._stack.pop()
        d = t1 - t0
        if self._stack:
            self._stack[-1][1] += d
        st = self._stat(self.names[name_id])
        st.calls += 1
        st.total += d
        st.self_s += d - frame[1]
        if len(self.records) < self.keep:
            self.records.append((frame[0], parent, name_id, t0, t1))
        return st

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark code of its own (set-up, rounds, loops)."""
        name_id = self._name_id(name)
        frame, parent, t0 = self._open()
        try:
            yield
        finally:
            self._close(name_id, frame, parent, t0)

    @contextmanager
    def phase_of(self, phase: str) -> Iterator[None]:
        """Spans closed inside count towards ``phase``."""
        outer, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = outer

    def _wrap(self, name: str, fn: Callable, counters: dict[str, Callable]) -> Callable:
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            frame, parent, t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                st = self._close(name_id, frame, parent, t0)
            for key, count in counters.items():
                st.counters[key] = st.counters.get(key, 0) + count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per ``next`` of the generator, so the work done lazily
        inside it is attributed to it and not to the consumer."""
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame, parent, t0 = self._open()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(name_id, frame, parent, t0)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[str]:
        """Patch every target at every alias; returns the names not present."""
        absent = []
        modules = {m: importlib.import_module(f"convncf.{m}") for m in MODULES}
        for mod_name, fn_name, counters in TARGETS:
            name = f"{mod_name}.{fn_name}"
            fn = getattr(modules[mod_name], fn_name, None)
            if fn is None:
                absent.append(name)
                continue
            if (mod_name, fn_name) in GENERATORS:
                wrapper = self._wrap_generator(name, fn)
            else:
                wrapper = self._wrap(name, fn, counters)
            for module in modules.values():
                if getattr(module, fn_name, None) is fn:
                    self._patches.append((module, fn_name, fn))
                    setattr(module, fn_name, wrapper)
        return absent

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._patches):
            setattr(module, fn_name, fn)
        self._patches.clear()

    def table(self, units: dict[str, int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, s, self_s and counters, each summed over
        phases after dividing by that phase's unit count."""
        out: dict[str, dict[str, float]] = {}
        for phase, stats in self.stats.items():
            n = units.get(phase, 0)
            if not n:
                continue
            for name, st in stats.items():
                row = out.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
                row["calls"] += st.calls / n
                row["s"] += st.total / n
                row["self_s"] += st.self_s / n
                for key, value in st.counters.items():
                    row[key] = row.get(key, 0.0) + value / n
        return out

    def seconds(self, phase: str, name: str) -> float:
        """Inclusive seconds of one span name in one phase."""
        st = self.stats[phase].get(name)
        return st.total if st else 0.0

    def covered_seconds(self, phases: tuple[str, ...]) -> float:
        """Self seconds of the convncf spans (not the benchmark's own
        ``bench.*`` spans) in the given phases."""
        return sum(
            st.self_s
            for phase in phases
            for name, st in self.stats[phase].items()
            if not name.startswith("bench.")
        )

    def span_records(self) -> dict:
        """Stored spans as [id, parent, name index, start, end] rows, times
        in seconds from the earliest start; parent -1 is a root."""
        t0 = min((r[3] for r in self.records), default=0.0)
        return {
            "names": list(self.names),
            "rows": [[i, p, n, round(a - t0, 9), round(b - t0, 9)] for i, p, n, a, b in self.records],
        }

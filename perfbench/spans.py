"""Span recording for the traced benchmark run.

A :class:`Tracer` wraps the public functions of every greycast layer at
each place a caller looks them up (every module attribute that holds the
original function, so ``greycast.order_search.fit`` is wrapped as well as
``greycast.models.fit``), records one span per call, and puts every
original back on :meth:`Tracer.remove`.  Spans are kept in flat arrays
while the run lasts and written once, when it ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: Traced public functions, per layer (a module of ``src/greycast``).
LAYERS = {
    "accumulation": ("accumulate", "inverse_accumulate", "forward_coeffs", "inverse_coeffs"),
    "models": (
        "fit",
        "build_design",
        "solve_least_squares",
        "optimize_params",
        "time_response",
        "predict",
    ),
    "metrics": ("evaluate",),
    "order_search": ("search_order",),
    "sweep": ("run_sweep", "generate_synthetic", "write_sweep_csv"),
    "datasets": ("parse_dataset",),
    "reference": ("run_case",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs)

COUNT_NAMES = (
    "order_search.candidates",
    "order_search.candidates_failed",
    "order_search.useful_ratio",
    "sweep.cells",
    "sweep.cells_failed",
)


def _count_search(counts: dict, result) -> None:
    counts["order_search.candidates"] += result.n_candidates
    counts["order_search.candidates_failed"] += result.n_failed


def _count_sweep(counts: dict, cells) -> None:
    counts["sweep.cells"] += len(cells)
    counts["sweep.cells_failed"] += sum(1 for c in cells if c.status != "ok")


# Counts taken from what these functions return, wherever they are called.
_RESULT_COUNTS = {
    SPAN_NAMES.index("order_search.search_order"): _count_search,
    SPAN_NAMES.index("sweep.run_sweep"): _count_sweep,
}

# run_sweep loops over its cells internally; each cell starts by generating
# its series, so a generate_synthetic span directly under run_sweep opens
# the next request (one sweep cell).
_CELL_PARENT = SPAN_NAMES.index("sweep.run_sweep")
_CELL_START = SPAN_NAMES.index("sweep.generate_synthetic")


def _greycast_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "greycast" or name.startswith("greycast."))
    ]


class Tracer:
    """Records (name, start, end, parent, request) for every traced call.

    Times are ``time.perf_counter_ns`` readings; ``parent`` is the index of
    the enclosing span or -1, ``request`` the id set by :meth:`new_request`.
    """

    def __init__(self) -> None:
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = -1
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def new_request(self) -> None:
        self.request_id += 1

    def _wrap(self, nid: int, func):
        name_id, start, end, parent, request = (
            self.name_id, self.start, self.end, self.parent, self.request
        )
        stack = self._stack
        clock = time.perf_counter_ns
        opens_cell = nid == _CELL_START
        count = _RESULT_COUNTS.get(nid)
        counts = self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(name_id)
            up = stack[-1] if stack else -1
            if opens_cell and up >= 0 and name_id[up] == _CELL_PARENT:
                self.request_id += 1
            name_id.append(nid)
            parent.append(up)
            request.append(self.request_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    count(counts, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a greycast module holds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        originals = [
            getattr(importlib.import_module(f"greycast.{name.split('.')[0]}"), name.split(".")[1])
            for name in SPAN_NAMES
        ]
        modules = _greycast_modules()
        for nid, original in enumerate(originals):
            wrapper = self._wrap(nid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Put every original function back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns."""
        return {
            "name_id": np.array(self.name_id, dtype=np.uint16),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "request": np.array(self.request, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())

    def per_layer(self) -> dict[str, float]:
        """``<module>.<function>.calls`` and ``.self_s`` for every traced
        function, then the counts taken from search and sweep results."""
        own = self_times(self.start, self.end, self.parent)
        name_id = np.array(self.name_id, dtype=np.intp)
        calls = np.bincount(name_id, minlength=len(SPAN_NAMES))
        own_ns = np.bincount(name_id, weights=own, minlength=len(SPAN_NAMES))
        out: dict[str, float] = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(own_ns[nid]) / 1e9
        out.update(self.counts)
        candidates = self.counts["order_search.candidates"]
        failed = self.counts["order_search.candidates_failed"]
        out["order_search.useful_ratio"] = (candidates - failed) / candidates if candidates else 0.0
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    covered = np.zeros(len(start))
    current = -1
    reach = 0
    for i in np.lexsort((np.asarray(start), np.asarray(parent))):
        up = parent[i]
        if up < 0:
            continue
        if up != current:
            current, reach = up, start[up]
        lo = max(start[i], reach)
        hi = min(end[i], end[up])
        if hi > lo:
            covered[up] += hi - lo
            reach = hi
    return np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64) - covered

"""Span tracing of qdc's layers, installed from outside the package.

Every traced function is replaced by a wrapper on *every* module binding
that refers to it: `qdc.pipeline`, `qdc.index`, `qdc.metrics`, `qdc.cli`
and the package root each hold their own name for `tokenize`,
`encode_batch`, `search_topk`, `build_index` and friends, so wrapping only
the defining module would miss most calls. Nothing under `src/` changes.

A span is (name, start, end, parent span, request id, phase). Spans stay
in memory and are summarised and written when the run ends. A span's self
time is its duration minus the time its direct child spans cover. The
package runs single-threaded here (`QDC_THREADS` unset), so one call stack
is enough to find a span's parent.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import importlib
import json
import os
import sys
import time

# (module, function) pairs timed on every call; config, vecops and errors
# are too small to time.
TRACED = (
    ("datagen", "generate_task_stream"),
    ("encoder", "tokenize"),
    ("encoder", "encode"),
    ("encoder", "encode_batch"),
    ("encoder", "contrastive_loss"),
    ("encoder", "distill_loss"),
    ("encoder", "sgd_step"),
    ("encoder", "save_snapshot"),
    ("encoder", "load_snapshot"),
    ("index", "build_index"),
    ("index", "search_topk"),
    ("index", "save_index"),
    ("index", "load_index"),
    ("drift", "estimate_drift"),
    ("drift", "compensate_query_path"),
    ("metrics", "compute_metrics"),
    ("pipeline", "mine_hard_negatives"),
    ("pipeline", "train_task"),
    ("pipeline", "train_trajectory"),
    ("pipeline", "retrieve_eval"),
    ("pipeline", "zero_shot_run"),
    ("pipeline", "evaluate_matrix"),
    ("cli", "dispatch"),
)

# Calls of these open a request of their own inside the current operation,
# so the spans of one training task share an id.
REQUEST_ROOTS = {"pipeline.train_task"}

def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()


def _weights_fingerprint(params) -> str:
    # a strided sample of W tells checkpoints apart at a fraction of the cost
    # of hashing all of it
    sample = params.W.ravel()[::61].tobytes()
    return _digest(params.version, params.W.shape, sample)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Extras:
    """Counters recorded at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.texts: set[str] = set()
        self.rows: dict[str, int] = {}
        self.docs = 0
        self.build_keys: set[str] = set()
        self.bytes: dict[str, int] = {}
        self.pairs = 0
        self.cells = 0
        self.cell_digests: set[str] = set()
        self.docs_generated = 0

    def record(self, name: str, args, kwargs, result) -> None:
        if name == "encoder.tokenize":
            self.texts.add(args[0] if args else kwargs["text"])
        elif name == "encoder.encode_batch":
            feats = args[1] if len(args) > 1 else kwargs["feats_list"]
            self.rows[name] = self.rows.get(name, 0) + len(feats)
        elif name == "encoder.encode":
            self.rows[name] = self.rows.get(name, 0) + 1
        elif name == "index.build_index":
            params, corpus, task_id = _bound(
                args, kwargs, ("params", "corpus", "task_id")
            )
            self.docs += len(corpus)
            self.build_keys.add(_digest(task_id, _weights_fingerprint(params)))
        elif name in ("encoder.save_snapshot", "index.save_index"):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.bytes[name] = self.bytes.get(name, 0) + _file_bytes(path)
        elif name in ("encoder.load_snapshot", "index.load_index"):
            path = args[0] if args else kwargs["path"]
            self.bytes[name] = self.bytes.get(name, 0) + _file_bytes(path)
        elif name == "pipeline.mine_hard_negatives":
            pairs = args[1] if len(args) > 1 else kwargs["pairs"]
            self.pairs += len(pairs)
        elif name in ("pipeline.retrieve_eval", "pipeline.zero_shot_run"):
            self.cells += 1
            self.cell_digests.add(
                _digest(
                    result.task,
                    sorted((qid, tuple(r)) for qid, r in result.results.items()),
                )
            )
        elif name == "datagen.generate_task_stream":
            self.docs_generated += sum(len(ds.corpus) for ds in result)


def _bound(args, kwargs, names):
    values = list(args[: len(names)])
    for name in names[len(values) :]:
        values.append(kwargs[name])
    return values


class NullTracer:
    """Stands in for Tracer in untraced runs; adds no wrapper and no span."""

    def operation(self, request: str, phase: str):
        return contextlib.nullcontext()

    def set_phase(self, phase: str) -> None:
        pass

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def bindings(self) -> list[str]:
        return []


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        # span times come from `clock`; run.py passes the reference clock
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # spans[i] = (name id, start, end, parent index or -1, request, phase)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._request = "-"
        self._phase = "setup"
        self._installed: list[tuple] = []
        self._subrequests = 0
        self.extras = Extras()
        self.started = clock()

    # -- request / phase bookkeeping -------------------------------------
    @contextlib.contextmanager
    def operation(self, request: str, phase: str):
        saved = self._request, self._phase
        self._request, self._phase = request, phase
        try:
            yield
        finally:
            self._request, self._phase = saved

    def set_phase(self, phase: str) -> None:
        self._phase = phase

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, extras = self.spans, self._stack, self.extras
        opens_request = name in REQUEST_ROOTS
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            saved_request = self._request
            if opens_request:
                self._subrequests += 1
                self._request = f"{saved_request}/{fn.__name__}-{self._subrequests}"
            request, phase = self._request, self._phase
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, request, phase)
                self._request = saved_request
            extras.record(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every TRACED function in loaded qdc modules."""
        for module_name, fn_name in TRACED:
            defining = importlib.import_module(f"qdc.{module_name}")
            original = getattr(defining, fn_name)
            wrapped = self._wrap(f"{module_name}.{fn_name}", original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "qdc" and not mod_name.startswith("qdc."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def bindings(self) -> list[str]:
        return sorted(f"{m.__name__}.{a}" for m, a, _ in self._installed)

    # -- summaries ---------------------------------------------------------
    def summarize(self, run_s: float) -> dict:
        """Per-layer calls, inclusive and self time, in total and per phase."""
        n = len(self.spans)
        child = [0.0] * n
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict[str, dict] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "self_s_by_phase": {}}
            for name in self.names
        }
        phase_self: dict[str, float] = {}
        root_s = 0.0
        for i, (name_id, start, end, parent, _, phase) in enumerate(self.spans):
            dur = end - start
            own = dur - child[i]
            row = layers[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += own
            by_phase = row["self_s_by_phase"]
            by_phase[phase] = by_phase.get(phase, 0.0) + own
            phase_self[phase] = phase_self.get(phase, 0.0) + own
            # recursion never happens between traced functions, so inclusive
            # time is the plain sum of durations
            row["s"] += dur
            if parent < 0:
                root_s += dur
        ex = self.extras

        def per_call_us(name):
            row = layers[name]
            return 1e6 * row["s"] / row["calls"] if row["calls"] else 0.0

        def rate(count, name):
            s = layers[name]["s"]
            return count / s if s > 0 else 0.0

        for name in ("encoder.tokenize", "encoder.contrastive_loss",
                     "encoder.distill_loss", "encoder.sgd_step",
                     "index.search_topk", "drift.estimate_drift",
                     "drift.compensate_query_path"):
            layers[name]["us_per_call"] = per_call_us(name)
        tok = layers["encoder.tokenize"]
        tok["distinct_texts"] = len(ex.texts)
        tok["repeat_ratio"] = tok["calls"] / len(ex.texts) if ex.texts else 0.0
        for name in ("encoder.encode_batch", "encoder.encode"):
            rows = ex.rows.get(name, 0)
            layers[name]["rows"] = rows
            layers[name]["rows_per_s"] = rate(rows, name)
        build = layers["index.build_index"]
        build["docs"] = ex.docs
        build["docs_per_s"] = rate(ex.docs, "index.build_index")
        build["distinct_builds"] = len(ex.build_keys)
        build["repeat_ratio"] = (
            build["calls"] / len(ex.build_keys) if ex.build_keys else 0.0
        )
        for name in ("encoder.save_snapshot", "encoder.load_snapshot",
                     "index.save_index", "index.load_index"):
            layers[name]["bytes"] = ex.bytes.get(name, 0)
        layers["pipeline.mine_hard_negatives"]["pairs"] = ex.pairs
        gen = layers["datagen.generate_task_stream"]
        gen["docs_per_s"] = rate(ex.docs_generated, "datagen.generate_task_stream")
        cells = {
            "evaluated": ex.cells,
            "distinct_digests": len(ex.cell_digests),
            "repeat_ratio": (
                ex.cells / len(ex.cell_digests) if ex.cell_digests else 0.0
            ),
        }
        untraced = max(0.0, run_s - root_s)
        return {
            "run_s": run_s,
            "spans": n,
            "untraced_s": untraced,
            "phase_self_s": phase_self,
            "layers": layers,
            "cells": cells,
            "requests": len({span[4] for span in self.spans}),
        }

    def write(self, path, header: dict, summary: dict) -> None:
        """Summary plus every span, columnar, gzip-compressed JSON."""
        cols = {
            "name": [s[0] for s in self.spans],
            "start": [round(s[1] - self.started, 7) for s in self.spans],
            "end": [round(s[2] - self.started, 7) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "request": [s[4] for s in self.spans],
            "phase": [s[5] for s in self.spans],
        }
        payload = {
            **header,
            "summary": summary,
            "span_names": self.names,
            "spans": cols,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

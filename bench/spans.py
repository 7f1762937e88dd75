"""Spans around the library's public functions, recorded from outside.

`Tracer.install` replaces each function at every module attribute through
which the library (or the benchmark) calls it with a wrapper that records a
span: name, start, end, parent span, op id and the exception type if the
call raised.  Spans stay in memory; `Tracer.dump` writes them when the run
ends.  `uninstall` restores the original attributes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

import daestruct.analysis
import daestruct.btf
import daestruct.cli
import daestruct.executor
import daestruct.parser
import daestruct.ql
import daestruct.scheme
import daestruct.sigma

_STAGE_SPAN = {
    ("square", "linear"): "executor.stage_linear",
    ("square", "nonlinear"): "executor.stage_nonlinear",
    ("underdetermined", "linear"): "executor.stage_underdetermined",
    ("underdetermined", "nonlinear"): "executor.stage_underdetermined",
}


def _stage_span(args, kwargs) -> str:
    task = kwargs["task"] if "task" in kwargs else args[2]
    return _STAGE_SPAN[(task.determinacy, task.linearity)]


def _count_nodes(tr, args, result):
    tr.counters["codelist.nodes"] += len(result.codelist.nodes)


def _count_sigma(tr, args, result):
    tr.counters["sigma.nnz"] += int(np.isfinite(result.sigma).sum())


def _count_s0(tr, args, result):
    tr.counters["sigma.s0_nnz"] += len(result.s0)


def _count_blocks(tr, args, result):
    tr.counters["btf.fine_blocks"] += result.p
    tr.counters["btf.max_block"] = max(
        tr.counters["btf.max_block"], max(b.size for b in result.blocks)
    )


def _count_ql_cells(tr, args, result):
    cl = args[0].codelist
    tr.counters["ql.cells"] += 2 * len(cl.nodes) * cl.n  # two sweeps


def _count_tasks(tr, args, result):
    tr.counters["scheme.tasks"] += len(result.tasks)


def _count_iterations(tr, args, result):
    if result.task.determinacy == "underdetermined":
        tr.counters["executor.gauss_newton_iters"] += result.newton_iterations
    else:
        tr.counters["executor.newton_iters"] += result.newton_iterations


# (module, attribute, span name or name function, result hook)
_TARGETS = [
    (daestruct.parser, "parse_model", "parser.parse_model", _count_nodes),
    (daestruct.cli, "parse_model", "parser.parse_model", _count_nodes),
    (daestruct.cli, "main", "cli.main", None),
    (daestruct.cli, "analyze", "analysis.analyze", None),
    (daestruct.analysis, "analyze", "analysis.analyze", None),
    (daestruct.analysis, "signature_matrix", "sigma.signature_matrix", _count_sigma),
    (daestruct.analysis, "highest_value_transversal", "sigma.highest_value_transversal", None),
    (daestruct.sigma, "highest_value_transversal", "sigma.highest_value_transversal", None),
    (daestruct.analysis, "canonical_offsets", "sigma.canonical_offsets", None),
    (daestruct.btf, "canonical_offsets", "sigma.canonical_offsets", None),
    (daestruct.analysis, "jacobian_pattern", "sigma.jacobian_pattern", _count_s0),
    (daestruct.analysis, "coarse_btf", "btf.coarse_btf", None),
    (daestruct.analysis, "fine_btf", "btf.fine_btf", _count_blocks),
    (daestruct.analysis, "local_offsets", "btf.local_offsets", None),
    (daestruct.analysis, "vectorized_ql", "ql.vectorized_ql", _count_ql_cells),
    (daestruct.ql, "m_sets", "ql.m_sets", None),
    (daestruct.analysis, "basic_init_set", "scheme.init_sets", None),
    (daestruct.analysis, "fine_block_init", "scheme.init_sets", None),
    (daestruct.scheme, "render_schedule", "scheme.render_schedule", _count_tasks),
    (daestruct.scheme, "stage_sets", "scheme.stage_sets", None),
    (daestruct.executor, "solve_to_order", "executor.solve_to_order", None),
    (daestruct.executor, "solve_stage", _stage_span, _count_iterations),
    (np.linalg, "solve", "executor.linalg", None),
    (np.linalg, "lstsq", "executor.linalg", None),
    (np.linalg, "cond", "executor.linalg", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, exc]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [
                name if isinstance(name, str) else name(args, kwargs),
                clock(),
                0.0,
                stack[-1] if stack else -1,
                self.op_id,
                None,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, hook in _TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict:
        """Self time and calls per span name, and failed calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        failed: defaultdict[str, int] = defaultdict(int)
        for k, (name, start, end, _, _, exc) in enumerate(self.spans):
            self_s[name] += end - start - child_time[k]
            calls[name] += 1
            if exc is not None:
                failed[name] += 1
        return {"self_s": self_s, "calls": calls, "failed": failed}

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "exc")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

"""Benchmark of daestruct, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's src/.  The load runs in one process, one client in a closed
loop, on one thread (the BLAS and OpenMP pools are pinned to one thread
before numpy loads).

--trace 0: time seven imports in fresh interpreters, each followed by a
setup (the two medians add up to setup_s), run whole passes over the
workload's ops until S seconds of op time and at least MIN_OPS ops have
run, then one separate untimed pass under tracemalloc for peak_mib.
--trace 1: after one pass that checks the outputs, alternate plain and
traced passes for S seconds and report per-layer self times, calls and
counts, plus the tracing overhead.

Every op's output is checked (first pass in full, later passes against the
first); failures are counted by innermost library function and exception
type.  Human-readable lines come first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so at least ten samples lie beyond op_p90_s
SETUP_REPEATS = 7
WALL_CAP_S = 100.0  # stop timed passes here even if MIN_OPS is not reached
WORKLOAD_NAMES = ("analyze_mid", "analyze_large", "solve_wide", "solve_deep")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "work_per_s": "items/s",
    "peak_mib": "MiB",
}

SELF_TIME_SPANS = [
    "parser.parse_model",
    "sigma.signature_matrix",
    "sigma.highest_value_transversal",
    "sigma.canonical_offsets",
    "sigma.jacobian_pattern",
    "btf.coarse_btf",
    "btf.fine_btf",
    "btf.local_offsets",
    "ql.vectorized_ql",
    "ql.m_sets",
    "scheme.init_sets",
    "scheme.render_schedule",
    "analysis.analyze",
    "cli.main",
    "executor.solve_to_order",
    "executor.stage_linear",
    "executor.stage_nonlinear",
    "executor.stage_underdetermined",
]
CALL_SPANS = [
    "sigma.highest_value_transversal",
    "scheme.stage_sets",
    "executor.stage_linear",
    "executor.stage_nonlinear",
    "executor.stage_underdetermined",
]
COUNTERS = [
    "codelist.nodes",
    "sigma.nnz",
    "sigma.s0_nnz",
    "btf.fine_blocks",
    "btf.max_block",
    "ql.cells",
    "scheme.tasks",
    "cli.report_bytes",
    "executor.newton_iters",
    "executor.gauss_newton_iters",
]
FAILED_SPANS = {"analysis.failed": "analysis.analyze", "executor.failed": "executor.solve_to_order"}


def per_layer_units() -> dict[str, str]:
    units = {name + ".self_s": "s" for name in SELF_TIME_SPANS}
    units.update({name + ".calls": "count" for name in CALL_SPANS})
    units.update({name: "count" for name in COUNTERS})
    units["cli.report_bytes"] = "bytes"
    units["executor.linalg_s"] = "s"
    units.update({name: "count" for name in FAILED_SPANS})
    units["bench.failed_ratio"] = "fraction"
    units["trace.overhead_ratio"] = "ratio"
    return units


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import daestruct; print(time.perf_counter() - t)"
)


def import_library() -> None:
    """Import daestruct from this checkout's src/."""
    if not (SRC / "daestruct" / "__init__.py").is_file():
        sys.exit("error: %s/daestruct not found; run inside a daestruct checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import daestruct

    if Path(daestruct.__file__).resolve().parent != SRC / "daestruct":
        sys.exit("error: imported daestruct from %s, not %s" % (daestruct.__file__, SRC))


def import_seconds() -> float:
    """Time to import daestruct (numpy included) in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(probe.stdout)


def failure_site(err: BaseException) -> str:
    """Innermost library frame of the exception, as module.function."""
    site = "bench"
    for frame, _ in traceback.walk_tb(err.__traceback__):
        path = Path(frame.f_code.co_filename)
        if SRC in path.parents:
            site = "%s.%s" % (path.stem, frame.f_code.co_name)
    return site


class Ledger:
    """Attempts, failures and output checks across the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.failures: Counter = Counter()  # (site, exception type) -> count
        self.failed_labels: dict[tuple, set] = {}
        self.bad_output: dict[object, str] = {}  # op index or label -> check message
        self.digests: dict[int, object] = {}

    def run(self, op):
        """Run op once; return (seconds, output or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as err:
            elapsed = time.perf_counter() - start
            key = (failure_site(err), type(err).__name__)
            self.failures[key] += 1
            self.failed_labels.setdefault(key, set()).add(op.label)
            self.failed += 1
            return elapsed, None
        return time.perf_counter() - start, out

    def accept(self, k: int, op, out) -> None:
        """Check a successful output (in full the first time, then against
        the first one) and count its items or a failure."""
        if k not in self.digests:
            try:
                op.check(out)
            except Exception as err:
                # a malformed report (schema error, missing key) fails the check too
                self.bad_output[k] = "%s: %s: %s" % (op.label, type(err).__name__, err)
            self.digests[k] = op.digest(out)
        elif op.digest(out) != self.digests[k]:
            self.bad_output.setdefault(k, "%s: output changed between passes" % op.label)
        if k in self.bad_output:
            self.failed += 1
            self.failures[("bench.check", "CheckFailed")] += 1
        else:
            self.items += op.items(out)

    def check_setup(self, setup_checks) -> None:
        """Check the analyses made at setup; a failure makes the run incorrect."""
        for label, check in setup_checks:
            try:
                check()
            except Exception as err:
                self.bad_output[label] = "%s: %s: %s" % (label, type(err).__name__, err)

    def report(self) -> list[str]:
        lines = []
        for (site, exc), count in sorted(self.failures.items()):
            labels = sorted(self.failed_labels.get((site, exc), ()))
            lines.append("failure %-45s %-18s x%d  %s" % (site, exc, count, ", ".join(labels)))
        lines += ["check failed: %s" % msg for msg in self.bad_output.values()]
        return lines


def setup(name: str, seed: int, workdir: Path):
    """Build the ops (model files go into workdir, which must not exist) and
    warm up; return the time taken, the ops and the checks of the analyses
    made at setup, which are not timed."""
    import workloads

    start = time.perf_counter()
    ops, setup_checks = workloads.build(name, seed, ROOT, workdir)
    # warm-up: the first op of each family at its smallest size
    seen = set()
    for op in ops:
        family = op.label.split()[0]
        if family not in seen:
            seen.add(family)
            try:
                op.run()
            except Exception:
                pass  # the timed passes count it
    return time.perf_counter() - start, ops, setup_checks


def timed_passes(ops, seconds: float, ledger: Ledger) -> list[float]:
    durations: list[float] = []
    wall = time.perf_counter()
    while not durations or (
        (sum(durations) < seconds or len(durations) < MIN_OPS)
        and time.perf_counter() - wall < WALL_CAP_S
    ):
        durations += one_pass(ops, ledger)[0]
    return durations


def peak_pass(ops) -> float:
    """Largest tracemalloc peak of one op above the memory held before it."""
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                out = op.run()
                del out
            except Exception:
                pass
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_plain(name, seed, seconds, workdir):
    imports, setups = [], []
    for k in range(SETUP_REPEATS):
        imports.append(import_seconds())
        elapsed, ops, setup_checks = setup(name, seed, workdir / ("models%d" % k))
        setups.append(elapsed)
    ledger = Ledger()
    ledger.check_setup(setup_checks)
    start = time.perf_counter()
    durations = timed_passes(ops, seconds, ledger)
    timed_wall = time.perf_counter() - start
    start = time.perf_counter()
    peak_mib = peak_pass(ops)
    peak_wall = time.perf_counter() - start
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "op_p50_s": statistics.median(durations),
        "op_p90_s": statistics.quantiles(durations, n=10, method="inclusive")[8],
        "work_per_s": ledger.items / sum(durations),
        "peak_mib": peak_mib,
    }
    lines = [
        "workload %s seed %d: %d ops in %d passes of %d, %.2f s of op time"
        % (name, seed, len(durations), len(durations) // len(ops), len(ops), sum(durations)),
        "setup repeats (s): %s; imports (s): %s"
        % (", ".join("%.4f" % s for s in setups), ", ".join("%.4f" % s for s in imports)),
        "wall: timed passes with checks %.2f s, peak pass %.2f s" % (timed_wall, peak_wall),
        "failed_ratio %.4f (%d of %d)" % (ledger.failed / ledger.attempted, ledger.failed, ledger.attempted),
    ]
    return metrics, END_TO_END, ledger, lines


def one_pass(ops, ledger: Ledger, tracer=None) -> tuple[list[float], Counter]:
    """Run every op once; return the op times and, with a tracer installed
    around the pass, the counts the pass produced."""
    durations: list[float] = []
    counts: Counter = Counter()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = k
            elapsed, out = ledger.run(op)
            durations.append(elapsed)
            if out is not None:
                if tracer is not None:
                    counts.update(op.counters(out))
                ledger.accept(k, op, out)
            del out
    finally:
        if tracer is not None:
            tracer.uninstall()
            counts.update(tracer.counters)
    return durations, counts


def run_traced(name, seed, seconds, workdir):
    import spans

    _, ops, setup_checks = setup(name, seed, workdir / "models0")
    ledger = Ledger()
    ledger.check_setup(setup_checks)
    tracer = spans.Tracer()
    one_pass(ops, ledger)  # checks every output in full, untimed
    plain_s, traced_s = [], []
    summaries, counters = [], None
    wall = time.perf_counter()
    while not summaries or (
        sum(plain_s) + sum(traced_s) < seconds and time.perf_counter() - wall < WALL_CAP_S
    ):
        plain_s.append(sum(one_pass(ops, ledger)[0]))
        durations, counts = one_pass(ops, ledger, tracer)
        traced_s.append(sum(durations))
        summaries.append(tracer.summary())
        if counters is None:
            counters = counts
            tracer.dump(workdir / ("trace-seed%d.json" % seed))

    def median_of(kind, span):
        return statistics.median(s[kind].get(span, 0) for s in summaries)

    metrics = {}
    for span in SELF_TIME_SPANS:
        metrics[span + ".self_s"] = median_of("self_s", span)
    for span in CALL_SPANS:
        metrics[span + ".calls"] = summaries[0]["calls"].get(span, 0)
    for name_ in COUNTERS:
        metrics[name_] = counters.get(name_, 0)
    metrics["executor.linalg_s"] = median_of("self_s", "executor.linalg")
    for metric, span in FAILED_SPANS.items():
        metrics[metric] = summaries[0]["failed"].get(span, 0)
    metrics["bench.failed_ratio"] = ledger.failed / ledger.attempted
    metrics["trace.overhead_ratio"] = sum(traced_s) / sum(plain_s)
    lines = [
        "workload %s seed %d traced: %d pass pairs of %d ops, plain %.3f s, traced %.3f s"
        % (name, seed, len(plain_s), len(ops), statistics.median(plain_s), statistics.median(traced_s)),
        "spans written to %s" % (workdir / ("trace-seed%d.json" % seed)),
    ]
    return metrics, per_layer_units(), ledger, lines


def clear_models(workdir: Path) -> None:
    """Remove the model directories that setups write into workdir."""
    for path in workdir.glob("models*"):
        shutil.rmtree(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    workdir = ROOT / ".bench_work" / args.workload
    clear_models(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, units, ledger, lines = run_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            metrics, units, ledger, lines = run_plain(args.workload, args.seed, args.seconds, workdir)
    finally:
        clear_models(workdir)
    lines += ledger.report()
    for name, value in metrics.items():
        shown = "%14d" % value if isinstance(value, int) else "%14.6g" % value
        lines.append("%-40s %s %s" % (name, shown, units[name]))
    print("\n".join(lines))
    result = {
        "correct": not ledger.bad_output,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: one seed gives the same inputs and counts.

    python3 bench/selftest.py [--seed N]

For every workload it builds the ops twice from one seed and compares what
the library receives (model text, K, initial values and guesses), then runs
one traced pass over each build and compares every count the pass yields:
sigma.nnz, scheme.tasks, Newton and Gauss-Newton iterations,
cli.report_bytes and the rest.  It also checks that BENCHMARK.json names
exactly the metrics run.py reports, with the same units.  Exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def counts(name: str, seed: int, workdir: Path) -> tuple[list[str], dict]:
    import spans

    _, ops, setup_checks = run.setup(name, seed, workdir)
    tracer = spans.Tracer()
    ledger = run.Ledger()
    ledger.check_setup(setup_checks)
    _, found = run.one_pass(ops, ledger, tracer)
    summary = tracer.summary()
    found.update({span + ".calls": n for span, n in summary["calls"].items()})
    found.update({span + ".failed": n for span, n in summary["failed"].items()})
    found["bench.failed"] = ledger.failed
    found["bench.bad_output"] = len(ledger.bad_output)
    return [op.source for op in ops], dict(found)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    run.import_library()
    problems = []

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.per_layer_units():
        problems.append("per_layer metrics differ from run.per_layer_units()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOAD_NAMES):
        problems.append("workloads differ from run.WORKLOAD_NAMES")

    for name in run.WORKLOAD_NAMES:
        workdir = run.ROOT / ".bench_work" / name
        run.clear_models(workdir)
        first_inputs, first = counts(name, args.seed, workdir / "models0")
        second_inputs, second = counts(name, args.seed, workdir / "models1")
        run.clear_models(workdir)
        if first_inputs != second_inputs:
            problems.append("%s: inputs differ between two builds" % name)
        for key in sorted(set(first) | set(second)):
            if first.get(key) != second.get(key):
                problems.append(
                    "%s: %s is %s then %s" % (name, key, first.get(key), second.get(key))
                )
        if first["bench.bad_output"]:
            problems.append("%s: output checks failed" % name)
        shown = ", ".join("%s=%s" % (k, first[k]) for k in sorted(first))
        print("%s: %d ops; %s" % (name, len(first_inputs), shown))

    for problem in problems:
        print("MISMATCH", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

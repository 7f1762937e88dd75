"""Command-line front end.

    daestruct analyze MODEL [--format text|json] [--stages a..b]
    daestruct solve MODEL --order K [--init FILE] [--scheme block|basic]
                          [--format text|json] [--tol X]

Exit codes: 0 success, 2 parse or validation error, 3 structurally ill
posed, 4 executor failure (singular Jacobian, divergence), 5 missing
initialization entries.

The init file has one entry per line: `NAME ORDER VALUE` supplies an
initial value, `guess NAME ORDER VALUE` an initial guess; `#` comments.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import scheme as _scheme
from .analysis import Analysis, analyze
from .codelist import DaeModel, ModelError
from .executor import (
    ExecutorError,
    MissingInitialization,
    solve_to_order,
)
from .parser import parse_model
from .sigma import StructurallyIllPosed

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ILL_POSED = 3
EXIT_EXECUTOR = 4
EXIT_MISSING_INIT = 5


# -- text report --------------------------------------------------------
#
# Rendered from the JSON report, so the two formats cannot disagree.


def _order_groups(pairs):
    """Human form of a sorted list of {"variable", "order"} pairs.

    Contiguous runs from order 0 collapse to name^(<=r); isolated orders
    are listed as name^(r); order 0 alone is the bare name.
    """
    by_var: dict[str, list[int]] = {}
    for pair in pairs:
        by_var.setdefault(pair["variable"], []).append(pair["order"])
    out = []
    for name, orders in by_var.items():
        run = [orders[0]]
        for r in orders[1:]:
            if run[0] == 0 and r == run[-1] + 1:
                run.append(r)
            else:
                out.append(_run_text(name, run))
                run = [r]
        out.append(_run_text(name, run))
    return out


def _run_text(name, run):
    if run == [0]:
        return name
    if run[0] == 0:
        return "%s^(<=%d)" % (name, run[-1])
    return ", ".join("%s^(%d)" % (name, r) for r in run)


def _deriv_names(pairs, key):
    return ", ".join(
        p[key] if p["order"] == 0 else "%s^(%d)" % (p[key], p["order"]) for p in pairs
    )


def _grid_cells(doc, rows, cols, col_names):
    """Sigma entries of the given rows and columns (a bullet marks the
    transversal), and the width of each column."""
    cells = []
    for i in rows:
        line = []
        for j in cols:
            v = doc["sigma"][i][j]
            mark = "\u2022" if doc["hvt"][i] == j else ""
            line.append("" if v is None else "%d%s" % (v, mark))
        cells.append(line)
    widths = [
        max(len(name), max(len(line[pj]) for line in cells), 2)
        for pj, name in enumerate(col_names)
    ]
    return cells, widths


def _sigma_grid(doc) -> list[str]:
    rnames = doc["model"]["equations"]
    cnames = doc["model"]["variables"]
    index = range(len(rnames))
    cells, widths = _grid_cells(doc, index, index, cnames)
    name_w = max(3, *(len(nm) for nm in rnames)) + 2

    def row_text(texts):
        return "  ".join(t.rjust(w) for t, w in zip(texts, widths))

    c, d = doc["offsets"]["c"], doc["offsets"]["d"]
    lines = [" " * name_w + row_text(cnames) + "  |  c_i"]
    for i in index:
        lines.append(rnames[i].ljust(name_w) + row_text(cells[i]) + "  |  %d" % c[i])
    lines.append("d_j".ljust(name_w) + row_text([str(v) for v in d]))
    return lines


def _permuted_grid(doc) -> list[str]:
    blocks = doc["blocks"]
    row_of = {nm: i for i, nm in enumerate(doc["model"]["equations"])}
    col_of = {nm: j for j, nm in enumerate(doc["model"]["variables"])}
    rnames = [nm for b in blocks for nm in b["rows"]]
    cnames = [nm for b in blocks for nm in b["cols"]]
    rows = [row_of[nm] for nm in rnames]
    cols = [col_of[nm] for nm in cnames]
    cells, widths = _grid_cells(doc, rows, cols, cnames)
    n = len(rows)
    col_block_end = set()
    acc = 0
    for b in blocks:
        acc += b["size"]
        col_block_end.add(acc - 1)
    name_w = max(4, *(len(nm) for nm in rnames)) + 2

    def row_text(texts, tail):
        parts = []
        for pj in range(n):
            parts.append(texts[pj].rjust(widths[pj]))
            if pj in col_block_end and pj != n - 1:
                parts.append("|")
        return "  ".join(parts) + tail

    c, d = doc["offsets"]["c"], doc["offsets"]["d"]
    lines = [" " * name_w + row_text(cnames, "  |  c_i  c^_i  K_l")]
    pi = 0
    for l, b in enumerate(blocks, start=1):
        for c_hat in b["c_hat"]:
            tail = "  |  %3d  %4d  %3d" % (c[rows[pi]], c_hat, b["lead_time"])
            lines.append(rnames[pi].ljust(name_w) + row_text(cells[pi], tail))
            pi += 1
        if l != len(blocks):
            lines.append("-" * len(lines[-1]))
    lines.append("d_j".ljust(name_w) + row_text([str(d[j]) for j in cols], ""))
    lines.append(
        "d^_j".ljust(name_w) + row_text([str(v) for b in blocks for v in b["d_hat"]], "")
    )
    return lines


def _schedule_lines(doc) -> list[str]:
    lines = []
    for task in doc["schedule"]:
        head = "stage %3d  block %d (local %3d, %s, %s): " % (
            task["stage"],
            task["block"],
            task["local_stage"],
            task["determinacy"],
            task["linearity"],
        )
        unk = _deriv_names(task["for"], "variable")
        if task["solve"]:
            body = "solve %s for %s" % (_deriv_names(task["solve"], "equation"), unk)
            if task["uses"]:
                body += "  using %s" % _deriv_names(task["uses"], "variable")
        else:
            body = "initial values for %s" % unk
        lines.append(head + body)
    return lines


def _text_report(doc, k_range: tuple[int, int]) -> str:
    n = len(doc["model"]["equations"])
    ql = doc["ql"]
    init = doc["init"]
    lines = [
        "model: %d equations, %d variables" % (n, n),
        "structural index: %d    degrees of freedom: %d"
        % (doc["metrics"]["index"], doc["metrics"]["dof"]),
        "",
        "signature matrix (blank = absent, \u2022 marks the transversal)",
    ]
    lines.extend(_sigma_grid(doc))
    lines.append("")
    lines.append(
        "coarse blocks: %s"
        % "; ".join(
            "{%s | %s}" % (", ".join(b["rows"]), ", ".join(b["cols"]))
            for b in doc["coarse_blocks"]
        )
    )
    lines.append("")
    lines.append(
        "fine block form (%d blocks, solved highest block first)" % len(doc["blocks"])
    )
    lines.extend(_permuted_grid(doc))
    lines.append("")
    lines.append("quasilinearity")
    for e in ql["per_equation"]:
        lines.append(
            "  %s: global %s, in-block %s" % (e["equation"], e["global"], e["block"])
        )
    lines.append(
        "  per-block linear flags: %s"
        % " ".join("block %d=%d" % (l + 1, g) for l, g in enumerate(ql["per_block"]))
    )
    lines.append("  whole system linear in leading derivatives: %s"
                 % ("yes" if ql["dae"] else "no"))
    lines.append("")
    lines.append(
        "initial values : %s" % (", ".join(_order_groups(init["values"])) or "(none)")
    )
    lines.append(
        "initial guesses: %s" % (", ".join(_order_groups(init["guesses"])) or "(none)")
    )
    lines.append(
        "one-block scheme would need %d entries: %s"
        % (len(init["basic_guesses"]), ", ".join(_order_groups(init["basic_guesses"])))
    )
    lines.append("")
    lines.append("schedule for stages %d..%d" % k_range)
    lines.extend(_schedule_lines(doc))
    return "\n".join(lines) + "\n"


# -- json report ---------------------------------------------------------


def _json_sigma(a: Analysis):
    return [
        [int(v) if np.isfinite(v) else None for v in row] for row in a.sm.sigma
    ]


def _json_pairs(pairs, names):
    return [
        {"variable": names[j], "order": r} for j, r in sorted(pairs)
    ]


def _json_report(a: Analysis, k_range: tuple[int, int]):
    model = a.model
    names = model.variable_names
    part = a.fine
    blocks = []
    for l, b in enumerate(part.blocks, start=1):
        positions = list(part.block_positions(l))
        blocks.append(
            {
                "size": b.size,
                "rows": [model.equation_names[i] for i in b.rows],
                "cols": [names[j] for j in b.cols],
                "c_hat": [a.local.c_hat[pos] for pos in positions],
                "d_hat": [a.local.d_hat[pos] for pos in positions],
                "lead_time": a.local.lead_times[l - 1],
                "ql": a.ql.gamma_block[l - 1],
            }
        )
    schedule = _scheme.render_schedule(
        k_range[0], k_range[1], part, a.offsets, a.local, a.ql.gamma_eq, a.pattern
    )
    row_names = [model.equation_names[i] for i in part.row_perm]
    col_names = [names[j] for j in part.col_perm]
    tasks = [
        {
            "stage": t.stage,
            "block": t.block,
            "local_stage": t.local_stage,
            "solve": [
                {"equation": row_names[pos], "order": r} for pos, r in sorted(t.equations)
            ],
            "for": [
                {"variable": col_names[pos], "order": r} for pos, r in sorted(t.unknowns)
            ],
            "uses": [
                {"variable": col_names[pos], "order": r}
                for pos, r in sorted(t.cross_block_inputs)
            ],
            "determinacy": t.determinacy,
            "linearity": t.linearity,
        }
        for t in schedule.tasks
    ]
    return {
        "model": {
            "variables": list(names),
            "equations": list(model.equation_names),
            "constants": dict(sorted(model.constants.items())),
        },
        "sigma": _json_sigma(a),
        "hvt": list(a.hvt.assignment),
        "hvt_value": a.hvt.value,
        "offsets": {"c": list(a.offsets.c), "d": list(a.offsets.d)},
        "blocks": blocks,
        "lead_times": list(a.local.lead_times),
        "coarse_blocks": [
            {
                "rows": [model.equation_names[i] for i in b.rows],
                "cols": [names[j] for j in b.cols],
            }
            for b in a.coarse.blocks
        ],
        "ql": {
            "per_equation": [
                {
                    "equation": model.equation_names[i],
                    "global": a.ql.global_ql[i].code.value,
                    "block": a.ql.blockwise[i].code.value,
                    "linear_flag": a.ql.gamma_eq[i],
                }
                for i in range(model.n)
            ],
            "per_block": list(a.ql.gamma_block),
            "dae": a.ql.gamma_dae,
        },
        "init": {
            "values": _json_pairs(a.init_fine.values, names),
            "guesses": _json_pairs(a.init_fine.guesses, names),
            "basic_guesses": _json_pairs(a.init_basic.guesses, names),
        },
        "schedule": tasks,
        "metrics": {"index": a.metrics.index, "dof": a.metrics.dof},
    }


# -- init files -----------------------------------------------------------


def parse_init_file(text: str, model: DaeModel):
    """`NAME ORDER VALUE` lines are values, `guess NAME ORDER VALUE` guesses."""
    values: dict[tuple[int, int], float] = {}
    guesses: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        sink = values
        if parts[0] == "guess":
            sink = guesses
            parts = parts[1:]
        if len(parts) != 3:
            raise ModelError(
                "init line %d: expected NAME ORDER VALUE, got %r" % (lineno, raw)
            )
        name, order, value = parts
        if name not in model.variable_names:
            raise ModelError("init line %d: unknown variable %r" % (lineno, name))
        sink[(model.variable_index(name), int(order))] = float(value)
    return values, guesses


# -- commands --------------------------------------------------------------


def _load(path: str) -> DaeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _parse_stages(text: str, default_lo: int, default_hi: int):
    if text is None:
        return default_lo, default_hi
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ModelError("--stages expects the form a..b")
    return int(lo), int(hi)


def cmd_analyze(args) -> int:
    try:
        model = _load(args.model)
    except (ModelError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INPUT
    try:
        a = analyze(model)
    except StructurallyIllPosed as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_ILL_POSED
    try:
        k_range = _parse_stages(args.stages, -max(a.offsets.d), 1)
    except (ModelError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INPUT
    doc = _json_report(a, k_range)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(_text_report(doc, k_range), end="")
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        model = _load(args.model)
        init_text = ""
        if args.init:
            with open(args.init, "r", encoding="utf-8") as fh:
                init_text = fh.read()
        values, guesses = parse_init_file(init_text, model)
    except (ModelError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INPUT
    try:
        a = analyze(model)
    except StructurallyIllPosed as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_ILL_POSED
    try:
        rep = solve_to_order(
            a, values, guesses, args.order, scheme=args.scheme, tol=args.tol
        )
    except MissingInitialization as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_MISSING_INIT
    except ExecutorError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_EXECUTOR

    names = model.variable_names
    if args.format == "json":
        table = {
            names[j]: [
                rep.derivatives[(j, r)]
                for r in range(a.offsets.d[j] + args.order + 1)
            ]
            for j in range(model.n)
        }
        print(
            json.dumps(
                {
                    "derivatives": table,
                    "max_residual": rep.max_residual,
                    "max_residual_raw": rep.max_residual_raw,
                },
                indent=2,
            )
        )
    else:
        for j in range(model.n):
            for r in range(a.offsets.d[j] + args.order + 1):
                print("%s %d %r" % (names[j], r, rep.derivatives[(j, r)]))
        print("max_residual %r" % rep.max_residual)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="daestruct",
        description="Structural analysis of differential-algebraic equation models",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the structural analysis")
    pa.add_argument("model", help="model file")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument(
        "--stages",
        help="stage range a..b for the schedule (write --stages=-6..0 for "
        "negative bounds)",
    )
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("solve", help="solve for Taylor coefficients at a point")
    ps.add_argument("model", help="model file")
    ps.add_argument("--order", type=int, required=True, help="final stage")
    ps.add_argument("--init", help="initialization file")
    ps.add_argument("--scheme", choices=("block", "basic"), default="block")
    ps.add_argument("--format", choices=("text", "json"), default="text")
    ps.add_argument("--tol", type=float, default=1e-12)
    ps.set_defaults(func=cmd_solve)
    return ap


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="replace")  # bullet marks on any locale
    args = build_parser().parse_args(argv)
    code = args.func(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

"""Output checks that do not rely on the library's algorithms.

Analyses are checked against the signature matrix known from the
generator and against the defining inequalities of canonical offsets and
block triangular forms.  Solutions are checked by recomputing every
equation's residual series from the returned derivatives.  Any violation
raises CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np

import daestruct


class CheckFailed(Exception):
    pass


RESIDUAL_BOUND = 1e-10  # the acceptance tests' bound on scaled residuals


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def facts_from_json(report: dict) -> dict:
    """The facts the checks need, from a `daestruct analyze --format json`
    report (names mapped back to indices)."""
    var = {name: j for j, name in enumerate(report["model"]["variables"])}
    eqn = {name: i for i, name in enumerate(report["model"]["equations"])}
    return {
        "sigma": report["sigma"],
        "hvt": report["hvt"],
        "hvt_value": report["hvt_value"],
        "c": report["offsets"]["c"],
        "d": report["offsets"]["d"],
        "blocks": [
            ([eqn[r] for r in b["rows"]], [var[c] for c in b["cols"]])
            for b in report["blocks"]
        ],
        "index": report["metrics"]["index"],
        "dof": report["metrics"]["dof"],
    }


def facts_from_analysis(a) -> dict:
    """The same facts from a library Analysis object."""
    return {
        "sigma": [
            [int(v) if np.isfinite(v) else None for v in row] for row in a.sm.sigma
        ],
        "hvt": list(a.hvt.assignment),
        "hvt_value": a.hvt.value,
        "c": list(a.offsets.c),
        "d": list(a.offsets.d),
        "blocks": [(list(b.rows), list(b.cols)) for b in a.fine.blocks],
        "index": a.metrics.index,
        "dof": a.metrics.dof,
    }


def check_analysis(facts: dict, gen) -> None:
    """Structural facts every correct analysis of `gen` satisfies."""
    n = gen.n
    sigma, c, d, hvt = facts["sigma"], facts["c"], facts["d"], facts["hvt"]
    expected = [[row.get(j) for j in range(n)] for row in gen.sigma]
    _require(sigma == expected, "signature matrix differs from the generated model")
    _require(sorted(hvt) == list(range(n)), "transversal is not a permutation")
    _require(
        all(sigma[i][hvt[i]] is not None for i in range(n)),
        "transversal uses an absent entry",
    )
    value = sum(sigma[i][hvt[i]] for i in range(n))
    _require(value == facts["hvt_value"], "reported transversal value is wrong")
    _require(len(c) == n and len(d) == n, "offset vectors have the wrong length")
    _require(min(c) == 0, "offsets are not normalized (min c != 0)")
    s0 = []
    for i in range(n):
        for j in range(n):
            s = sigma[i][j]
            if s is None:
                continue
            _require(d[j] - c[i] >= s, "d_j - c_i < sigma_ij at (%d, %d)" % (i, j))
            if d[j] - c[i] == s:
                s0.append((i, j))
        _require(
            d[hvt[i]] - c[i] == sigma[i][hvt[i]],
            "offsets not tight on the transversal at row %d" % i,
        )
    _require(sum(d) - sum(c) == value, "sum(d) - sum(c) differs from the HVT value")
    _require(facts["dof"] == value, "reported degrees of freedom are wrong")

    block_of_row, block_of_col = {}, {}
    for l, (rows, cols) in enumerate(facts["blocks"]):
        _require(len(rows) == len(cols) > 0, "fine block %d is not square" % (l + 1))
        block_of_row.update((i, l) for i in rows)
        block_of_col.update((j, l) for j in cols)
    _require(
        len(block_of_row) == n and len(block_of_col) == n,
        "fine blocks do not partition the equations and variables",
    )
    _require(
        all(block_of_row[i] <= block_of_col[j] for i, j in s0),
        "fine form is not block upper triangular on s0",
    )
    if gen.family.endswith("cascade"):
        _require(len(facts["blocks"]) == n, "cascade: fine blocks != n")
        _require(facts["index"] == 0, "cascade: index != 0")
        _require(value == n, "cascade: dof != n")


def check_solution(a, K: int, derivatives) -> None:
    """Residual of every equation of analysis a through order K + c_i from
    the returned derivatives, scaled by the largest coefficient in the
    equation's cone.  The offsets were checked with the analysis."""
    c, d = a.offsets.c, a.offsets.d
    for j in range(a.model.n):
        for r in range(K + d[j] + 1):
            val = derivatives.get((j, r))
            _require(val is not None, "derivative (%d, %d) missing" % (j, r))
            _require(math.isfinite(val), "derivative (%d, %d) not finite" % (j, r))
    state = daestruct.StatePoint()
    for (j, r), val in derivatives.items():
        state.set_derivative(j, r, val)
    cl = a.model.codelist
    series = daestruct.taylor_eval(cl, state, K + max(c))
    for i in range(a.model.n):
        top = K + c[i]
        if top < 0:
            continue
        out = cl.output_indices[i]
        coeffs = np.array([series[q].coeffs[: top + 1] for q in cl.cone(out)])
        scale = np.maximum(1.0, np.abs(coeffs).max(axis=0))
        worst = float((np.abs(series[out].coeffs[: top + 1]) / scale).max())
        _require(
            worst < RESIDUAL_BOUND,
            "equation %d residual %.3g through order %d" % (i, worst, top),
        )


def check_exp_head(derivatives, x0: float, K: int) -> None:
    """The head equation x1' + x1 = 0 gives x1^(r) = (-1)^r x1(0)."""
    for r in range(K + 2):
        want = (-1.0) ** r * x0
        got = derivatives[(0, r)]
        _require(
            abs(got - want) <= 1e-10 * abs(want),
            "cascade head x1^(%d) = %r, expected %r" % (r, got, want),
        )

"""Numeric execution of the solution schedule at one expansion point.

Everything works on Taylor coefficients (TCs): slot (j, r) holds
x_j^{(r)}/r!.  The code list is evaluated by truncated-power-series
recurrences; directional sensitivities are propagated alongside the value
series, which yields exact stage Jacobians (the same forward pass used for
residuals, seeded with unit derivative perturbations).

Stage systems are solved in derivative units.  Each square linear stage
evaluates its Jacobian with respect to its top-order unknowns, checks the
condition estimate and takes one linear solve from zero; the Jacobian is
rebuilt for every stage, although it does not depend on k.  Newton with
step halving handles square nonlinear stages, and a Gauss-Newton iteration
minimizes the distance to the supplied guesses subject to the residual for
underdetermined stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codelist import Binary, CodeList, Const, DaeModel, Deriv, InputTime, InputVar, Unary
from .btf import Block
from .scheme import StageTask

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 30
COND_LIMIT = 1e14
MAX_ORDER = 170  # factorial overflow bound for float64


class ExecutorError(Exception):
    pass


class DivisionByZeroSeries(ExecutorError):
    pass


class LogSqrtDomain(ExecutorError):
    pass


class SingularJacobian(ExecutorError):
    pass


class NewtonDivergence(ExecutorError):
    pass


class InfeasibleConstraint(ExecutorError):
    pass


class MissingInitialization(ExecutorError):
    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


def _fact(r: int) -> float:
    if r > MAX_ORDER:
        raise ExecutorError("derivative order %d exceeds float range" % r)
    return float(math.factorial(r))


@dataclass(frozen=True)
class TaylorSeries:
    coeffs: np.ndarray  # c_r = derivative(r)/r!

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, r: int) -> float:
        return float(self.coeffs[r]) * _fact(r)


@dataclass
class StatePoint:
    """Known derivatives per variable around the expansion time t0."""

    t0: float = 0.0
    _tc: dict[tuple[int, int], float] = field(default_factory=dict)

    def set_derivative(self, j: int, r: int, value: float) -> None:
        self._tc[(j, r)] = float(value) / _fact(r)

    def set_tc(self, j: int, r: int, value: float) -> None:
        self._tc[(j, r)] = float(value)

    def derivative(self, j: int, r: int) -> float:
        return self._tc[(j, r)] * _fact(r)

    def tc(self, j: int, r: int) -> float:
        """Coefficient (j, r); unknown slots read as zero."""
        return self._tc.get((j, r), 0.0)

    def has(self, j: int, r: int) -> bool:
        return (j, r) in self._tc

    def copy(self) -> "StatePoint":
        return StatePoint(t0=self.t0, _tc=dict(self._tc))


# -- truncated power series kernels -----------------------------------


def _conv(a, b, L):
    return np.convolve(a[:L], b[:L])[:L]


def _ser_div(a, b, L):
    if b[0] == 0.0:
        raise DivisionByZeroSeries("series division by a series with zero value")
    w = np.zeros(L)
    for r in range(L):
        acc = a[r] if r < len(a) else 0.0
        acc -= np.dot(w[:r], b[r:0:-1][:r]) if r else 0.0
        w[r] = acc / b[0]
    return w


def _ser_exp(a, L):
    w = np.zeros(L)
    w[0] = math.exp(a[0])
    for r in range(1, L):
        s = np.arange(1, r + 1)
        w[r] = np.dot(s * a[1 : r + 1], w[r - 1 :: -1][:r]) / r
    return w


def _ser_log(a, L):
    if a[0] <= 0.0:
        raise LogSqrtDomain("log of a series with nonpositive value")
    w = np.zeros(L)
    w[0] = math.log(a[0])
    for r in range(1, L):
        acc = r * a[r]
        if r > 1:
            s = np.arange(1, r)
            acc -= np.dot(s * w[1:r], a[r - 1 : 0 : -1])
        w[r] = acc / (r * a[0])
    return w


def _ser_sqrt(a, L):
    if a[0] <= 0.0:
        raise LogSqrtDomain("sqrt of a series with nonpositive value")
    w = np.zeros(L)
    w[0] = math.sqrt(a[0])
    for r in range(1, L):
        acc = a[r]
        if r > 1:
            acc -= np.dot(w[1:r], w[r - 1 : 0 : -1])
        w[r] = acc / (2.0 * w[0])
    return w


def _ser_sincos(a, L):
    s = np.zeros(L)
    c = np.zeros(L)
    s[0] = math.sin(a[0])
    c[0] = math.cos(a[0])
    for r in range(1, L):
        q = np.arange(1, r + 1)
        qa = q * a[1 : r + 1]
        s[r] = np.dot(qa, c[r - 1 :: -1][:r]) / r
        c[r] = -np.dot(qa, s[r - 1 :: -1][:r]) / r
    return s, c


def _ser_ipow(a, k, L):
    """a**k for integer k >= 0 by binary exponentiation."""
    result = np.zeros(L)
    result[0] = 1.0
    base = a[:L].copy()
    e = k
    while e:
        if e & 1:
            result = _conv(result, base, L)
        e >>= 1
        if e:
            base = _conv(base, base, L)
    return result


def _needed_lengths(cl: CodeList, targets: dict[int, int]) -> dict[int, int]:
    """Series length per node so every target node reaches its order.

    Only the dependency cones of the targets are included; a derivative
    node pushes its operand's requirement up by its order.
    """
    need: dict[int, int] = {}
    for r, order in targets.items():
        need[r] = max(need.get(r, 0), order + 1)
    for r in range(len(cl.nodes) - 1, -1, -1):
        if r not in need:
            continue
        L = need[r]
        node = cl.nodes[r]
        extra = node.p if isinstance(node, Deriv) else 0
        for child in cl.operands(r):
            need[child] = max(need.get(child, 0), L + extra)
    return need


def _evaluate(cl: CodeList, state: StatePoint, targets: dict[int, int], seeds=()):
    """Series (with sensitivity rows) for every node in the targets' cones.

    seeds is a list of (variable, order, tc_delta): each contributes one
    sensitivity row, the directional derivative of all coefficients with
    respect to that perturbation of the state.
    """
    need = _needed_lengths(cl, targets)
    m = len(seeds)
    out: dict[int, np.ndarray] = {}
    for r in sorted(need):
        L = need[r]
        node = cl.nodes[r]
        arr = np.zeros((m + 1, L))
        if isinstance(node, InputTime):
            arr[0, 0] = state.t0
            if L > 1:
                arr[0, 1] = 1.0
        elif isinstance(node, Const):
            arr[0, 0] = node.value
        elif isinstance(node, InputVar):
            for s in range(L):
                arr[0, s] = state.tc(node.j, s)
            for q, (j, rr, delta) in enumerate(seeds):
                if j == node.j and rr < L:
                    arr[q + 1, rr] = delta
        elif isinstance(node, Deriv):
            u = out[node.arg]
            p = node.p
            if p == 0:
                arr = u[:, :L].copy()
            else:
                fac = np.ones(L)
                for rr in range(L):
                    f = 1.0
                    for t in range(rr + 1, rr + p + 1):
                        f *= t
                    fac[rr] = f
                arr = u[:, p : p + L] * fac
        elif isinstance(node, Unary):
            u = out[node.arg]
            a = u[0]
            if node.op == "identity":
                arr = u[:, :L].copy()
            elif node.op == "neg":
                arr = -u[:, :L]
            elif node.op == "exp":
                w = _ser_exp(a, L)
                arr[0] = w
                for q in range(1, m + 1):
                    arr[q] = _conv(w, u[q], L)
            elif node.op == "log":
                arr[0] = _ser_log(a, L)
                for q in range(1, m + 1):
                    arr[q] = _ser_div(u[q][:L], a[:L], L)
            elif node.op == "sqrt":
                w = _ser_sqrt(a, L)
                arr[0] = w
                for q in range(1, m + 1):
                    arr[q] = _ser_div(0.5 * u[q][:L], w, L)
            else:
                sn, cs = _ser_sincos(a, L)
                if node.op == "sin":
                    arr[0] = sn
                    for q in range(1, m + 1):
                        arr[q] = _conv(cs, u[q], L)
                else:
                    arr[0] = cs
                    for q in range(1, m + 1):
                        arr[q] = -_conv(sn, u[q], L)
        else:
            assert isinstance(node, Binary)
            ua, ub = out[node.lhs], out[node.rhs]
            a, b = ua[0], ub[0]
            if node.op == "add":
                arr = ua[:, :L] + ub[:, :L]
            elif node.op == "sub":
                arr = ua[:, :L] - ub[:, :L]
            elif node.op == "mul":
                arr[0] = _conv(a, b, L)
                for q in range(1, m + 1):
                    arr[q] = _conv(ua[q], b, L) + _conv(a, ub[q], L)
            elif node.op == "div":
                w = _ser_div(a[:L], b[:L], L)
                arr[0] = w
                for q in range(1, m + 1):
                    arr[q] = _ser_div(
                        ua[q][:L] - _conv(w, ub[q], L), b[:L], L
                    )
            else:  # pow with integer constant exponent
                k = int(cl.nodes[node.rhs].value)
                if k == 0:
                    arr[0, 0] = 1.0
                elif k == 1:
                    arr = ua[:, :L].copy()
                elif k > 1:
                    p1 = _ser_ipow(a, k - 1, L)
                    arr[0] = _conv(p1, a, L)
                    for q in range(1, m + 1):
                        arr[q] = k * _conv(p1, ua[q], L)
                else:
                    pos = _ser_ipow(a, -k, L)
                    one = np.zeros(L)
                    one[0] = 1.0
                    w = _ser_div(one, pos, L)
                    arr[0] = w
                    # d(a^k) = k a^(k-1) da, with a^(k-1) = w / a
                    p1 = _ser_div(w, a[:L], L)
                    for q in range(1, m + 1):
                        arr[q] = k * _conv(p1, ua[q], L)
        out[r] = arr
    return out


def taylor_eval(cl: CodeList, state: StatePoint, order: int) -> list[TaylorSeries]:
    """Series of every node through the requested order.

    State coefficients the recurrences consume must be present; unknown
    slots read as zero.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    targets = {r: order for r in range(len(cl.nodes))}
    res = _evaluate(cl, state, targets)
    return [TaylorSeries(coeffs=res[r][0][: order + 1].copy()) for r in range(len(cl.nodes))]


def numeric_jacobian(
    model: DaeModel,
    sm,
    offs,
    block: Block | None,
    state: StatePoint,
) -> np.ndarray:
    """System Jacobian values on a block: d f_i / d x_j^(sigma_ij) where the
    offsets are tight, zero elsewhere.

    Computed by seeding a unit derivative perturbation on coefficient d_j of
    x_j and reading the sensitivity of coefficient c_i of f_i; that partial
    is the same at every stage, evaluated at the supplied state.
    """
    cl = model.codelist
    rows = block.rows if block is not None else tuple(range(model.n))
    cols = block.cols if block is not None else tuple(range(model.n))
    seeds = [(j, offs.d[j], 1.0 / _fact(offs.d[j])) for j in cols]
    targets = {cl.output_indices[i]: offs.c[i] for i in rows}
    res = _evaluate(cl, state, targets, seeds)
    jac = np.zeros((len(rows), len(cols)))
    for ii, i in enumerate(rows):
        arr = res[cl.output_indices[i]]
        for jj in range(len(cols)):
            jac[ii, jj] = arr[jj + 1, offs.c[i]] * _fact(offs.c[i])
    return jac


@dataclass
class StageSolveReport:
    task: StageTask
    solution: dict[tuple[int, int], float]  # (variable, order) -> derivative
    residual_norm: float
    newton_iterations: int
    jacobian_condition_estimate: float


@dataclass
class SolutionReport:
    derivatives: dict[tuple[int, int], float]
    stage_reports: list[StageSolveReport]
    max_residual: float  # coefficient residuals relative to canceling terms
    max_residual_raw: float


def _residual_terms(cl: CodeList, out_index: int) -> list[int]:
    """Nodes whose coefficients cancel in the output: the output's top-level
    additive chain, descending through identity and negation."""
    terms = []
    todo = [out_index]
    while todo:
        r = todo.pop()
        node = cl.nodes[r]
        if isinstance(node, Unary) and node.op in ("identity", "neg"):
            todo.append(node.arg)
        elif isinstance(node, Binary) and node.op in ("add", "sub"):
            todo.extend((node.lhs, node.rhs))
        else:
            terms.append(r)
    return terms


class _StageSystem:
    """Residuals and Jacobians of one stage task over a scratch state."""

    def __init__(self, cl: CodeList, part, task: StageTask, state: StatePoint):
        self.cl = cl
        self.state = state
        row_perm = part.row_perm
        col_perm = part.col_perm
        self.eq_rows = sorted(task.equations)  # (row position, order)
        self.slots = sorted(task.unknowns)  # (col position, order)
        self.eq_targets = [
            (self.cl.output_indices[row_perm[pos]], r) for pos, r in self.eq_rows
        ]
        self.unknowns = [(col_perm[pos], r) for pos, r in self.slots]
        self.seeds = [(j, r, 1.0 / _fact(r)) for j, r in self.unknowns]
        self.row_fact = np.array([_fact(r) for _, r in self.eq_rows])

    def eval(self, z: np.ndarray, with_jacobian: bool):
        scratch = self.state.copy()
        for (j, r), val in zip(self.unknowns, z):
            scratch.set_derivative(j, r, val)
        targets: dict[int, int] = {}
        for oi, r in self.eq_targets:
            targets[oi] = max(targets.get(oi, -1), r)
        res = _evaluate(
            self.cl, scratch, targets, self.seeds if with_jacobian else ()
        )
        f_tc = np.array([res[oi][0][r] for oi, r in self.eq_targets])
        jac = None
        if with_jacobian:
            jac = np.zeros((len(self.eq_targets), len(self.unknowns)))
            for row, (oi, r) in enumerate(self.eq_targets):
                jac[row] = res[oi][1:, r] * self.row_fact[row]
        return f_tc, jac

    def residual_deriv(self, f_tc: np.ndarray) -> np.ndarray:
        return f_tc * self.row_fact


def _scaled_norm(f_tc: np.ndarray) -> float:
    return float(np.max(np.abs(f_tc))) if len(f_tc) else 0.0


def _check_condition(jac: np.ndarray) -> float:
    if jac.size == 0:
        return 1.0
    cond = float(np.linalg.cond(jac))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularJacobian(
            "stage Jacobian is singular or nearly singular (cond %.3g)" % cond
        )
    return cond


def solve_stage(
    model: DaeModel,
    part,
    task: StageTask,
    state: StatePoint,
    guesses: dict[tuple[int, int], float] | None = None,
    tol: float = NEWTON_TOL,
) -> StageSolveReport:
    """Solve one stage task and write the results into the state.

    part must be the partition the task's positions refer to.  Guesses are
    keyed (variable index, derivative order) and are consumed by nonlinear
    and underdetermined stages.
    """
    sysm = _StageSystem(model.codelist, part, task, state)
    guesses = guesses or {}

    if not sysm.eq_rows:
        raise ExecutorError("stage task has no equations to solve")

    def guess_vector():
        missing = [ju for ju in sysm.unknowns if ju not in guesses]
        if missing:
            raise MissingInitialization(
                "missing initial guesses: %s" % sorted(missing), missing
            )
        return np.array([float(guesses[ju]) for ju in sysm.unknowns])

    iterations = 0
    cond = 1.0
    if task.determinacy == "square" and task.linearity == "linear":
        z = np.zeros(len(sysm.unknowns))
        f_tc, jac = sysm.eval(z, with_jacobian=True)
        cond = _check_condition(jac)
        z = z + np.linalg.solve(jac, -sysm.residual_deriv(f_tc))
        f_tc, _ = sysm.eval(z, with_jacobian=False)
    elif task.determinacy == "square":
        z = guess_vector()
        f_tc, jac = sysm.eval(z, with_jacobian=True)
        while _scaled_norm(f_tc) > tol * (1.0 + float(np.max(np.abs(z), initial=0.0))):
            if iterations >= NEWTON_MAX_ITER:
                raise NewtonDivergence(
                    "Newton did not converge in %d iterations" % NEWTON_MAX_ITER
                )
            iterations += 1
            cond = max(cond, _check_condition(jac))
            step = np.linalg.solve(jac, -sysm.residual_deriv(f_tc))
            alpha, best = 1.0, None
            for _ in range(NEWTON_MAX_HALVINGS):
                cand = z + alpha * step
                f_cand, jac_cand = sysm.eval(cand, with_jacobian=True)
                if _scaled_norm(f_cand) < _scaled_norm(f_tc):
                    best = (cand, f_cand, jac_cand)
                    break
                alpha *= 0.5
            if best is None:
                raise NewtonDivergence("Newton failed to reduce the stage residual")
            z, f_tc, jac = best
    else:
        # underdetermined: stay closest to the guesses subject to F = 0,
        # Gauss-Newton on the constrained least-squares formulation
        g = guess_vector()
        z = g.copy()
        f_tc, jac = sysm.eval(z, with_jacobian=True)
        cond = float("nan")
        converged = False
        while iterations < NEWTON_MAX_ITER:
            iterations += 1
            scale = 1.0 + float(np.max(np.abs(z)))
            rhs = jac @ (z - g) - sysm.residual_deriv(f_tc)
            w = np.linalg.lstsq(jac, rhs, rcond=None)[0]
            step = (g + w) - z
            if _scaled_norm(f_tc) <= tol * scale and float(
                np.max(np.abs(step), initial=0.0)
            ) <= 1e-9 * scale:
                converged = True
                iterations -= 1
                break
            alpha, best = 1.0, None
            for _ in range(NEWTON_MAX_HALVINGS):
                cand = z + alpha * step
                f_cand, jac_cand = sysm.eval(cand, with_jacobian=True)
                if (
                    _scaled_norm(f_cand) < _scaled_norm(f_tc)
                    or _scaled_norm(f_tc) <= tol * scale
                ):
                    best = (cand, f_cand, jac_cand)
                    break
                alpha *= 0.5
            if best is None:
                raise InfeasibleConstraint(
                    "could not reach the stage constraint from the guesses"
                )
            z, f_tc, jac = best
        if not converged and _scaled_norm(f_tc) > tol * (
            1.0 + float(np.max(np.abs(z)))
        ):
            raise InfeasibleConstraint(
                "constrained stage did not converge in %d iterations"
                % NEWTON_MAX_ITER
            )

    solution = {}
    for (j, r), val in zip(sysm.unknowns, z):
        state.set_derivative(j, r, float(val))
        solution[(j, r)] = float(val)
    return StageSolveReport(
        task=task,
        solution=solution,
        residual_norm=_scaled_norm(f_tc),
        newton_iterations=iterations,
        jacobian_condition_estimate=cond,
    )


def solve_to_order(
    analysis,
    values: dict[tuple[int, int], float],
    guesses: dict[tuple[int, int], float],
    K: int,
    scheme: str = "block",
    t0: float = 0.0,
    tol: float = NEWTON_TOL,
) -> SolutionReport:
    """Run the staged solution through stage K and report all derivatives.

    values/guesses are keyed by (variable index, derivative order) and must
    cover the initialization sets of the chosen scheme.
    """
    from . import scheme as _scheme

    model = analysis.model
    offs = analysis.offsets
    if scheme == "block":
        part = analysis.fine
        local = analysis.local
        gamma_eq = analysis.ql.gamma_eq
        required = analysis.init_fine
    elif scheme == "basic":
        part = _scheme.basic_partition(model.n)
        local = _scheme.basic_local(offs)
        gamma_eq = tuple(
            1 if eq.code.value == "L" else 0 for eq in analysis.ql.global_ql
        )
        required = analysis.init_basic
    else:
        raise ValueError("scheme must be 'block' or 'basic'")

    supplied = dict(values)
    supplied.update(guesses)
    missing = sorted(
        (required.values | required.guesses) - set(supplied)
    )
    if missing:
        raise MissingInitialization(
            "missing initialization entries: %s"
            % ", ".join(
                "%s^(%d)" % (model.variable_names[j], r) for j, r in missing
            ),
            missing,
        )

    state = StatePoint(t0=t0)
    reports: list[StageSolveReport] = []
    k_min = -max(offs.d)
    schedule = _scheme.render_schedule(
        k_min, K, part, offs, local, gamma_eq, analysis.pattern
    )
    for task in schedule.tasks:
        if not task.equations:
            # no equations here: the unknowns take their initial values
            for pos, r in sorted(task.unknowns):
                j = part.col_perm[pos]
                state.set_derivative(j, r, supplied[(j, r)])
            continue
        stage_guesses = {
            (part.col_perm[pos], r): supplied[(part.col_perm[pos], r)]
            for pos, r in task.unknowns
            if (part.col_perm[pos], r) in supplied
        }
        reports.append(solve_stage(model, part, task, state, stage_guesses, tol))

    derivatives = {}
    for j in range(model.n):
        for r in range(K + offs.d[j] + 1):
            if state.has(j, r):
                derivatives[(j, r)] = state.derivative(j, r)

    cl = model.codelist
    checked = [i for i in range(model.n) if K + offs.c[i] >= 0]
    targets = {cl.output_indices[i]: K + offs.c[i] for i in checked}
    for i in checked:
        for term in _residual_terms(cl, cl.output_indices[i]):
            targets[term] = max(targets.get(term, -1), K + offs.c[i])
    res = _evaluate(cl, state, targets) if targets else {}
    max_scaled = 0.0
    max_raw = 0.0
    for i in checked:
        L = K + offs.c[i] + 1
        coeffs = np.abs(res[cl.output_indices[i]][0][:L])
        scale = np.ones(L)
        for term in _residual_terms(cl, cl.output_indices[i]):
            scale = np.maximum(scale, np.abs(res[term][0][:L]))
        max_raw = max(max_raw, float(coeffs.max()))
        max_scaled = max(max_scaled, float((coeffs / scale).max()))
    return SolutionReport(
        derivatives=derivatives,
        stage_reports=reports,
        max_residual=max_scaled,
        max_residual_raw=max_raw,
    )

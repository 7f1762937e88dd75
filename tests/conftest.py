import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import daestruct as ds
from daestruct.codelist import Binary, Const, Deriv, InputTime, InputVar, Unary
from daestruct.ql import _NONLINEAR_UNARY, QlCode

MODELS = Path(__file__).resolve().parent.parent / "models"

NEG_INF = float("-inf")
INF = float("inf")


def load_model(name: str) -> ds.DaeModel:
    return ds.parse_model((MODELS / name).read_text())


@pytest.fixture(scope="session")
def two_pendula():
    return load_model("two_pendula.dae")


@pytest.fixture(scope="session")
def pendulum():
    return load_model("pendulum.dae")


@pytest.fixture(scope="session")
def linear_model():
    return load_model("linear.dae")


@pytest.fixture(scope="session")
def two_pendula_analysis(two_pendula):
    return ds.analyze(two_pendula)


@pytest.fixture(scope="session")
def pendulum_analysis(pendulum):
    return ds.analyze(pendulum)


# -- independent oracles ------------------------------------------------


def brute_force_hvt(sigma: np.ndarray):
    """Best transversal by full enumeration: (value, lexicographically
    smallest optimal assignment), or None if none is finite."""
    n = sigma.shape[0]
    best_value = None
    best_assign = None
    for perm in itertools.permutations(range(n)):
        if not all(np.isfinite(sigma[i, perm[i]]) for i in range(n)):
            continue
        value = sum(int(sigma[i, perm[i]]) for i in range(n))
        if best_value is None or value > best_value or (
            value == best_value and perm < best_assign
        ):
            best_value = value
            best_assign = perm
    if best_value is None:
        return None
    return best_value, best_assign


def enumerate_valid_offsets(sigma: np.ndarray, assignment, c_bound: int):
    """All valid normalized offset pairs with every c_i <= c_bound.

    For each candidate c the smallest compatible d is derived columnwise;
    the pair qualifies if the transversal positions are tight and min c = 0.
    """
    n = sigma.shape[0]
    finite = np.isfinite(sigma)
    pairs = []
    for c in itertools.product(range(c_bound + 1), repeat=n):
        if min(c) != 0:
            continue
        d = []
        ok = True
        for j in range(n):
            col = [int(sigma[i, j]) + c[i] for i in range(n) if finite[i, j]]
            if not col:
                ok = False
                break
            d.append(max(col))
        if not ok:
            continue
        if all(d[assignment[i]] - c[i] == int(sigma[i, assignment[i]]) for i in range(n)):
            pairs.append((tuple(c), tuple(d)))
    return pairs


def is_strong_hall(entries, size: int) -> bool:
    """Every proper nonempty set of r columns touches at least r+1 rows.

    Direct enumeration over column subsets; an independent check of block
    irreducibility on small blocks.
    """
    rows_of_col = [set() for _ in range(size)]
    for i, j in entries:
        rows_of_col[j].add(i)
    for r in range(1, size):
        for cols in itertools.combinations(range(size), r):
            touched = set()
            for j in cols:
                touched |= rows_of_col[j]
            if len(touched) < r + 1:
                return False
    return True


def propagate_offsets(cl, i: int, m_i: frozenset[int], sm) -> np.ndarray:
    """Offsets of every node with respect to equation i.

    Time and constants get +inf; an input variable gets its signature entry
    when its column is tight, +inf otherwise; operations take the minimum
    over their operands; a derivative node subtracts its order.
    """
    alpha = np.full(len(cl.nodes), INF)
    for r, node in enumerate(cl.nodes):
        if isinstance(node, (InputTime, Const)):
            continue
        if isinstance(node, InputVar):
            if node.j in m_i:
                alpha[r] = sm.sigma[i, node.j]
        elif isinstance(node, Deriv):
            alpha[r] = alpha[node.arg] - node.p
        elif isinstance(node, Unary):
            alpha[r] = alpha[node.arg]
        else:
            alpha[r] = min(alpha[node.lhs], alpha[node.rhs])
    return alpha


def _op_is_nonlinear(cl, node, alpha_of) -> bool:
    """Is the operation nonlinear in its offset-0 operands?

    Every offset-0 operand seen here is already known linear (a nonlinear
    one would have ended the scan), so only the operation itself matters.
    """
    if isinstance(node, Unary):
        return node.op in _NONLINEAR_UNARY
    if isinstance(node, Binary):
        if node.op in ("add", "sub"):
            return False
        if node.op == "mul":
            return alpha_of(node.lhs) == 0 and alpha_of(node.rhs) == 0
        if node.op == "div":
            return alpha_of(node.rhs) == 0
        if node.op == "pow":
            return int(cl.nodes[node.rhs].value) != 1
    return False  # Deriv and inputs are linear at offset 0


@dataclass(frozen=True, eq=False)
class OracleQl:
    offsets: np.ndarray  # per-node offset w.r.t. the equation (+-inf allowed)
    code: QlCode
    first_nonlinear: int | None  # node index of the first N, if any


def ql_analysis(cl, i: int, m_i: frozenset[int], sm) -> OracleQl:
    """Classify equation i by a per-equation scan, stopping at the first
    nonlinear node."""
    alpha = propagate_offsets(cl, i, m_i, sm)
    for r in sorted(cl.cone(cl.output_indices[i])):
        if alpha[r] == 0 and _op_is_nonlinear(cl, cl.nodes[r], lambda q: alpha[q]):
            return OracleQl(alpha, QlCode.N, r)
    return OracleQl(alpha, QlCode.L, None)


def random_sigma(rng: random.Random, n: int, max_order: int = 3) -> np.ndarray:
    """Random signature matrix with a planted finite transversal."""
    sigma = np.full((n, n), NEG_INF)
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.45:
                sigma[i, j] = rng.randint(0, max_order)
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        if not np.isfinite(sigma[i, perm[i]]):
            sigma[i, perm[i]] = rng.randint(0, max_order)
    return sigma


def random_model(rng: random.Random, n_max: int = 4, depth: int = 5) -> ds.DaeModel:
    """Random structurally regular model: equation i always touches x_i."""
    n = rng.randint(1, n_max)
    b = ds.ModelBuilder()
    xs = b.variables(*["x%d" % j for j in range(n)])

    def leaf():
        roll = rng.random()
        if roll < 0.65:
            v = rng.choice(xs)
            p = rng.randint(0, 2)
            return v.der(p) if p else v
        if roll < 0.8:
            return b._coerce(round(rng.uniform(0.5, 3.0), 3))
        return b.time

    def expr(d):
        if d <= 0:
            return leaf()
        roll = rng.random()
        if roll < 0.5:
            op = rng.choice(["add", "sub", "mul", "div"])
            a, c = expr(d - 1), expr(d - 1)
            if op == "add":
                return a + c
            if op == "sub":
                return a - c
            if op == "mul":
                return a * c
            return a / c
        if roll < 0.65:
            return expr(d - 1) ** rng.choice([1, 2, 3])
        if roll < 0.85:
            fn = rng.choice([ds.sin, ds.cos, ds.exp, ds.log, ds.sqrt])
            return fn(expr(d - 1))
        if roll < 0.95:
            return expr(d - 1).der(rng.randint(1, 2))
        return leaf()

    for i in range(n):
        anchor = xs[i].der(rng.randint(0, 2))
        b.equation("e%d" % i, anchor + expr(rng.randint(1, depth)))
    return b.build()


def finite_difference_jacobian(model, sm, offs, state, h=1e-6):
    """System Jacobian by central differences on the stage-0 view:
    entry (i, j) = d f_i^{(c_i)} / d x_j^{(d_j)}."""
    n = model.n
    cl = model.codelist
    jac = np.zeros((n, n))

    def residual(st, i):
        targets = {cl.output_indices[i]: offs.c[i]}
        res = ds.executor._evaluate(cl, st, targets)
        return res[cl.output_indices[i]][0][offs.c[i]] * math.factorial(offs.c[i])

    for i in range(n):
        for j in range(n):
            plus = state.copy()
            plus.set_derivative(j, offs.d[j], state.derivative(j, offs.d[j]) + h)
            minus = state.copy()
            minus.set_derivative(j, offs.d[j], state.derivative(j, offs.d[j]) - h)
            jac[i, j] = (residual(plus, i) - residual(minus, i)) / (2 * h)
    return jac

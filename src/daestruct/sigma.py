"""Signature matrix, highest-value transversal and canonical offsets.

The signature matrix holds, for every equation/variable pair, the highest
derivative order through which the equation formally depends on the
variable, or -inf when it does not.  Orders are plain Python ints; absence
is IEEE -inf, whose max/+ arithmetic is exactly the lattice we need (adding
a derivative shift leaves -inf alone, max ignores it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codelist import (
    Binary,
    CodeList,
    Const,
    DaeModel,
    Deriv,
    InputTime,
    InputVar,
    Unary,
)

NEG_INF = float("-inf")


class StructurallyIllPosed(Exception):
    """The signature matrix admits no transversal with all entries finite."""


@dataclass(frozen=True, eq=False)
class SignatureMatrix:
    n: int
    sigma: np.ndarray  # (n, n) float64, entries are integers or -inf

    def __post_init__(self):
        self.sigma.setflags(write=False)

    def entry(self, i: int, j: int) -> float:
        return float(self.sigma[i, j])

    @property
    def finite(self) -> np.ndarray:
        return np.isfinite(self.sigma)

    def __eq__(self, other):
        return (
            isinstance(other, SignatureMatrix)
            and self.n == other.n
            and bool(np.array_equal(self.sigma, other.sigma))
        )


@dataclass(frozen=True)
class Transversal:
    assignment: tuple[int, ...]  # column matched to each row
    value: int

    def pairs(self) -> list[tuple[int, int]]:
        return list(enumerate(self.assignment))


@dataclass(frozen=True)
class GlobalOffsets:
    c: tuple[int, ...]
    d: tuple[int, ...]


@dataclass(frozen=True)
class JacobianPattern:
    n: int
    s0: frozenset[tuple[int, int]]  # positions where d_j - c_i equals sigma
    s: frozenset[tuple[int, int]]  # finite support of sigma


@dataclass(frozen=True)
class StructuralMetrics:
    dof: int
    index: int


def signature_vectors(cl: CodeList) -> np.ndarray:
    """Per-node derivative-order vectors, shape (num_nodes, n).

    Entry [r, j] is the highest derivative order of variable j that node r
    formally depends on, or -inf.  Time and constants depend on nothing;
    operations take the componentwise max of their operands; a derivative
    node shifts every finite component up by its order.
    """
    n = cl.n
    vec = np.full((len(cl.nodes), n), NEG_INF)
    for r, node in enumerate(cl.nodes):
        if isinstance(node, (InputTime, Const)):
            continue
        if isinstance(node, InputVar):
            vec[r, node.j] = 0.0
        elif isinstance(node, Deriv):
            vec[r] = vec[node.arg] + node.p
        elif isinstance(node, Unary):
            vec[r] = vec[node.arg]
        elif isinstance(node, Binary):
            vec[r] = np.maximum(vec[node.lhs], vec[node.rhs])
    return vec


def signature_matrix(model: DaeModel) -> SignatureMatrix:
    cl = model.codelist
    vec = signature_vectors(cl)
    sigma = np.array([vec[oi] for oi in cl.output_indices])
    return SignatureMatrix(n=cl.n, sigma=sigma)


def _lap_maximize(weights: list[list[int]], allowed: list[list[bool]]):
    """Exact max-weight perfect matching over allowed entries.

    Shortest augmenting paths with integer potentials (arbitrary-precision,
    so lexicographic tie-break encodings cannot overflow).  Returns the
    row-to-column assignment or None when no perfect matching exists.
    """
    n = len(weights)
    INF = math.inf
    # minimize cost = -weight
    u = [0] * n
    v = [0] * (n + 1)
    col_row = [-1] * (n + 1)  # row matched to column, n is the virtual start
    for i in range(n):
        col_row[n] = i
        j0 = n
        minv = [INF] * (n + 1)
        way = [n] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            delta = INF
            j1 = -1
            for j in range(n):
                if used[j]:
                    continue
                if allowed[i0][j]:
                    cur = -weights[i0][j] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if delta == INF:
                return None
            for j in range(n + 1):
                if used[j]:
                    if col_row[j] >= 0:
                        u[col_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_row[j0] == -1:
                break
        while j0 != n:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    match = [-1] * n
    for j in range(n):
        if col_row[j] >= 0:
            match[col_row[j]] = j
    return match


def highest_value_transversal(sm: SignatureMatrix) -> Transversal:
    """Max-weight perfect matching on the finite entries of sigma.

    Among all maximum-value transversals the lexicographically smallest
    assignment (row by row) is returned, by folding a positional tie-break
    into the weights: column choices of earlier rows dominate later ones.
    """
    n = sm.n
    if n == 0:
        return Transversal(assignment=(), value=0)
    finite = sm.finite
    base = n + 1
    big = base**n
    weights = [[0] * n for _ in range(n)]
    allowed = [[bool(finite[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if allowed[i][j]:
                weights[i][j] = int(sm.sigma[i, j]) * big - (j + 1) * base ** (
                    n - 1 - i
                )
    match = _lap_maximize(weights, allowed)
    if match is None:
        raise StructurallyIllPosed(
            "no transversal with all entries finite: the system is "
            "structurally ill posed"
        )
    value = sum(int(sm.sigma[i, match[i]]) for i in range(n))
    return Transversal(assignment=tuple(match), value=value)


def canonical_offsets(sm: SignatureMatrix, t: Transversal) -> GlobalOffsets:
    """Smallest valid offset pair: d_j - c_i >= sigma_ij with equality on t.

    Fixed point from c = 0: push every d_j up to the tightest column bound,
    pull c up along the transversal, repeat.  Starting from zero makes the
    result elementwise minimal (hence normalized, min c = 0).
    """
    n = sm.n
    cols = [
        [(i, int(sm.sigma[i, j])) for i in range(n) if np.isfinite(sm.sigma[i, j])]
        for j in range(n)
    ]
    sigma_t = [int(sm.sigma[i, t.assignment[i]]) for i in range(n)]
    max_sigma = max((s for col in cols for _, s in col), default=0)
    limit = n * (1 + max_sigma) + n + 2
    c = [0] * n
    d = [0] * n
    for _ in range(limit):
        d = [max(s + c[i] for i, s in cols[j]) for j in range(n)]
        c_new = [d[t.assignment[i]] - sigma_t[i] for i in range(n)]
        if c_new == c:
            break
        c = c_new
    else:
        raise RuntimeError("offset fixed point failed to terminate (internal bug)")
    if min(c) != 0:
        raise RuntimeError("offsets not normalized (internal bug)")
    return GlobalOffsets(c=tuple(c), d=tuple(d))


def jacobian_pattern(sm: SignatureMatrix, offs: GlobalOffsets) -> JacobianPattern:
    s0 = set()
    s = set()
    for i in range(sm.n):
        for j in range(sm.n):
            v = sm.sigma[i, j]
            if not np.isfinite(v):
                continue
            s.add((i, j))
            if offs.d[j] - offs.c[i] == int(v):
                s0.add((i, j))
    return JacobianPattern(n=sm.n, s0=frozenset(s0), s=frozenset(s))


def structural_metrics(sm: SignatureMatrix, offs: GlobalOffsets) -> StructuralMetrics:
    dof = sum(offs.d) - sum(offs.c)
    index = max(offs.c) + (1 if any(dj == 0 for dj in offs.d) else 0)
    return StructuralMetrics(dof=dof, index=index)

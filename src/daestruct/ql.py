"""Quasilinearity analysis over the code list.

For every equation we class its output as I (independent of the unknowns
solved at that equation's lowest stage), L (linear in them) or N (nonlinear
in them).  The analysis runs on offsets: a node's offset with respect to
equation i is the minimal slack between the equation's tight columns and
the node's own signature vector.  Offset > 0 means the node cannot touch a
stage-0 unknown (code I); at offset 0 linearity is decided per operation.

Everything is decided formally: (x'')^2 + x'' - (x'')^2 counts as nonlinear
in x'' even though the dependence cancels.

One vectorized sweep classifies every equation at once: it pushes whole
n-vectors of encoded offsets through the shared code list (0 encodes L,
-1 encodes N, positive or infinite values encode I).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .btf import BlockPartition, LocalOffsets
from .codelist import CodeList, Const, DaeModel, Deriv, InputTime, InputVar, Unary
from .sigma import GlobalOffsets, SignatureMatrix

INF = float("inf")

_NONLINEAR_UNARY = ("sin", "cos", "exp", "log", "sqrt")


class QlCode(Enum):
    I = "I"
    L = "L"
    N = "N"

    @property
    def severity(self) -> int:
        return {"I": 0, "L": 1, "N": 2}[self.value]


@dataclass(frozen=True, eq=False)
class EquationQl:
    m_set: frozenset[int]  # columns where the offsets are tight for this row
    code: QlCode
    first_nonlinear: int | None  # node index of the first N, if any


@dataclass(frozen=True, eq=False)
class QlReport:
    global_ql: tuple[EquationQl, ...]
    blockwise: tuple[EquationQl, ...]
    gamma_eq: tuple[int, ...]  # 1 iff the equation is blockwise linear
    gamma_block: tuple[int, ...]  # 1 iff the block's stage-0 system is linear
    gamma_dae: int  # 1 iff every equation is globally linear
    encoded_global: np.ndarray  # (num_nodes, n) encoded offsets
    encoded_block: np.ndarray


def m_sets(
    sm: SignatureMatrix,
    offs: GlobalOffsets,
    part: BlockPartition | None = None,
) -> list[frozenset[int]]:
    """Per equation, the columns j with sigma_ij == d_j - c_i.

    With a fine partition the set is additionally restricted to the columns
    of the equation's own block (the unknowns the block solves for).
    """
    out = []
    for i in range(sm.n):
        cols = range(sm.n) if part is None else part.blocks[part.block_of_row(i) - 1].cols
        tight = set()
        for j in cols:
            v = sm.sigma[i, j]
            if np.isfinite(v) and offs.d[j] - offs.c[i] == int(v):
                tight.add(j)
        out.append(frozenset(tight))
    return out


def _vector_sweep(cl: CodeList, sm: SignatureMatrix, msets):
    """One pass over the shared code list with n-vector encoded offsets.

    Returns (enc, codes, first_n): the encoded offset matrix (-1 marks
    nonlinear), output codes and the first nonlinear node per equation
    restricted to that equation's own nodes.
    """
    n = cl.n
    num = len(cl.nodes)
    tight = np.zeros((n, n), dtype=bool)
    for i, m in enumerate(msets):
        for j in m:
            tight[i, j] = True

    in_cone = np.zeros((num, n), dtype=bool)
    for i, oi in enumerate(cl.output_indices):
        for r in cl.cone(oi):
            in_cone[r, i] = True

    enc = np.full((num, n), INF)
    first_n: list[int | None] = [None] * n

    def mark(r, mask):
        if not mask.any():
            return
        enc[r, mask] = -1.0
        for i in np.flatnonzero(mask & in_cone[r]):
            if first_n[i] is None:
                first_n[i] = r

    for r, node in enumerate(cl.nodes):
        if isinstance(node, (InputTime, Const)):
            continue
        if isinstance(node, InputVar):
            enc[r] = np.where(tight[:, node.j], sm.sigma[:, node.j], INF)
        elif isinstance(node, Deriv):
            enc[r] = enc[node.arg] - node.p
        elif isinstance(node, Unary):
            enc[r] = enc[node.arg]
            if node.op in _NONLINEAR_UNARY:
                mark(r, enc[r] == 0)
        else:
            a, b = enc[node.lhs], enc[node.rhs]
            enc[r] = np.minimum(a, b)
            zero = enc[r] == 0
            if node.op == "mul":
                mark(r, zero & (a == 0) & (b == 0))
            elif node.op == "div":
                mark(r, zero & (b == 0))
            elif node.op == "pow" and int(cl.nodes[node.rhs].value) != 1:
                mark(r, zero)

    codes = []
    for i, oi in enumerate(cl.output_indices):
        codes.append(QlCode.N if enc[oi, i] == -1 else QlCode.L)
    return enc, codes, first_n


def vectorized_ql(
    model: DaeModel,
    sm: SignatureMatrix,
    offs: GlobalOffsets,
    part: BlockPartition,
    local: LocalOffsets,
) -> QlReport:
    """Full quasilinearity report from the vectorized sweeps.

    Runs the global and block-restricted sweeps, then derives the flags:
    gamma_eq from the blockwise output codes, gamma_block by requiring every
    undifferentiated equation of the block (local offset 0) to be linear,
    gamma_dae from the global codes.
    """
    cl = model.codelist
    m_g = m_sets(sm, offs)
    m_b = m_sets(sm, offs, part)
    enc_g, codes_g, firstn_g = _vector_sweep(cl, sm, m_g)
    enc_b, codes_b, firstn_b = _vector_sweep(cl, sm, m_b)

    global_ql = tuple(EquationQl(m_g[i], codes_g[i], firstn_g[i]) for i in range(sm.n))
    blockwise = tuple(EquationQl(m_b[i], codes_b[i], firstn_b[i]) for i in range(sm.n))
    gamma_eq = tuple(1 if codes_b[i] is QlCode.L else 0 for i in range(sm.n))
    gamma_block = []
    for l in range(1, part.p + 1):
        flag = 1
        for pos in part.block_positions(l):
            i = part.row_perm[pos]
            if local.c_hat[pos] == 0 and gamma_eq[i] == 0:
                flag = 0
        gamma_block.append(flag)
    gamma_dae = 1 if all(c is QlCode.L for c in codes_g) else 0
    return QlReport(
        global_ql=global_ql,
        blockwise=blockwise,
        gamma_eq=gamma_eq,
        gamma_block=tuple(gamma_block),
        gamma_dae=gamma_dae,
        encoded_global=enc_g,
        encoded_block=enc_b,
    )

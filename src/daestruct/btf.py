"""Coarse and fine block-triangular forms of a structurally regular DAE.

Both decompositions pair every variable with an equation through a perfect
matching, build the digraph "column j feeds the equation matched to column
j'", and take its strongly connected components.  The coarse form uses the
full finite support of the signature matrix; the fine form uses only the
positions where the offsets are tight (the system Jacobian's sparsity).

Blocks are numbered 1..p from the top-left of the permuted matrix, which is
block upper triangular; block p depends on nothing and is solved first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sigma import (
    GlobalOffsets,
    JacobianPattern,
    SignatureMatrix,
    StructurallyIllPosed,
    Transversal,
    canonical_offsets,
)


class UniformityViolation(Exception):
    """Global minus local offsets differ within one block (internal bug)."""


@dataclass(frozen=True)
class Block:
    rows: tuple[int, ...]  # original equation indices, ascending
    cols: tuple[int, ...]  # original variable indices, ascending

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class BlockPartition:
    n: int
    blocks: tuple[Block, ...]  # block l is blocks[l-1]
    row_perm: tuple[int, ...]  # original equation at each permuted position
    col_perm: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.blocks)

    def block_of_row(self, i: int) -> int:
        """1-based block number containing original equation i."""
        for l, b in enumerate(self.blocks):
            if i in b.rows:
                return l + 1
        raise KeyError(i)

    def block_positions(self, l: int) -> range:
        """Permuted positions covered by block l (1-based l)."""
        start = sum(b.size for b in self.blocks[: l - 1])
        return range(start, start + self.blocks[l - 1].size)


@dataclass(frozen=True)
class LocalOffsets:
    c_hat: tuple[int, ...]  # indexed by permuted position
    d_hat: tuple[int, ...]
    lead_times: tuple[int, ...]  # one per block


def _kuhn_matching(n: int, rows_of_col) -> list[int] | None:
    """Perfect matching col -> row by augmenting paths, or None."""
    col_row = [-1] * n
    row_col = [-1] * n

    def try_col(j, seen):
        for i in rows_of_col[j]:
            if seen[i]:
                continue
            seen[i] = True
            if row_col[i] == -1 or try_col(row_col[i], seen):
                row_col[i] = j
                col_row[j] = i
                return True
        return False

    for j in range(n):
        if not try_col(j, [False] * n):
            return None
    return col_row


def _tarjan_sccs(n: int, succ) -> list[list[int]]:
    """Strongly connected components, single-pass lowlink, iterative."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _partition(n: int, entries: frozenset[tuple[int, int]], col_row: list[int]) -> BlockPartition:
    """SCC condensation of the column digraph, ordered for upper triangularity.

    Edge j -> j' when the equation matched to j' has an entry in column j.
    Block numbers ascend from the sinks of the condensation (nothing depends
    on block 1), so dependencies always point to higher block numbers and
    the permuted matrix is block upper triangular.  Incomparable components
    are ordered by their smallest original equation index.
    """
    cols_of_row = [[] for _ in range(n)]
    for i, j in entries:
        cols_of_row[i].append(j)
    succ = [[] for _ in range(n)]
    for jp in range(n):
        for j in cols_of_row[col_row[jp]]:
            if j != jp:
                succ[j].append(jp)
    succ = [sorted(s) for s in succ]

    comps = _tarjan_sccs(n, succ)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for j in comp:
            comp_of[j] = ci
    out_edges = [set() for _ in comps]
    in_edges = [set() for _ in comps]
    for j in range(n):
        for jp in succ[j]:
            a, b = comp_of[j], comp_of[jp]
            if a != b:
                out_edges[a].add(b)
                in_edges[b].add(a)

    min_row = [min(col_row[j] for j in comp) for comp in comps]
    remaining_out = [len(s) for s in out_edges]
    ready = sorted(
        (ci for ci in range(len(comps)) if remaining_out[ci] == 0),
        key=lambda ci: min_row[ci],
    )
    order: list[int] = []
    while ready:
        ci = ready.pop(0)
        order.append(ci)
        newly = []
        for pred in in_edges[ci]:
            remaining_out[pred] -= 1
            if remaining_out[pred] == 0:
                newly.append(pred)
        if newly:
            ready = sorted(ready + newly, key=lambda c: min_row[c])
    assert len(order) == len(comps)

    blocks = []
    row_perm: list[int] = []
    col_perm: list[int] = []
    for ci in order:
        cols = tuple(sorted(comps[ci]))
        rows = tuple(sorted(col_row[j] for j in cols))
        blocks.append(Block(rows=rows, cols=cols))
        row_perm.extend(rows)
        col_perm.extend(cols)
    return BlockPartition(
        n=n, blocks=tuple(blocks), row_perm=tuple(row_perm), col_perm=tuple(col_perm)
    )


def coarse_btf(pattern: JacobianPattern) -> BlockPartition:
    """Block partition on the full finite support of sigma."""
    n = pattern.n
    rows_of_col = [[] for _ in range(n)]
    for i, j in sorted(pattern.s):
        rows_of_col[j].append(i)
    col_row = _kuhn_matching(n, rows_of_col)
    if col_row is None:
        raise StructurallyIllPosed("no perfect matching on the sparsity pattern")
    return _partition(n, pattern.s, col_row)


def fine_btf(pattern: JacobianPattern, t: Transversal) -> BlockPartition:
    """Block partition on the system Jacobian pattern, pairing by the HVT."""
    col_row = [-1] * pattern.n
    for i, j in enumerate(t.assignment):
        col_row[j] = i
    return _partition(pattern.n, pattern.s0, col_row)


def local_offsets(
    sm: SignatureMatrix, part: BlockPartition, offs: GlobalOffsets
) -> LocalOffsets:
    """Canonical offsets of each block's own submatrix, plus lead times.

    Each block is re-solved as a standalone assignment problem; canonical
    offsets do not depend on which transversal witnesses them, so the block
    HVT is simply recomputed.  The difference global minus local must then
    be one constant per block, its lead time.
    """
    from .sigma import highest_value_transversal

    c_hat = [0] * part.n
    d_hat = [0] * part.n
    leads = []
    pos_of_col = {j: pos for pos, j in enumerate(part.col_perm)}
    pos_of_row = {i: pos for pos, i in enumerate(part.row_perm)}

    for l, block in enumerate(part.blocks, start=1):
        rows, cols = block.rows, block.cols
        sub = sm.sigma[np.ix_(rows, cols)]
        sub_sm = SignatureMatrix(n=len(rows), sigma=sub.copy())
        sub_hvt = highest_value_transversal(sub_sm)
        sub_offs = canonical_offsets(sub_sm, sub_hvt)
        k_l = None
        for ii, i in enumerate(rows):
            pos = pos_of_row[i]
            c_hat[pos] = sub_offs.c[ii]
            diff = offs.c[i] - sub_offs.c[ii]
            if k_l is None:
                k_l = diff
            elif diff != k_l:
                raise UniformityViolation(
                    "lead time not uniform across rows of block %d" % l
                )
        for jj, j in enumerate(cols):
            pos = pos_of_col[j]
            d_hat[pos] = sub_offs.d[jj]
            if offs.d[j] - sub_offs.d[jj] != k_l:
                raise UniformityViolation(
                    "lead time not uniform across columns of block %d" % l
                )
        if k_l < 0:
            raise UniformityViolation("negative lead time in block %d" % l)
        leads.append(k_l)
    return LocalOffsets(
        c_hat=tuple(c_hat), d_hat=tuple(d_hat), lead_times=tuple(leads)
    )

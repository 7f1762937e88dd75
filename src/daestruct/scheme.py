"""Initialization sets and stage-by-stage solution schedules.

Derivatives of the solution are produced in stages k = -max(d), ... : at
stage k, block l owns the equations {f_i^(k+c_i) : k+c_i >= 0, i in block}
and the unknowns {x_j^(k+d_j) : k+d_j >= 0, j in block}.  Blocks are
processed l = p..1 within a stage, so each block can consume same-stage
results of higher-numbered blocks.

A block's local stage is k_l = k + K_l (lead time K_l).  Stages with
k_l < 0 are underdetermined and consume initial guesses; stages the block
has no equations for at all (k_l < -max local c) consume initial values.
The initialization routine emits exactly those minimal sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .btf import Block, BlockPartition, LocalOffsets
from .sigma import GlobalOffsets, JacobianPattern


@dataclass(frozen=True)
class InitSets:
    values: frozenset[tuple[int, int]]  # (variable index, derivative order)
    guesses: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class StageTask:
    """One (stage, block) cell, in permuted 0-based positions."""

    stage: int
    block: int  # 1-based block number
    local_stage: int
    equations: frozenset[tuple[int, int]]  # (row position, derivative order)
    unknowns: frozenset[tuple[int, int]]  # (col position, derivative order)
    cross_block_inputs: frozenset[tuple[int, int]]
    determinacy: str  # "underdetermined" | "square"
    linearity: str  # "linear" | "nonlinear"


@dataclass(frozen=True)
class Schedule:
    tasks: tuple[StageTask, ...]  # stages ascending, blocks p..1 inside


def basic_init_set(offs: GlobalOffsets, gamma_dae: int) -> InitSets:
    """Initialization for the scheme that treats the system as one block.

    Every x_j^(r) with 0 <= r <= d_j - gamma is needed up front; the scheme
    draws no value/guess distinction, and since every stage system exists
    (possibly underdetermined), they are all classified as guesses.
    """
    guesses = {
        (j, r) for j, dj in enumerate(offs.d) for r in range(dj - gamma_dae + 1)
    }
    return InitSets(values=frozenset(), guesses=frozenset(guesses))


def fine_block_init(
    local: LocalOffsets, gamma_block: tuple[int, ...], part: BlockPartition
) -> InitSets:
    """Minimal initialization sets from the fine blocks.

    Per block, walk local stages q = -max(d*)..-gamma: the unknowns of the
    stage need initial values while no equations exist (q < -max(c*)), and
    initial guesses afterwards.  A linear block (gamma = 1) skips its q = 0
    guesses.  Pairs are reported against the original variable order.
    """
    values: set[tuple[int, int]] = set()
    guesses: set[tuple[int, int]] = set()
    for l in range(1, part.p + 1):
        positions = list(part.block_positions(l))
        d_star = [local.d_hat[pos] for pos in positions]
        c_star = [local.c_hat[pos] for pos in positions]
        gamma = gamma_block[l - 1]
        for q in range(-max(d_star), -gamma + 1):
            sink = values if q < -max(c_star) else guesses
            for pos, dj in zip(positions, d_star):
                if q + dj >= 0:
                    sink.add((part.col_perm[pos], q + dj))
    return InitSets(values=frozenset(values), guesses=frozenset(guesses))


def stage_sets(
    k: int,
    part: BlockPartition,
    offs: GlobalOffsets,
    local: LocalOffsets,
    pattern: JacobianPattern,
    gamma_eq: tuple[int, ...],
) -> list[StageTask]:
    """The classified cells of stage k, one per block l = 1..p.

    cross_block_inputs lists the same-stage unknowns of higher-numbered
    blocks that the block's equations actually reach (columns adjacent to
    the block's rows in the Jacobian pattern); everything below stage k is
    implicit prior state.  A cell without equations is classified
    underdetermined and linear.
    """
    n = part.n
    c_pos = [offs.c[part.row_perm[pos]] for pos in range(n)]
    d_pos = [offs.d[part.col_perm[pos]] for pos in range(n)]
    pos_of_col = {j: pos for pos, j in enumerate(part.col_perm)}
    block_of_col = [0] * n
    for l, b in enumerate(part.blocks, start=1):
        for j in b.cols:
            block_of_col[j] = l
    cols_of_row: list[list[int]] = [[] for _ in range(n)]
    for i, j in pattern.s0:
        cols_of_row[i].append(j)
    out = []
    for l in range(1, part.p + 1):
        positions = part.block_positions(l)
        eqs = frozenset((pos, k + c_pos[pos]) for pos in positions if k + c_pos[pos] >= 0)
        unk = frozenset((pos, k + d_pos[pos]) for pos in positions if k + d_pos[pos] >= 0)
        reach = frozenset(
            (pos_of_col[j], k + offs.d[j])
            for i in part.blocks[l - 1].rows
            for j in cols_of_row[i]
            if block_of_col[j] > l and k + offs.d[j] >= 0
        )
        verdict = classify_stage(k, l, part, local, gamma_eq)
        det, lin = verdict or ("underdetermined", "linear")
        out.append(
            StageTask(
                stage=k,
                block=l,
                local_stage=k + local.lead_times[l - 1],
                equations=eqs,
                unknowns=unk,
                cross_block_inputs=reach,
                determinacy=det,
                linearity=lin,
            )
        )
    return out


def classify_stage(
    k: int,
    l: int,
    part: BlockPartition,
    local: LocalOffsets,
    gamma_eq: tuple[int, ...],
) -> tuple[str, str] | None:
    """(determinacy, linearity) of block l at stage k, or None when the
    block has no equations at all there (pure initialization range)."""
    positions = list(part.block_positions(l))
    k_l = k + local.lead_times[l - 1]
    if k_l < -max(local.c_hat[pos] for pos in positions):
        return None
    determinacy = "underdetermined" if k_l < 0 else "square"
    nonlinear = any(
        k_l + local.c_hat[pos] == 0 and gamma_eq[part.row_perm[pos]] == 0
        for pos in positions
    )
    return determinacy, "nonlinear" if nonlinear else "linear"


def basic_partition(n: int) -> BlockPartition:
    """Single-block partition: the whole system in source order."""
    idx = tuple(range(n))
    return BlockPartition(
        n=n, blocks=(Block(rows=idx, cols=idx),), row_perm=idx, col_perm=idx
    )


def basic_local(offs: GlobalOffsets) -> LocalOffsets:
    """Local offsets of the single-block view: the globals, lead time 0."""
    return LocalOffsets(c_hat=tuple(offs.c), d_hat=tuple(offs.d), lead_times=(0,))


def render_schedule(
    k_min: int,
    k_max: int,
    part: BlockPartition,
    offs: GlobalOffsets,
    local: LocalOffsets,
    gamma_eq: tuple[int, ...],
    pattern: JacobianPattern,
) -> Schedule:
    """Materialize the stage/block tasks for k in [k_min, k_max].

    A task is emitted whenever the cell has equations or unknowns; cells
    with unknowns but no equations are the initial-value slots.  Within a
    stage, tasks appear in solve order l = p..1.
    """
    tasks = []
    for k in range(k_min, k_max + 1):
        cells = stage_sets(k, part, offs, local, pattern, gamma_eq)
        tasks.extend(cell for cell in reversed(cells) if cell.equations or cell.unknowns)
    return Schedule(tasks=tuple(tasks))

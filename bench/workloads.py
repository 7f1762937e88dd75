"""The four workloads: seeded inputs and the ops the timed loop runs.

`build(name, seed, root, workdir)` returns the list of ops of one pass and
the checks of the analyses done at setup, to run once setup is timed.
Each op calls into the library through module attributes (so the tracer's
wrappers see the calls), returns its output, and knows how many items of
work a successful output represents, how to check it and how to digest it
for comparing later passes with the first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import jsonschema

import daestruct.analysis
import daestruct.cli
import daestruct.executor
import daestruct.parser

import checks
import gen


class OpFailed(Exception):
    """The CLI returned a non-zero exit code."""


@dataclass
class Op:
    label: str
    source: str  # model text plus parameters: what the library receives
    run: Callable[[], Any]
    items: Callable[[Any], int]
    check: Callable[[Any], None]
    digest: Callable[[Any], Any]
    counters: Callable[[Any], dict] = field(default=lambda out: {})


# -- analyze ---------------------------------------------------------------


def _mid_models(rng: random.Random) -> list[gen.Generated]:
    """Four families, twelve sizes each on a log ladder over 8..140."""
    per_family = []
    for family in ("tight_cascade", "slack_cascade", "lambda_chain", "random"):
        sizes = gen.size_ladder(rng, 8, 140, 12, log=True)
        models = []
        for n in sizes:
            if family == "tight_cascade":
                models.append(gen.cascade(n, tight=True))
            elif family == "slack_cascade":
                models.append(gen.cascade(n, tight=False))
            elif family == "lambda_chain":
                models.append(gen.pendulum_chain(rng, n // 3, "lambda"))
            else:
                models.append(gen.random_sparse(rng, n, (3, 5)))
        per_family.append(models)
    return [g for group in zip(*per_family) for g in group]  # rotate families


def _analyze_mid(seed: int, root: Path, workdir: Path, setup_checks: list) -> list[Op]:
    schema = json.loads((root / "docs" / "report-schema.json").read_text())
    validator = jsonschema.validators.validator_for(schema)(schema)
    # workdir must not exist yet: on ext4, replacing an existing file
    # (truncating it or renaming over it) can force its data to disk; 48
    # such writes took 3.5 s on a VM disk, against 1 ms for new files
    workdir.mkdir(parents=True)
    ops = []
    for k, g in enumerate(_mid_models(random.Random(seed))):
        path = workdir / ("m%02d.dae" % k)
        path.write_text(g.text, encoding="utf-8")

        def run(path=str(path)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = daestruct.cli.main(["analyze", path, "--format", "json"])
            if code != 0:
                raise OpFailed("daestruct analyze exited with %d" % code)
            return out.getvalue()

        def check(text, g=g):
            report = json.loads(text)
            validator.validate(report)
            checks.check_analysis(checks.facts_from_json(report), g)

        ops.append(
            Op(
                label="%s n=%d" % (g.family, g.n),
                source=g.text,
                run=run,
                items=lambda out, n=g.n: n,
                check=check,
                digest=lambda text: text,
                counters=lambda text: {"cli.report_bytes": len(text)},
            )
        )
    return ops


def _analysis_digest(a):
    return (a.hvt.assignment, a.offsets.c, a.offsets.d, tuple(b.rows for b in a.fine.blocks))


def _analyze_large(seed: int, root: Path, workdir: Path, setup_checks: list) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in (128, 256, 512, 1024):
        for g in (
            gen.cascade(n, tight=True),
            gen.pendulum_chain(rng, n // 3, "tight"),
            gen.random_sparse(rng, n, (4, 4)),
        ):

            def run(text=g.text):
                model = daestruct.parser.parse_model(text)
                return daestruct.analysis.analyze(model)

            ops.append(
                Op(
                    label="%s n=%d" % (g.family, g.n),
                    source=g.text,
                    run=run,
                    items=lambda a: a.model.n,
                    check=lambda a, g=g: checks.check_analysis(checks.facts_from_analysis(a), g),
                    digest=_analysis_digest,
                )
            )
    return ops


# -- solve -------------------------------------------------------------------

# models/two_pendula.dae, read off the equations by hand
TWO_PENDULA_SIGMA = [
    {0: 2, 2: 0},
    {0: 1, 1: 2, 2: 0},
    {0: 0, 1: 0},
    {3: 2, 5: 0},
    {4: 3, 5: 0},
    {2: 2, 3: 0, 4: 0},
]


def _prepared(g: gen.Generated, setup_checks: list):
    """Parse and analyze at setup; the analysis is checked like any output,
    after setup is timed."""
    model = daestruct.parser.parse_model(g.text)
    a = daestruct.analysis.analyze(model)
    setup_checks.append(
        ("setup analysis %s n=%d" % (g.family, g.n),
         lambda: checks.check_analysis(checks.facts_from_analysis(a), g))
    )
    return a


def _perturbed_init(rng: random.Random, a, g: gen.Generated, noise: float):
    """Values and guesses for the analysis' initialization sets, drawn from
    the generator's point plus seeded noise."""
    values, guesses = {}, {}
    for key in sorted(a.init_fine.values | a.init_fine.guesses):
        v = g.point.get(key, 0.0) + rng.uniform(-noise, noise)
        (values if key in a.init_fine.values else guesses)[key] = v
    return values, guesses


def _solve_op(g: gen.Generated, a, values, guesses, K: int) -> Op:
    def run():
        return daestruct.executor.solve_to_order(a, values, guesses, K)

    def check(rep):
        checks.check_solution(a, K, rep.derivatives)
        if g.family.endswith("cascade"):
            checks.check_exp_head(rep.derivatives, values[(0, 0)], K)

    return Op(
        label="%s n=%d K=%d" % (g.family, g.n, K),
        source="%s\nK=%d\nvalues=%r\nguesses=%r" % (g.text, K, values, guesses),
        run=run,
        items=lambda rep: len(rep.derivatives),
        check=check,
        digest=lambda rep: tuple(sorted(rep.derivatives.items())),
    )


def _solve_wide(seed: int, root: Path, workdir: Path, setup_checks: list) -> list[Op]:
    """Pendulum chains of 10..47 pendulums at K = 0, 1, 2."""
    rng = random.Random(seed)
    sizes = gen.size_ladder(rng, 10, 47, 12, log=False)
    first = rng.choice(("slack", "tight"))
    ops = []
    for k, pendulums in enumerate(sizes):
        coupling = first if k % 2 == 0 else ("tight" if first == "slack" else "slack")
        g = gen.pendulum_chain(rng, pendulums, coupling, nonlinear_every=3)
        a = _prepared(g, setup_checks)
        values, guesses = _perturbed_init(rng, a, g, 0.01)
        ops += [_solve_op(g, a, values, guesses, K) for K in (0, 1, 2)]
    return ops


def _solve_deep(seed: int, root: Path, workdir: Path, setup_checks: list) -> list[Op]:
    """two_pendula, a tight chain of three pendulums and two cascades of 20
    equations, each at four orders K on a ladder over 60..160."""
    rng = random.Random(seed)
    tp_text = (root / "models" / "two_pendula.dae").read_text()
    tp = gen.Generated("two_pendula", 6, tp_text, TWO_PENDULA_SIGMA)
    tp_a = _prepared(tp, setup_checks)
    init_text = (root / "models" / "two_pendula.init").read_text()
    tp_init = daestruct.cli.parse_init_file(init_text, tp_a.model)

    chain = gen.pendulum_chain(rng, 3, "tight")
    chain_a = _prepared(chain, setup_checks)
    chain_init = _perturbed_init(rng, chain_a, chain, 0.01)
    prepared = [(tp, tp_a, tp_init), (chain, chain_a, chain_init)]
    for tight in (True, False):
        g = gen.cascade(20, tight)
        values = {(j, 0): rng.uniform(0.5, 1.5) for j in range(g.n)}
        prepared.append((g, _prepared(g, setup_checks), (values, {})))

    ops = []
    orders = gen.size_ladder(rng, 60, 160, 4, log=False)
    for K in orders:
        for g, a, (values, guesses) in prepared:
            ops.append(_solve_op(g, a, values, guesses, K))
    return ops


WORKLOADS = {
    "analyze_mid": _analyze_mid,
    "analyze_large": _analyze_large,
    "solve_wide": _solve_wide,
    "solve_deep": _solve_deep,
}


def build(name: str, seed: int, root: Path, workdir: Path) -> tuple[list[Op], list]:
    """The ops of one pass, and (label, check) pairs for the analyses made
    at setup.  Model files, if any, go into workdir, which must not exist."""
    setup_checks: list = []
    ops = WORKLOADS[name](seed, root, workdir, setup_checks)
    return ops, setup_checks

"""Straight-line expression IR for DAE models.

A model is a square system f_i(t, x_1..x_n and derivatives) = 0.  Every
equation is compiled to a code list: a flat, topologically ordered sequence
of nodes.  Node 0 is the time variable, nodes 1..n are the state variables,
and each equation contributes a contiguous run of operation nodes ending in
its output node.  No algebraic simplification is ever performed; the list
mirrors the source expression operation for operation (formal dependence is
what the structural analysis consumes).
"""

from __future__ import annotations

from dataclasses import dataclass


class ModelError(Exception):
    """Problem constructing a model (parse or builder misuse)."""


UNARY_OPS = ("neg", "sin", "cos", "exp", "log", "sqrt", "identity")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")


@dataclass(frozen=True)
class InputTime:
    pass


@dataclass(frozen=True)
class InputVar:
    j: int  # state variable index, 0-based


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Unary:
    op: str
    arg: int


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: int
    rhs: int  # for "pow" this must reference a Const with integer value


@dataclass(frozen=True)
class Deriv:
    arg: int
    p: int  # order of d^p/dt^p, p >= 0


Node = InputTime | InputVar | Const | Unary | Binary | Deriv


@dataclass(frozen=True)
class CodeList:
    nodes: tuple[Node, ...]
    n: int
    output_indices: tuple[int, ...]  # one per equation, ascending

    def operands(self, r: int) -> tuple[int, ...]:
        node = self.nodes[r]
        if isinstance(node, Unary):
            return (node.arg,)
        if isinstance(node, Binary):
            return (node.lhs, node.rhs)
        if isinstance(node, Deriv):
            return (node.arg,)
        return ()

    def equation_nodes(self, i: int) -> range:
        """Indices of the nodes appended for equation i (its sub-list)."""
        start = self.n + 1 if i == 0 else self.output_indices[i - 1] + 1
        return range(start, self.output_indices[i] + 1)

    def cone(self, r: int) -> set[int]:
        """All node indices the node r transitively depends on (incl. r)."""
        seen = {r}
        todo = [r]
        while todo:
            for q in self.operands(todo.pop()):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return seen


@dataclass(frozen=True)
class DaeModel:
    variable_names: tuple[str, ...]
    equation_names: tuple[str, ...]
    constants: dict[str, float]
    codelist: CodeList

    @property
    def n(self) -> int:
        return self.codelist.n

    def variable_index(self, name: str) -> int:
        return self.variable_names.index(name)


class Expr:
    """Expression handle produced by a ModelBuilder.

    Supports the usual operators; every operation appends one node to the
    builder's code list, so writing an expression twice records it twice.
    """

    __slots__ = ("builder", "index")

    def __init__(self, builder: "ModelBuilder", index: int):
        self.builder = builder
        self.index = index

    def _bin(self, op, other, swap=False):
        b = self.builder
        other = b._coerce(other)
        lhs, rhs = (other, self) if swap else (self, other)
        return b._emit(Binary(op, lhs.index, rhs.index))

    def __add__(self, other):
        return self._bin("add", other)

    def __radd__(self, other):
        return self._bin("add", other, swap=True)

    def __sub__(self, other):
        return self._bin("sub", other)

    def __rsub__(self, other):
        return self._bin("sub", other, swap=True)

    def __mul__(self, other):
        return self._bin("mul", other)

    def __rmul__(self, other):
        return self._bin("mul", other, swap=True)

    def __truediv__(self, other):
        return self._bin("div", other)

    def __rtruediv__(self, other):
        return self._bin("div", other, swap=True)

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            raise ModelError("power exponent must be an integer, got %r" % (k,))
        b = self.builder
        c = b._emit(Const(float(k)))
        return b._emit(Binary("pow", self.index, c.index))

    def __neg__(self):
        return self.builder._emit(Unary("neg", self.index))

    def der(self, p: int) -> "Expr":
        if not isinstance(p, int) or p < 0:
            raise ModelError("derivative order must be a nonnegative integer")
        return self.builder._emit(Deriv(self.index, p))


def der(e: Expr, p: int) -> Expr:
    return e.der(p)


def _unary_fn(op):
    def fn(e: Expr) -> Expr:
        return e.builder._emit(Unary(op, e.index))

    fn.__name__ = op
    return fn


sin = _unary_fn("sin")
cos = _unary_fn("cos")
exp = _unary_fn("exp")
log = _unary_fn("log")
sqrt = _unary_fn("sqrt")


class ModelBuilder:
    """Operator-overloading construction of a DaeModel.

    Declare all variables first, then record equations.  An equation given
    as a single expression e means e = 0; the two-argument form records
    lhs - rhs.  The produced code list is identical to what the text parser
    emits for the same source.
    """

    def __init__(self):
        self._var_names: list[str] = []
        self._eq_names: list[str] = []
        self._outputs: list[int] = []
        self._nodes: list[Node] = [InputTime()]
        self._frozen_vars = False
        self._constants: dict[str, float] = {}

    # -- declarations ------------------------------------------------

    def variables(self, *names: str) -> list[Expr]:
        if self._frozen_vars:
            raise ModelError("all variables must be declared before equations")
        out = []
        for name in names:
            if name in self._var_names:
                raise ModelError("duplicate variable name %r" % name)
            self._var_names.append(name)
            self._nodes.append(InputVar(len(self._var_names) - 1))
            out.append(Expr(self, len(self._nodes) - 1))
        return out

    def variable(self, name: str) -> Expr:
        return self.variables(name)[0]

    @property
    def time(self) -> Expr:
        self._freeze()
        return Expr(self, 0)

    def constant(self, name: str, value: float) -> float:
        """Record a named constant (folded into Const nodes on use)."""
        if name in self._constants:
            raise ModelError("duplicate constant name %r" % name)
        self._constants[name] = float(value)
        return self._constants[name]

    def lit(self, value: float) -> Expr:
        """A constant as an expression node (for literal-op-literal forms
        that plain Python arithmetic would fold before the builder sees
        them, e.g. lit(L)**2)."""
        return self._coerce(float(value))

    # -- internals ---------------------------------------------------

    def _freeze(self):
        if not self._frozen_vars:
            if not self._var_names:
                raise ModelError("no variables declared")
            self._frozen_vars = True

    def _emit(self, node: Node) -> Expr:
        self._freeze()
        for ref in _node_refs(node):
            if not (0 <= ref < len(self._nodes)):
                raise ModelError("expression references an unknown node")
        self._nodes.append(node)
        return Expr(self, len(self._nodes) - 1)

    def _coerce(self, value) -> Expr:
        if isinstance(value, Expr):
            if value.builder is not self:
                raise ModelError("expression belongs to a different builder")
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return self._emit(Const(float(value)))
        raise ModelError("cannot use %r in an expression" % (value,))

    # -- equations ---------------------------------------------------

    def equation(self, name: str, lhs, rhs=None) -> None:
        """Record equation `lhs = rhs` (or `lhs = 0` when rhs is omitted)."""
        self._freeze()
        if name in self._eq_names:
            raise ModelError("duplicate equation name %r" % name)
        lhs = self._coerce(lhs)
        if rhs is None or (isinstance(rhs, (int, float)) and float(rhs) == 0.0):
            out = self._emit(Unary("identity", lhs.index))
        else:
            out = self._bin_sub(lhs, self._coerce(rhs))
        self._eq_names.append(name)
        self._outputs.append(out.index)

    def _bin_sub(self, lhs: Expr, rhs: Expr) -> Expr:
        return self._emit(Binary("sub", lhs.index, rhs.index))

    def build(self) -> DaeModel:
        self._freeze()
        n = len(self._var_names)
        if len(self._eq_names) == 0:
            raise ModelError("no equations recorded")
        if len(self._eq_names) != n:
            raise ModelError(
                "%d variables but %d equations" % (n, len(self._eq_names))
            )
        model = DaeModel(
            variable_names=tuple(self._var_names),
            equation_names=tuple(self._eq_names),
            constants=dict(self._constants),
            codelist=CodeList(
                nodes=tuple(self._nodes),
                n=n,
                output_indices=tuple(self._outputs),
            ),
        )
        problems = validate_model(model)
        if problems:
            raise ModelError("; ".join(problems))
        return model


def _node_refs(node: Node) -> tuple[int, ...]:
    if isinstance(node, Unary):
        return (node.arg,)
    if isinstance(node, Binary):
        return (node.lhs, node.rhs)
    if isinstance(node, Deriv):
        return (node.arg,)
    return ()


def validate_model(model: DaeModel) -> list[str]:
    """Structural diagnostics; empty list means the model is well formed."""
    out: list[str] = []
    cl = model.codelist
    n = cl.n
    if len(model.variable_names) != n:
        out.append("variable name count does not match n")
    if len(model.equation_names) != len(cl.output_indices):
        out.append("equation name count does not match output count")
    if len(cl.output_indices) != n:
        out.append(
            "system is not square: %d variables but %d equations"
            % (n, len(cl.output_indices))
        )
    if len(set(model.variable_names)) != len(model.variable_names):
        out.append("duplicate variable name")
    if len(set(model.equation_names)) != len(model.equation_names):
        out.append("duplicate equation name")

    if len(cl.nodes) < n + 1 or not isinstance(cl.nodes[0], InputTime):
        out.append("code list must start with the time node")
        return out
    for j in range(n):
        node = cl.nodes[1 + j]
        if not isinstance(node, InputVar) or node.j != j:
            out.append("code list slot %d must be input variable %d" % (1 + j, j))
    for r in range(n + 1, len(cl.nodes)):
        node = cl.nodes[r]
        if isinstance(node, (InputTime, InputVar)):
            out.append("input node at position %d after the input prefix" % r)
        for ref in _node_refs(node):
            if not (0 <= ref < r):
                out.append(
                    "node %d references node %d (forward reference or cycle)"
                    % (r, ref)
                )
        if isinstance(node, Unary) and node.op not in UNARY_OPS:
            out.append("node %d: unknown unary op %r" % (r, node.op))
        if isinstance(node, Binary):
            if node.op not in BINARY_OPS:
                out.append("node %d: unknown binary op %r" % (r, node.op))
            elif node.op == "pow":
                exp_node = cl.nodes[node.rhs] if 0 <= node.rhs < r else None
                if not (
                    isinstance(exp_node, Const)
                    and float(exp_node.value).is_integer()
                ):
                    out.append("node %d: pow exponent is not an integer constant" % r)
        if isinstance(node, Deriv) and node.p < 0:
            out.append("node %d: negative derivative order" % r)

    prev = n
    for i, oi in enumerate(cl.output_indices):
        if not (n < oi < len(cl.nodes)):
            out.append("output %d is not an operation node" % i)
        elif oi <= prev:
            out.append("output %d does not terminate its own sub-list" % i)
        prev = max(prev, oi)
    if cl.output_indices and cl.output_indices[-1] != len(cl.nodes) - 1:
        out.append("trailing nodes after the last output")
    return out


# -- rendering (inverse of the parser) --------------------------------

_FN_NAMES = {"sin": "sin", "cos": "cos", "exp": "exp", "log": "log", "sqrt": "sqrt"}

# precedence levels: additive 1, multiplicative 2, unary 3, power 4, atom 5


def _render_node(cl: CodeList, names, r: int, level: int) -> str:
    node = cl.nodes[r]
    if isinstance(node, InputTime):
        return "t"
    if isinstance(node, InputVar):
        return names[node.j]
    if isinstance(node, Const):
        v = node.value
        text = repr(v)
        return _paren(text, 3, level) if v < 0 else text
    if isinstance(node, Deriv):
        return "Der(%s, %d)" % (_render_node(cl, names, node.arg, 1), node.p)
    if isinstance(node, Unary):
        if node.op == "identity":
            return _render_node(cl, names, node.arg, level)
        if node.op == "neg":
            return _paren("-" + _render_node(cl, names, node.arg, 3), 3, level)
        return "%s(%s)" % (_FN_NAMES[node.op], _render_node(cl, names, node.arg, 1))
    assert isinstance(node, Binary)
    if node.op == "pow":
        k = int(cl.nodes[node.rhs].value)
        return _paren(
            "%s^%d" % (_render_node(cl, names, node.lhs, 5), k), 4, level
        )
    sym, lvl = {"add": (" + ", 1), "sub": (" - ", 1), "mul": ("*", 2), "div": ("/", 2)}[
        node.op
    ]
    text = (
        _render_node(cl, names, node.lhs, lvl)
        + sym
        + _render_node(cl, names, node.rhs, lvl + 1)
    )
    return _paren(text, lvl, level)


def _paren(text: str, have: int, need: int) -> str:
    return "(" + text + ")" if have < need else text


def render_model(model: DaeModel) -> str:
    """Model source text that reparses to a structurally identical code list.

    Named constants were folded at construction, so they reappear as numeric
    literals.  Only models whose outputs are identity or sub nodes (the two
    forms the parser and builder emit) are renderable.
    """
    cl = model.codelist
    lines = ["var %s;" % ", ".join(model.variable_names)]
    for i, name in enumerate(model.equation_names):
        out = cl.nodes[cl.output_indices[i]]
        if isinstance(out, Unary) and out.op == "identity":
            text = _render_node(cl, model.variable_names, out.arg, 1) + " = 0"
        elif isinstance(out, Binary) and out.op == "sub":
            text = "%s = %s" % (
                _render_node(cl, model.variable_names, out.lhs, 1),
                _render_node(cl, model.variable_names, out.rhs, 1),
            )
        else:
            raise ModelError("equation %r is not renderable" % name)
        lines.append("eq %s: %s;" % (name, text))
    return "\n".join(lines) + "\n"

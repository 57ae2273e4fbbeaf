"""Only the run loop moves a simulator's clock.

``Simulator.now`` is a plain attribute that every component reads on every
event, so nothing but this test stops code from assigning it.  In
``repro.sim.engine`` the ``Simulator`` methods named in ``CLOCK_WRITERS``
set it (the start time, and each popped event's time or the horizon); no
other code may.  The test reads every assignment, augmented assignment,
deletion and ``setattr(..., "now", ...)`` from each module's syntax tree and
fails on any that writes ``.now`` through an expression naming a simulator
(``sim``, ``self.sim``, ``ctx.sim``, ``simulator``, ``self._sim``, ...).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: the ``Simulator`` methods in ``repro.sim.engine`` that may set ``now``
CLOCK_WRITERS = {"__init__", "step", "run"}


def _names_simulator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name.lstrip("_") in ("sim", "simulator")


def _targets(node: ast.AST):
    """The expressions ``node`` stores to or deletes."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
        stack = [node.target]
    elif isinstance(node, ast.Delete):
        stack = list(node.targets)
    elif isinstance(node, ast.withitem) and node.optional_vars is not None:
        stack = [node.optional_vars]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def _clock_writes(source: str):
    """``(class, function, line, receiver)`` of every write of ``.now`` on
    a simulator in ``source``: through a simulator's name, or through
    ``self`` inside a class named ``Simulator``."""
    writes = []

    def visit(node: ast.AST, cls: str, func: str) -> None:
        receivers = [
            target.value
            for target in _targets(node)
            if isinstance(target, ast.Attribute) and target.attr == "now"
        ]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "now"
        ):
            receivers.append(node.args[0])
        for receiver in receivers:
            own_clock = (
                cls == "Simulator"
                and isinstance(receiver, ast.Name)
                and receiver.id == "self"
            )
            if own_clock or _names_simulator(receiver):
                writes.append((cls, func, receiver.lineno, ast.unparse(receiver)))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, "")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                visit(child, cls, func)

    visit(ast.parse(source), "", "")
    return writes


def test_only_the_run_loop_writes_the_clock():
    engine = SRC / "repro" / "sim" / "engine.py"
    stray = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for cls, func, line, receiver in _clock_writes(path.read_text("utf-8")):
            allowed = (
                path == engine
                and cls == "Simulator"
                and func in CLOCK_WRITERS
                and receiver == "self"
            )
            if not allowed:
                name = path.relative_to(SRC).as_posix()
                stray[f"{name}:{line}"] = f"{receiver}.now in {cls}.{func}"
    assert stray == {}
    # The walk must see the loop's own writes.
    engine_writes = _clock_writes(engine.read_text("utf-8"))
    assert {func for _, func, _, _ in engine_writes} == CLOCK_WRITERS


def test_the_walk_finds_every_form_of_write():
    source = (
        "def f(sim, ctx, self, profile):\n"
        "    sim.now = 1.0\n"
        "    ctx.sim.now += 2.0\n"
        "    self._sim.now, other = 3.0, 4\n"
        "    setattr(ctx.simulator, 'now', 5.0)\n"
        "    del sim.now\n"
        "    profile.now = 6.0\n"
        "    with open(path) as ctx.sim.now:\n"
        "        pass\n"
        "class Simulator:\n"
        "    def peek(self):\n"
        "        self.now = 7.0\n"
    )
    found = [
        (line, func, receiver) for _, func, line, receiver in _clock_writes(source)
    ]
    assert sorted(found) == [
        (2, "f", "sim"), (3, "f", "ctx.sim"), (4, "f", "self._sim"),
        (5, "f", "ctx.simulator"), (6, "f", "sim"), (8, "f", "ctx.sim"),
        (12, "peek", "self"),
    ]

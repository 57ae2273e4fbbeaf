"""Only the CLI and the runner import ``repro.obs`` from outside it.

Observability is a sidecar.  The simulated world (kernel, federation,
behaviours, workloads), the measurement pipeline, the experiments and the
store never import it: components keep their counters as plain attributes,
and the kernel takes its tracer through a duck-typed slot.  The runner
imports :func:`~repro.obs.trace.traced_simulation` lazily in
``repro.runner.parallel`` when a task's simulations are traced, and the CLI
(``repro.__main__``) builds the telemetry sidecar and renders its views.
Every import statement counts, function-level ones included, so the test
reads them from each module's syntax tree.
"""

import ast
from importlib.util import resolve_name
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: the modules outside ``repro.obs`` that may import it
OBS_IMPORTERS = {"repro.__main__", "repro.runner.parallel"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_names(path: Path, module: str):
    """Absolute name of every module or member an import statement names."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = resolve_name("." * node.level + (node.module or ""), package)
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _is_obs(name: str) -> bool:
    return name == "repro.obs" or name.startswith("repro.obs.")


def test_only_the_cli_and_the_runner_import_obs():
    importers = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if _is_obs(module):
            continue
        names = sorted(
            {name for name in _imported_names(path, module) if _is_obs(name)}
        )
        if names:
            importers[module] = names
    outside = {
        module: names
        for module, names in importers.items()
        if module not in OBS_IMPORTERS
    }
    assert outside == {}
    # The runner's import sits inside a function: the walk must see it.
    assert "repro.obs.trace" in importers["repro.runner.parallel"]

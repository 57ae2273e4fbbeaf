"""Every ``repro`` module imports with only the declared dependencies present.

``pyproject.toml`` declares numpy, plus pytest, hypothesis, pytest-benchmark
and pyyaml as the ``test`` extra.  A package that happens to be installed
here but is not declared would be missing on a clean ``pip install -e
.[test]``, so the test imports every module in a fresh interpreter behind a
``sys.meta_path`` finder that refuses, for imports made by ``repro`` code,
any top-level module outside the standard library and those declarations.
Imports made by a declared package itself are its own dependencies and
pass.  A fresh interpreter matters: modules this test process has already
imported would otherwise be served from ``sys.modules`` past the finder.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_GUARDED_IMPORT_OF_EVERY_MODULE = """
import importlib
import pkgutil
import sys

DECLARED = {"repro", "numpy", "pytest", "hypothesis", "pytest_benchmark", "yaml"}
ALLOWED = set(sys.stdlib_module_names) | DECLARED


class DeclaredOnly:
    def find_spec(self, name, path=None, target=None):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__", "").startswith(
            ("importlib", "_frozen_importlib")
        ):
            frame = frame.f_back
        importer = frame.f_globals.get("__name__", "")
        top = name.partition(".")[0]
        if importer.partition(".")[0] == "repro" and top not in ALLOWED:
            raise ModuleNotFoundError(
                f"{importer} imports {name!r}, which pyproject.toml does not "
                f"declare", name=name,
            )
        return None


sys.meta_path.insert(0, DeclaredOnly())
sys.path.insert(0, sys.argv[1])
import repro

failures = []
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    try:
        importlib.import_module(info.name)
    except ImportError as exc:
        failures.append(f"{info.name}: {exc}")
print("\\n".join(failures))
sys.exit(1 if failures else 0)
"""


def test_every_module_imports_from_declared_dependencies_only():
    completed = subprocess.run(
        [sys.executable, "-c", _GUARDED_IMPORT_OF_EVERY_MODULE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr

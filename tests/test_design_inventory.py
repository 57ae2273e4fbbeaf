"""DESIGN.md §2 lists the modules in the tree; the docs name only real files.

A §2 row names one module by its path under ``src/``, or a directory
(``repro/runner/``) and then that directory's modules by file name.
Package ``__init__.py`` files need no row.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CODE = re.compile(r"`([^`]+)`")
#: A ``.py`` path with at least one directory: ``examples/quickstart.py``.
PY_PATH = re.compile(r"[\w./-]+/[\w.-]+\.py\b")


def design_section_2() -> str:
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    start = text.index("\n## 2. ")
    return text[start:text.index("\n## 3. ", start)]


def named_in_section_2() -> set[str]:
    """The module paths (relative to ``src/``) that §2's rows name."""
    named = set()
    for line in design_section_2().splitlines():
        if not line.startswith("| `"):
            continue
        cells = line.strip().strip("|").split("|")
        assert len(cells) == 2, f"a §2 row needs two cells: {line}"
        (path,) = CODE.findall(cells[0])
        if path.endswith("/"):
            named.update(
                path + name
                for name in CODE.findall(cells[1])
                if name.endswith(".py") and "/" not in name
            )
        else:
            named.add(path)
    return named


def test_every_module_has_a_row_in_design_section_2():
    modules = {
        path.relative_to(SRC).as_posix()
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    assert sorted(modules - named_in_section_2()) == []


def test_every_named_python_file_exists():
    named = {("DESIGN.md §2", path) for path in named_in_section_2()}
    named |= {("DESIGN.md §2", path) for path in PY_PATH.findall(design_section_2())}
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = doc.read_text(encoding="utf-8")
        named |= {(doc.name, path) for path in PY_PATH.findall(text)}
    missing = sorted(
        (doc, path)
        for doc, path in named
        if not any(
            (base / path).is_file() for base in (ROOT, SRC, SRC / "repro")
        )
    )
    assert missing == []

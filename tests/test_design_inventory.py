"""DESIGN.md §2 lists the modules in the tree; the docs name only real
files and registered experiments.

A §2 row names one module by its path under ``src/``, or a directory
(``repro/runner/``) and then that directory's modules by file name.
Package ``__init__.py`` files need no row.  Fenced code blocks may show
illustrative experiment ids (a ``T9`` written as an example).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CODE = re.compile(r"`([^`]+)`")
#: A ``.py`` path with at least one directory: ``examples/quickstart.py``.
PY_PATH = re.compile(r"[\w./-]+/[\w.-]+\.py\b")
#: An experiment id: ``T1``, ``F9``, ``A5``, ``R1``.
EXPERIMENT_ID = re.compile(r"\b[TFAR]\d+\b")


def docs() -> list[Path]:
    """DESIGN.md, README.md and every page of ``docs/``."""
    pages = sorted((ROOT / "docs").glob("*.md"))
    return [ROOT / "DESIGN.md", ROOT / "README.md", *pages]


def outside_code_fences(text: str) -> str:
    kept, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            kept.append(line)
    return "\n".join(kept)


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


def test_every_named_experiment_is_registered():
    from repro.experiments import registry

    unknown = sorted(
        (doc.name, experiment_id)
        for doc in docs()
        for experiment_id in EXPERIMENT_ID.findall(
            outside_code_fences(doc.read_text(encoding="utf-8"))
        )
        if experiment_id not in registry
    )
    assert unknown == []

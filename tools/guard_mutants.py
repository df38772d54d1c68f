"""List the guards that no test catches.

Each ``raise`` of a ``DomainError`` subclass in ``src/phaselab`` becomes ``pass``, one
mutant at a time, in a copy of the checkout. A mutant runs its module's own test file
(``tests/test_<module>.py``, where there is one) first, and the whole suite only if that
passes; a mutant that the whole suite passes too is a survivor. A run that times out
counts as caught (``TIMEOUT`` seconds per run). The unchanged copy must pass the whole
suite first, or nothing is run.

    python tools/guard_mutants.py [module ...]

With no module it mutates every module of the package. It prints one line per site and
then every survivor, and exits 1 if there is one (2 if the unchanged copy fails). The copy
is made in a new temporary directory and removed at the end; the checkout is never edited.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "phaselab"
COPIED = ("src", "tests", "perfbench", "tools", "pyproject.toml")
TIMEOUT = 1800.0


def error_classes(errors_source: str) -> set[str]:
    """``DomainError`` and the name of every class in errors.py derived from it."""
    classes = [node for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    names, grown = {"DomainError"}, True
    while grown:
        found = {c.name for c in classes
                 if any(isinstance(b, ast.Name) and b.id in names for b in c.bases)}
        grown = not found <= names
        names |= found
    return names


def _raised_name(exc: ast.expr) -> str | None:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def guard_sites(source: str, errors: set[str]) -> list[ast.Raise]:
    """Every ``raise E(...)`` (or ``raise E``) in source with E one of errors, in order."""
    sites = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node.exc) in errors]
    return sorted(sites, key=lambda node: (node.lineno, node.col_offset))


def mutant(source: str, site: ast.Raise) -> str:
    """source with the raise statement at site replaced by ``pass``. The offsets of ast are
    in UTF-8 bytes, so the cut is made on the encoded lines."""
    lines = source.encode().splitlines(keepends=True)
    first, last = site.lineno - 1, site.end_lineno - 1
    cut = [lines[first][: site.col_offset], b"pass", lines[last][site.end_col_offset:]]
    text = b"".join([*lines[:first], *cut, *lines[last + 1:]]).decode()
    ast.parse(text)
    return text


def _passes(work: Path, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(modules: list[str]) -> int:
    """Run the mutants of ``modules`` (names such as phase_filters; all of them if empty)."""
    errors = error_classes((ROOT / PACKAGE / "errors.py").read_text())
    modules = modules or sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py"))
    work = Path(tempfile.mkdtemp(prefix="guard-mutants-"))
    survivors = []
    try:
        skip = shutil.ignore_patterns("__pycache__", "_work", "results")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name, ignore=skip)
            else:
                shutil.copy2(ROOT / name, work / name)
        if not _passes(work, []):
            print("the unchanged copy fails the suite: no mutant is run")
            return 2
        for module in modules:
            path = work / PACKAGE / f"{module}.py"
            source = path.read_text()
            own = [f"tests/test_{module}.py"]
            own = own if (work / own[0]).exists() else []
            for site in guard_sites(source, errors):
                label = f"{module}.py:{site.lineno} {_raised_name(site.exc)}"
                path.write_text(mutant(source, site))
                try:
                    if own and not _passes(work, own):
                        verdict = "caught by its module's tests"
                    elif not _passes(work, []):
                        verdict = "caught by the suite"
                    else:
                        verdict = "SURVIVED"
                        survivors.append(label)
                finally:
                    path.write_text(source)
                print(f"{label}: {verdict}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(survivors)} survivor(s)" + "".join(f"\n  {label}" for label in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

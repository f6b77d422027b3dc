"""Every module-level import in the package, the scripts and the tests is used, or says why it is kept."""

import ast
from pathlib import Path

import koszulrank

PACKAGE = Path(koszulrank.__file__).resolve().parent
ROOT = PACKAGE.parent.parent


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1 : node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return unused


def test_no_unused_module_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert modules and scripts and tests
    modules += scripts + tests
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, "unused imports (mark deliberate re-exports with # noqa: F401): " + ", ".join(unused)

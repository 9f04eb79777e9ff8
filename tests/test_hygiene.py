"""Source hygiene: every name a package module imports is used in it.

Checked with the standard-library ``ast`` module only.  ``__init__.py`` is
exempt, because its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import quivertilt

PACKAGE_DIR = Path(quivertilt.__file__).parent


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import, at any depth, that no
    expression of the module reads; an attribute chain reads its root."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector_sees_plain_and_aliased_names():
    src = ("import os\nfrom a import b, c as d\nfrom e import f\n"
           "def g():\n    from h import i\n    return f(os.sep)\n")
    assert unused_imports(src) == [(2, "b"), (2, "d"), (5, "i")]


def test_no_unused_imports_in_package_modules():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.name}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)

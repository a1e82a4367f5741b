"""The package root exports exactly what the README's library example imports."""
import ast
import re
import types
from pathlib import Path

import qdc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_root_names_are_the_readme_imports():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", text, re.S)
    (stmt,) = [
        node
        for node in ast.parse(block).body
        if isinstance(node, ast.ImportFrom) and node.module == "qdc"
    ]
    documented = {alias.name for alias in stmt.names}
    public = {
        name
        for name, value in vars(qdc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert documented == public
    namespace = {}
    exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
    assert all(namespace[name] is getattr(qdc, name) for name in documented)

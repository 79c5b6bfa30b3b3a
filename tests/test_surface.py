"""Guard on the package surface: every public function, class and method of
``src/sjclab`` has a caller in the package, or is an ``sjclab`` export
that README documents.  Code that only the tests use lives under ``tests/``.
"""

import ast
from pathlib import Path

import sjclab

SRC = Path(sjclab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Public top-level functions and classes, and public methods (as ``Class.name``),
    that no code in ``sources`` refers to outside their own body.

    A top-level name is referenced by a bare name or an attribute ``.name``, a
    method by an attribute ``.name``; imports are not references.
    """
    defs, refs = [], []
    for path, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, FUNCS + (ast.ClassDef,)):
                defs.append((node.name, {node.name, "." + node.name}, path, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", {"." + m.name}, path, m) for m in node.body if isinstance(m, FUNCS)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append(("." + node.attr, path, node.lineno))
    return [
        name
        for name, keys, path, node in defs
        if not name.rsplit(".", 1)[-1].startswith("_")
        and not any(k in keys and not (p == path and node.lineno <= line <= node.end_lineno) for k, p, line in refs)
    ]


def test_scanner_finds_a_dead_function():
    sources = {
        "a.py": (
            "def used():\n    return 1\n\n\n"
            "def dead(n):\n    return dead(n - 1) if n else used\n\n\n"
            "class Box:\n    def open(self):\n        return used()\n"
        ),
        "b.py": "from a import Box, dead\n\nBox().open()\n",
    }
    assert unreferenced(sources) == ["dead"]


def test_every_public_name_is_called_in_src_or_exported():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name in unreferenced(sources) if name not in sjclab.__all__] == []


def test_all_is_an_explicit_list_of_documented_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    (value,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "__all__"]
    assert isinstance(value, ast.List) and all(isinstance(e, ast.Constant) for e in value.elts)
    assert [e.value for e in value.elts] == sjclab.__all__
    assert len(set(sjclab.__all__)) == len(sjclab.__all__) and all(hasattr(sjclab, n) for n in sjclab.__all__)
    assert [name for name in sjclab.__all__ if (SRC / f"{name}.py").exists()] == []
    readme = README.read_text()
    assert [name for name in sjclab.__all__ if f"`{name}`" not in readme] == []

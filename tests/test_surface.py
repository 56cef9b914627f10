"""The public surface is declared once, in darlington/__init__.py, and is what
README.md documents."""

import ast
import re
from pathlib import Path

import darlington

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "darlington"


def test_every_export_is_documented_and_importable():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(set(darlington.__all__)) == len(darlington.__all__)
    for name in darlington.__all__:
        # in backticks on its own or as the start of a call: `lift` or `lift(f)`
        assert re.search(r"`%s[`(]" % re.escape(name), readme), name
        assert hasattr(darlington, name), name
    namespace = {}
    exec("from darlington import *", namespace)
    assert set(darlington.__all__) <= set(namespace)


def test_no_module_declares_its_own_surface():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
            assert not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets), path


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["pass", "lft 1.0"]

"""The demo scripts run end to end and use only the public surface."""

import ast
import inspect
import os
import re
import subprocess
import sys

import pslet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def test_expansion_anatomy_prints_the_ladder():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, "expansion_anatomy.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.strip().startswith("[9/10]") for line in proc.stdout.splitlines())


def _documented_sources():
    """(where, source) for each README Python block and each demo script."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {i}", block
    for name in sorted(os.listdir(DEMOS)):
        if name.endswith(".py"):
            with open(os.path.join(DEMOS, name)) as fh:
                yield f"demos/{name}", fh.read()


def _root_imports(source):
    """Names imported by `from pslet import ...` in one source text."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "pslet" and node.level == 0
        for alias in node.names
    ]


def test_public_surface_is_what_the_docs_use():
    documented = set()
    for where, source in _documented_sources():
        names = _root_imports(source)
        missing = [n for n in names if n not in pslet.__all__]
        assert not missing, f"{where} imports {missing} from pslet, which __all__ lacks"
        documented.update(names)
    assert documented, "no `from pslet import` found in the README or the demos"
    for name in pslet.__all__:
        obj = getattr(pslet, name)  # every exported name resolves
        is_error = inspect.isclass(obj) and issubclass(obj, pslet.PsletError)
        assert name in documented or is_error, f"{name} is exported but no doc or demo uses it"

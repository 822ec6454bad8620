"""The process-wide ``REPRO_*`` environment switches are a closed set.

Every switch doubles the configurations tier-1 would have to cover, so
adding one must be a deliberate edit here and in README.md.  The same
reasoning covers optional dependencies that change which code runs:
``repro`` has none, so importing it never pulls in numpy.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: the switches ``src/`` may read, each documented in README.md
ALLOWED = {"REPRO_NET_LEGACY"}

ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _is_os_environ(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _env_key(node):
    """The key expression of an ``os.environ`` / ``os.getenv`` read."""
    if isinstance(node, ast.Subscript) and _is_os_environ(node.value):
        return node.slice
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        if isinstance(func, ast.Attribute) and _is_os_environ(func.value):
            return node.args[0]
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "getenv"
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            return node.args[0]
    if (
        isinstance(node, ast.Compare)
        and len(node.comparators) == 1
        and _is_os_environ(node.comparators[0])
    ):
        return node.left
    return None


def _scan():
    """(names read through os.environ, every REPRO_* string literal)."""
    read, literals = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        consts = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if ENV_NAME.fullmatch(node.value):
                    literals.add(node.value)
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        consts[target.id] = node.value.value
        for node in ast.walk(tree):
            key = _env_key(node)
            if isinstance(key, ast.Constant):
                value = key.value
            elif isinstance(key, ast.Name):
                value = consts.get(key.id)
            else:
                continue
            if isinstance(value, str) and value.startswith("REPRO_"):
                read.add(value)
    return read, literals


def test_env_switches_are_exactly_the_allowed_set():
    read, literals = _scan()
    assert read == ALLOWED
    # no REPRO_* name hides behind an indirection the scan cannot follow
    assert literals <= ALLOWED


def test_readme_documents_every_switch():
    readme = (ROOT / "README.md").read_text()
    for name in sorted(ALLOWED):
        assert f"`{name}" in readme, name


def test_importing_every_repro_module_never_imports_numpy():
    # a fresh interpreter, so numpy imported by pytest plugins or other
    # tests cannot leak in; __main__ is skipped because importing it
    # runs the CLI, and the count check keeps a walk that finds nothing
    # from passing
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(\n"
        "    repro.__path__, 'repro.') if not m.name.endswith('.__main__')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "assert len(names) > 50, names\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr

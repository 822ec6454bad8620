"""The process-wide ``REPRO_*`` environment switches are a closed set.

Every switch doubles the configurations tier-1 would have to cover, so
adding one must be a deliberate edit here and in README.md.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: the switches ``src/`` may read, each documented in README.md
ALLOWED = {"REPRO_SIM_BACKEND", "REPRO_NET_LEGACY", "REPRO_NET_BACKEND"}

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

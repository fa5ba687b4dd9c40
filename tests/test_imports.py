"""Import budget and hygiene.

The entry points a run loads pull in no scipy: a simulation needs only
numpy and ``repro``.  scipy stays a dependency of ``repro bound`` (its
LP solver imports ``scipy.optimize`` on first use) and of the tests,
which keep ``scipy.signal`` as the AR(1) oracle.  That check runs in a
fresh interpreter, because this test process has usually imported
scipy already.

No module under ``src/`` imports a name it never reads.  The check
parses the sources with :mod:`ast` (no linter is needed): a name
counts as read where the code loads it, including inside string
annotations, but not where only a docstring mentions it.  A package's
``__init__`` re-exports and the names a module lists in ``__all__``
are exempt.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Modules a ``repro`` command, the daemon, its clients and a campaign
#: import before doing any work.
ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.service.server",
    "repro.service.client",
    "repro.suite.campaign",
    "repro.suite.outputs",
)

#: scipy sub-packages a run must not load.
FORBIDDEN = ("scipy.signal", "scipy.optimize", "scipy.sparse")

PROBE = f"""
import importlib
import sys

for name in {ENTRY_POINTS!r}:
    importlib.import_module(name)
print("\\n".join(name for name in {FORBIDDEN!r} if name in sys.modules))
"""


def test_entry_points_import_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.split() == []


def bound_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name an import statement binds, with its line."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, node.lineno))
    return bound


def read_names(tree: ast.Module) -> set[str]:
    """The names a module loads, in code or in string annotations,
    plus the entries of its ``__all__``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC_DIR.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = read_names(tree)
        unused.extend(
            f"{path.relative_to(SRC_DIR)}:{line}: {name}"
            for name, line in bound_imports(tree)
            if name not in read
        )
    assert unused == []

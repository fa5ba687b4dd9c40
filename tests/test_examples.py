"""Every example script imports against the current ``repro``.

Each ``examples/*.py`` is loaded as a module without running its
``main``, so a ``repro`` name that an example imports and that no
longer exists fails here rather than in a user's shell.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"examples.{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)

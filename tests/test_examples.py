"""Every example script imports against the current ``repro``.

Each ``examples/*.py`` is loaded as a module without running its
``main``, so a ``repro`` name that an example imports and that no
longer exists fails here rather than in a user's shell.  The examples
whose ``main`` reads no ``sys.argv`` also run end to end, so one that
reads a deleted attribute fails too; ``make examples`` runs all of
them as scripts.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)

#: The examples whose ``main`` takes no arguments: each runs in well
#: under a second.
ARGUMENT_FREE = ("force_field_clustering", "green_energy_walkthrough", "quickstart")


def load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(
        f"examples.{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_found():
    assert len(EXAMPLES) >= 7
    assert set(ARGUMENT_FREE) <= {path.stem for path in EXAMPLES}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("name", ARGUMENT_FREE)
def test_argument_free_example_runs(name, capsys):
    [path] = [path for path in EXAMPLES if path.stem == name]
    load(path).main()
    assert capsys.readouterr().out

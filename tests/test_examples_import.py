"""Every example script imports cleanly.

The examples use only the public ``repro`` API, and nothing else runs
them, so renaming or deleting a public name could break one silently.
Each script keeps its work under a ``__main__`` guard, so importing it
runs nothing.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), f"{path.name} has no main()"

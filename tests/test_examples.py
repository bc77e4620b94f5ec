"""Every example script imports cleanly against the current public API.

The examples guard ``main()`` behind ``__name__ == "__main__"``, so
importing one runs nothing; it only resolves its imports, which is what
breaks when a public name is removed or renamed.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)

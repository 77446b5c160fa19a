"""The README's library example runs as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 4
    assert result.failed == 0

"""The README's library example, run as a doctest.

``python -m doctest README.md`` reads the closing code fence as expected
output of the last example, so the block is cut out of the fences first.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.attempted == block.count(">>> ") == 9
    assert result.failed == 0

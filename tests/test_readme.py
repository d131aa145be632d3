import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"
# A comment ``# <expression> -> <value>`` states what the example computes.
CLAIM = re.compile(r"#\s*(\S[^#]*?)\s*->\s*(.+)$", re.M)


def readme_block(heading):
    """The first ```python block under the README section ``heading``."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_written(capsys):
    code = readme_block("Library example")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.strip()
    claims = CLAIM.findall(code)
    assert claims, "the example states none of its results"
    for expression, shown in claims:
        got = eval(expression, namespace)
        assert np.allclose(got, eval(shown, {"array": np.array}), rtol=0, atol=1e-15)

"""The Python examples in README.md run against the package as it stands."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # one namespace: later blocks reuse earlier names
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out

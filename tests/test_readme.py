"""README's library example, run as written, so the documented API and the
code cannot drift apart."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python block"
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # it prints one line per factor, its extent and intent as values
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(namespace["factors"]) >= 1

"""The suite's own pytest configuration."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
README = ROOT / "README.md"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # reporting a failing example imports modules that warn on import; the
    # warning filters must let the session go on to the next test
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout
    assert "1 failed, 1 passed" in result.stdout, result.stdout[-2000:]


def deep_step() -> str:
    """The command of the workflow's deep step, without its PYTHONPATH.
    The file is read as text, since PyYAML is not a test dependency."""
    text = WORKFLOW.read_text()
    step = text.index("- name: Differential tests")
    line = text[text.index("run:", step):].split("\n", 1)[0]
    return line.split("python ", 1)[1]


def test_readme_shows_the_deep_steps_selection():
    # the tests marked deep are selected by the mark alone, so README's
    # command for them and the workflow's step are one and the same
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    (command,) = [block for block in blocks if "--hypothesis-profile=deep" in block]
    assert command.split("python ", 1)[1].strip() == deep_step().strip()
    assert "-m deep" in deep_step()


def test_an_unregistered_mark_fails_collection(tmp_path):
    # a misspelt deep mark would drop its test from the deep step silently
    (tmp_path / "test_probe.py").write_text(
        "import pytest\n\n\n@pytest.mark.deeep\ndef test_marked():\n    pass\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert "'deeep' not found in `markers` configuration option" in result.stdout, \
        result.stdout[-2000:]

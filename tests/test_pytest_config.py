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
    """The command of the workflow's deep step.  The file is read as text,
    since PyYAML is not a test dependency: the command runs from the
    step's `run:` to the next step's name."""
    text = WORKFLOW.read_text()
    start = text.index("run:", text.index("- name: Differential tests"))
    return text[start:text.index("- name:", start)]


def deep_selection(command: str) -> tuple[list[str], list[str]]:
    """The test files and -k terms of a deep-profile command line, whose
    -k expression may run over lines, folded or continued by a backslash."""
    files = re.findall(r"tests/\w+\.py", command)
    expression = re.search(r'-k "([^"]*)"', command)[1].replace("\\\n", " ")
    return files, [term.strip() for term in expression.split(" or ")]


def test_every_deep_step_term_names_a_test():
    # the workflow's deep step reruns the differential tests by -k terms;
    # a renamed test would silently drop out of it
    files, terms = deep_selection(deep_step())
    assert files and len(terms) >= 2
    names = {name for file in files
             for name in re.findall(r"^def (test_\w+)", (ROOT / file).read_text(), re.M)}
    missing = [term for term in terms if not any(term in name for name in names)]
    assert not missing, f"-k terms of the deep step that name no test: {missing}"


def test_readme_shows_the_deep_steps_selection():
    # README's command for the deep differential tests selects what the
    # workflow's step does, files and -k terms in the same order
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    (command,) = [block for block in blocks if "--hypothesis-profile=deep" in block]
    assert deep_selection(command) == deep_selection(deep_step())

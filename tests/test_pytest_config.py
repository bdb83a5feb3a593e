"""The suite's own pytest configuration."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

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


def test_every_deep_step_term_names_a_test():
    # the workflow's deep step reruns the differential tests by -k terms;
    # a renamed test would silently drop out of it.  The file is read as
    # text, since PyYAML is not a test dependency: the step's command runs
    # from its `run:` to the next step's name
    text = WORKFLOW.read_text()
    start = text.index("run:", text.index("- name: Differential tests"))
    step = text[start:text.index("- name:", start)]
    files = re.findall(r"tests/\w+\.py", step)
    terms = re.search(r'-k "([^"]*)"', step)[1].split(" or ")
    assert files and len(terms) >= 2
    names = {name for file in files
             for name in re.findall(r"^def (test_\w+)", (ROOT / file).read_text(), re.M)}
    missing = [term.strip() for term in terms
               if not any(term.strip() in name for name in names)]
    assert not missing, f"-k terms of the deep step that name no test: {missing}"

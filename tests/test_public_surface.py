"""Names and examples outside src/ that the package must keep working.

perfbench/tracer.py wraps svtlab functions by name, and README's
"Library tour" block shows what a session prints.  Both live outside the
tests' imports, so these tests read them where they stand.
"""

import ast
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracer

    targets = tracer.targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(getattr(owner, attr)), (owner, attr)


def _library_tour() -> str:
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    tour = text[text.index("## Library tour"):]
    return tour.split("```python\n", 1)[1].split("```", 1)[0]


def _result_comments(code: str) -> list:
    """The comment lines right after each print, one joined text per print."""
    results, lines = [], code.splitlines()
    for k, line in enumerate(lines):
        if line.startswith("print("):
            comment = []
            for after in lines[k + 1:]:
                if not after.startswith("#"):
                    break
                comment.append(after[1:].strip())
            results.append("\n".join(comment))
    return results


def _same(printed: str, comment: str) -> bool:
    try:
        return ast.literal_eval(printed) == ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return printed == comment


def test_library_tour_prints_its_result_comments():
    code = _library_tour()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    printed = run.stdout.splitlines()
    expected = _result_comments(code)
    assert printed and len(printed) == len(expected)
    for got, comment in zip(printed, expected):
        assert comment and _same(got, comment), (got, comment)

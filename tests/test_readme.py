"""The README's library example runs as written against the package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    """The first ``python`` block under the README's "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    out = capsys.readouterr().out
    # the values its comment states for (artist_a, venue_2)
    assert "'common_neighbors': array([2.])" in out
    assert "'jaccard': array([0.5])" in out
    assert "'preferential_attachment': array([1.])" in out
    assert "'artist_a': " in out and "'artist_b': " in out

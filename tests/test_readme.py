"""README's library example runs as written, so a deleted or renamed name
cannot leave it stale."""

import re
from pathlib import Path

from ramseykit import read_certificate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert match, "README has no python block under '## Library'"
    monkeypatch.chdir(tmp_path)  # the example writes its certificate here
    names = {}
    exec(compile(match.group(1), str(README), "exec"), names)
    assert read_certificate(tmp_path / "r555.cert").bound == 242
    assert (names["h"].n, names["h"].num_colors) == (50, 4)

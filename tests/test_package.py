"""Package surface: the names the benchmark and the README read, and no
dispatch on family names in the source."""

import importlib.util
import re
from pathlib import Path

import iselab

ROOT = Path(__file__).resolve().parents[1]

# Family behaviour lives in TreeFamily fields, not in tests of its name.
NAME_DISPATCH = re.compile(r"\.name *(==|!=|in |not in )|size_unit *==|variant *==")


def _is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"iselab.{name}") is not None


def _readme_imports() -> set[str]:
    text = (ROOT / "README.md").read_text()
    names = set()
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for line in re.findall(r"^from iselab import (.+)$", block, re.M):
            names.update(n.strip() for n in line.split(","))
    return names


def test_benchmark_and_readme_names_resolve():
    jobs = (ROOT / "perfbench" / "jobs.py").read_text()
    names = set(re.findall(r"\biselab\.([A-Za-z_]\w*)", jobs)) | _readme_imports()
    assert {"exact_moment", "sample_tree", "get_family"} <= names
    missing = [n for n in sorted(names) if not (hasattr(iselab, n) or _is_submodule(n))]
    assert missing == []
    unlisted = [n for n in sorted(names) if hasattr(iselab, n) and n not in iselab.__all__]
    assert [n for n in unlisted if not _is_submodule(n)] == []


def test_all_names_resolve():
    assert [n for n in iselab.__all__ if not hasattr(iselab, n)] == []


def test_no_dispatch_on_family_names():
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted((ROOT / "src" / "iselab").glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if NAME_DISPATCH.search(line)
    ]
    assert hits == []

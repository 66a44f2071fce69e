"""Package surface: the names the benchmark and the README read, no
dispatch on family names in the source, and numpy as the only runtime
dependency."""

import importlib.util
import os
import re
import subprocess
import sys
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


def test_import_and_density_load_no_scipy():
    code = (
        "import sys, iselab\n"
        "from iselab import cli\n"
        "assert cli.main(['mean-density', '--grid=-3:3:25']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.splitlines()[-1] == "[]"

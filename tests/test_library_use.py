"""The README's "Library use" block runs as written on a committed fixture,
and the package root exports exactly the names it imports."""

import re
from pathlib import Path

import monopart
from conftest import FIXTURES_DIR

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_block_runs_on_jpetstore(monkeypatch):
    monkeypatch.chdir(FIXTURES_DIR / "jpetstore")
    scope: dict = {}
    exec(compile(_library_block(), str(README), "exec"), scope)
    partition, report, infra = scope["partition"], scope["report"], scope["infra"]
    assert partition.k == 3
    assert len(partition.assignment) == len(scope["graph"].classes) > 0
    assert list(report.cluster_sizes) == partition.sizes()
    assert 0 < report.ngm <= 1
    assert infra.total_cost == report.infra_cost
    factors = scope["factors"]
    assert len(factors) == partition.k
    assert sum(factors[1:], factors[0]) == infra.total == report.infra_total


def test_package_root_exports_the_readme_names():
    imported = re.search(r"from monopart import \((.*?)\)", _library_block(), re.S).group(1)
    assert sorted(monopart.__all__) == sorted(n.strip() for n in imported.split(",") if n.strip())
    assert all(hasattr(monopart, name) for name in monopart.__all__)

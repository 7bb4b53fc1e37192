"""partition.json is byte-identical to the committed golden files.

Each case runs ``ingest`` and ``partition`` through ``cli.main`` and compares
the written ``partition.json`` with ``tests/golden/<case>.json``. The golden
files pin the partitions the multilevel partitioner chooses, so a change to
its internal arithmetic that alters any choice (a tie-break, a cap test, a
gain comparison) fails here.
"""

from pathlib import Path

import pytest

from conftest import FIXTURES_DIR

from monopart.cli import PARTITION_FILE, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

FRACTIONAL_PRICES = "cache: 0.3\nfile_storage: 1/6\n"

# case -> (fixture, ingest flags, partition flags)
CASES = {
    "daytrader": ("daytrader", [], ["--k", "6"]),
    "jpetstore": ("jpetstore", [], ["--k", "3"]),
    "pbw": ("pbw", [], ["--k", "4"]),
    "springblog": ("springblog", [], ["--k", "5"]),
    "jpetstore-fractional": (
        "jpetstore",
        ["--base-call", "1/3", "--beta-flow", "2/7", "--shared-resource-increment", "3/5"],
        ["--k", "3", "--alpha", "1/3", "--epsilon", "1/7", "--prices", "{prices}"],
    ),
}


def run_case(case: str, work: Path) -> bytes:
    """Run ingest and partition for ``case`` in ``work``; return partition.json."""
    fixture, ingest_flags, partition_flags = CASES[case]
    src = FIXTURES_DIR / fixture
    out = work / "out"
    prices = work / "prices.yaml"
    prices.write_text(FRACTIONAL_PRICES, encoding="utf-8")
    assert main(["ingest", "--deps", str(src / "deps.xml"),
                 "--manifest", str(src / "manifest.yaml"),
                 *ingest_flags, "--out", str(out)]) == 0
    flags = [f.format(prices=prices) for f in partition_flags]
    assert main(["partition", *flags, "--out", str(out)]) == 0
    return (out / PARTITION_FILE).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_partition_matches_golden(case, tmp_path, capsys):
    assert run_case(case, tmp_path) == (GOLDEN_DIR / f"{case}.json").read_bytes()

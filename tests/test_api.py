"""The public names of the package, including every one the benchmark uses."""

import re
from pathlib import Path

import pytest

import bubbleforge as bf

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_all_has_no_duplicates_and_resolves():
    assert len(bf.__all__) == len(set(bf.__all__))
    for name in bf.__all__:
        assert hasattr(bf, name), name


def _bench_names():
    names = set()
    for script in ("workloads.py", "test_bench.py"):
        names |= set(re.findall(r"\bbf\.([A-Za-z_]\w*)", (BENCH / script).read_text()))
    return sorted(names)


def test_benchmark_scripts_use_names():
    # guards the scan below against reading nothing
    assert {"Bubble", "sum_field", "kelvin_field", "sup_scan"} <= set(_bench_names())


@pytest.mark.parametrize("name", _bench_names())
def test_benchmark_name_resolves(name):
    assert hasattr(bf, name)

import importlib.util
import sys
from pathlib import Path

import germapprox as ga
from conftest import CURVE_PAIRS


def test_public_names_resolve_once():
    assert len(ga.__all__) == len(set(ga.__all__))
    missing = [n for n in ga.__all__ if not hasattr(ga, n)]
    assert missing == []
    namespace = {}
    exec("from germapprox import *", namespace)
    assert set(ga.__all__) <= set(namespace)


def test_code_line_count(tmp_path):
    # tools/code_lines.py, the count ROADMAP item 10 tracks: blank lines,
    # comments and docstrings count nothing, and a token spanning lines
    # counts on each
    path = Path(__file__).parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = tmp_path / "m.py"
    source.write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "import os  # a comment\n"
        "\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    return (x +\n"
        "            1)\n"
        'TEXT = """a string\n'
        'value"""\n')
    assert tool.code_lines(source) == 6


def test_benchmark_curve_pairs_match_the_tests(monkeypatch):
    # perfbench/workloads.py keeps its own copy of the compare_curves pairs,
    # loaded here so that the two lists cannot drift apart; its dataclasses
    # look their module up in sys.modules while it loads
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.CURVE_PAIRS == CURVE_PAIRS

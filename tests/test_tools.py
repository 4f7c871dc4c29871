"""The repository tools that measure a change: ``tools/code_lines.py``
and ``tools/output_drift.py``, imported by path, run in process."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
output_drift = _load("output_drift")


class TestCodeLines:
    def test_counts_code_only(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text('''"""Module docstring,
over two lines."""

# A comment line.
import math  # a trailing comment


def f(x):
    """Function docstring."""

    y = (x +
         1)
    "a bare string statement"
    return math.sqrt(y) + len("""a string
that is an operand""")
''')
        # import; def; the two lines of y; the two lines of the return.
        assert code_lines.code_lines(source) == 6

    def test_empty_file(self, tmp_path):
        source = tmp_path / "empty.py"
        source.write_text("")
        assert code_lines.code_lines(source) == 0


class TestCompare:
    @staticmethod
    def write(path, text):
        path.write_text(text)
        return path

    def test_identical_bytes(self, tmp_path):
        text = json.dumps({"a": 1.0, "b": [1, 2]})
        old = self.write(tmp_path / "a.json", text)
        new = self.write(tmp_path / "b.json", text)
        assert output_drift.compare(old, new) == []

    def test_largest_change_and_entries_moved(self, tmp_path):
        old = self.write(tmp_path / "a.json", json.dumps(
            {"levels": [{"r": 1.0}, {"r": 2.0}, {"r": 4.0}], "x": 3.0,
             "config_hash": "abc"}))
        new = self.write(tmp_path / "b.json", json.dumps(
            {"levels": [{"r": 1.0}, {"r": 2.5}, {"r": 5.0}], "x": 3.0,
             "config_hash": "def"}))
        assert output_drift.compare(old, new) == [
            "levels[].r: max rel change 0.2 (2 of 3 moved)"]

    def test_entry_count_change(self, tmp_path):
        old = self.write(tmp_path / "a.json", json.dumps({"v": [1.0, 2.0]}))
        new = self.write(tmp_path / "b.json", json.dumps({"v": [1.0]}))
        assert output_drift.compare(old, new) == ["v[]: 2 -> 1 entries"]

    def test_hash_alone_differs(self, tmp_path):
        old = self.write(tmp_path / "a.json", json.dumps({"config_hash": "a"}))
        new = self.write(tmp_path / "b.json", json.dumps({"config_hash": "b"}))
        assert output_drift.compare(old, new) == ["bytes differ, fields equal"]

    @pytest.mark.parametrize("old,new", [("1.0", "nan"), ("nan", "1.0")])
    def test_nan_on_one_side_is_an_infinite_change(self, tmp_path, old, new):
        a = self.write(tmp_path / "a.csv", f"alpha,lam\n0.5,{old}\n")
        b = self.write(tmp_path / "b.csv", f"alpha,lam\n0.5,{new}\n")
        assert output_drift.compare(a, b) == [
            "[].lam: max rel change inf (1 of 1 moved)"]

    @pytest.mark.parametrize("a,b,expected", [
        (1.0, 1.0, 0.0), (math.nan, math.nan, 0.0), (2.0, 1.0, 0.5),
        (-1.0, 1.0, 2.0), (1.0, math.nan, math.inf),
        (math.nan, 1.0, math.inf), (1.0, math.inf, math.inf),
        (math.inf, math.inf, 0.0)])
    def test_relative(self, a, b, expected):
        assert output_drift._relative(a, b) == expected

"""The README's quick-start output and config listing match the program,
and its python examples run."""

import re
from pathlib import Path

import pytest

from tiadc_cal.cli import main
from tiadc_cal.scenarios import DEFAULTS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block_after(heading: str) -> list:
    """Lines of the first ``` block after the first line holding heading."""
    start = README.index(heading)
    match = re.compile(r"```[a-z]*\n(.*?)```", re.S).search(README, start)
    return match.group(1).splitlines()


def test_typical_calibrate_output_is_the_quick_start_stdout(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "fig6", "--out", "work/"]) == 0
    capsys.readouterr()
    assert main(["calibrate", "work/fig6_capture.bin"]) == 0
    want = fenced_block_after("Typical `calibrate` output")
    assert len(want) == 4
    assert capsys.readouterr().out.splitlines() == want


def test_config_listing_matches_defaults():
    listed = {}
    for line in fenced_block_after("All keys, with"):
        setting = line.split("#", 1)[0].strip()
        if setting:
            key, _, value = setting.partition("=")
            listed[key.strip()] = value.strip()
    assert set(listed) == set(DEFAULTS)
    for key, value in listed.items():
        default = DEFAULTS[key]
        if default is None:
            continue
        if isinstance(default, bool):
            assert value == str(default).lower(), key
        else:
            assert type(default)(value) == default, key


PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_example_runs(index):
    code = compile(PYTHON_BLOCKS[index], f"README.md python block {index}",
                   "exec")
    exec(code, {"__name__": "readme_example"})

"""README's first example runs and prints what its comment says, and its
list of ``sse estimate``'s JSON keys is the output's."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from sse import estimate
from sse.satcore import SolveStats

from conftest import four_lines

ROOT = Path(__file__).resolve().parent.parent


def _library_block():
    """The python block under README's "Library in one minute" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library in one minute", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_in_one_minute_prints_its_comment(tmp_path):
    block = _library_block()
    printed = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == 1
    # the comment up to the dash that starts its explanation
    expected = printed[0].split("#", 1)[1].split("—", 1)[0].strip()
    assert expected
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=120, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout == expected + "\n"


def _estimate_keys():
    """README's list of the keys of ``sse estimate``'s JSON: the top-level
    keys, and the keys listed under ``stats``."""
    text = (ROOT / "README.md").read_text()
    section = text.split("`sse estimate` prints one JSON object with these keys:\n\n", 1)[1]
    block = section.split("\n\n", 1)[0]
    top, stats, parent = [], [], None
    for line in block.splitlines():
        item = re.match(r"( *)- `(\w+)`", line)
        if item is None:
            continue  # a wrapped description line
        if item.group(1):
            assert parent == "stats", line
            stats.append(item.group(2))
        else:
            parent = item.group(2)
            top.append(parent)
    return top, stats


def test_readme_lists_the_estimate_json_keys(four_lines):
    model, stack, window = four_lines
    doc = estimate(model, stack, window).to_json_dict()
    top, stats = _estimate_keys()
    assert len(top) == len(set(top))
    assert set(top) == set(doc) | {"x_current"}
    assert stats == [f.name for f in fields(SolveStats)]
    assert set(doc["stats"]) == set(stats)

"""README's first example runs and prints what its comment says."""

import os
import re
import subprocess
import sys
from pathlib import Path

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

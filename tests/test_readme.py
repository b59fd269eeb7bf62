"""Each README command that shows its result gives that result when a shell
runs the line as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _shown_results() -> list[tuple[str, str]]:
    """(command, shown) for each `intervalzeta ...` line followed by a
    `# {...}` or `# exit N: ...` line."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [(command, shown[2:]) for command, shown in zip(lines, lines[1:])
            if command.startswith("intervalzeta ") and re.match(r"# (\{|exit \d+: )", shown)]


EXAMPLES = _shown_results()


def test_examples_found():
    assert len(EXAMPLES) >= 3


@pytest.fixture(scope="module")
def shell_env(tmp_path_factory):
    """An environment where `intervalzeta` runs `python -m intervalzeta.cli`
    on this checkout's src."""
    bin_dir = tmp_path_factory.mktemp("bin")
    shim = bin_dir / "intervalzeta"
    shim.write_text('#!/bin/sh\nexec %s -m intervalzeta.cli "$@"\n' % shlex.quote(sys.executable))
    shim.chmod(0o755)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PATH": "%s:%s" % (bin_dir, os.environ["PATH"]),
            "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_gives_its_shown_result(command, shown, shell_env):
    exit_code = re.fullmatch(r"exit (\d+): (.*)", shown)
    code, want = (int(exit_code[1]), exit_code[2]) if exit_code else (0, shown)
    run = subprocess.run(["sh", "-c", command], env=shell_env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (code, "")
    # "..." in a shown result stands for omitted output
    assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), run.stdout.rstrip("\n")), run.stdout

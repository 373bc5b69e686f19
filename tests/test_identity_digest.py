"""``identity_digest.py`` runs, prints its seven named lines, and accepts its
own output with ``--expect``.  Names are checked, not bits: the digests move
whenever a solver's output does."""
import os
import re
import subprocess
import sys
from pathlib import Path

import specrad as sr

SCRIPT = Path(__file__).with_name("identity_digest.py")
NAMES = ["bench", "ring", "cli", "newton", "power", "jacobian", "bordered"]


def run_digest(*args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(sr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_prints_seven_named_lines_and_accepts_them(tmp_path):
    out = run_digest()
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == NAMES
    assert all(re.fullmatch(r"\w+ +[0-9a-f]{16}", line) for line in lines), lines
    saved = tmp_path / "digest.txt"
    saved.write_text(out.stdout)
    again = run_digest("--expect", str(saved))
    assert again.returncode == 0, again.stderr
    assert again.stdout == out.stdout

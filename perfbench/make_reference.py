"""Regenerate the benchmark's reference outputs from the CLI.

    python3 perfbench/make_reference.py

Writes, under ``perfbench/reference/``:

- ``verify_bundle.json``: the exact stdout of ``schurlab verify --format json``
  over the bundled catalog (every group, every rule, plus the summary);
- ``identities.txt``: the exact stdout of ``schurlab identities`` at the CLI
  defaults, one report line per lemma.

The committed files were produced from the code as first imported, before any
optimisation. Every benchmark pass compares its items against them, so
regenerate only when a change to the reported numbers is intended and
reviewed. The verify run takes a few minutes (the bar-complex oracle on the
groups of order 16 to 32); ``--jobs`` only changes how long, not the bytes.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference"


def cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "schurlab.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"schurlab {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    (REFERENCE / "verify_bundle.json").write_text(cli("verify", "--format", "json", "--jobs", jobs))
    (REFERENCE / "identities.txt").write_text(cli("identities"))


if __name__ == "__main__":
    main()

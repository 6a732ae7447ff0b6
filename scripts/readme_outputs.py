"""Run every command of README.md's "Command line" block and digest what it writes.

    python3 scripts/readme_outputs.py [REPO]

REPO is the checkout whose README and ``src/`` are used (default: the one
holding this script), so the same script runs an older checkout too.  The
commands run one after another in a fresh temporary directory; the
``action --path-csv path.csv`` line reads the path gamma = 0.5 + 0.3 t^2 on
[0, 1], which is written there first.

Standard output gets, per command, its exit code, then the SHA-256 of every
CSV written and of each report's ``results`` and ``verdicts`` (the report's
wall time is the one field that differs from run to run).  Each command's
wall time goes to standard error.  So two checkouts write the same outputs
exactly when

    diff <(python3 scripts/readme_outputs.py OLD) <(python3 scripts/readme_outputs.py)

prints nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def readme_commands(repo: Path) -> list[str]:
    readme = (repo / "README.md").read_text()
    block = readme.partition("## Command line")[2].partition("```sh\n")[2].partition("```")[0]
    return [line.split("#")[0].strip() for line in block.splitlines() if line.startswith("bdld ")]


def write_path_csv(path: Path) -> None:
    rows = ["t,gamma,dgamma"]
    for i in range(201):
        t = i / 200
        rows.append(f"{t},{0.5 + 0.3 * t * t},{0.6 * t}")
    path.write_text("\n".join(rows) + "\n")


def main(argv: list[str]) -> int:
    repo = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    env.pop("BDLD_OUT", None)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_path_csv(work / "path.csv")
        for line in readme_commands(repo):
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-m", "bdld.cli", *shlex.split(line)[1:]],
                                  cwd=work, env=env, capture_output=True)
            print(f"{time.perf_counter() - t0:8.2f} s  {line}", file=sys.stderr)
            print(f"exit {done.returncode}  {line}")
        for path in sorted(work.rglob("*")):
            name = path.relative_to(work).as_posix()
            if path.suffix == ".csv" and name != "path.csv":
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
            elif path.name == "report.json":
                report = json.loads(path.read_text())
                stable = json.dumps({key: report[key] for key in ("results", "verdicts")},
                                    sort_keys=True).encode()
                print(f"{hashlib.sha256(stable).hexdigest()}  {name}: results, verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

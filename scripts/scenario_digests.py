"""Print the sha256 of every artifact of the bundled scenarios.

Runs every scenarios/*.cfg through `pedflow simulate` into a temporary
directory, using the pedflow sources of the checkout this script lives
in, and prints one `<scenario>/<artifact> <sha256>` line per file.  Run it on two checkouts
and diff the outputs to show that a change keeps the artifacts
byte-identical.  Exits 1 if any scenario exits non-zero.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pedflow import cli  # noqa: E402


def main() -> int:
    configs = sorted((ROOT / "scenarios").glob("*.cfg"))
    status = 0
    for config in configs:
        with tempfile.TemporaryDirectory() as tmp:
            code = cli.main(["simulate", "--config", str(config), "--out", tmp])
            if code != 0:
                print(f"{config.stem}: pedflow exited with code {code}", file=sys.stderr)
                status = 1
            for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{config.stem}/{path.relative_to(tmp).as_posix()} {digest}",
                      flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

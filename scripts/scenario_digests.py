"""Print the sha256 of every artifact of the bundled scenarios.

Runs every scenarios/*.cfg through `pedflow simulate`, and through each
analysis subcommand its model kind supports, into a temporary directory,
using the pedflow sources of the checkout this script lives in.  It prints
one `<scenario>/<artifact> <sha256>` line per simulate artifact and one
`<scenario>/<subcommand>/<artifact> <sha256>` line per analysis artifact.
Run it on two checkouts and diff the outputs to show that a change keeps
the artifacts byte-identical.  Exits 1 if any run exits non-zero.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pedflow import cli  # noqa: E402


def digest_run(config: Path, command: str, prefix: str) -> int:
    """Run one subcommand on config and print the digest of each artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        code = cli.main([command, "--config", str(config), "--out", tmp])
        if code != 0:
            print(f"{prefix}: pedflow {command} exited with code {code}",
                  file=sys.stderr)
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{prefix}/{path.relative_to(tmp).as_posix()} {digest}", flush=True)
    return code


def main() -> int:
    configs = sorted((ROOT / "scenarios").glob("*.cfg"))
    status = 0
    for config in configs:
        kind = cli.load_config(config).model.kind
        runs = [(command, config.stem if command == "simulate"
                 else f"{config.stem}/{command}")
                for command, (_, kinds) in cli.SUBCOMMANDS.items() if kind in kinds]
        for command, prefix in runs:
            if digest_run(config, command, prefix) != 0:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

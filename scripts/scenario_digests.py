"""Print the sha256 of every artifact of the bundled scenarios, or compare
them with a saved listing.

    python scripts/scenario_digests.py > digests.txt   # the listing
    python scripts/scenario_digests.py digests.txt     # compare with it
    python scripts/scenario_digests.py scripts/scenario_digests.txt

The last line compares with the committed listing, scripts/scenario_digests.txt,
which a change that alters an artifact updates in its own diff.  Float
results depend on the CPU and the NumPy build, so that listing holds only
on the platform it was made on: x86-64, NumPy 2.4.6, AVX-512 (the platform
of perfbench/digests.json).

Runs every scenarios/*.cfg through `pedflow simulate`, and through each
analysis subcommand its model kind supports, into a temporary directory,
using the pedflow sources of the checkout this script lives in.  The
listing has one `<scenario>/<artifact> <sha256>` line per simulate artifact
and one `<scenario>/<subcommand>/<artifact> <sha256>` line per analysis
artifact.  Given the path of a listing saved from another checkout, it
prints only the lines that differ, as a unified diff (saved listing first),
so that "the artifacts are byte-identical to the parent's" is one command.
A RuntimeWarning (overflow, invalid value) is an error here, as under
pytest.  Exits 1 if any run exits non-zero or warns, or any line differs.
"""

from __future__ import annotations

import difflib
import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pedflow import cli  # noqa: E402


def digest_run(config: Path, command: str, prefix: str, lines: list) -> int:
    """Run one subcommand on config and append the digest line of each
    artifact to lines."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            code = cli.main([command, "--config", str(config), "--out", tmp])
        except RuntimeWarning as exc:  # an error under the filter of main()
            print(f"{prefix}: pedflow {command} warned: {exc}", file=sys.stderr)
            return 1
        if code != 0:
            print(f"{prefix}: pedflow {command} exited with code {code}",
                  file=sys.stderr)
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{prefix}/{path.relative_to(tmp).as_posix()} {digest}")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: scenario_digests.py [SAVED_LISTING]", file=sys.stderr)
        return 2
    warnings.simplefilter("error", RuntimeWarning)
    configs = sorted((ROOT / "scenarios").glob("*.cfg"))
    status = 0
    lines = []
    for config in configs:
        kind = cli.load_config(config).model.kind
        runs = [(command, config.stem if command == "simulate"
                 else f"{config.stem}/{command}")
                for command, (_, kinds) in cli.SUBCOMMANDS.items() if kind in kinds]
        for command, prefix in runs:
            done = len(lines)
            if digest_run(config, command, prefix, lines) != 0:
                status = 1
            if not argv:  # the listing, run by run
                for line in lines[done:]:
                    print(line, flush=True)
    if argv:
        saved = Path(argv[0]).read_text().splitlines()
        diff = list(difflib.unified_diff(saved, lines, argv[0], "this checkout",
                                         lineterm="", n=0))
        for line in diff:
            print(line)
        status = 1 if diff else status
    return status


if __name__ == "__main__":
    sys.exit(main())

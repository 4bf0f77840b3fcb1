#!/usr/bin/env python3
"""Build and run gridmine's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (and the `gridmine-node` binary the net
workload spawns) in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then runs one workload. The last
line of standard output is the result object; build output goes to
standard error. Temporary files (the durable stores, the net session's
spec files, span traces) stay under the target directory.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
SOURCE_DIRS = ("crates", "shims", "src", "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in SOURCE_DIRS:
        files.extend(p for p in (ROOT / top).rglob("*") if p.suffix in (".rs", ".toml"))
    for path in sorted(files):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    work = target / "perfbench-work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The net session's hub keeps its spec files under the temp dir.
    env["TMPDIR"] = str(tmp)
    release = target / "release"
    run = subprocess.run(
        [str(release / "perfbench"), *sys.argv[1:],
         "--node-bin", str(release / "gridmine-node"),
         "--work-dir", str(work),
         "--source", source_id()],
        cwd=ROOT,
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

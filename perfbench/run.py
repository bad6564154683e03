#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: rnn_small, rnn_paper, serve_mix, stage_corpus (see
perfbench/BENCHMARK.md). The release build goes to $CARGO_TARGET_DIR, or
.bench_build when it is unset; traced runs and the plan-store workload
write their temporary files under <target dir>/perfbench. The last line of
standard output is the JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    here = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(here / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(
            build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"build failed with exit code {built.returncode}", file=sys.stderr)
        return 1
    binary = target / "release" / "autograph-perfbench"
    cmd = [str(binary), *sys.argv[1:], "--out-dir", str(target / "perfbench")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

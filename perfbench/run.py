#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <paper-study|tune-stream|proc-resume> \
        --seed <n> --seconds <s> --trace <0|1>

The release build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); worker scratch directories go to .bench_work and are removed
afterwards.  The last line of stdout is the JSON result of the run; the exit
code is non-zero when the build fails, an output check fails, or the run
exceeds its time limit.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # an absolute value is kept as is
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    scratch = os.path.join(ROOT, ".bench_work")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    binary = os.path.join(target, "release", "perfbench")
    # a session of its own, so a timeout also stops the worker processes
    child = subprocess.Popen([binary, *sys.argv[1:], "--work-dir", work],
                             cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    return code


if __name__ == "__main__":
    sys.exit(main())

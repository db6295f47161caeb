#!/usr/bin/env python3
"""Build the parmvn pipeline benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The library is compiled from the checkout's src/ tree together with the
benchmark program in perfbench/src (Release, into .bench_build/perfbench);
later calls only rebuild what changed. The program's standard output is
passed through unchanged: its last line is the JSON result. Result files
and the traced run's Perfetto file land in .bench_build/results. The exit
code is non-zero when the build fails or a correctness check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
RESULTS = os.path.join(REPO, ".bench_build", "results")
RUN_TIMEOUT_S = 175


def fail(msg, code=3):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no parmvn sources at %s" % os.path.join(REPO, "src"))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size run of every workload, checks on")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    binary = build()
    cmd = [binary, "--out", RESULTS, "--git-sha", git_sha()]
    if args.smoke:
        cmd += ["--smoke"]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

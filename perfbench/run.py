#!/usr/bin/env python3
"""Builds SEMSIM and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --overhead

Run from the repository root. Cargo writes to $CARGO_TARGET_DIR (default
`target`); spans, journals and daemon data go to `<target dir>/perfbench`.
Build output goes to stderr; the last stdout line is the benchmark's JSON
result. The exit code is the benchmark's: non-zero when a build fails or
any output check fails. `--overhead` runs the workload untraced and then
traced, and prints each end-to-end metric's traced minus untraced value:
the cost of the tracing itself.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("c432_delay", "sset_sweep", "serve_set_jobs")
# A run may take at most 180 s; the benchmark itself stays well inside.
RUN_TIMEOUT_S = 175


def build(target):
    """Builds the `semsim` binary and the benchmark; False on failure."""
    for manifest, extra in (("Cargo.toml", ["--bin", "semsim"]),
                            (os.path.join("perfbench", "Cargo.toml"), [])):
        if not os.path.isfile(manifest):
            print(f"error: {manifest} not found; run from the repository root",
                  file=sys.stderr)
            return False
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
               manifest, "--target-dir", target] + extra
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print(f"error: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--overhead", action="store_true",
                        help="report traced minus untraced end-to-end metrics")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", "target")
    if not build(target):
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "semsim-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--out-dir", os.path.join(target, "perfbench"),
           "--semsim", os.path.join(release, "semsim")]
    if not args.overhead:
        return run(cmd + ["--trace", args.trace])[0]

    values = {}
    for trace in ("0", "1"):
        code, out = run(cmd + ["--trace", trace], capture=True)
        if code != 0:
            return code
        # Lines: "# end-to-end[-extra] <name> <value> <unit> <basis>".
        for line in out.splitlines():
            words = line.split()
            if len(words) >= 5 and words[1].startswith("end-to-end"):
                values.setdefault(words[2], {})[trace] = (float(words[3]), words[4])
    print(f"# {args.workload} seed {args.seed}: traced minus untraced")
    for name, by_trace in values.items():
        if "0" in by_trace and "1" in by_trace:
            (plain, unit), (traced, _) = by_trace["0"], by_trace["1"]
            print(f"{name:<24} {traced - plain:+.6e} {unit:<5} "
                  f"(untraced {plain:.6e}, traced {traced:.6e})")
    return 0


def run(cmd, capture=False):
    """Runs the benchmark binary; returns its exit code and, when
    `capture`, its stdout."""
    # Own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, start_new_session=True, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out or ""
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: {cmd[2]} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""


if __name__ == "__main__":
    sys.exit(main())

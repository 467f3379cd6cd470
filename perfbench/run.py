#!/usr/bin/env python3
"""Build and run the seqver benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of sat-signoff, bdd-default, speculate, bughunt, or "all" to run
every workload, each in a fresh process.  The benchmark program is built
from source with dune first; a failed build exits non-zero without a
result.  The last line of standard output is the result JSON of the
benchmark program (for "all", one object whose metrics are keyed
"<workload>/<metric>").
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sat-signoff", "bdd-default", "speculate", "bughunt"]
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed (is this a full seqver checkout?)\n")
        sys.exit(2)


def git_rev():
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """MD5 over the library and benchmark sources: a revision stamp that
    also works in a checkout that is not a git repository, and that tells
    uncommitted changes apart."""
    h = hashlib.md5()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def run_one(workload, args, rev):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--rev", rev]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    build()
    rev = "git-%s/src-%s" % (git_rev(), source_digest())
    if args.workload != "all":
        code, _ = run_one(args.workload, args, rev)
        sys.exit(code)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_one(workload, args, rev)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.stderr.write("perfbench: workload %s failed (exit %d)\n" % (workload, code))
            sys.exit(code or 1)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "/" + name] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()

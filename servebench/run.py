#!/usr/bin/env python3
"""Build and run the J2NE serving benchmark for one workload and seed.

    python3 servebench/run.py --workload cold_j2k --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --workload hot_zipf --seed 1 --seconds 20 --trace 1
    python3 servebench/run.py --self-test

The benchmark is built from the repository's src/ tree (see CMakeLists.txt in
this directory) into .bench_build/servebench at the repository root.  Each run
writes a result file with the host fingerprint under servebench/results/, and
checks the run's exact counts against earlier runs of the same workload and
seed (servebench/results/exact_counts.json): any drift makes the run
incorrect.  The last line of standard output is the result object.
"""
import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RESULTS = os.path.join(HERE, "results")
LEDGER = os.path.join(RESULTS, "exact_counts.json")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "CMakeLists.txt")):
        fail("repository sources not found next to " + HERE)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return BUILD


def source_commit():
    """The git commit when there is one, else a digest of the sources built."""
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def source_digest(root=ROOT):
    """A digest of the sources the benchmark builds (src/ and servebench/,
    without run results)."""
    paths = []
    for top in ("src", "servebench"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = [x for x in dirs if x not in ("results", "__pycache__")]
            paths += [os.path.join(d, f) for f in files]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def check_exact(key, exact, ledger_path=LEDGER):
    """Compare a run's exact counts with the first run recorded for `key`.
    Returns the list of drifting fields (empty when none); records the counts
    when the key is new."""
    ledger = {}
    if os.path.isfile(ledger_path):
        with open(ledger_path) as f:
            ledger = json.load(f)
    if key not in ledger:
        ledger[key] = exact
        os.makedirs(os.path.dirname(ledger_path), exist_ok=True)
        with open(ledger_path, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        return []
    seen = ledger[key]
    return sorted(k for k in set(seen) | set(exact) if seen.get(k) != exact.get(k))


def parse_output(text):
    """Split the binary's stdout into (other lines, fingerprint, exact, result)."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    fingerprint, exact, rest = None, None, []
    for l in lines[:-1]:
        if l.startswith("FINGERPRINT "):
            fingerprint = json.loads(l[len("FINGERPRINT "):])
        elif l.startswith("EXACT "):
            exact = json.loads(l[len("EXACT "):])
        else:
            rest.append(l)
    if fingerprint is None or exact is None:
        raise ValueError("missing FINGERPRINT or EXACT line")
    return rest, fingerprint, exact, result


def self_test():
    build()
    p = subprocess.run([os.path.join(BUILD, "servebench_tests")])
    if p.returncode != 0:
        return p.returncode
    p = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", HERE,
                        "-p", "test_*.py", "-v"], cwd=ROOT)
    return p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if not a.workload:
        ap.error("--workload is required")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    name = "%s-seed%d-trace%d-%s" % (a.workload, a.seed, a.trace, stamp)
    cmd = [os.path.join(BUILD, "servebench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    trace_file = None
    if a.trace:
        trace_file = os.path.join(RESULTS, name + ".trace.json")
        cmd += ["--trace-out", trace_file]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        fail("benchmark exited with %d" % p.returncode, p.returncode)
    try:
        rest, fingerprint, exact, result = parse_output(p.stdout)
    except ValueError as e:
        sys.stdout.write(p.stdout)
        fail("unreadable benchmark output: %s" % e, 3)

    fingerprint["commit"] = source_commit()
    drift = check_exact("%s/seed%d" % (a.workload, a.seed), exact)
    if drift:
        result["correct"] = False
        rest.append("EXACT-COUNT DRIFT in %s against %s (delete the entry to re-baseline)"
                    % (", ".join(drift), os.path.relpath(LEDGER, ROOT)))
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
              "fingerprint": fingerprint, "exact": exact, "result": result, "log": rest,
              "trace_file": os.path.relpath(trace_file, ROOT) if trace_file else None}
    with open(os.path.join(RESULTS, name + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    for l in rest:
        print(l)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run an rlab benchmark workload and print its metrics.

    python3 bench/run.py --workload needle_query_side --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0

Run from the root of an rlab checkout. `--workload all` runs every workload
one after another, each in a fresh process so that its peak RSS is its own.
With `--trace 0` the workload runs untraced and reports the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it runs one unit of work with
every rlab function of tracing.LAYER_FUNCTIONS wrapped, then the same unit
untraced, and reports calls and self time per function plus the tracing
overhead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Details,
fingerprints and the environment go to .bench_out/ and, readable, to the
lines before it. The exit code is 1 when any output check fails and 2 when
the checkout holds no rlab sources.
"""

import os

# One BLAS thread, fixed before numpy is first imported: the matvecs are
# small at dim 64 and the cores are shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUPS = 5  # set-ups per untraced run; setup_s is their median


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "blas_thread_env": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": _git_commit(), "seed": seed}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args) -> int:
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    spec = _spec()
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        # The same unit of work traced, then untraced. The traced unit runs
        # first in the process, as the untraced runs do, so its split
        # matches theirs; the overhead then includes the first unit's
        # warm-up and is an upper bound. Totals and self times are scaled
        # to the reference kernel like every time.
        tracer = tracing.Tracer()
        checks.pause = tracer.paused
        tracer.install()
        try:
            t0 = time.perf_counter()
            result = workload(ROOT, OUT, args.seed, 0, 1, checks)
            traced_s = (time.perf_counter() - t0) * result.run_scale
        finally:
            tracer.uninstall()
        checks.pause = contextlib.nullcontext
        t0 = time.perf_counter()
        untraced = workload(ROOT, OUT, args.seed, 0, 1, checks)
        untraced_s = (time.perf_counter() - t0) * untraced.run_scale
        values = {"tracing.untraced_s": untraced_s, "tracing.traced_s": traced_s,
                  "tracing.overhead_s": traced_s - untraced_s,
                  "tracing.spans": len(tracer.names),
                  "tracing.ref_ms": 1e3 * workloads.Reference.NOMINAL_S
                                    / result.run_scale}
        for name, (calls, self_ms) in tracer.self_times().items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_ms"] = self_ms * result.run_scale
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        wanted = spec["per_layer"]
    else:
        result = workload(ROOT, OUT, args.seed, args.seconds, SETUPS, checks)
        values = {"setup_s": result.metrics["setup_s"][1],
                  "peak_rss_mb": _peak_rss_mb()}
        values.update({metric: result.metrics[name][1]
                       for metric, name in result.headline.items()})
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record.update(environment=environment(args.seed), checks={
        "attempted": checks.attempted, "failed": len(checks.failures),
        "failures": checks.failures},
        details={name: {"measured": raw, "scaled": scaled, "unit": unit,
                        "samples": n}
                 for name, (raw, scaled, unit, n) in result.metrics.items()},
        headline=result.headline, fingerprints=result.fingerprints,
        metrics=metrics, samples=result.samples)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    print(f"  {'metric':<26} {'measured':>12} {'scaled':>12} unit")
    for name, (raw, scaled, unit, n) in result.metrics.items():
        print(f"  {name:<26} {raw:>12.6g} {scaled:>12.6g} {unit:<12} (n={n})")
    if args.trace:
        print("  scaled self time, highest first:")
        called = [n for n in tracing.LAYER_FUNCTIONS if values[f"{n}.calls"]]
        for name in sorted(called, key=lambda n: -values[f"{n}.self_ms"])[:15]:
            print(f"  {name:<36} {values[f'{name}.self_ms']:>12.3f} ms "
                  f"(calls={values[f'{name}.calls']})")
        print(f"  tracing overhead {values['tracing.overhead_s']:.3f} s "
              f"({traced_s:.3f} traced - {untraced_s:.3f} untraced, "
              f"{len(tracer.names)} spans)")
    print("fingerprints " + json.dumps(result.fingerprints))
    print(f"checks {checks.attempted} attempted, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 1 if checks.failures else 0


def run_all(args) -> int:
    """Each workload in its own process; a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in (w["name"] for w in _spec()["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        status = status or proc.returncode
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rlab").is_dir() or not (ROOT / "tests" / "needle.py").is_file():
        print(f"error: {ROOT} is not an rlab checkout: src/rlab and "
              "tests/needle.py are needed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""afcheck benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sunit-box --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client sends the workload's request list in order, each request through
``afcheck.cli.run([... "--output", "json"])`` and the next only after the
previous one returned (a closed loop).  Each pass of the list runs in a fresh
interpreter (``worker.py``), started only after the previous pass ended, so
no module-level cache of afcheck carries over between passes.  Passes repeat
until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics and
the trace overhead.  Every output is checked (``checks.py``).  The last line
of stdout is the JSON result; the lines above it print every metric with its
unit and the run's metadata, which also go to ``perfbench/out/``.
"""

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sunit-box", "criteria-suite", "field-sweep")
SETUP_SAMPLES = 25
PASS_TIMEOUT_S = 150
# Stop starting passes when one more would likely end past this.
RUN_BUDGET_S = 120
# Time of worker.kernel() at the reference speed.  The load other tenants put
# on the machine changes its speed by up to a third within minutes; times are
# reported scaled to this speed, gauged by the kernel during each pass.
CAL_REF_S = 0.002
GAUGE_WINDOW_S = 0.25
# Import time of the generated package at the reference speed; set-up times
# are scaled by it, since imports slow down under load unlike the kernel.
IMPORT_REF_S = 0.012
GAUGE_DIR = OUT / "import_gauge"

# name -> (unit, better), as in BENCHMARK.json
END_TO_END = {"wall_s": ("s", "lower"), "request_s.p50": ("s", "lower"),
              "request_s.p90": ("s", "lower"), "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}

# Tracer self-test: these per-layer metrics must be nonzero on the workload
# they are mapped to, so that a renamed or rebound function cannot drop out
# of the trace unseen.  factorint.incomplete counts a rare event and is 0 on
# all three workloads at the commit that introduced this benchmark.
NONZERO_ON = {
    "sunit-box": (
        "numberfield.mul.calls", "numberfield.mul.self_s",
        "numberfield.norm.calls", "numberfield.norm.self_s",
        "numberfield.inverse.calls", "numberfield.inverse.self_s",
        "numberfield.make_field.calls", "numberfield.make_field.incl_s",
        "linalg.det.self_s",
        "integerfactor.factorint.calls", "integerfactor.factorint.self_s",
        "prime_ideals.factor_rational_prime.calls",
        "prime_ideals.factor_rational_prime.self_s",
        "prime_ideals.factor_rational_prime.distinct_ratio",
        "prime_ideals.valuation.calls", "prime_ideals.valuation.self_s",
        "sunits.box_candidates", "sunits.solutions",
        "sunits.solution_yield", "sunits.s_per_candidate"),
    "criteria-suite": (
        "linalg.det.self_s", "linalg.charpoly.self_s",
        "units.unit_generators.calls", "units.unit_generators.incl_s",
        "units.unit_generators.distinct_ratio",
        "units.class_data.calls", "units.class_data.incl_s",
        "units.class_data.distinct_ratio",
        "sunits.solve_sunit.calls", "sunits.solve_sunit.incl_s",
        "sunits.solve_sunit.distinct_ratio", "sunits.selmer_group.incl_s",
        "sunits.quadratic_extension.calls",
        "sunits.quadratic_extension.incl_s", "sunits.is_square.calls"),
    "field-sweep": (
        "numberfield.make_field.calls", "numberfield.make_field.incl_s",
        "polynomials.zx_factor.self_s", "polynomials.isolate_real_roots.self_s",
        "polynomials.fp_factor.calls", "polynomials.fp_factor.self_s",
        "prime_ideals.factor_rational_prime.calls",
        "prime_ideals.factor_rational_prime.self_s",
        "prime_ideals.factor_rational_prime.index_divisor",
        "frey.invariants.calls", "frey.invariants.incl_s",
        "frey.valuation_profile.calls", "frey.valuation_profile.incl_s",
        "frey.conductor_shape.calls", "frey.conductor_shape.incl_s",
        "report.emit_json.self_s"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "afcheck" / "cli.py").is_file():
        sys.exit(f"afcheck sources not found under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, args.trace)
               for name in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{name}.{metric}": value
                             for name, r in zip(names, results)
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))


def run_workload(name, seed, seconds, trace):
    requests = workloads.build(name, seed)
    argvs = [["--output", "json", *r.argv] for r in requests]
    meta = {"workload": name, "seed": seed, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "requests_per_pass": len(requests)}
    _write_import_gauge()
    _setup_sample()  # writes the bytecode caches before anything is timed
    if trace:
        spans = OUT / f"spans-{name}.jsonl"
        passes = [_spawn(argvs), _spawn(argvs, spans)]
        meta["spans_file"] = str(spans.relative_to(ROOT))
    else:
        setup = [_setup_sample() for _ in range(SETUP_SAMPLES)]
        passes = _timed_passes(argvs, seconds)
    reasons = _check(name, requests, passes)
    failed = [i for i, reason in enumerate(reasons) if reason]
    unexpected = [i for i in failed
                  if requests[i % len(requests)].label
                  not in workloads.KNOWN_DEFECTS]
    attempted = len(requests) * len(passes)
    meta.update(passes=len(passes), attempted=attempted, failed=len(failed),
                failed_ratio=len(failed) / attempted,
                failures=sorted({f"{requests[i % len(requests)].label}: "
                                 f"{reasons[i]}" for i in failed}))
    if trace:
        metrics, units = _layer_metrics(name, passes, meta), tracer.metric_units()
        unexpected += meta["selftest_failures"]
    else:
        metrics, units = _end_to_end(passes, setup, meta), END_TO_END
    _report(meta, metrics, units)
    return {"correct": not unexpected, "attempted": attempted,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k][0]}
                        for k, v in metrics.items()}}


def _worker(args, stdin=""):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          input=stdin, capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _setup_sample():
    """Import times of afcheck.cli and of the gauge package, fresh process."""
    return _worker(["--setup", str(GAUGE_DIR)])[0]


def _write_import_gauge():
    """A fixed package with no imports of its own: 6 modules of functions,
    classes and a table.  Rewritten only if changed, so its bytecode stays."""
    package = GAUGE_DIR / "import_gauge"
    package.mkdir(parents=True, exist_ok=True)
    files = {"__init__.py": "".join(f"from . import m{m}\n" for m in range(6))}
    for m in range(6):
        funcs = [f"def f{i}(a, b=({i}, 'x{i}')):\n"
                 f"    return sum(a * k + {i} for k in range(5)) + len(b)\n"
                 for i in range(40)]
        classes = [f"class C{i}:\n    X = {i}\n\n"
                   f"    def __init__(self, v):\n        self.v = v + {i}\n"
                   for i in range(10)]
        files[f"m{m}.py"] = "\n\n".join(
            funcs + classes + ["TABLE = [f0(k) for k in range(100)]\n"])
    for name, text in files.items():
        path = package / name
        if not path.is_file() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")


def _spawn(argvs, spans=None):
    """One pass in a fresh interpreter; returns its summary and results."""
    lines = _worker([] if spans is None else ["--spans", str(spans)],
                    json.dumps(argvs))
    summary = lines[-1]
    summary["results"] = [(r["code"], r["out"]) for r in lines[:-1]]
    summary["latencies"] = [r["s"] for r in lines[:-1]]
    summary["spans"] = [r["t"] for r in lines[:-1]]
    return summary


def _timed_passes(argvs, seconds):
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(_spawn(argvs))
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or elapsed + elapsed / len(passes) > RUN_BUDGET_S:
            return passes


def _check(name, requests, passes):
    """Check the first pass against the oracles, every later pass against
    the first byte for byte (afcheck's JSON is canonical)."""
    import checks  # imports sympy, so only after the timed passes
    first = passes[0]["results"]
    reasons = checks.check(name, requests, first)
    for later in passes[1:]:
        reasons += [reason or (None if again == result else
                               "output differs from the first pass")
                    for reason, result, again in
                    zip(reasons, first, later["results"])]
    return reasons


def _end_to_end(passes, setup, meta):
    """Times at the reference speed (see CAL_REF_S)."""
    scaled = [_scaled_latencies(p) for p in passes]
    latencies = [s for pass_ in scaled for s in pass_]
    meta.update(request_samples=len(latencies), setup_samples=len(setup),
                raw_wall_s=statistics.median(p["wall_s"] for p in passes),
                raw_setup_s=statistics.median(s["import_s"] for s in setup),
                gauge_import_s=statistics.median(s["gauge_import_s"]
                                                 for s in setup),
                gauge_s=statistics.median(
                    statistics.fmean(dt for _, dt in p["gauge"]) for p in passes))
    return {"wall_s": statistics.median(sum(pass_) for pass_ in scaled),
            "request_s.p50": statistics.median(latencies),
            "request_s.p90": statistics.quantiles(
                latencies, n=10, method="inclusive")[8],
            "setup_s": statistics.median(
                s["import_s"] * IMPORT_REF_S / s["gauge_import_s"]
                for s in setup),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024}


def _scaled_latencies(pass_):
    """Each latency scaled by CAL_REF_S over the mean gauge time within
    GAUGE_WINDOW_S of the request."""
    starts = [t for t, _ in pass_["gauge"]]
    times = [dt for _, dt in pass_["gauge"]]
    out = []
    for latency, (t0, t1) in zip(pass_["latencies"], pass_["spans"]):
        lo = bisect.bisect_left(starts, t0 - GAUGE_WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + GAUGE_WINDOW_S)
        out.append(latency * CAL_REF_S / statistics.fmean(times[lo:hi]))
    return out


def _layer_metrics(name, passes, meta):
    plain, traced = passes
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    meta["untraced_wall_s"] = plain["wall_s"]
    meta["traced_wall_s"] = traced["wall_s"]
    meta["selftest_failures"] = [f"tracer self-test: {metric} is 0 on {name}"
                                 for metric in NONZERO_ON[name]
                                 if not metrics[metric]]
    return metrics


def _report(meta, metrics, units):
    print(f"# afcheck benchmark: workload {meta['workload']}, seed "
          f"{meta['seed']}, trace {meta['trace']}, python {meta['python']}, "
          f"nproc {meta['nproc']}")
    for key in ("passes", "requests_per_pass", "request_samples",
                "setup_samples", "raw_wall_s", "raw_setup_s", "gauge_s",
                "gauge_import_s",
                "untraced_wall_s", "traced_wall_s"):
        if key in meta:
            print(f"#   {key} = {meta[key]}")
    print(f"#   failed_ratio = {meta['failed']}/{meta['attempted']} = "
          f"{meta['failed_ratio']:.4f}")
    for failure in meta["failures"] + meta.get("selftest_failures", []):
        print(f"#   FAILED {failure}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key][0]}")
    record = dict(meta, metrics=metrics)
    path = OUT / (f"result-{meta['workload']}-seed{meta['seed']}"
                  f"-trace{meta['trace']}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

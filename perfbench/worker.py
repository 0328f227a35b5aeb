"""One pass of a request list through ``afcheck.cli.run`` in a fresh interpreter.

Usage: python3 perfbench/worker.py [--spans FILE] < requests.json
       python3 perfbench/worker.py --setup GAUGE_DIR

stdin holds a JSON list of argv lists.  The requests run in order, one after
the other, each through ``afcheck.cli.run`` with stdout captured.  stdout gets
one JSON line per request, ``{"code", "s", "t", "out"}`` (latency, start and
end), then a summary line ``{"import_s", "wall_s", "rss_kb", "gauge"}``.
With ``--spans`` the afcheck layers are traced, the spans are written to FILE
and the summary carries ``layers``.

``gauge`` lists ``(start, seconds)`` of a fixed arithmetic kernel that does
not use afcheck, run on a timer every GAUGE_EVERY_S while the pass runs (and
GAUGE_FIRST times before it).  It tells how fast the machine ran when; the
kernel's time is taken out of the request latencies.

With ``--setup`` the worker runs no request: it prints ``{"import_s",
"gauge_import_s"}``, the latter the time to import the fixed package that
``run.py`` generates under GAUGE_DIR, which gauges how fast imports ran.
"""

import sys
import time

_t0 = time.perf_counter()
from afcheck.cli import run  # noqa: E402  (timed: this is the set-up cost)
IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
from array import array  # noqa: E402
from fractions import Fraction  # noqa: E402

GAUGE_EVERY_S = 0.05
GAUGE_FIRST = 20  # samples taken before the first request
GAUGE_WARM = 3    # untimed calls that let the interpreter specialise kernel()


def kernel():
    """About 2 ms of Fraction polynomial products, fixed forever: the kind of
    work afcheck does, so that load on the machine slows both alike."""
    a = [Fraction(3 * i + 1, 2 * i + 5) for i in range(4)]
    b = [Fraction(i - 7, 3 * i + 2) for i in range(4)]
    acc = Fraction(0)
    for k in range(40):
        prod = [Fraction(0)] * 7
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        acc += prod[k % 7]
    return acc


class Gauge:
    """Times kernel() on a SIGALRM every GAUGE_EVERY_S, whatever is running,
    and keeps the time so spent so that callers can take it out."""

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self.spent = 0.0
        for _ in range(GAUGE_WARM):
            kernel()

    def tick(self, signum=None, frame=None):
        # Everything kernel() allocates is freed before it returns, so with
        # the collector off meanwhile, afcheck's collections do not move.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.times.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def peak_rss_kb():
    """This process's peak resident set since exec (VmHWM).  getrusage's
    ru_maxrss is not used: Linux folds into it the peak of the process that
    spawned this one."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def import_gauge(directory):
    sys.path.insert(0, directory)
    t0 = time.perf_counter()
    import import_gauge  # noqa: F401
    return time.perf_counter() - t0


def main(argv):
    if len(argv) == 2 and argv[0] == "--setup":
        print(json.dumps({"import_s": IMPORT_S,
                          "gauge_import_s": import_gauge(argv[1])}))
        return
    spans_path = argv[1] if len(argv) == 2 and argv[0] == "--spans" else None
    if argv and spans_path is None:
        sys.exit("usage: worker.py [--spans FILE | --setup DIR] < requests.json")
    requests = json.load(sys.stdin)
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    gauge = Gauge()
    if tracer is None:
        gauge.start()
    for _ in range(GAUGE_FIRST):
        gauge.tick()
    wall = 0.0
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        buf = io.StringIO()
        spent = gauge.spent
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = run(request)
        t1 = time.perf_counter()
        latency = t1 - t0 - (gauge.spent - spent)
        wall += latency
        out.write(json.dumps({"code": code, "s": latency, "t": [t0, t1],
                              "out": buf.getvalue()}) + "\n")
    gauge.stop()
    summary = {"import_s": IMPORT_S, "wall_s": wall, "rss_kb": peak_rss_kb(),
               "gauge": list(zip(gauge.starts, gauge.times))}
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
    out.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

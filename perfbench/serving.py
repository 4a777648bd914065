"""A spawned ``repro serve`` daemon, driven only through its public surface.

The daemon is started with :class:`repro.bench.serve.SpawnedDaemon` and
spoken to with :class:`repro.serve.ServeClient`.  Its combined
stdout/stderr carries one access-log line per request, so a thread
drains the pipe for the daemon's whole life; without it the daemon
would block on a full pipe after a few hundred requests.
"""

import json
import re
import threading
from contextlib import contextmanager

_SAMPLE_RE = re.compile(r'^(\w+)(?:\{([^}]*)\})? (\S+)$')


@contextmanager
def spawned_daemon(extra_args=()):
    """Yield ``(daemon, client)``; always stop the daemon and the drain."""
    from repro.bench.serve import SpawnedDaemon
    from repro.serve import ServeClient

    daemon = SpawnedDaemon(extra_args=extra_args)
    daemon.start()
    drain = threading.Thread(
        target=lambda stream: [None for _line in stream],
        args=(daemon.process.stdout,),
        daemon=True,
    )
    drain.start()
    try:
        yield daemon, ServeClient(daemon.url)
    finally:
        daemon.stop()
        drain.join(timeout=10.0)


def peak_rss_mb(pid):
    """The process's peak resident set (``VmHWM``) in MiB, from /proc."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid {}".format(pid))


def parse_exposition(text):
    """``{(name, frozenset(labels)): value}`` from Prometheus text."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = frozenset(
            tuple(pair.split("=", 1)) for pair in (labels or "").split(",") if pair
        )
        samples[(name, pairs)] = float(value)
    return samples


def scrape(client):
    """The ``/metrics`` figures the benchmark reports, by layer name."""
    samples = parse_exposition(client.metrics())

    def value(name, quantile=None):
        for (sample, labels), number in samples.items():
            if sample != name:
                continue
            if quantile is None or ("quantile", '"{}"'.format(quantile)) in labels:
                return number
        return 0.0

    return {
        "serve.cache_hits": value("repro_serve_cache_hits_total"),
        "serve.cache_misses": value("repro_serve_cache_misses_total"),
        "serve.coalesce.leaders": value("repro_serve_coalesce_leaders_total"),
        "serve.server_run_ms_p50": value(
            "repro_serve_latency_ms_post_run", quantile="0.5"
        ),
    }


def request_durations_ms(trace_path):
    """``{request_id: daemon-side ms}`` from a ``--trace-out`` file."""
    with open(trace_path) as handle:
        payload = json.load(handle)
    events = payload["traceEvents"] if isinstance(payload, dict) else payload
    durations = {}
    for event in events:
        if event.get("ph") != "X" or not event.get("name", "").startswith(
            "serve.request:"
        ):
            continue
        request_id = (event.get("args") or {}).get("request_id")
        if request_id is not None:
            durations[request_id] = event["dur"] / 1e3
    return durations

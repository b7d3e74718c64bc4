#!/usr/bin/env python3
"""aft_top: a terminal dashboard over N aft_server metrics endpoints.

Scrapes GET /metrics (Prometheus text exposition 0.0.4) from every endpoint,
keeps the previous sample, and renders DELTA-derived stats — rates are
since-last-scrape, and latency quantiles come from the histogram bucket
deltas of the same window, so the display answers "what is the cluster doing
NOW", not "since boot".

    $ tools/aft_top.py 127.0.0.1:9100 127.0.0.1:9101 127.0.0.1:9102
    $ tools/aft_top.py --once --interval 1 127.0.0.1:9100

Per node: txn/s, commit p50/p99, per-stage p50/p99 from the
aft_commit_stage_seconds breakdown (txn_lock_wait / data_flush / barrier /
record_write / gossip_publish), backpressure pauses/s, and fsyncs per
committed transaction. Pure stdlib.
"""

import argparse
import re
import sys
import time
import urllib.error
import urllib.request

STAGES = [
    "txn_lock_wait",
    "data_flush",
    "barrier",
    "record_write",
    "gossip_publish",
]

# name{label="v",...} value   — the exposition's sample-line shape. Label
# values in this codebase never contain escaped quotes, so a non-greedy
# quoted match is exact enough.
_SAMPLE_RE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+([^ ]+)\s*$')
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="(.*?)"')


def parse_exposition(text):
    """Returns {(name, frozenset(labels.items())): float_value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            continue
        name, _, labelstr, value = m.groups()
        labels = dict(_LABEL_RE.findall(labelstr)) if labelstr else {}
        try:
            samples[(name, frozenset(labels.items()))] = float(value)
        except ValueError:
            continue
    return samples


def scrape(endpoint, path="/metrics", timeout=2.0):
    url = "http://%s%s" % (endpoint, path)
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8", "replace")


class Snapshot:
    """One scrape of one endpoint, with typed accessors."""

    def __init__(self, samples, when):
        self.samples = samples
        self.when = when

    def value(self, name, **labels):
        """Sum of every sample of `name` whose labels INCLUDE the given ones
        (extra labels like node= are ignored so single-node servers and the
        dashboard agree)."""
        want = set(labels.items())
        total, found = 0.0, False
        for (sname, slabels), v in self.samples.items():
            if sname == name and want.issubset(slabels):
                total += v
                found = True
        return total if found else None

    def buckets(self, name, **labels):
        """[(le_upper_bound, cumulative_count)] sorted, from name_bucket."""
        want = set(labels.items())
        out = []
        for (sname, slabels), v in self.samples.items():
            if sname != name + "_bucket":
                continue
            slabels = dict(slabels)
            le = slabels.pop("le", None)
            if le is None or not want.issubset(slabels.items()):
                continue
            out.append((float("inf") if le == "+Inf" else float(le), v))
        return sorted(out)


def delta(cur, prev, name, **labels):
    """Counter delta over the window; None if the family is absent."""
    a = cur.value(name, **labels)
    if a is None:
        return None
    b = prev.value(name, **labels) if prev is not None else 0.0
    return max(0.0, a - (b or 0.0))


def quantile(cur, prev, name, q, **labels):
    """Quantile from bucket DELTAS (Prometheus histogram_quantile over the
    scrape window): find the bucket holding the q-th delta observation and
    interpolate linearly within it. None when the window saw nothing."""
    cur_b = cur.buckets(name, **labels)
    if not cur_b:
        return None
    prev_b = dict(prev.buckets(name, **labels)) if prev is not None else {}
    deltas = [(le, max(0.0, c - prev_b.get(le, 0.0))) for le, c in cur_b]
    total = deltas[-1][1]
    if total <= 0:
        return None
    rank = q * total
    lower = 0.0
    prev_cum = 0.0
    for le, cum in deltas:
        if cum >= rank:
            if le == float("inf"):
                return lower  # open-ended bucket: report its lower bound
            width_count = cum - prev_cum
            frac = (rank - prev_cum) / width_count if width_count > 0 else 1.0
            return lower + (le - lower) * frac
        lower, prev_cum = le, cum
    return deltas[-1][0]


def fmt_dur(seconds):
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return "%.2fs" % seconds
    if seconds >= 1e-3:
        return "%.1fms" % (seconds * 1e3)
    if seconds >= 1e-6:
        return "%.0fus" % (seconds * 1e6)
    return "%.0fns" % (seconds * 1e9)


def fmt_rate(v):
    if v is None:
        return "-"
    if v >= 1000:
        return "%.1fk" % (v / 1000.0)
    return "%.1f" % v


def node_row(endpoint, cur, prev, window_s):
    """One endpoint's headline stats dict (values may be None)."""
    committed = delta(cur, prev, "aft_node_txns_committed_total")
    pauses = delta(cur, prev, "aft_net_backpressure_pauses_total")
    fsyncs = delta(cur, prev, "aft_wal_fsyncs_total")
    row = {
        "endpoint": endpoint,
        "txn_rate": committed / window_s if committed is not None and window_s > 0 else None,
        "p50": quantile(cur, prev, "aft_node_commit_latency_ms", 0.50),
        "p99": quantile(cur, prev, "aft_node_commit_latency_ms", 0.99),
        "pauses_rate": pauses / window_s if pauses is not None and window_s > 0 else None,
        "fsyncs_per_txn": None,
        "stages": {},
    }
    if fsyncs is not None and committed:
        row["fsyncs_per_txn"] = fsyncs / committed
    for stage in STAGES:
        row["stages"][stage] = (
            quantile(cur, prev, "aft_commit_stage_seconds", 0.50, stage=stage),
            quantile(cur, prev, "aft_commit_stage_seconds", 0.99, stage=stage),
        )
    return row


def render(rows, errors, interval, once):
    out = []
    if not once:
        out.append("\x1b[2J\x1b[H")  # clear + home
    out.append("aft_top — %s  (window %.1fs; rates are since-last-scrape)" %
               (time.strftime("%H:%M:%S"), interval))
    out.append("")
    header = "%-22s %8s %9s %9s %9s %10s" % (
        "node", "txn/s", "commit", "commit", "bp", "fsyncs")
    sub = "%-22s %8s %9s %9s %9s %10s" % (
        "", "", "p50", "p99", "pauses/s", "/txn")
    out.append(header)
    out.append(sub)
    out.append("-" * len(header))
    for row in rows:
        # aft_node_commit_latency_ms buckets are in MILLISECONDS.
        p50 = fmt_dur(row["p50"] / 1e3) if row["p50"] is not None else "-"
        p99 = fmt_dur(row["p99"] / 1e3) if row["p99"] is not None else "-"
        out.append("%-22s %8s %9s %9s %9s %10s" % (
            row["endpoint"], fmt_rate(row["txn_rate"]), p50, p99,
            fmt_rate(row["pauses_rate"]),
            "%.2f" % row["fsyncs_per_txn"] if row["fsyncs_per_txn"] is not None else "-"))
    out.append("")
    out.append("commit stage breakdown (p50 / p99, this window)")
    stage_header = "%-22s" % "node" + "".join("%16s" % s[:15] for s in STAGES)
    out.append(stage_header)
    out.append("-" * len(stage_header))
    for row in rows:
        cells = []
        for stage in STAGES:
            p50, p99 = row["stages"][stage]
            cells.append("%16s" % ("-" if p50 is None else
                                   "%s/%s" % (fmt_dur(p50), fmt_dur(p99))))
        out.append("%-22s%s" % (row["endpoint"], "".join(cells)))
    for endpoint, err in errors:
        out.append("")
        out.append("!! %s: %s" % (endpoint, err))
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("endpoints", nargs="+", metavar="HOST:PORT",
                    help="metrics endpoints (aft_server --metrics-port)")
    ap.add_argument("--interval", type=float, default=2.0,
                    help="seconds between scrapes (default 2)")
    ap.add_argument("--once", action="store_true",
                    help="two scrapes one interval apart, print one frame, exit "
                         "(for scripts and the CI smoke)")
    args = ap.parse_args()

    prev = {}
    first = True
    while True:
        rows, errors = [], []
        now = time.monotonic()
        for endpoint in args.endpoints:
            try:
                cur = Snapshot(parse_exposition(scrape(endpoint)), now)
            except (urllib.error.URLError, OSError, TimeoutError) as e:
                errors.append((endpoint, str(e)))
                continue
            p = prev.get(endpoint)
            window = (cur.when - p.when) if p is not None else args.interval
            rows.append(node_row(endpoint, cur, p, window))
            prev[endpoint] = cur
        # The first loop only primes `prev`; its frame would be since-boot
        # numbers, which is exactly what delta mode exists to avoid.
        if not first:
            print(render(rows, errors, args.interval, args.once))
            if args.once:
                return 1 if errors and not rows else 0
        first = False
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    sys.exit(main())

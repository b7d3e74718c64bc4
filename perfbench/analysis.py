"""Turns one aftbench run's raw measurements into the reported metrics.

Pure functions over plain data, so tests (test_analysis.py) can check the
arithmetic without building or running anything:

* percentiles, and the rule that a tail percentile is reported only with
  at least ten samples beyond it;
* per-run deltas of the metrics registry, whose counters are
  process-cumulative (a node re-created with the same id keeps counting);
* span self time: a span's duration minus the part its children cover.
"""

import math
import re
import statistics

# ---------------------------------------------------------------------------
# Percentiles


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def highest_supported_quantile(n, candidates=(0.999, 0.99, 0.95, 0.9, 0.5)):
    """The highest quantile in `candidates` with at least ten samples beyond
    it, or None when even the lowest has fewer."""
    for q in candidates:
        if samples_beyond(n, q) >= 10:
            return q
    return None


def median(values):
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Metrics registry (Prometheus text exposition) and per-run deltas

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value):
    return value.replace('\\n', '\n').replace('\\"', '"').replace('\\\\', '\\')


def parse_exposition(text):
    """Maps (series name, frozenset of label pairs) to its value."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith('#'):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = frozenset((k, _unescape(v)) for k, v in _LABEL.findall(labels or ''))
        series[(name, pairs)] = float(value)
    return series


def registry_delta(before, after):
    """Per-series change over a run: after - before, with series that first
    appeared during the run counted from zero."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(series, name, **labels):
    """Sum of every series called `name` whose labels include `labels`."""
    wanted = set(labels.items())
    return sum(v for (n, pairs), v in series.items() if n == name and wanted <= pairs)


def histogram_mean(series, name, **labels):
    count = total(series, name + '_count', **labels)
    return total(series, name + '_sum', **labels) / count if count else 0.0


def counter_delta(before, after, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


# ---------------------------------------------------------------------------
# Spans


def parse_spans(text):
    """Spans as dicts from aftbench's TSV (request, id, parent, name,
    start_ns, end_ns)."""
    spans = []
    for line in text.splitlines():
        if not line:
            continue
        request, span_id, parent, name, start, end = line.split('\t')
        spans.append({'request': int(request), 'id': int(span_id), 'parent': int(parent),
                      'name': name, 'start': int(start), 'end': int(end)})
    return spans


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    length = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            length += end - start
            cursor = end
    return length


def self_times(spans):
    """Each span's duration minus the part of it its children cover, as a
    list parallel to `spans`."""
    children = {}
    for s in spans:
        if s['parent']:
            children.setdefault((s['request'], s['parent']), []).append((s['start'], s['end']))
    return [s['end'] - s['start'] - covered(children.get((s['request'], s['id']), []),
                                            s['start'], s['end'])
            for s in spans]


def self_time_by_name(spans):
    """Total self time and total duration per span name, in ns."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s['name'], {'self': 0, 'total': 0, 'count': 0})
        entry['self'] += own
        entry['total'] += s['end'] - s['start']
        entry['count'] += 1
    return out


def durations_ms(spans, name, scale):
    return [(s['end'] - s['start']) / 1e6 / scale for s in spans if s['name'] == name]


# ---------------------------------------------------------------------------
# The metrics

STAGES = ('txn_lock_wait', 'queue_wait_leader', 'queue_wait_follower', 'data_flush',
          'barrier', 'record_write', 'gossip_publish')
CLIENT_CALLS = ('start', 'read', 'write', 'commit')
# Client call (span client.<call>) -> the server-side RPC methods it becomes
# over TCP.
RPC_METHODS = {'start': ('StartTxn',), 'read': ('Get', 'MultiGet'), 'write': ('Put',),
               'commit': ('Commit',)}


def phase(result, name):
    for p in result['phases']:
        if p['name'] == name:
            return p
    return None


def end_to_end(result):
    """The untraced run's metrics. Request latencies and throughput are in
    the workload's reporting unit (simulated time for fig3_s3, wall clock
    otherwise); setup_s and peak_rss_mb are wall seconds and real memory
    for every workload."""
    scale = result['time_scale']
    main = phase(result, result['main_phase'])
    lat = main['latency_ms']
    return {
        'request_p50_ms': median(lat) / scale,
        'request_p99_ms': percentile(lat, 0.99) / scale,
        'throughput_tps': len(lat) / (main['elapsed_s'] / scale),
        'setup_s': median(result['setup_s']),
        'peak_rss_mb': result['peak_rss_kb'] / 1024.0,
    }


def commit_stage_overshoot(delta):
    """How far the commit stages' summed time exceeds end-to-end commit time
    beyond the attribution contract's allowance (5% + 50 µs per commit);
    positive means double counting."""
    commits = total(delta, 'aft_node_commit_latency_ms_count')
    e2e_s = total(delta, 'aft_node_commit_latency_ms_sum') / 1e3
    stage_s = total(delta, 'aft_commit_stage_seconds_sum')
    return stage_s - (1.05 * e2e_s + 50e-6 * commits)


def per_layer(result, spans, delta):
    """The traced run's per-layer metrics, plus the reconciliation of request
    time against bench spans and node-side time."""
    scale = result['time_scale']
    main = phase(result, result['main_phase'])
    before, after = result['before'], result['after']
    requests = max(1, len(main['latency_ms']))
    seconds = main['elapsed_s'] / scale

    def per_req(counter):
        return counter_delta(before, after, counter) / requests

    def ratio(num, den):
        return num / den if den else 0.0

    by_name = self_time_by_name(spans)
    m = {}
    m['faas.dispatch_ms'] = by_name.get('faas.invoke_chain', {}).get('self', 0) / 1e6 / scale / requests
    m['faas.retries_per_req'] = per_req('faas.retries')
    for call in CLIENT_CALLS:
        d = durations_ms(spans, 'client.' + call, scale)
        m['client.%s_ms.p50' % call] = median(d) if d else 0.0
        m['client.%s_ms.mean' % call] = sum(d) / len(d) if d else 0.0
        m['client.%s.count' % call] = float(len(d))
    m['client.request_retries_per_req'] = main['request_retries'] / requests

    m['core.read_ms'] = histogram_mean(delta, 'aft_node_read_latency_ms') / scale
    m['core.read_walk_depth'] = histogram_mean(delta, 'aft_node_read_walk_depth')
    hits = total(delta, 'aft_node_data_cache_hits_total')
    m['core.data_cache_hit_ratio'] = ratio(hits, hits + total(delta, 'aft_node_data_cache_misses_total'))
    hits = total(delta, 'aft_commit_set_cache_lookup_hits_total')
    m['core.commit_set_cache_hit_ratio'] = ratio(
        hits, hits + total(delta, 'aft_commit_set_cache_lookup_misses_total'))
    m['core.read_aborts_per_req'] = total(delta, 'aft_node_read_aborts_total') / requests

    commits = total(delta, 'aft_node_commit_latency_ms_count')
    m['core.commit_ms'] = histogram_mean(delta, 'aft_node_commit_latency_ms') / scale
    for stage in STAGES:
        m['core.stage.%s_ms' % stage] = ratio(
            total(delta, 'aft_commit_stage_seconds_sum', stage=stage) * 1e3, commits) / scale
    batched = total(delta, 'aft_commit_batch_size_sum')
    m['core.batch_size_mean'] = histogram_mean(delta, 'aft_commit_batch_size')
    m['core.solo_commit_frac'] = ratio(total(delta, 'aft_commit_batch_size_bucket', le='1'), batched)

    m['core.gc_records_removed_per_s'] = total(delta, 'aft_node_gc_records_removed_total') / seconds
    m['fm.sweep_ms'] = histogram_mean(delta, 'aft_fm_sweep_duration_ms', sweep='gc') / scale
    m['fm.versions_deleted_per_s'] = counter_delta(before, after, 'fm.versions_deleted') / seconds

    m['storage.api_calls_per_req'] = per_req('storage.api_calls')
    m['storage.gets_per_req'] = per_req('storage.gets')
    m['storage.puts_per_req'] = per_req('storage.puts')
    for op in ('get', 'put', 'batch'):
        # Simulated engines observe the latency they charge (simulated ms);
        # the local engine observes wall ms at time scale 1.
        m['storage.op_ms.' + op] = histogram_mean(delta, 'aft_storage_op_latency_ms', op=op)

    # WAL appends (one writev each): a commit round's, plus GC's deletes.
    # Batching fuses commits into fewer, with or without fdatasync.
    m['wal.appends_per_txn'] = per_req('wal.appends')
    m['wal.fsyncs_per_txn'] = per_req('wal.fsyncs')
    m['wal.records_per_txn'] = per_req('wal.records')
    m['wal.bytes_per_user_byte'] = ratio(counter_delta(before, after, 'wal.bytes_appended'),
                                         counter_delta(before, after, 'user.bytes_written'))
    m['wal.compactions'] = counter_delta(before, after, 'wal.compactions')
    m['wal.reclaimed_bytes_per_s'] = counter_delta(before, after, 'wal.reclaimed_bytes') / seconds
    m['wal.dead_bytes_frac'] = ratio(after.get('wal.dead_bytes', 0.0), after.get('wal.file_bytes', 0.0))

    for call, methods in RPC_METHODS.items():
        calls = sum(total(delta, 'aft_net_rpc_latency_ms_count', method=x) for x in methods)
        served = sum(total(delta, 'aft_net_rpc_latency_ms_sum', method=x) for x in methods)
        client = durations_ms(spans, 'client.' + call, scale)
        # Client call time minus server service time: framing, the socket
        # hops and the event loop's queueing.
        m['net.rpc_overhead_ms.' + call] = (sum(client) / len(client) - served / calls / scale
                                           if client and calls else 0.0)
    m['net.fanouts_per_req'] = per_req('net.fanouts')
    m['net.retries'] = counter_delta(before, after, 'net.retries')
    m['net.reconnects'] = counter_delta(before, after, 'net.reconnects')
    m['net.backpressure_pauses'] = total(delta, 'aft_net_backpressure_pauses_total')

    rounds = total(delta, 'aft_gossip_rounds_total')
    broadcast = total(delta, 'aft_gossip_records_broadcast_total')
    pruned = total(delta, 'aft_gossip_records_pruned_total')
    m['gossip.rounds_per_s'] = rounds / seconds
    m['gossip.records_per_round'] = ratio(broadcast, rounds)
    m['gossip.pruned_frac'] = ratio(pruned, broadcast + pruned)
    m['core.remote_commits_applied_per_s'] = total(delta, 'aft_node_remote_commits_applied_total') / seconds

    recon = reconcile(by_name, delta, scale)
    m['trace.unattributed_frac'] = recon['unattributed_frac']
    m['trace.node_frac'] = recon['node_frac']
    untraced = phase(result, result['baseline_phase'])
    m['trace.overhead_ratio'] = (median(main['latency_ms']) / median(untraced['latency_ms'])
                                 if untraced and untraced['latency_ms'] else 0.0)
    return m, recon


def reconcile(by_name, delta, scale):
    """Splits total request time (ms, reporting unit) into what the bench
    spans and the node's own histograms account for.

    The layers are the request's children: FaaS dispatch (InvokeChain self
    time), client calls, and retry backoff. Inside client calls the node
    reports its Algorithm 1 read time and its commit stages; the rest of a
    client call is the client hop plus node work no histogram times. What
    no layer span covers (the request's own self time and function-body
    self time, i.e. the benchmark's code) is unattributed.
    """
    def ms(name, key='total'):
        return by_name.get(name, {}).get(key, 0) / 1e6 / scale

    request = ms('request')
    client = sum(ms(n) for n in by_name if n.startswith('client.'))
    node_read = total(delta, 'aft_node_read_latency_ms_sum') / scale
    node_commit = total(delta, 'aft_commit_stage_seconds_sum') * 1e3 / scale
    rows = {
        'request': request,
        'faas.dispatch': ms('faas.invoke_chain', 'self'),
        'client.calls': client,
        'node.read': node_read,
        'node.commit_stages': node_commit,
        'client.other': client - node_read - node_commit,
        'request.backoff': ms('request.backoff'),
        'unattributed': ms('request', 'self') + ms('faas.function', 'self'),
    }
    rows['unattributed_frac'] = rows['unattributed'] / request if request else 0.0
    rows['node_frac'] = (node_read + node_commit) / request if request else 0.0
    return rows

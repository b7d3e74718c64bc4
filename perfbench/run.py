#!/usr/bin/env python3
"""The shim's benchmark: builds aftbench, runs one workload, checks it,
and prints its metrics.

    python3 perfbench/run.py --workload fig3_s3|fig3_tcp|rmw_local \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py              # the gated workloads, seed 1, 10 s each
    python3 perfbench/run.py --self-test  # the analysis code's unit tests

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run instead. The lines before it are a readable report: every
metric with its unit, the correctness checks, the per-layer
reconciliation (traced runs), and the run's provenance. Each run's raw
files and a record of everything printed stay under
.bench_build/runs/<workload>-seed<N>-trace<T>/.

Exit status is non-zero when the build or the run fails or any
correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis  # noqa: E402

BUILD_TYPE = 'RelWithDebInfo'
BUILD_DIR = os.path.join(ROOT, '.bench_build', 'cmake')
RUNS_DIR = os.path.join(ROOT, '.bench_build', 'runs')
# The workloads BENCHMARK.json gates, then rmw_local, whose disk-bound
# figures are for runs by hand.
GATED = ('fig3_s3', 'fig3_tcp')
WORKLOADS = GATED + ('rmw_local',)
RUN_TIMEOUT_S = 170

# The gated end-to-end metrics (BENCHMARK.json). The report also prints
# failed_frac, overhead_ratio and recovery_ms.
END_TO_END_UNITS = {
    'request_p50_ms': 'ms',
    'request_p99_ms': 'ms',
    'throughput_tps': '1/s',
    'setup_s': 's',
    'peak_rss_mb': 'MB',
}


def log(msg):
    print('perfbench: ' + msg, file=sys.stderr, flush=True)


def per_layer_unit(name):
    if name.endswith('_ms') or '_ms.' in name:
        return 'ms'
    if name.endswith('_per_s'):
        return 'B/s' if 'bytes' in name else '1/s'
    if name.endswith(('_ratio', '_frac')):
        return 'ratio'
    return 'count'


def build():
    """Configures and builds aftbench from the checkout's sources; returns
    its path, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, 'src', 'CMakeLists.txt')):
        log('no shim sources next to perfbench/ (expected %s)' % os.path.join(ROOT, 'src'))
        return None
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(ROOT, '.bench_build', 'build.log')
    configure = ['cmake', '-S', HERE, '-B', BUILD_DIR, '-DCMAKE_BUILD_TYPE=' + BUILD_TYPE]
    if shutil.which('ninja') and not os.path.exists(os.path.join(BUILD_DIR, 'CMakeCache.txt')):
        configure += ['-G', 'Ninja']
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_log, 'w') as out:
        for cmd in (configure, ['cmake', '--build', BUILD_DIR, '--target', 'aftbench', '-j', jobs]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                with open(build_log) as f:
                    sys.stderr.write(''.join(f.readlines()[-40:]))
                log('build failed (%s)' % build_log)
                return None
    return os.path.join(BUILD_DIR, 'aftbench')


def source_digest():
    """sha256 over the shim's and the benchmark's sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ('src', 'perfbench'):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != '__pycache__')
            for name in sorted(filenames):
                if name.endswith('.pyc'):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, 'rb') as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, '.git')):
        return 'n/a (not a git checkout)'
    proc = subprocess.run(['git', '-C', ROOT, 'rev-parse', 'HEAD'], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else 'unknown'


def cpu_ticks():
    """The host's CPU time counters (/proc/stat), or None where unavailable."""
    try:
        with open('/proc/stat') as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_ticks() readings."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def read(path):
    with open(path) as f:
        return f.read()


def run_once(binary, workload, seed, seconds, trace):
    """Runs aftbench once and returns (record, report lines)."""
    out_dir = os.path.join(RUNS_DIR, '%s-seed%d-trace%d' % (workload, seed, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    cmd = [binary, '--workload', workload, '--seed', str(seed), '--seconds', str(seconds),
           '--trace', str(trace), '--out', out_dir]
    started = time.monotonic()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log('%s did not finish within %d s' % (workload, RUN_TIMEOUT_S))
        return None, []
    if code != 0:
        log('aftbench exited with status %d' % code)
        return None, []
    wall_s = time.monotonic() - started
    load_after = os.getloadavg()
    steal = steal_share(ticks_before, cpu_ticks())

    result = json.loads(read(os.path.join(out_dir, 'result.json')))
    delta = analysis.registry_delta(
        analysis.parse_exposition(read(os.path.join(out_dir, 'registry_before.prom'))),
        analysis.parse_exposition(read(os.path.join(out_dir, 'registry_after.prom'))))
    scale = result['time_scale']
    main = analysis.phase(result, result['main_phase'])
    baseline = analysis.phase(result, result['baseline_phase'])
    measured = [p for p in (main, baseline) if p is not None]
    attempted = sum(p['attempted'] for p in measured)
    failed = sum(p['failed'] for p in measured)
    completed = len(main['latency_ms'])

    lines = []
    unit_note = 'simulated time, scale %g' % scale if scale != 1 else 'wall clock'
    lines.append('== %s  seed %d  %g s  trace %d  (%s)' % (workload, seed, seconds, trace, unit_note))

    # Correctness.
    checks = [
        ('requests completed', completed > 0, '%d' % completed),
        ('every AFT request audited', result['audited_txns'] == completed,
         '%d audited' % result['audited_txns']),
        ('RYW anomalies', result['ryw_anomalies'] == 0, '%d' % result['ryw_anomalies']),
        ('fractured reads', result['fr_anomalies'] == 0, '%d' % result['fr_anomalies']),
        ('commit stages within end-to-end commit time',
         analysis.commit_stage_overshoot(delta) <= 0,
         'overshoot %.6f s' % analysis.commit_stage_overshoot(delta)),
    ]
    rmw = workload == 'rmw_local'
    if rmw:
        checks.append(('acked => durable after reopen',
                       result['durability_keys'] > 0 and result['durability_lost'] == 0,
                       '%d keys checked, %d lost' % (result['durability_keys'], result['durability_lost'])))
    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        lines.append('  check %-46s %s  (%s)' % (name, 'ok' if ok else 'FAILED', detail))

    # End-to-end, printed in every run; the JSON carries them when untraced.
    e2e = analysis.end_to_end(result)
    n = len(main['latency_ms'])
    beyond = analysis.samples_beyond(n, 0.99)
    lines.append('  %-36s %14.4f ms' % ('request_p50_ms', e2e['request_p50_ms']))
    lines.append('  %-36s %14.4f ms   (%d samples, %d beyond p99%s)' % (
        'request_p99_ms', e2e['request_p99_ms'], n, beyond,
        '' if beyond >= 10 else '; too few: highest supported quantile %s'
        % analysis.highest_supported_quantile(n)))
    lines.append('  %-36s %14.4f 1/s' % ('throughput_tps', e2e['throughput_tps']))
    lines.append('  %-36s %14.4f ratio (%d of %d attempted)' % (
        'failed_frac', failed / attempted if attempted else 0.0, failed, attempted))
    if result['baseline_phase'] == 'plain':
        plain_p50 = analysis.median(baseline['latency_ms']) / scale
        lines.append('  %-36s %14.4f ratio (Plain p50 %.4f ms)' % (
            'overhead_ratio', e2e['request_p50_ms'] / plain_p50, plain_p50))
    if rmw:
        lines.append('  %-36s %14.4f ms' % ('recovery_ms', result['recovery_ms']))
        lines.append('  %-36s %14d keys (of %d; the recovered node read them at a version older '
                     'than their last acked write)' % ('recovered_stale', result['recovered_stale'],
                                                        result['durability_keys']))
    lines.append('  %-36s %14.4f s    (median of %s)' % (
        'setup_s', e2e['setup_s'], ', '.join('%.4f' % s for s in result['setup_s'])))
    lines.append('  %-36s %14.4f MB' % ('peak_rss_mb', e2e['peak_rss_mb']))

    if trace:
        spans = analysis.parse_spans(read(os.path.join(out_dir, 'spans.tsv')))
        layer, recon = analysis.per_layer(result, spans, delta)
        metrics = {k: {'value': v, 'unit': per_layer_unit(k)} for k, v in layer.items()}
        lines.append('  per-layer (traced phase, %d requests):' % completed)
        for name, m in metrics.items():
            lines.append('    %-40s %14.6g %s' % (name, m['value'], m['unit']))
        lines.append('  reconciliation of request time (ms per request):')
        for name in ('request', 'faas.dispatch', 'client.calls', 'node.read',
                     'node.commit_stages', 'client.other', 'request.backoff', 'unattributed'):
            lines.append('    %-40s %14.4f' % (name, recon[name] / max(1, completed)))
        lines.append('    %-40s %14.4f' % ('unattributed share', recon['unattributed_frac']))
        lines.append('    %-40s %14.4f (traced p50 / untraced p50)' % (
            'tracing overhead', layer['trace.overhead_ratio']))
        self_by_name = analysis.self_time_by_name(spans)
        lines.append('  span self time (ms per request):')
        for name, entry in sorted(self_by_name.items()):
            lines.append('    %-40s %14.4f  (%d spans)' % (
                name, entry['self'] / 1e6 / scale / max(1, completed), entry['count']))
    else:
        metrics = {k: {'value': v, 'unit': END_TO_END_UNITS[k]} for k, v in e2e.items()}

    provenance = {
        'git_sha': git_sha(),
        'source_sha256': source_digest(),
        'build_type': BUILD_TYPE,
        'nproc': nproc,
        'loadavg_before': [round(x, 2) for x in load_before],
        'loadavg_after': [round(x, 2) for x in load_after],
        # CPU steal: time the hypervisor ran other guests on our vCPUs. Every
        # sleep and socket hop then waits longer, so latencies inflate.
        'cpu_steal_share': None if steal is None else round(steal, 4),
        # Our own previous run can leave up to ~nproc of load average behind;
        # more than that, or more than 5% steal, means the host was busy.
        'host_loaded': load_before[0] > 1.5 * nproc or (steal or 0) > 0.05,
        'AFT_TIME_SCALE': os.environ.get('AFT_TIME_SCALE'),
        'time_scale': scale,
        'data_fs': result['data_fs'],
        'run_wall_s': round(wall_s, 2),
    }
    lines.append('  provenance ' + json.dumps(provenance, sort_keys=True))
    if provenance['host_loaded']:
        lines.append('  WARNING: the host was busy (load average or CPU steal); '
                     'latencies are inflated')

    record = {'correct': correct, 'attempted': attempted, 'failed': failed, 'metrics': metrics}
    with open(os.path.join(out_dir, 'record.json'), 'w') as f:
        json.dump(dict(record, workload=workload, seed=seed, seconds=seconds, trace=trace,
                       provenance=provenance, checks=[list(c) for c in checks],
                       report=lines), f, indent=1)
    return record, lines


def self_test():
    import unittest
    suite = unittest.defaultTestLoader.discover(HERE, pattern='test_*.py')
    return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', choices=WORKLOADS)
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=10)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--self-test', action='store_true')
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    binary = build()
    if binary is None:
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)
    workloads = [args.workload] if args.workload else list(GATED)
    records = []
    for workload in workloads:
        record, lines = run_once(binary, workload, args.seed, args.seconds, args.trace)
        if record is None:
            return 1
        print('\n'.join(lines), flush=True)
        records.append(record)
    if len(records) == 1:
        final = records[0]
    else:
        final = {
            'correct': all(r['correct'] for r in records),
            'attempted': sum(r['attempted'] for r in records),
            'failed': sum(r['failed'] for r in records),
            'metrics': {'%s.%s' % (w, k): v for w, r in zip(workloads, records)
                        for k, v in r['metrics'].items()},
        }
    print(json.dumps(final))
    return 0 if final['correct'] else 1


if __name__ == '__main__':
    sys.exit(main())

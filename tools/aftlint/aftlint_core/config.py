"""Repo-specific configuration for the aftlint checkers.

Everything here is a *visible, reviewable* input to the analysis — the point
of aftlint is that the invariants are machine-checked, so anything the dumb
textual backend cannot derive (an alias's type, a file that is the locking
primitive layer itself) is declared here instead of being silently guessed.
"""

# ---- lock-order --------------------------------------------------------------

# The annotated wrapper layer: its internals ARE the primitives (Mutex::Lock
# calling std::mutex::lock), not acquisition sites of the discipline.
LOCK_ORDER_EXCLUDE = [
    "src/common/mutex.h",
    "src/common/thread_annotations.h",
]

# Expression-text -> canonical lock identity, for member expressions whose
# base object the textual scanner cannot type (captured lambda variables,
# `auto` locals). Keep this list short: parameters and plain locals resolve
# on their own.
LOCK_ALIASES: dict[str, str] = {
    "txn.mu": "TransactionState::mu",
    "txn->mu": "TransactionState::mu",
    "conn->mu": "EventConnection::mu",
    "channel->mu": "Channel::mu",
    "chan->mu": "Channel::mu",
    "peer->send_mu": "Peer::send_mu",
    "loop->mu": "EventLoop::mu",
    "shard.mu": "Shard::mu",
    "shard->mu": "Shard::mu",
}

# Variable-name -> type hints applied in EVERY function, for idiomatic names
# whose declarations the scanner cannot see (loop variables over well-known
# containers, structured bindings).
TYPE_HINTS: dict[str, str] = {}

# ---- decoder-bounds ----------------------------------------------------------

# Files whose decoders consume wire-controlled bytes. The §3.3/PR-3 rule:
# any allocation size or loop bound read off the wire must be clamped against
# the remaining payload before use.
DECODER_FILES = [
    "src/common/serde.h",
    "src/net/frame.cc",
    "src/net/frame.h",
    "src/net/message.cc",
    "src/net/message.h",
    "src/net/client.cc",
    "src/net/server.cc",
    "src/net/tcp_multicast_bus.cc",
    "src/core/records.cc",
    "src/storage/wal.cc",
    "src/storage/wal_recovery.cc",
]

# ---- loop-blocking -----------------------------------------------------------

# Event-loop entry points: functions marked `// aftlint: event-loop` in the
# source are entries too; these names are the repo's known roots so the check
# cannot be defeated by deleting the marker comment. The server's root is a
# pool thread's non-blocking I/O step, from the epoll wake to the re-arm
# (`NextRequests`, which runs `RunIoStep`). Serving the decoded requests
# afterwards may block: the connection is re-armed and the other pool threads
# wait in epoll_wait.
EVENT_LOOP_ENTRIES = [
    "AftServiceServer::NextRequests",
]

# Call-site patterns that block (or may block unboundedly) and therefore must
# never run on an event-loop thread. Matched against masked text, so string
# literals cannot trigger them.
BLOCKING_CALL_PATTERNS = [
    (r"\bsleep_for\s*\(", "std::this_thread::sleep_for blocks the loop thread"),
    (r"\bsleep_until\s*\(", "sleep_until blocks the loop thread"),
    (r"\busleep\s*\(", "usleep blocks the loop thread"),
    (r"\bnanosleep\s*\(", "nanosleep blocks the loop thread"),
    (r"\.Wait\s*\(", "condition-variable Wait blocks the loop thread"),
    (r"\.WaitFor\s*\(", "condition-variable WaitFor blocks the loop thread"),
    (r"\.wait\s*\(", "condition-variable wait blocks the loop thread"),
    (r"\bwait_for\s*\(", "condition-variable wait_for blocks the loop thread"),
    (r"\bRecvAll\s*\(", "blocking RecvAll on the loop thread (use RecvSome)"),
    (r"\bSendAll\s*\(", "blocking SendAll on the loop thread (use SendSome + EPOLLOUT)"),
    (r"\bReadFrame\s*\(", "ReadFrame blocks until a whole frame arrives (use DecodeFrameFromBuffer)"),
    (r"\bWriteFrame\s*\(", "WriteFrame sends blocking (queue on the connection instead)"),
    (r"\bTcpConnect\s*\(", "blocking connect on the loop thread"),
    (r"::connect\s*\(", "blocking connect(2) on the loop thread"),
    (r"\.Accept\s*\(", "blocking Accept on the loop thread (the accept thread owns this)"),
    (r"::accept\s*\(", "blocking accept(2) on the loop thread"),
    (r"\bParallelFor\s*\(", "ParallelFor runs items on the CALLING thread too; it blocks the loop"),
    (r"::read\s*\(", "raw read(2): only legal on a non-blocking fd — annotate with aftlint-allow"),
    (r"::write\s*\(", "raw write(2): only legal on a non-blocking fd — annotate with aftlint-allow"),
    (r"\bsystem\s*\(", "system(3) forks and blocks"),
    (r"\bpopen\s*\(", "popen(3) forks and blocks"),
    (r"\bfsync\s*\(", "fsync blocks on storage"),
    (r"\bfdatasync\s*\(", "fdatasync blocks on storage"),
]

# Blocking-looking calls that are structurally part of the loop itself.
BLOCKING_ALLOWED_NAMES = [
    r"\bepoll_wait\s*\(",  # the loop's one legitimate blocking point
]

# ---- hot-alloc ---------------------------------------------------------------

# Allocation spellings flagged inside `// aftlint: hot` loops. Matched
# against masked text (no string literals / comments). push_back/emplace_back
# are handled separately so the checker can look for a prior reserve().
HOT_ALLOC_PATTERNS = [
    (
        r"\bstd::string\s+[A-Za-z_]\w*\s*[;={(]",
        "std::string constructed inside a hot loop: decode in place "
        "(string_view) or hoist a reused scratch buffer out of the loop",
    ),
    (
        r"\bstd::string\s*[({]",
        "std::string temporary inside a hot loop: decode in place "
        "(string_view) or hoist a reused scratch buffer out of the loop",
    ),
    (
        r"\bnew\b(?!\s*\()",
        "naked new inside a hot loop: allocate outside or use the pool",
    ),
    (
        r"\bmake_unique\s*<",
        "make_unique inside a hot loop allocates per iteration",
    ),
    (
        r"\bmake_shared\s*<",
        "make_shared inside a hot loop allocates per iteration",
    ),
]

# ---- observability -----------------------------------------------------------

# Metric name grammar (docs/OBSERVABILITY.md): aft_<subsystem>_<name>[_unit],
# lower-case snake, leading "aft".
METRIC_NAME_RE = r"aft(_[a-z0-9]+)+"

# Registration call spellings whose first string literal is a metric name.
METRIC_REGISTRATION_FNS = ["GetCounter", "GetGauge", "GetHistogram", "RegisterCallback"]

# Counter names must end in one of these (Prometheus conventions).
COUNTER_SUFFIXES = ["_total"]

# Commit-stage vocabulary (docs/OBSERVABILITY.md "Latency attribution"): the
# only legal values for the `stage` label of aft_commit_stage_seconds. The
# stages are disjoint nested slices of the end-to-end commit; a new stage is
# a protocol change and must be added here AND to the docs table.
STAGE_LABEL_VALUES = [
    "txn_lock_wait",
    "data_flush",
    "barrier",
    "record_write",
    "gossip_publish",
]

# Contention-site name grammar (docs/OBSERVABILITY.md): `layer.object` —
# lower-case snake segments joined by dots (wal.append, net_workers.queue).
SITE_NAME_RE = r"[a-z0-9_]+(\.[a-z0-9_]+)+"

# Executor names feed "<name>.queue" / "<name>.run" site names, so they are a
# single lower-snake segment with no dots.
EXECUTOR_NAME_RE = r"[a-z0-9_]+"

# The file that dispatches every RPC and must time each method.
RPC_DISPATCH = {
    "enum": "MessageType",
    "handler": "HandleRequest",
    "timer": "ScopedHistogramTimer",
}

"""loop-blocking: nothing reachable from a server's I/O step may block.

A server pool thread that holds a connection's I/O step — from its epoll
wake to the connection's re-arm — is the only reader of that connection, and
until the re-arm no other thread will. One blocking call there (connect, a
blocking read/write, a sleep, a condvar wait, a ParallelFor that drains
items on the caller) stalls the connection and takes the thread out of the
pool's epoll_wait. Serving a request after the re-arm may block: another
pool thread is then waiting in epoll_wait.

Mechanics: build a call graph over the file set (textual, resolved by
receiver type when a parameter/local declaration gives one, otherwise by
simple name — an over-approximation, which is the safe direction here),
take the transitive closure from the event-loop entry points
(`config.EVENT_LOOP_ENTRIES` plus any function annotated
`// aftlint: event-loop`), and flag every call site in a reachable body
matching a blocking pattern.

Lambda bodies are excluded from the traversal: the repo convention is that
a lambda built on an I/O step is handed to another thread, so code inside
it does not run on the step. A raw `::read`/`::write` on a non-blocking fd is legal but must
say so: `// aftlint-allow(loop-blocking): <why this fd cannot block>`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .. import config
from ..cpp import (
    IMPLICIT_RECV,
    body_without_lambdas,
    collect_member_types,
    local_decl_types,
    resolve_callees,
    structure_of,
)
from ..findings import CheckContext

CHECK = "loop-blocking"

_CALL_RE = re.compile(r"(?:\b([A-Za-z_]\w*)\s*(?:->|\.)\s*)?\b([A-Za-z_]\w*)\s*\(")
_NOISE = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "defined",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "decltype", "alignof", "noexcept", "assert",
}


@dataclass
class _Fn:
    key: str
    qualified: str
    simple: str
    class_ctx: str
    path: str
    start_line: int
    body: str  # lambda-excised masked body
    body_off: int
    calls: list[tuple[str, str, int]] = field(default_factory=list)  # (recv_type, name, off)


def run(ctx: CheckContext) -> None:
    fns: list[_Fn] = []
    by_simple: dict[str, list[_Fn]] = {}
    by_qualified: dict[str, list[_Fn]] = {}
    entries: list[_Fn] = []

    members, unique_members = collect_member_types(ctx.files)
    for path, src in sorted(ctx.files.items()):
        structure = structure_of(src)
        for fn in structure.functions:
            body = body_without_lambdas(src, fn)
            types = dict(unique_members)
            types.update(members.get(fn.class_ctx, {}))
            types.update(fn.params)
            types.update(local_decl_types(body))
            rec = _Fn(
                key=f"{path}#{fn.qualified_name}#{fn.start_line}",
                qualified=fn.qualified_name,
                simple=fn.simple_name,
                class_ctx=fn.class_ctx,
                path=path,
                start_line=fn.start_line,
                body=body,
                body_off=fn.body_start,
            )
            for m in _CALL_RE.finditer(body):
                recv, callee = m.group(1), m.group(2)
                if callee in _NOISE:
                    continue
                recv_type = types.get(recv, "") if recv else IMPLICIT_RECV
                rec.calls.append((recv_type, callee, m.start()))
            fns.append(rec)
            by_simple.setdefault(rec.simple, []).append(rec)
            by_qualified.setdefault(rec.qualified, []).append(rec)
            if rec.qualified in config.EVENT_LOOP_ENTRIES:
                entries.append(rec)
            else:
                # `// aftlint: event-loop` on one of the three lines above the
                # body also marks an entry (fixtures + future loop code).
                sig_line = src.line_of(fn.body_start)
                if any(line in src.entry_marks for line in range(sig_line - 3, sig_line + 1)):
                    entries.append(rec)

    # ---- reachability --------------------------------------------------------
    reachable: dict[str, list[str]] = {}  # key -> call chain (qualified names)
    work = [(e, [e.qualified]) for e in entries]
    while work:
        rec, chain = work.pop()
        if rec.key in reachable:
            continue
        reachable[rec.key] = chain
        for recv_type, callee, _ in rec.calls:
            targets = resolve_callees(by_qualified, by_simple, callee, recv_type, rec.class_ctx)
            for t in targets:
                if t.key not in reachable:
                    work.append((t, chain + [t.qualified]))

    # ---- blocking scan over reachable bodies --------------------------------
    allowed = [re.compile(p) for p in config.BLOCKING_ALLOWED_NAMES]
    patterns = [(re.compile(p), why) for p, why in config.BLOCKING_CALL_PATTERNS]
    for rec in fns:
        chain = reachable.get(rec.key)
        if chain is None:
            continue
        src = ctx.files[rec.path]
        for pat, why in patterns:
            for m in pat.finditer(rec.body):
                around = rec.body[max(0, m.start() - 16) : m.end()]
                if any(a.search(around) for a in allowed):
                    continue
                line = src.line_of(rec.body_off + m.start())
                via = " -> ".join(chain[-3:]) if len(chain) > 1 else chain[0]
                ctx.report(
                    CHECK,
                    rec.path,
                    line,
                    f"{why}; reachable from event loop via {via}",
                )

"""model — the IR ftmr-lint checks run on.

The frontend (frontend_builtin.py, a lexer/scope parser) lowers C++ into
a small vocabulary of per-function events:

  acquire  — a scoped lock becomes live (MutexLock / lock_guard /
             unique_lock / raw Mutex::lock), or a lock the function
             declares held on entry via FTMR_REQUIRES(...)
  unlock   — an explicit early release (lk.unlock() / mu.unlock())
  relock   — an explicit re-acquire of a scoped lock variable
  call     — a call expression (possibly a macro such as FTMR_LOG)
  mutate   — a write (assignment / ++ / mutating method) through a
             watched member (the counted-op surface)
  type     — use of a banned type name (std::unordered_*, random_device)

Scopes are paths (tuples of block ids); lock liveness is resolved by the
ScopeTracker below, kept apart from the parser so the liveness rules
live in one place: a lock is live from its acquire to the end of its enclosing
scope, an explicit unlock kills it until the end of *the unlock's* scope
(the unlock-then-return idiom) or until an explicit relock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass
class Event:
    kind: str          # acquire | unlock | relock | call | mutate | type
    name: str          # lock expr / callee name / member name / type name
    scope: tuple       # block path within the function
    line: int
    var: str = ""      # lock variable name (acquire/unlock/relock)
    recv: str = ""     # receiver expression text (call/mutate)
    canon: str = ""    # resolved "Class::member" for acquire lock exprs
    recv_cls: str = "" # resolved receiver class for method calls


@dataclass
class FunctionIR:
    qname: str                 # best-effort qualified name, e.g. Comm::recv
    cls: str                   # owning class ("" for free functions)
    file: str
    line: int
    requires: list = field(default_factory=list)   # (expr, canon) held on entry
    may_park_annot: bool = False                   # FTMR_MAY_PARK on decl/def
    events: list = field(default_factory=list)
    params: dict = field(default_factory=dict)     # param name -> type name

    @property
    def name(self) -> str:
        return self.qname.rsplit("::", 1)[-1]


@dataclass
class ClassInfo:
    name: str
    members: dict = field(default_factory=dict)    # member -> principal type
    mutexes: set = field(default_factory=set)      # members declared as locks
    annotated: dict = field(default_factory=dict)  # method -> set of annots


@dataclass
class FileIR:
    path: str                       # absolute path
    functions: list = field(default_factory=list)
    allows: dict = field(default_factory=dict)     # line -> [(check, reason)]
    allow_errors: list = field(default_factory=list)  # (line, message)


@dataclass
class Model:
    """Whole-project IR; what every check receives."""
    root: str
    files: dict = field(default_factory=dict)      # path -> FileIR
    classes: dict = field(default_factory=dict)    # class name -> ClassInfo
    functions: list = field(default_factory=list)  # all FunctionIR

    def rel(self, path: str) -> str:
        if path.startswith(self.root.rstrip("/") + "/"):
            return path[len(self.root.rstrip("/")) + 1:]
        return path


# ---------------------------------------------------------------------------
# Escape hatch: `// ftmr-lint: allow(check-id, reason...)`.
# ---------------------------------------------------------------------------

_ALLOW_RE = re.compile(r"ftmr-lint:\s*allow\(\s*([A-Za-z0-9_-]+)\s*(?:,\s*(.*?))?\s*\)")


def parse_allows(comments):
    """Map comment lines to allow entries. Returns (allows, errors) where
    allows is {line: [(check, reason)]} and errors lists malformed hatches
    (an allow without a reason is itself a lint error — the hatch must say
    why)."""
    allows: dict[int, list] = {}
    errors: list[tuple[int, str]] = []
    for line, text in comments:
        for m in _ALLOW_RE.finditer(text):
            check = m.group(1)
            reason = (m.group(2) or "").strip().strip('"').strip()
            if not reason:
                errors.append(
                    (line, f"escape hatch allow({check}) requires a reason: "
                           f"write // ftmr-lint: allow({check}, why it is safe)"))
                continue
            allows.setdefault(line, []).append((check, reason))
    return allows, errors


def is_allowed(fir: FileIR, check: str, line: int) -> bool:
    """An allow suppresses diagnostics on its own line or the line below
    (comment-above style)."""
    for at in (line, line - 1):
        for c, _reason in fir.allows.get(at, ()):  # noqa: B007
            if c == check or c == "all":
                return True
    return False


# ---------------------------------------------------------------------------
# Shared lock-liveness resolution.
# ---------------------------------------------------------------------------

@dataclass
class LiveLock:
    var: str          # lock variable name (the expr itself for REQUIRES locks)
    expr: str         # mutex expression text
    scope: tuple      # scope the lock's lifetime is bound to
    line: int
    canon: str = ""   # resolved "Class::member" when known
    killed_in: tuple = None  # scope of the unlock that killed it (None = live)


def _is_prefix(a: tuple, b: tuple) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


class ScopeTracker:
    """Replays a function's event list, exposing the set of live locks at
    each event. Liveness rules:
      * an acquire is live for the rest of its enclosing scope;
      * lk.unlock() kills the lock from that point to the end of the scope
        the unlock appears in — when that inner scope closes, the lock is
        considered re-held (covers the unlock-then-return idiom inside
        loops without pretending the lock stays dropped on the next
        iteration);
      * lk.lock() re-arms it immediately.
    """

    def __init__(self, fn: FunctionIR):
        self.fn = fn
        self.locks: list[LiveLock] = [
            LiveLock(var=expr if expr.isidentifier() else "", expr=expr,
                     canon=canon, scope=(), line=fn.line)
            for expr, canon in fn.requires
        ]

    def live_at(self, ev: Event) -> list:
        out = []
        for lk in self.locks:
            if not _is_prefix(lk.scope, ev.scope):
                continue
            if lk.killed_in is not None and _is_prefix(lk.killed_in, ev.scope):
                continue
            out.append(lk)
        return out

    def apply(self, ev: Event):
        if ev.kind == "acquire":
            self.locks.append(
                LiveLock(var=ev.var, expr=ev.name, canon=ev.canon,
                         scope=ev.scope, line=ev.line))
        elif ev.kind == "unlock":
            for lk in reversed(self.locks):
                if lk.var and lk.var == ev.var and _is_prefix(lk.scope, ev.scope):
                    lk.killed_in = ev.scope
                    break
        elif ev.kind == "relock":
            for lk in reversed(self.locks):
                if lk.var and lk.var == ev.var and _is_prefix(lk.scope, ev.scope):
                    lk.killed_in = None
                    break


def iter_with_live(fn: FunctionIR):
    """Yield (event, live_locks) for every event, in order."""
    st = ScopeTracker(fn)
    for ev in fn.events:
        yield ev, st.live_at(ev)
        st.apply(ev)

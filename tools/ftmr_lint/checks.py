"""checks — the ftmr-lint check registry.

Four project-specific checks over the event IR (model.py):

  determinism     — replay-critical paths (simmpi, testing, checkpoint
                    sequencing) must be bit-deterministic: no wall clocks,
                    no libc randomness, no iteration-order-dependent
                    std::unordered_* containers. Explorer artifacts replay
                    by (rank, op-index) addressing; one racy poll or
                    hash-order walk shifts every later op index.
  fiber-blocking  — no call that may park or yield a fiber while a scoped
                    lock is live. Parking is only legal through
                    Job::wait_blocked / Scheduler::park holding exactly
                    the guard being handed off (the lost-wakeup protocol).
                    The may-park set seeds from FTMR_MAY_PARK annotations
                    and known scheduler entry points, then closes
                    transitively over the project call graph.
  lock-order      — every nested lock acquisition (direct, or reached
                    through a call made with a lock held) must be an edge
                    in tools/ftmr_lint/lock_table.yaml, and the acquisition
                    graph must be acyclic. Every ftmr::Mutex acquired in
                    checked code must be registered in the table.
  counted-op      — Inbox/mailbox state and the op counter form the
                    deterministic kill-addressing axis; they may only be
                    mutated by the counted-op helpers in simmpi/job.cpp
                    and simmpi/comm.cpp. Any other mutation grows an
                    untracked channel the explorer cannot address.

Each check may be silenced per-line with
    // ftmr-lint: allow(<check>, <reason>)
and the reason is mandatory (an empty one is itself an error).
"""

from __future__ import annotations

from dataclasses import dataclass

from model import Model, is_allowed, iter_with_live


@dataclass
class Diagnostic:
    check: str
    file: str
    line: int
    message: str

    def render(self, root: str) -> str:
        path = self.file
        if path.startswith(root.rstrip("/") + "/"):
            path = path[len(root.rstrip("/")) + 1:]
        return f"{path}:{self.line}: error: [{self.check}] {self.message}"


def _in_scope(rel: str, prefixes) -> bool:
    return any(rel.startswith(p) for p in prefixes)


def _emit(diags, model, fir, check, line, msg):
    if not is_allowed(fir, check, line):
        diags.append(Diagnostic(check, fir.path, line, msg))


# ---------------------------------------------------------------------------
# escape-hatch: malformed allow() comments are always errors.
# ---------------------------------------------------------------------------

def check_escape_hatch(model: Model, cfg, table):
    diags = []
    for fir in model.files.values():
        for line, msg in fir.allow_errors:
            diags.append(Diagnostic("escape-hatch", fir.path, line, msg))
    return diags


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def check_determinism(model: Model, cfg, table):
    diags = []
    banned_calls = set(cfg["banned_calls"])
    suffixes = tuple(cfg["banned_call_suffixes"])
    for fir in model.files.values():
        rel = model.rel(fir.path)
        if not _in_scope(rel, cfg["determinism_paths"]):
            continue
        for fn in fir.functions:
            for ev in fn.events:
                if ev.kind == "call":
                    leaf = ev.name.rsplit("::", 1)[-1]
                    if leaf in banned_calls and not ev.recv:
                        _emit(diags, model, fir, "determinism", ev.line,
                              f"call to {ev.name}() in a replay-critical path; "
                              "use the virtual clock / seeded RNG "
                              "(common/rng.hpp), or justify with an "
                              "allow(determinism, reason) escape hatch")
                    elif any(ev.name.endswith(s) for s in suffixes):
                        _emit(diags, model, fir, "determinism", ev.line,
                              f"wall-clock read {ev.name}() in a replay-critical "
                              "path; replay addresses failures by (rank, "
                              "op-index) and wall time is not bit-stable")
                elif ev.kind == "type":
                    _emit(diags, model, fir, "determinism", ev.line,
                          f"std::{ev.name} in a replay-critical path: iteration "
                          "order is address-/hash-seeded and not deterministic; "
                          "use std::map/std::set or an explicit sort")
    return diags


# ---------------------------------------------------------------------------
# shared call-graph machinery
# ---------------------------------------------------------------------------

class CallIndex:
    def __init__(self, model: Model, cfg):
        self.cfg = cfg
        self.by_leaf = {}
        self.by_cls = {}
        for fn in model.functions:
            leaf = fn.name
            self.by_leaf.setdefault(leaf, []).append(fn)
            if fn.cls:
                self.by_cls.setdefault((fn.cls, leaf), []).append(fn)
        self.generic = set(cfg.get("generic_names_need_receiver", ()))
        self.macro_calls = dict(cfg.get("macro_calls", {}))

    def resolve(self, ev, caller_cls=""):
        if ev.recv_cls == "<callable>":
            return []  # call through a std::function / lambda value
        name = self.macro_calls.get(ev.name, ev.name)
        leaf = name.rsplit("::", 1)[-1]
        if ev.recv_cls:
            hit = self.by_cls.get((ev.recv_cls, leaf))
            if hit:
                return hit
            return []
        # A bare unqualified call inside a method is an implicit-this call
        # when the caller's own class has that method.
        if caller_cls and not ev.recv:
            hit = self.by_cls.get((caller_cls, leaf))
            if hit:
                return hit
        if ev.recv:
            # Explicit receiver of a type we could not resolve (container,
            # std:: type, opaque handle): don't guess by name.
            return []
        cands = self.by_leaf.get(leaf, [])
        if len(cands) == 1:
            return cands
        if leaf in self.generic:
            return []
        return cands


# ---------------------------------------------------------------------------
# fiber-blocking
# ---------------------------------------------------------------------------

def _may_park_set(model: Model, cfg, index: CallIndex):
    seeds = set(cfg["may_park_seeds"])
    marked = set()
    for fn in model.functions:
        two = fn.qname.split("::")[-2:]
        if fn.may_park_annot or fn.qname in seeds or fn.name in seeds or \
                "::".join(two) in seeds:
            marked.add(id(fn))
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            if id(fn) in marked:
                continue
            for ev in fn.events:
                if ev.kind != "call":
                    continue
                for callee in index.resolve(ev, fn.cls):
                    if id(callee) in marked:
                        marked.add(id(fn))
                        changed = True
                        break
                if id(fn) in marked:
                    break
    return marked


def check_fiber_blocking(model: Model, cfg, table):
    diags = []
    index = CallIndex(model, cfg)
    marked = _may_park_set(model, cfg, index)
    handoff = set(cfg["park_handoff_funcs"])
    for fir in model.files.values():
        rel = model.rel(fir.path)
        if not _in_scope(rel, cfg["fiber_paths"]):
            continue
        for fn in fir.functions:
            for ev, live in iter_with_live(fn):
                if ev.kind != "call" or not live:
                    continue
                leaf = ev.name.rsplit("::", 1)[-1]
                callees = index.resolve(ev, fn.cls)
                parked = [c for c in callees if id(c) in marked]
                direct_seed = leaf in cfg["may_park_seeds"] and not callees
                if not parked and not direct_seed:
                    continue
                if leaf in handoff and len(live) == 1:
                    continue  # the sanctioned guard handoff
                held = ", ".join(
                    (lk.canon or lk.expr) + f" (held since line {lk.line})"
                    for lk in live)
                why = "the guard handoff requires exactly one live lock" \
                    if leaf in handoff else \
                    "a parked fiber keeps the lock held and deadlocks " \
                    "single-worker schedules"
                _emit(diags, model, fir, "fiber-blocking", ev.line,
                      f"{ev.name}() may park or yield the calling fiber, but "
                      f"{held} is live here; {why}")
    return diags


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------

def _canon_to_table(table):
    """Map 'Class::member' -> table lock name via the cxx field's last two
    path components."""
    mapping = {}
    for lk in table.get("locks", []):
        cxx = lk.get("cxx", "")
        parts = cxx.split("::")
        if len(parts) >= 2:
            mapping["::".join(parts[-2:])] = lk["name"]
    return mapping


def check_lock_order(model: Model, cfg, table):
    diags = []
    index = CallIndex(model, cfg)
    canon_map = _canon_to_table(table)
    allowed = {(e["from"], e["to"]) for e in table.get("edges", [])}

    # Allowed edges must themselves be acyclic: the table is the hierarchy.
    cyc = _find_cycle(allowed)
    if cyc:
        diags.append(Diagnostic(
            "lock-order", "tools/ftmr_lint/lock_table.yaml", 1,
            "lock_table.yaml edge set contains a cycle: " + " -> ".join(cyc)))

    # Transitive acquire summaries.
    direct = {}
    for fn in model.functions:
        acq = set()
        for ev in fn.events:
            if ev.kind == "acquire" and ev.canon:
                acq.add(ev.canon)
        direct[id(fn)] = acq
    summary = {k: set(v) for k, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            s = summary[id(fn)]
            before = len(s)
            for ev in fn.events:
                if ev.kind != "call":
                    continue
                for callee in index.resolve(ev, fn.cls):
                    s |= summary.get(id(callee), set())
            if len(s) != before:
                changed = True

    observed = {}  # (from_name, to_name) -> (file, line, via)
    for fir in model.files.values():
        rel = model.rel(fir.path)
        if not _in_scope(rel, cfg["lock_order_paths"]):
            continue
        for fn in fir.functions:
            for ev, live in iter_with_live(fn):
                if ev.kind == "acquire" and ev.canon:
                    if ev.canon not in canon_map:
                        _emit(diags, model, fir, "lock-order", ev.line,
                              f"lock {ev.canon} is not registered in "
                              "tools/ftmr_lint/lock_table.yaml; every lock in "
                              "checked code must be in the table")
                        continue
                    for lk in live:
                        if not lk.canon or lk.canon not in canon_map:
                            continue
                        if lk.canon == ev.canon:
                            _emit(diags, model, fir, "lock-order", ev.line,
                                  f"re-acquisition of {ev.canon} already held "
                                  f"since line {lk.line} (ftmr::Mutex is not "
                                  "recursive: this self-deadlocks)")
                            continue
                        key = (canon_map[lk.canon], canon_map[ev.canon])
                        observed.setdefault(
                            key, (fir.path, ev.line, "direct nesting"))
                elif ev.kind == "call" and live:
                    for callee in index.resolve(ev, fn.cls):
                        for acq in summary.get(id(callee), set()):
                            if acq not in canon_map:
                                continue
                            for lk in live:
                                if not lk.canon or lk.canon not in canon_map:
                                    continue
                                if lk.canon == acq:
                                    _emit(diags, model, fir, "lock-order",
                                          ev.line,
                                          f"call to {ev.name}() may re-acquire "
                                          f"{acq}, already held since line "
                                          f"{lk.line} (self-deadlock)")
                                    continue
                                key = (canon_map[lk.canon], canon_map[acq])
                                observed.setdefault(
                                    key, (fir.path, ev.line,
                                          f"via call to {ev.name}()"))

    for (a, b), (path, line, via) in sorted(observed.items()):
        if (a, b) not in allowed:
            fir = model.files.get(path)
            hint = f" (reverse of allowed edge {b} -> {a})" if (b, a) in allowed \
                else ""
            msg = (f"acquisition order {a} -> {b} ({via}) is not an edge in "
                   f"tools/ftmr_lint/lock_table.yaml{hint}; either the code or "
                   "the table is wrong — fix the code, or add the edge and "
                   "regenerate (tools/ftmr_lint/gen_lock_table.py)")
            if fir is not None:
                _emit(diags, model, fir, "lock-order", line, msg)
            else:
                diags.append(Diagnostic("lock-order", path, line, msg))

    cyc = _find_cycle(set(observed.keys()))
    if cyc:
        path, line, _via = observed[(cyc[0], cyc[1])]
        diags.append(Diagnostic(
            "lock-order", path, line,
            "cyclic lock acquisition order observed: " + " -> ".join(cyc)))
    return diags


def _find_cycle(edges):
    graph = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack_path = []

    def dfs(u):
        color[u] = GRAY
        stack_path.append(u)
        for v in graph.get(u, ()):  # noqa: B007
            if color.get(v, WHITE) == GRAY:
                i = stack_path.index(v)
                return stack_path[i:] + [v]
            if color.get(v, WHITE) == WHITE:
                r = dfs(v)
                if r:
                    return r
        stack_path.pop()
        color[u] = BLACK
        return None

    for u in list(graph):
        if color.get(u, WHITE) == WHITE:
            r = dfs(u)
            if r:
                return r
    return None


# ---------------------------------------------------------------------------
# counted-op
# ---------------------------------------------------------------------------

def check_counted_op(model: Model, cfg, table):
    diags = []
    allowed = tuple(cfg["counted_op_allowed_files"])
    for fir in model.files.values():
        rel = model.rel(fir.path)
        if not _in_scope(rel, cfg["counted_op_paths"]):
            continue
        if any(rel == a or rel.endswith("/" + a) for a in allowed):
            continue
        for fn in fir.functions:
            for ev in fn.events:
                if ev.kind != "mutate":
                    continue
                _emit(diags, model, fir, "counted-op", ev.line,
                      f"direct mutation of {ev.recv + '.' if ev.recv else ''}"
                      f"{ev.name} outside the counted-op helpers "
                      "(src/simmpi/job.cpp, src/simmpi/comm.cpp): mailbox/op "
                      "state is the deterministic kill-addressing axis and "
                      "every mutation path must stay on the counted helpers "
                      "or explorer artifacts stop replaying")
    return diags


CHECKS = {
    "escape-hatch": check_escape_hatch,
    "determinism": check_determinism,
    "fiber-blocking": check_fiber_blocking,
    "lock-order": check_lock_order,
    "counted-op": check_counted_op,
}


def run_checks(model: Model, cfg, table, selected=None):
    diags = []
    for name, fn in CHECKS.items():
        if selected and name not in selected and name != "escape-hatch":
            continue
        diags.extend(fn(model, cfg, table))
    diags.sort(key=lambda d: (d.file, d.line, d.check))
    return diags

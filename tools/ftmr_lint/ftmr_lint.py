#!/usr/bin/env python3
"""ftmr-lint — project-specific static checks for the ftmr codebase.

Enforces the runtime-discipline invariants the repo's correctness rests
on and that no off-the-shelf checker knows about (see DESIGN.md,
"Invariants as lint"):

  determinism      replay-critical code must be bit-deterministic
  fiber-blocking   never park/yield a fiber while a lock is live
  lock-order       nested acquisitions must match lock_table.yaml
  counted-op       mailbox/op state only mutates via counted helpers

Usage:
  ftmr_lint.py -p build                     # lint every TU in the compile DB
  ftmr_lint.py -p build --checks lock-order
  ftmr_lint.py --root tests/lint_fixtures f.cpp   # lint explicit sources
  ftmr_lint.py -p build --extra-source bad.cpp    # CI mutation check

The tool consumes the real compile DB (CMAKE_EXPORT_COMPILE_COMMANDS)
for the TU list and include paths. A self-contained lexer/scope frontend
(frontend_builtin.py) lowers C++ to the event IR in model.py that the
checks run on; it needs nothing beyond the Python standard library.

Exit status: 0 clean, 1 diagnostics emitted, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

import minyaml  # noqa: E402
from checks import CHECKS, run_checks  # noqa: E402
from frontend_builtin import BuiltinFrontend  # noqa: E402

DEFAULT_CONFIG = {
    # -- determinism ------------------------------------------------------
    # Replay-critical path prefixes (relative to repo root).
    "determinism_paths": ["src/simmpi/", "src/testing/", "src/core/checkpoint"],
    # Free functions banned there (wall clocks and unseeded randomness).
    "banned_calls": [
        "time", "clock_gettime", "gettimeofday", "timespec_get", "clock",
        "rand", "srand", "rand_r", "random", "srandom",
        "drand48", "lrand48", "mrand48",
    ],
    # Qualified-name suffixes banned there (std::chrono::*_clock::now).
    "banned_call_suffixes": ["_clock::now"],
    # Types banned there (iteration order is hash/address-seeded).
    "banned_type_tokens": [
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset", "random_device",
    ],
    # -- fiber-blocking ---------------------------------------------------
    "fiber_paths": ["src/"],
    # Known park/yield points; FTMR_MAY_PARK annotations add to this and
    # the check closes transitively over the call graph.
    "may_park_seeds": [
        "Scheduler::park", "Job::wait_blocked", "WaitChannel::park",
        "cooperative_yield",
    ],
    # The sanctioned guard handoff: these may be called with exactly the
    # one lock being handed off.
    "park_handoff_funcs": ["wait_blocked", "park"],
    # -- lock-order -------------------------------------------------------
    "lock_order_paths": ["src/"],
    # -- counted-op -------------------------------------------------------
    "counted_op_paths": ["src/", "tests/", "bench/", "examples/"],
    "counted_op_allowed_files": [
        "src/simmpi/job.cpp", "src/simmpi/job.hpp", "src/simmpi/comm.cpp",
    ],
    # Members forming the deterministic kill-addressing axis.
    "watched_members": [
        "staged", "waiting", "mailbox", "op_count", "uncounted_depth",
    ],
    "mutating_methods": [
        "push_back", "push_front", "pop_back", "pop_front", "clear",
        "erase", "insert", "emplace", "emplace_back", "emplace_front",
        "assign", "resize", "swap",
    ],
    # -- shared -----------------------------------------------------------
    # Macros that are calls in disguise, mapped to the function whose
    # lock/park behavior they inherit. `macro_calls` rewrites call names
    # at resolution time; `macro_ident_calls` makes bare statement macros
    # (FTMR_WARN << ...) visible as calls at parse time.
    "macro_calls": {
        "FTMR_LOG": "log_line",
    },
    "macro_ident_calls": {
        "FTMR_LOG": "log_line",
        "FTMR_DEBUG": "log_line",
        "FTMR_INFO": "log_line",
        "FTMR_WARN": "log_line",
        "FTMR_ERROR": "log_line",
    },
    # Files never analyzed: the sync/lock-order machinery itself (its
    # internals are the mechanism the rules describe, not a subject).
    "exclude_files": [
        "src/common/sync.hpp",
        "src/common/lock_order.hpp", "src/common/lock_order.cpp",
        "src/common/lock_order_table.hpp",
    ],
    # Method names too generic to resolve without a typed receiver.
    "generic_names_need_receiver": [
        "wait", "lock", "unlock", "get", "put", "run", "size", "clear",
        "reset", "push", "pop", "begin", "end", "empty", "stop", "start",
        "wake", "test", "count", "find", "add", "record",
    ],
}


def load_compile_db(build_dir: str):
    path = build_dir
    if not path.endswith(".json"):
        path = os.path.join(path, "compile_commands.json")
    try:
        with open(path, "r", encoding="utf-8") as f:
            entries = json.load(f)
    except OSError as e:
        raise SystemExit(f"ftmr-lint: cannot read compile DB {path}: {e}\n"
                         "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")
    units = {}
    for e in entries:
        src = os.path.abspath(os.path.join(e["directory"], e["file"]))
        if not src.endswith((".cpp", ".cc", ".cxx", ".C")):
            continue
        argv = e.get("arguments") or shlex.split(e.get("command", ""))
        incs = []
        i = 0
        while i < len(argv):
            a = argv[i]
            if a in ("-I", "-isystem", "-iquote") and i + 1 < len(argv):
                incs.append(argv[i + 1])
                i += 2
                continue
            if a.startswith("-I") and len(a) > 2:
                incs.append(a[2:])
            elif a.startswith("-isystem") and len(a) > 8:
                incs.append(a[8:])
            i += 1
        incs = [os.path.abspath(os.path.join(e["directory"], d)) for d in incs]
        units.setdefault(src, incs)
    return [(src, incs) for src, incs in sorted(units.items())]


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ftmr-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-p", "--build-dir", metavar="DIR",
                    help="build dir containing compile_commands.json")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(_HERE)),
                    help="project root; only files under it are analyzed")
    ap.add_argument("--checks", metavar="LIST",
                    help="comma-separated subset of checks to run")
    ap.add_argument("--lock-table",
                    default=os.path.join(_HERE, "lock_table.yaml"))
    ap.add_argument("--extra-source", action="append", default=[],
                    metavar="FILE",
                    help="additional source to lint on top of the compile DB "
                         "(CI mutation checks)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the summary line")
    ap.add_argument("sources", nargs="*",
                    help="explicit sources to lint instead of a compile DB")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name in CHECKS:
            print(name)
        return 0

    root = os.path.abspath(args.root)
    selected = None
    if args.checks:
        selected = {c.strip() for c in args.checks.split(",") if c.strip()}
        unknown = selected - set(CHECKS)
        if unknown:
            raise SystemExit(f"ftmr-lint: unknown check(s): "
                             f"{', '.join(sorted(unknown))}")

    units = []
    if args.build_dir:
        build_abs = os.path.abspath(args.build_dir)
        for src, incs in load_compile_db(args.build_dir):
            if src.startswith(build_abs + os.sep):
                continue  # generated TUs
            units.append((src, incs))
    default_incs = [os.path.join(root, "src"), root]
    for src in list(args.sources) + list(args.extra_source):
        units.append((os.path.abspath(src), default_incs))
    if not units:
        ap.error("nothing to lint: pass -p BUILD_DIR or explicit sources")

    cfg = DEFAULT_CONFIG
    table = minyaml.load_path(args.lock_table)

    frontend = BuiltinFrontend(cfg)
    model = frontend.parse_project(units, root)
    diags = run_checks(model, cfg, table, selected)

    for d in diags:
        print(d.render(root))
    if not args.quiet:
        print(f"ftmr-lint[{frontend.name}]: {len(model.files)} files, "
              f"{len(model.functions)} functions, {len(diags)} error(s)",
              file=sys.stderr)
    return 1 if diags else 0


if __name__ == "__main__":
    sys.exit(main())

"""``repro-search serve`` with each layer's entry points wrapped in spans.

Run as ``python3 perfbench/traced_serve.py serve <serve args>`` with
``PERFBENCH_SPANS=<file>``.  Before handing over to the CLI it replaces
the public functions below where their callers look them up, so each
call records a span ``[name, thread, start_ns, end_ns, parent, extra]``
(parent is the index of the enclosing span on the same thread, or -1).
Spans stay in memory and are written to ``PERFBENCH_SPANS`` as JSON
when the server shuts down.  Clocks are ``time.monotonic_ns``, which is
system-wide, so the client can cut the timed window out of them.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import repro.cli  # noqa: E402
import repro.index.matchlists  # noqa: E402
import repro.retrieval.daat  # noqa: E402
import repro.system  # noqa: E402
from repro.index.segments import SegmentedIndex  # noqa: E402

SPANS: list[list] = []
_stack = threading.local()


def _record(name, fn, extra=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_stack, "ids", None)
        if stack is None:
            stack = _stack.ids = []
        span = [name, threading.get_ident(), time.monotonic_ns(), 0,
                stack[-1] if stack else -1, None]
        SPANS.append(span)
        stack.append(len(SPANS) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.monotonic_ns()
            stack.pop()
        if extra is not None:
            span[5] = extra(args, result)
        return result

    return wrapper


def _join_extra(args, result):
    # best_matchset(query, lists, scoring): list lengths in, Section VI
    # restarts out.
    return [getattr(result, "invocations", 1), [len(lst) for lst in args[1]]]


#: (owner, attribute, span name, extra) — patched where callers look
#: them up: module globals for imported functions, the class for methods.
WRAPPED = (
    (repro.system.SearchSystem, "ask_many", "system.ask_many", None),
    (repro.system.SearchSystem, "_ask_one", "system.ask", None),
    (repro.system, "parse_query", "system.plan", None),
    (repro.system, "rank_top_k_daat", "retrieval.pivot", None),
    (repro.index.matchlists, "build_term_postings", "index.term_postings", None),
    (repro.index.matchlists.ConceptIndex, "match_list", "index.match_list", None),
    (SegmentedIndex, "add_documents", "index.segments_add", None),
    (SegmentedIndex, "postings", "index.segments_postings", None),
    (repro.retrieval.daat, "best_matchset", "core.join", _join_extra),
)


def main() -> int:
    out = os.environ.get("PERFBENCH_SPANS")
    if not out:
        print("traced_serve: set PERFBENCH_SPANS to the span output file",
              file=sys.stderr)
        return 2
    for owner, attr, name, extra in WRAPPED:
        setattr(owner, attr, _record(name, getattr(owner, attr), extra))
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        tmp = out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(SPANS, fh)
        os.replace(tmp, out)


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end HTTP benchmark of ``repro-search serve`` with per-layer attribution.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Launches the real server as a child process on seeded, generated files,
drives it from one keep-alive connection in a closed loop (each request
waits for the previous reply), checks every answer independently, and
prints one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same workload twice, half the time each: once plain (for the tracing
overhead and the ungated figures), once under ``traced_serve.py``,
whose spans give the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import shutil
import statistics
import sys
import time
import urllib.parse

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
from harness import REF_NOMINAL_S, ROOT, SRC, BenchError, Client, Server, pin  # noqa: E402

WORK = ROOT / ".perfbench-work"
#: Launches per run whose median is ``setup_s``.  Interpreter start is
#: most of a sub-second set-up; with each launch scaled by the reference
#: (below) five launches hold it steady, and prune-scan's 2 s set-up
#: three.
SETUP_LAUNCHES = {"hot-repeat": 5, "prune-scan": 3, "join-heavy": 5, "ingest-mixed": 5}
#: The timed window is cut into slices of whole rounds, each at least
#: this long.  The shared host swings 1.7x in speed, in stretches of
#: seconds to tens of seconds (README: Steadiness), so a whole-window
#: figure measures how much of a run fell into the slow stretches.  At
#: every slice boundary the client times the reference loop with the
#: server stopped, and scales the slice's times by ``REF_NOMINAL_S`` over
#: the mean of the two reference times around it.  The unscaled figures
#: go to the ``perfbench:`` line.
SLICE_S = 0.5


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class Run:
    """One workload's inputs, server launches, and recorded operations."""

    def __init__(self, name: str, seed: int, *, small: bool) -> None:
        self.wl = corpus.GENERATORS[name](seed, small=small)
        self.name = name
        self.seed = seed
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "docs").mkdir(parents=True)
        self.files = []
        for doc_id, text in self.wl.docs:
            path = self.dir / "docs" / doc_id
            path.write_text(text)
            self.files.append(str(path.relative_to(ROOT)))
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.launches = 0
        self.writes = 0  # ingest-mixed: next write number
        self.acked = 0
        self.deleted = 0
        self.expected: dict = {}
        self.first_answers: dict = {}
        if name == "ingest-mixed":
            self._prepare_durable()

    # -- server ----------------------------------------------------------------

    def _serve_args(self) -> list[str]:
        if self.name == "ingest-mixed":
            data = self.dir / f"data{self.launches}"
            shutil.copytree(self.dir / "template", data)
            return ["--data-dir", str(data.relative_to(ROOT))]
        args = list(self.files)
        if self.name in ("prune-scan", "join-heavy"):
            args += ["--cache-size", "0"]
        return args

    def launch(self, *, spans: pathlib.Path | None = None) -> Server:
        self.launches += 1
        # Every durable launch starts from the template.
        self.acked = self.deleted = 0
        return Server(
            self._serve_args(), self.dir / "logs",
            traced_spans=spans, tag=f"serve{self.launches}",
        )

    def _prepare_durable(self) -> None:
        """Seal three segments and leave a memtable, through the CLI alone.

        ``serve --data-dir`` ingests every given file that is not yet in
        the index as one batch and seals when the memtable reaches 2048
        documents, so one launch per stage builds one segment.
        """
        template = self.dir / "template"
        start = 0
        for i, size in enumerate(self.wl.facts["stages"]):
            batch = self.files[start:start + size]
            start += size
            server = Server(
                ["--data-dir", str(template.relative_to(ROOT)), *batch],
                self.dir / "logs", tag=f"stage{i}",
            )
            try:
                status = server.get_json("/statusz")["index"]
            finally:
                server.stop()
            if status["segments"] != min(i + 1, 3):
                raise BenchError(f"preload stage {i}: {status['segments']} segments")
        if status["memtable_docs"] != self.wl.facts["stages"][-1]:
            raise BenchError(f"preload memtable holds {status['memtable_docs']}")

    # -- operations ------------------------------------------------------------

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.misses) < 5:
            self.misses.append(why)

    def _search(self, client: Client, op: dict, log: list) -> None:
        self.attempted += 1
        status, payload, elapsed = client.search(
            op["q"], top_k=op["top_k"], scoring=op["scoring"]
        )
        log.append(("search", elapsed, op, status, payload))

    def round(self, client: Client, log: list) -> None:
        """One whole round of the workload's operations.

        ``ingest-mixed``: write a document, search for it, delete it.  The
        delete keeps the memtable, and so the cost of every search, the
        same all through the window; without it the memtable grows at the
        run's own speed and a search got ~30% dearer within 20 s.
        """
        if self.name == "ingest-mixed":
            op = corpus.ingest_op(self.seed, self.writes)
            self.writes += 1
            self.attempted += 1
            status, payload, elapsed = client.post_document(op["id"], op["text"])
            log.append(("ingest", elapsed, op, status, payload))
            if status == 201:
                self.acked += 1
            self._search(
                client, {"q": op["q"], "top_k": 5, "scoring": "max", "write": op}, log
            )
            self.attempted += 1
            status, payload, elapsed = client.delete_document(op["id"])
            log.append(("delete", elapsed, op, status, payload))
            if status == 200:
                self.deleted += 1
            return
        for op in self.wl.facts["round"]:
            self._search(client, op, log)

    def drive(self, client: Client, server: Server, seconds: float) -> tuple[list, list]:
        """Whole rounds for ``seconds``, cut into slices of ``SLICE_S``.

        Each slice is ``(first, end, elapsed_s, cpu_ns, scale)``: its
        entries ``log[first:end]``, its wall time, the server's CPU time
        in it, and ``REF_NOMINAL_S`` over the mean of the reference
        times at its two ends.  Server CPU and the reference are read
        between slices, outside any slice's clock.
        """
        log: list = []
        slices: list = []
        ref = server.reference_s()
        # The log grows by every reply; a collection pass over it would
        # land inside some timed request.
        gc.disable()
        try:
            for _ in range(max(1, round(seconds / SLICE_S))):
                first = len(log)
                cpu0 = server.cpu_ns()
                started = time.perf_counter()
                while True:
                    self.round(client, log)
                    elapsed = time.perf_counter() - started
                    if elapsed >= SLICE_S:
                        break
                cpu1 = server.cpu_ns()
                ref0, ref = ref, server.reference_s()
                # Per thread, so a thread that ends inside the window (the
                # warm-up connection's handler) takes nothing away.
                cpu = sum(ns - cpu0.get(tid, 0) for tid, ns in cpu1.items())
                slices.append((first, len(log), elapsed, cpu,
                               2 * REF_NOMINAL_S / (ref0 + ref)))
            return log, slices
        finally:
            gc.enable()

    # -- checks (untimed) ------------------------------------------------------

    def check(self, log: list, *, warm: bool = False) -> None:
        for kind, _elapsed, op, status, payload in log:
            if kind != "search":
                if status != (201 if kind == "ingest" else 200):
                    self._fail(f"{kind} {op['id']} -> {status}")
                continue
            if status != 200:
                self._fail(f"search {op['q']!r} -> {status} {payload}")
                continue
            bad = checks.well_formed(payload, op["top_k"]) or self._answer(
                op, payload, warm
            )
            if bad:
                self._fail(f"{self.name} {op['q']!r}/{op['scoring']}: {bad}")

    def _answer(self, op: dict, payload: dict, warm: bool) -> str | None:
        results = payload["results"]
        if self.name == "hot-repeat":
            key = op["q"]
            if warm and not payload["cached"]:
                self.first_answers.setdefault(key, results)
            first = self.first_answers.get(key)
            if first is None:
                return "no uncached answer to compare with"
            return None if results == first else "cached answer differs from first"
        if self.name == "prune-scan":
            expected = checks.planted_top_k(
                self.wl.facts["planted"][op["query"]], op["top_k"]
            )
            return checks.same_ranking(results, expected)
        if self.name == "join-heavy":
            key = (op["q"], op["scoring"])
            if key not in self.expected:
                self.expected[key] = checks.join_expected(
                    self.wl.facts["matches"], op["terms"], op["scoring"]
                )
            return checks.join_matches(results, self.expected[key])
        write = op["write"]
        return checks.same_ranking(results, [(write["id"], write["score"])])

    def check_index(self, server: Server, phase: str) -> None:
        """ingest-mixed: zero merge debt, and the document count."""
        if self.name != "ingest-mixed":
            return
        self.attempted += 1
        status = server.get_json("/statusz")["index"]
        if status["merge_debt_segments"] != 0 or status["segments"] != 3:
            self._fail(f"{phase}: merge debt {status['merge_debt_segments']}, "
                       f"{status['segments']} segments")
        if phase == "end":
            self.attempted += 1
            docs = server.get_json("/healthz")["documents"]
            expected = len(self.wl.docs) + self.acked - self.deleted
            if docs != expected:
                self._fail(f"/healthz documents {docs} != {len(self.wl.docs)} + "
                           f"{self.acked} written - {self.deleted} deleted")

    # -- phases ------------------------------------------------------------------

    def warm(self, server: Server) -> None:
        """Fill caches and lazy builds before the window; checked too."""
        client = Client(server.port)
        try:
            log: list = []
            for _ in range(2):
                self.round(client, log)
        finally:
            client.close()
        self.check(log, warm=True)

    def window(self, server: Server, seconds: float) -> dict:
        self.check_index(server, "start")
        client = Client(server.port)
        try:
            log, slices = self.drive(client, server, seconds)
        finally:
            client.close()
        self.check(log)
        self.check_index(server, "end")
        searches, ingests = [], []
        for first, end, _elapsed, _cpu, scale in slices:
            for kind, elapsed, *_ in log[first:end]:
                if kind == "search":
                    searches.append(elapsed * scale)
                elif kind == "ingest":
                    ingests.append(elapsed * scale)
        wall = sum(sl[2] for sl in slices)
        cpu_ms = sum(sl[3] for sl in slices) / 1e6
        return {
            "log": log,
            "searches": searches,
            "ingests": ingests,
            "search_qps": len(searches) / sum(sl[2] * sl[4] for sl in slices),
            "server_cpu_ms_per_op": sum(sl[3] * sl[4] for sl in slices) / 1e6 / len(log),
            "raw": {
                "search_qps": len(searches) / wall,
                "search_p50_ms": quantile(
                    [e * 1e3 for k, e, *_ in log if k == "search"], 0.50),
                "server_cpu_ms_per_op": cpu_ms / len(log),
                # Reference time per slice: fastest, median, slowest.
                "reference_ms": [f(REF_NOMINAL_S * 1e3 / sl[4] for sl in slices)
                                 for f in (min, statistics.median, max)],
            },
        }


def end_to_end(run: Run, seconds: float) -> dict:
    setups, raw_setups = [], []
    for i in range(SETUP_LAUNCHES[run.name]):
        server = run.launch()
        setups.append(server.setup_s)
        raw_setups.append(server.setup_raw_s)
        if i + 1 < SETUP_LAUNCHES[run.name]:
            server.stop()
    try:
        run.warm(server)
        w = run.window(server, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    ms = [e * 1e3 for e in w["searches"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "search_qps": (w["search_qps"], "1/s"),
        "search_p50_ms": (quantile(ms, 0.50), "ms"),
        "search_p90_ms": (quantile(ms, 0.90), "ms"),
        "server_cpu_ms_per_op": (w["server_cpu_ms_per_op"], "ms"),
        "server_rss_mb": (rss, "MB"),
    }
    extras = {"searches": len(ms), **ungated(w),
              "raw": {"setup_s": statistics.median(raw_setups), **w["raw"]}}
    return {"metrics": metrics, "extras": extras}


def ungated(w: dict) -> dict:
    """Latencies that exist on some workloads only (README: Metrics)."""
    out = {}
    ms = [e * 1e3 for e in w["searches"]]
    if len(ms) >= 1000:
        out["search_p99_ms"] = quantile(ms, 0.99)
    if w["ingests"]:
        ims = [e * 1e3 for e in w["ingests"]]
        out["ingest_p50_ms"] = quantile(ims, 0.50)
        out["ingest_p90_ms"] = quantile(ims, 0.90)
    return out


def _self_time(spans: list, index: int, children: dict) -> int:
    start, end = spans[index][2], spans[index][3]
    return (end - start) - sum(spans[c][3] - spans[c][2] for c in children.get(index, ()))


def explain_round(server: Server, log: list) -> dict:
    """The program's own EXPLAIN counters for each query of the last round.

    Asked after the window with ``explain=1``, which bypasses the result
    cache, so on ``hot-repeat`` they show the work a cache hit saves.
    """
    ops = {}
    for kind, _e, op, *_ in reversed(log):
        if kind == "search" and (op["q"], op["scoring"]) not in ops:
            ops[op["q"], op["scoring"]] = op
        if len(ops) == 8 or kind == "ingest":
            break
    out = {}
    for (q, scoring), op in ops.items():
        report = server.get_json("/search?" + urllib.parse.urlencode(
            {"q": q, "top_k": op["top_k"], "scoring": scoring, "explain": 1}
        ))["explain"]
        daat = report.get("daat") or {}
        out[f"{q}/{scoring}"] = {
            "pair_index": report["plan"].get("pair_index"),
            "stages_us": {st["stage"]: st["micros"] for st in report.get("stages", [])},
            **{k: daat.get(k) for k in (
                "documents_scanned", "documents_pivot_skipped", "joins_run",
                "dedup_invocations", "pair_index_hits")},
        }
    return out


def per_layer(run: Run, seconds: float) -> dict:
    half = seconds / 2.0
    # Plain half: the baseline for the tracing overhead.
    server = run.launch()
    try:
        run.warm(server)
        plain = run.window(server, half)
    finally:
        server.stop()
    spans_file = run.dir / "spans.json"
    server = run.launch(spans=spans_file)
    try:
        run.warm(server)
        before = server.get_json("/metrics?format=json")
        t0 = time.monotonic_ns()
        traced = run.window(server, half)
        t1 = time.monotonic_ns()
        after = server.get_json("/metrics?format=json")
        explained = explain_round(server, traced["log"])
    finally:
        server.stop()
    spans = json.loads(spans_file.read_text())
    inside = [i for i, s in enumerate(spans) if t0 <= s[2] <= s[3] <= t1]
    children: dict[int, list[int]] = {}
    for i in inside:
        if spans[i][4] >= 0:
            children.setdefault(spans[i][4], []).append(i)

    def total_ns(name: str) -> int:
        return sum(spans[i][3] - spans[i][2] for i in inside if spans[i][0] == name)

    def self_ns(name: str) -> int:
        return sum(_self_time(spans, i, children) for i in inside if spans[i][0] == name)

    def count(name: str) -> int:
        return sum(1 for i in inside if spans[i][0] == name)

    log = traced["log"]
    searches = [entry for entry in log if entry[0] == "search"]
    n = len(searches)
    n_ingest = sum(1 for entry in log if entry[0] == "ingest")
    delta = {k: after.get(k, 0) - before.get(k, 0)
             for k in ("cache_hits", "cache_misses", "documents_scanned",
                       "documents_pivot_skipped", "joins_run", "pair_index_hits")}
    joins = [spans[i][5] for i in inside if spans[i][0] == "core.join"]
    list_lens = [length for _inv, lens in joins for length in lens]
    client_ms = statistics.fmean(e for _k, e, *_ in searches) * 1e3
    server_ms = statistics.fmean(p["latency_ms"] for *_, p in searches)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    ms = 1e-6
    metrics = {
        "service.http_ms": (client_ms - server_ms, "ms"),
        "service.executor_ms": (server_ms - total_ns("system.ask_many") * ms / n, "ms"),
        "service.cache_hit_ratio": (delta["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "system.plan_ms": (total_ns("system.plan") * ms / n, "ms"),
        "system.ask_self_ms": (self_ns("system.ask") * ms / n, "ms"),
        "retrieval.pivot_self_ms": (self_ns("retrieval.pivot") * ms / n, "ms"),
        "retrieval.documents_scanned": (delta["documents_scanned"] / n, "count"),
        "retrieval.joins_per_search": (delta["joins_run"] / n, "count"),
        "retrieval.pair_index_hits": (delta["pair_index_hits"] / n, "count"),
        "retrieval.pivot_skip_ratio": (
            delta["documents_pivot_skipped"] / delta["documents_scanned"]
            if delta["documents_scanned"] else 0.0, "ratio"),
        "index.term_postings_ms": (total_ns("index.term_postings") * ms / n, "ms"),
        "index.term_postings_builds": (count("index.term_postings") / n, "count"),
        "index.match_lists_ms": (total_ns("index.match_list") * ms / n, "ms"),
        "index.match_list_builds": (count("index.match_list") / n, "count"),
        "index.segments_add_ms": (
            total_ns("index.segments_add") * ms / n_ingest if n_ingest else 0.0, "ms"),
        "index.segments_postings_ms": (total_ns("index.segments_postings") * ms / n, "ms"),
        "core.join_ms": (total_ns("core.join") * ms / n, "ms"),
        "core.dedup_invocations_per_join": (
            statistics.fmean(inv for inv, _ in joins) if joins else 0.0, "count"),
        "core.match_list_len": (statistics.fmean(list_lens) if list_lens else 0.0, "count"),
        "bench.trace_overhead_ratio": (traced["search_qps"] / plain["search_qps"], "ratio"),
    }
    extras = {"plain_search_qps": plain["search_qps"], "traced_searches": n,
              "explain": explained, **ungated(plain)}
    return {"metrics": metrics, "extras": extras}


def run_one(name: str, seed: int, seconds: float, trace: bool, *, small: bool) -> dict:
    run = Run(name, seed, small=small)
    try:
        report = (per_layer if trace else end_to_end)(run, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for line in run.misses:
        print(f"perfbench: check miss: {line}", file=sys.stderr)
    print(f"perfbench: {name} seed={seed} " + json.dumps(report["extras"]),
          file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in report["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true",
        help="every workload at small size, plain and traced, in seconds",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    pin()
    if args.self_test:
        ok = True
        for name in sorted(corpus.GENERATORS):
            for trace in (False, True):
                result = run_one(name, args.seed, 1.0, trace, small=True)
                ok &= result["correct"]
                print(json.dumps({"workload": name, "trace": trace, **result}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                         small=False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

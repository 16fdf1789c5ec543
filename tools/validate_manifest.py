#!/usr/bin/env python3
"""Validate a tlc JSON report document.

Independent (non-Rust) check used by CI after the manifest and audit
smoke runs: verifies field presence, types, and the arithmetic
invariants the producer guarantees. Dispatches on the document's
``schema`` field — ``tlc-run-manifest/2`` (sweep instrumentation
manifests) and ``tlc-audit-report/1`` (differential-audit reports) are
understood — plus Chrome trace-event documents (a top-level
``traceEvents`` array, as written by ``tlc sweep --trace-out``).
Anything else is rejected with a clear message naming the schemas this
validator speaks. Exits non-zero on the first violation.

Usage: validate_manifest.py <report.json>
"""

import json
import sys

SCHEMA = "tlc-run-manifest/2"
AUDIT_SCHEMA = "tlc-audit-report/1"

AUDIT_FIELDS = {
    "schema": str,
    "seed": int,
    "requested_seconds": (int, float),
    "elapsed_seconds": (int, float),
    "cases": int,
    "engines": list,
    "checks": list,
    "divergences": list,
}

TOP_FIELDS = {
    "schema": str,
    "command": str,
    "benchmark": str,
    "engine": str,
    "threads": int,
    "configs": int,
    "config_space_hash": str,
    "wall_s": (int, float),
    "instrumentation": bool,
    "counters": list,
    "histograms": list,
    "memory": dict,
    "spans_dropped": int,
    "spans": list,
    "events": list,
}

SPAN_FIELDS = {
    "name": str,
    "count": int,
    "wall_ns": int,
    "cpu_ns": int,
    "threads": int,
    "items": int,
    "children": list,
}

HIST_FIELDS = {
    "name": str,
    "count": int,
    "sum": int,
    "max": int,
    "p50": int,
    "p90": int,
    "p99": int,
    "buckets": list,
}

MEMORY_FIELDS = {
    "peak_rss_bytes": int,
    "current_rss_bytes": int,
    "arena_bytes": int,
    "event_buffer_bytes": int,
}


def fail(msg):
    print(f"validate_manifest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_fields(doc, fields, what):
    for field, ty in fields.items():
        if field not in doc:
            fail(f"{what}: missing field {field!r}")
        if not isinstance(doc[field], ty):
            fail(f"{what}.{field}: expected {ty}, got {type(doc[field])}")


def check_span(node, path):
    check_fields(node, SPAN_FIELDS, f"span {path}")
    for child in node["children"]:
        check_span(child, f"{path}/{child.get('name', '?')}")


def check_histogram(h):
    name = h.get("name", "?")
    check_fields(h, HIST_FIELDS, f"histogram {name}")
    bucket_total = 0
    for b in h["buckets"]:
        for field in ("index", "floor", "count"):
            if not isinstance(b.get(field), int):
                fail(f"histogram {name}: malformed bucket {b!r}")
        bucket_total += b["count"]
    if bucket_total != h["count"]:
        fail(
            f"histogram {name}: bucket counts sum to {bucket_total}, "
            f"recorded count is {h['count']}"
        )
    if h["count"] > 0:
        if not h["p50"] <= h["p90"] <= h["p99"] <= h["max"]:
            fail(
                f"histogram {name}: quantiles not monotone "
                f"(p50={h['p50']} p90={h['p90']} p99={h['p99']} max={h['max']})"
            )
        if h["sum"] < h["max"]:
            fail(f"histogram {name}: sum ({h['sum']}) < max ({h['max']})")


def check_chrome_trace(doc):
    """Well-formedness of a ``--trace-out`` Chrome trace-event document:
    the subset Perfetto/chrome://tracing needs to render the timeline."""
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"traceEvents: expected list, got {type(events)}")
    complete, metadata = 0, 0
    tids_named = set()
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"traceEvents[{i}]: expected object, got {type(e)}")
        ph = e.get("ph")
        if ph not in ("X", "M"):
            fail(f"traceEvents[{i}]: unknown phase {ph!r} (want 'X' or 'M')")
        if not isinstance(e.get("pid"), int) or not isinstance(e.get("tid"), int):
            fail(f"traceEvents[{i}]: pid/tid must be integers: {e!r}")
        if not isinstance(e.get("name"), str):
            fail(f"traceEvents[{i}]: missing string name: {e!r}")
        if ph == "M":
            metadata += 1
            if e["name"] != "thread_name":
                fail(f"traceEvents[{i}]: unexpected metadata record {e['name']!r}")
            tids_named.add(e["tid"])
        else:
            complete += 1
            for field in ("ts", "dur"):
                if not isinstance(e.get(field), (int, float)):
                    fail(f"traceEvents[{i}].{field}: expected number: {e!r}")
            if e["dur"] < 0 or e["ts"] < 0:
                fail(f"traceEvents[{i}]: negative ts/dur: {e!r}")
            if not isinstance(e.get("cat"), str):
                fail(f"traceEvents[{i}]: missing category: {e!r}")
            if e["tid"] not in tids_named:
                fail(f"traceEvents[{i}]: tid {e['tid']} has no thread_name metadata")
    print(
        f"validate_manifest: OK (chrome trace, {complete} spans on "
        f"{len(tids_named)} named threads, {metadata} metadata records)"
    )


def check_audit_report(doc):
    check_fields(doc, AUDIT_FIELDS, "audit report")
    if doc["cases"] < 1:
        fail("audit ran zero cases")
    if doc["elapsed_seconds"] < 0:
        fail("negative elapsed_seconds")
    engines = doc["engines"]
    expected = ["streaming", "arena", "family", "predict"]
    if sorted(engines) != sorted(expected):
        fail(f"unexpected engine list {engines!r}")

    total_div = 0
    names = set()
    for c in doc["checks"]:
        name = c.get("name")
        if not isinstance(name, str):
            fail(f"malformed check entry {c!r}")
        if name in names:
            fail(f"duplicate check {name!r}")
        names.add(name)
        runs, div = c.get("runs"), c.get("divergences")
        if not isinstance(runs, int) or not isinstance(div, int):
            fail(f"check {name!r}: runs/divergences must be integers")
        if div > runs:
            fail(f"check {name!r}: {div} divergences out of {runs} runs")
        total_div += div
    if total_div != len(doc["divergences"]):
        fail(
            f"check tallies count {total_div} divergences but the report "
            f"records {len(doc['divergences'])}"
        )
    for d in doc["divergences"]:
        for field in ("case_index", "check", "config", "workload", "detail"):
            if field not in d:
                fail(f"divergence record missing field {field!r}: {d!r}")
        if d["check"] not in names:
            fail(f"divergence cites unknown check {d['check']!r}")

    verdict = "clean" if not doc["divergences"] else f"{total_div} DIVERGENCES"
    print(
        f"validate_manifest: OK (audit seed {doc['seed']:#x}, "
        f"{doc['cases']} cases, {len(doc['checks'])} checks, {verdict})"
    )


def check_manifest(doc):
    check_fields(doc, TOP_FIELDS, "manifest")

    counters = {}
    for c in doc["counters"]:
        if not isinstance(c.get("name"), str) or not isinstance(c.get("value"), int):
            fail(f"malformed counter entry {c!r}")
        if c["name"] in counters:
            fail(f"duplicate counter {c['name']!r}")
        counters[c["name"]] = c["value"]

    hist_names = set()
    populated_hists = 0
    for h in doc["histograms"]:
        check_histogram(h)
        if h["name"] in hist_names:
            fail(f"duplicate histogram {h['name']!r}")
        hist_names.add(h["name"])
        if h["count"] > 0:
            populated_hists += 1

    memory = doc["memory"]
    check_fields(memory, MEMORY_FIELDS, "memory")
    peak, current = memory["peak_rss_bytes"], memory["current_rss_bytes"]
    if peak > 0 and current > 0 and peak < current:
        fail(f"memory: peak_rss_bytes ({peak}) < current_rss_bytes ({current})")

    if doc["spans_dropped"] < 0:
        fail("negative spans_dropped")

    for node in doc["spans"]:
        check_span(node, node.get("name", "?"))

    if not doc["instrumentation"]:
        # Every build is instrumented; a manifest that says otherwise
        # comes from an older no-op build and its all-zero counters
        # prove nothing.
        fail("instrumentation is false: only instrumented manifests are accepted")

    def counter(name):
        if name not in counters:
            fail(f"missing counter {name!r}")
        return counters[name]

    decoded = counter("filter.events_decoded")
    l1_hits = counter("filter.l1_hits")
    l1_misses = counter("filter.l1_misses")
    if l1_hits + l1_misses != decoded:
        fail(
            f"filter.l1_hits ({l1_hits}) + filter.l1_misses ({l1_misses}) "
            f"!= filter.events_decoded ({decoded})"
        )

    probes = counter("l2.probes")
    l2_hits = counter("l2.hits")
    l2_misses = counter("l2.misses")
    if l2_hits + l2_misses != probes:
        fail(f"l2.hits ({l2_hits}) + l2.misses ({l2_misses}) != l2.probes ({probes})")

    # A design point is either simulated or derived from statistics the
    # sweep already held, so distinct simulated hierarchies never
    # outnumber completed points. Manifests from before the counter
    # existed carry no runner.configs_simulated.
    if "runner.configs_simulated" in counters and "runner.configs_completed" in counters:
        simulated = counters["runner.configs_simulated"]
        completed = counters["runner.configs_completed"]
        if simulated > completed:
            fail(
                f"runner.configs_simulated ({simulated}) > "
                f"runner.configs_completed ({completed})"
            )

    # Block-liveness accounting: every L2 fill's generation ends exactly
    # once, classified as dead-on-arrival (no demand hit before
    # departure) or live; multi-hit generations are a subset of live.
    fills = counter("l2.fills")
    dead = counter("l2.dead_on_arrival")
    live = counter("l2.live_fills")
    multi = counter("l2.multi_hit")
    if dead + live != fills:
        fail(
            f"l2.dead_on_arrival ({dead}) + l2.live_fills ({live}) "
            f"!= l2.fills ({fills})"
        )
    if multi > live:
        fail(f"l2.multi_hit ({multi}) > l2.live_fills ({live})")

    # Every TLCTRC01 record is a control byte plus at least one varint
    # byte. Manifests from before the decode counters read as zero.
    records_decoded = counters.get("trace.records_decoded", 0)
    bytes_decoded = counters.get("trace.bytes_decoded", 0)
    if bytes_decoded < 2 * records_decoded:
        fail(
            f"trace.bytes_decoded ({bytes_decoded}) < 2 × trace.records_decoded "
            f"({records_decoded})"
        )

    if doc["command"] == "sweep":
        done = counter("runner.configs_completed")
        phases = counters.get("sample.phases", 0)
        if phases > 0:
            # Sampled sweep: every interval is either represented by a
            # phase or skipped, and each configuration completes once
            # per phase.
            intervals = counters.get("sample.intervals", 0)
            skipped = counters.get("sample.intervals_skipped", 0)
            if phases + skipped != intervals:
                fail(
                    f"sample.phases ({phases}) + sample.intervals_skipped "
                    f"({skipped}) != sample.intervals ({intervals})"
                )
            if counters.get("sample.events_replayed", 0) == 0:
                fail("sampled sweep replayed no events")
            expected = doc["configs"] * phases
        else:
            expected = doc["configs"]
        if done != expected:
            fail(
                f"runner.configs_completed ({done}) != configs × phases "
                f"({doc['configs']} × {max(phases, 1)})"
            )
        if counter("trace.instructions") == 0:
            fail("instrumented sweep captured no trace instructions")
        if memory["peak_rss_bytes"] == 0:
            fail("instrumented sweep recorded no peak RSS")
        if doc["engine"] == "predict":
            # Every design point is either answered analytically or
            # replayed exactly — nothing may fall through.
            predicted = counter("predict.configs_predicted")
            replayed = counter("predict.configs_replayed")
            if predicted + replayed != doc["configs"]:
                fail(
                    f"predict.configs_predicted ({predicted}) + "
                    f"predict.configs_replayed ({replayed}) != configs "
                    f"({doc['configs']})"
                )
            if predicted > 0 and counter("predict.groups_profiled") == 0:
                fail("points were predicted but no L1 group was profiled")
            # A solve walks at most one step per reuse distance, and no
            # distance exceeds the events of the profiled stream.
            steps = counter("predict.solve_steps")
            if steps > predicted * counter("predict.events_profiled"):
                fail(
                    f"predict.solve_steps ({steps}) exceeds configs_predicted "
                    f"({predicted}) × events_profiled "
                    f"({counter('predict.events_profiled')})"
                )

    sampled = ""
    if doc["command"] == "sweep" and counters.get("sample.phases", 0) > 0:
        sampled = (
            f", sampled {counters['sample.phases']}/"
            f"{counters.get('sample.intervals', 0)} intervals"
        )
    print(
        f"validate_manifest: OK ({doc['command']} {doc['benchmark']}, "
        f"engine={doc['engine']}, {doc['configs']} configs, "
        f"{decoded} events decoded, {probes} L2 probes, "
        f"{populated_hists} populated histograms{sampled})"
    )


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_manifest.py <report.json>")
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    if not isinstance(doc, dict):
        fail(f"expected a JSON object, got {type(doc)}")

    # A --trace-out timeline has no schema tag of its own; the
    # traceEvents array is the Chrome trace-event format's signature.
    if "schema" not in doc and "traceEvents" in doc:
        check_chrome_trace(doc)
        return

    schema = doc.get("schema")
    if schema == AUDIT_SCHEMA:
        check_audit_report(doc)
    elif schema == SCHEMA:
        check_manifest(doc)
    else:
        fail(
            f"unknown schema {schema!r}: this validator understands "
            f"{SCHEMA!r}, {AUDIT_SCHEMA!r}, and Chrome trace-event "
            f"documents (a top-level 'traceEvents' array)"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validate a campaign JSONL event stream (and optionally its summary).

Usage: check_campaign.py EVENTS.jsonl [--summary CAMPAIGN.json]

Checks the invariants the src/campaign EventStream guarantees by
construction, so CI catches any writer regression:

  * every line is a standalone JSON object carrying "ev", "seq", "ts_ms"
  * "seq" is contiguous from 0 in file order (no interleaved/lost lines)
  * "ts_ms" is monotone non-decreasing (single steady clock, one lock)
  * the first event is campaign_started, the last campaign_finished
  * only known event kinds appear, each with its required fields
  * every run index in [0, total) has exactly one run_started and exactly
    one terminal event (run_finished | run_failed): done == total
  * campaign_finished's ok/failed/degraded counts reconcile against the
    per-run terminal statuses

With --summary, the summary JSON must be schema asyncdr-campaign-v1 with a
matching campaign name and run counts.

Exit status: 0 = valid, 1 = invalid, 2 = usage/parse error.
Zero third-party dependencies by design (same contract as asyncdr_sema.py).
"""

import argparse
import json
import sys

REQUIRED_FIELDS = {
    "campaign_started": ("campaign", "total", "seed_base"),
    "run_started": ("run", "seed"),
    "run_finished": ("run", "seed", "label", "status", "q", "t", "m",
                     "wall_ms"),
    "run_failed": ("run", "seed", "label", "status", "q", "t", "m",
                   "wall_ms", "detail"),
    "shrink_step": ("protocol", "seed", "dimension", "value", "shrink_runs"),
    "repro": ("protocol", "seed", "violation", "shrink_runs", "command"),
    "campaign_finished": ("campaign", "total", "ok", "failed", "degraded"),
}

TERMINAL = ("run_finished", "run_failed")


def check_events(path):
    """Returns (problems, facts) where facts summarises the stream."""
    problems = []
    events = []
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                raw = raw.strip()
                if not raw:
                    problems.append(f"line {lineno}: blank line in stream")
                    continue
                try:
                    ev = json.loads(raw)
                except json.JSONDecodeError as e:
                    problems.append(f"line {lineno}: not valid JSON ({e})")
                    continue
                if not isinstance(ev, dict):
                    problems.append(f"line {lineno}: not a JSON object")
                    continue
                events.append((lineno, ev))
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    facts = {"events": len(events), "total": None, "campaign": None,
             "ok": 0, "failed": 0, "degraded": 0}
    if not events:
        problems.append("stream is empty")
        return problems, facts

    prev_ts = None
    for i, (lineno, ev) in enumerate(events):
        kind = ev.get("ev")
        if kind not in REQUIRED_FIELDS:
            problems.append(f"line {lineno}: unknown event kind {kind!r}")
            continue
        if ev.get("seq") != i:
            problems.append(
                f"line {lineno}: seq {ev.get('seq')!r} != expected {i} "
                "(stream not contiguous)")
        ts = ev.get("ts_ms")
        if not isinstance(ts, (int, float)):
            problems.append(f"line {lineno}: ts_ms missing or non-numeric")
        else:
            if prev_ts is not None and ts < prev_ts:
                problems.append(
                    f"line {lineno}: ts_ms {ts} < previous {prev_ts} "
                    "(timestamps must be monotone)")
            prev_ts = ts
        for field in REQUIRED_FIELDS[kind]:
            if field not in ev:
                problems.append(
                    f"line {lineno}: {kind} missing field {field!r}")

    first, last = events[0][1], events[-1][1]
    if first.get("ev") != "campaign_started":
        problems.append(
            f"first event is {first.get('ev')!r}, not campaign_started")
    if last.get("ev") != "campaign_finished":
        problems.append(
            f"last event is {last.get('ev')!r}, not campaign_finished "
            "(truncated campaign?)")

    total = first.get("total") if first.get("ev") == "campaign_started" else None
    facts["total"] = total
    facts["campaign"] = first.get("campaign")

    started = {}
    finished = {}
    for lineno, ev in events:
        kind = ev.get("ev")
        if kind == "run_started":
            run = ev.get("run")
            if run in started:
                problems.append(
                    f"line {lineno}: run {run} started twice "
                    f"(first at line {started[run]})")
            started[run] = lineno
        elif kind in TERMINAL:
            run = ev.get("run")
            if run in finished:
                problems.append(
                    f"line {lineno}: run {run} has a second terminal event "
                    f"(first at line {finished[run]})")
            finished[run] = lineno
            if run not in started:
                problems.append(
                    f"line {lineno}: run {run} finished without starting")
            status = ev.get("status")
            if status in ("ok", "failed", "degraded"):
                facts[status] += 1
            else:
                problems.append(
                    f"line {lineno}: unknown run status {status!r}")
            if kind == "run_failed" and status != "failed":
                problems.append(
                    f"line {lineno}: run_failed carries status {status!r}")
            if kind == "run_finished" and status == "failed":
                problems.append(
                    f"line {lineno}: failed run emitted run_finished")

    if isinstance(total, int):
        expected = set(range(total))
        missing_start = expected - set(started)
        missing_finish = expected - set(finished)
        if missing_start:
            problems.append(
                f"{len(missing_start)} run(s) never started "
                f"(e.g. {sorted(missing_start)[:5]})")
        if missing_finish:
            problems.append(
                f"done {len(finished)}/{total}: "
                f"{len(missing_finish)} run(s) never finished "
                f"(e.g. {sorted(missing_finish)[:5]})")
        stray = (set(started) | set(finished)) - expected
        if stray:
            problems.append(
                f"run index(es) outside [0, {total}): {sorted(stray)[:5]}")

    if last.get("ev") == "campaign_finished":
        for field in ("ok", "failed", "degraded"):
            if last.get(field) != facts[field]:
                problems.append(
                    f"campaign_finished.{field} = {last.get(field)!r} but "
                    f"the stream carries {facts[field]} such run(s)")
        if isinstance(total, int) and last.get("total") != total:
            problems.append(
                f"campaign_finished.total = {last.get('total')!r} != "
                f"campaign_started.total = {total}")

    return problems, facts


def check_summary(path, facts):
    problems = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "asyncdr-campaign-v1":
        problems.append(
            f"summary schema is {doc.get('schema')!r}, "
            "not asyncdr-campaign-v1")
        return problems
    if facts["campaign"] is not None and doc.get("campaign") != facts["campaign"]:
        problems.append(
            f"summary campaign {doc.get('campaign')!r} != stream campaign "
            f"{facts['campaign']!r}")
    runs = doc.get("runs", {})
    if facts["total"] is not None and runs.get("total") != facts["total"]:
        problems.append(
            f"summary runs.total = {runs.get('total')!r} != stream total "
            f"{facts['total']}")
    for field in ("ok", "failed", "degraded"):
        if runs.get(field) != facts[field]:
            problems.append(
                f"summary runs.{field} = {runs.get(field)!r} != stream "
                f"count {facts[field]}")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("events", help="campaign JSONL event stream")
    ap.add_argument("--summary", help="campaign summary JSON to cross-check")
    args = ap.parse_args()

    problems, facts = check_events(args.events)
    if args.summary:
        problems += check_summary(args.summary, facts)

    name = facts["campaign"] or "?"
    print(f"{name}: {facts['events']} event(s), "
          f"{facts['ok']} ok / {facts['failed']} failed / "
          f"{facts['degraded']} degraded, {len(problems)} problem(s)")
    for p in problems:
        print(f"INVALID {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

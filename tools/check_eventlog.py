#!/usr/bin/env python3
"""Validate a statfi.eventlog.v1 JSONL event log (as written by --log-out).

Enforces the frozen v1 schema contract (DESIGN.md §5.13) so CI catches a
format regression without rebuilding the report renderer:

  * every line is exactly one compact JSON object;
  * every event carries the envelope {"v":1,"seq":N,"ts":S,"type":...},
    with `seq` strictly monotonic from 0 and `ts` a non-negative number;
  * when the fleet plane stamped the envelope with trace correlation ids,
    `trace_id` and `span_id` appear together (both-or-neither), each is
    16 lowercase hex digits, and `trace_id` is constant across the whole
    log; logs written before the fleet plane (no ids at all) still pass;
  * the FIRST event is a campaign_header naming the schema
    "statfi.eventlog.v1" (header-first invariant);
  * every known event type carries its required keys with sane types
    (probabilities in [0,1], interval lo <= hi, done <= planned-or-more);
  * unknown event types are tolerated (forward compatibility) unless
    --strict is given.

Usage:
    check_eventlog.py FILE [--require-type TYPE ...] [--strict]
                      [--expect-trace HEX]

`--require-type` fails unless at least one event of that type is present
(e.g. --require-type stratum_update --require-type campaign_end).
`--expect-trace` fails unless every event carries exactly that trace_id
(use it to assert a shard log joined the driver's trace).
"""

import argparse
import json
import sys

SCHEMA_NAME = "statfi.eventlog.v1"

# Number formats the fault layer can store weights in, with the stored word
# width in bits. campaign_header.format declares which one the campaign
# used; logs written before the field existed default to fp32, and service
# daemon logs (command == "serve") carry the sentinel "-" — no single
# weight format applies to a whole fleet.
FORMAT_WIDTHS = {"fp32": 32, "fp16": 16, "bf16": 16, "int8": 8}

# Required payload keys (beyond the envelope) per event type, with the
# accepted JSON types. bool is checked separately from int (bool is an int
# subclass in Python).
NUM = (int, float)
REQUIRED = {
    "campaign_header": {
        "schema": str,
        "command": str,
        "model": str,
        "approach": str,
        "dtype": str,
        "policy": str,
        "seed": NUM,
        "images": NUM,
        "confidence": NUM,
        "error_margin": NUM,
        "fault_model": str,
        "mitigation": str,
        "kernels": str,
    },
    "plan": {
        "universe": NUM,
        "planned": NUM,
        "strata": NUM,
        "bits": NUM,
        "layers": list,
        "fault_model": str,
    },
    "phase_begin": {"phase": str},
    "phase_end": {"phase": str, "seconds": NUM},
    "resume": {"replayed": NUM},
    # A checkpoint journal that could not be resumed as-is: missing, torn
    # tail dropped, or discarded for a fingerprint mismatch; `note` names
    # which.
    "journal_recovered": {"valid_bytes": NUM, "tail_dropped": bool, "note": str},
    # A cached artifact that failed to load and is rebuilt instead: `kind`
    # names which ("weights"), `reason` the loader's error.
    "artifact_refused": {"kind": str, "path": str, "reason": str},
    "stratum_update": {
        "stratum": NUM,
        "layer": NUM,
        "bit": NUM,
        "population": NUM,
        "planned": NUM,
        "done": NUM,
        "critical": NUM,
        "p_hat": NUM,
        "wilson_lo": NUM,
        "wilson_hi": NUM,
        "wald_lo": NUM,
        "wald_hi": NUM,
    },
    "shard_begin": {"shard": NUM, "range_begin": NUM, "range_end": NUM},
    "shard_end": {
        "shard": NUM,
        "complete": bool,
        "resumed": NUM,
        "classified": NUM,
    },
    "merge_artifact": {"shard": NUM, "items": NUM, "seconds": NUM},
    "campaign_end": {
        "outcome": str,
        "injected": NUM,
        "critical": NUM,
        "wall_seconds": NUM,
    },
    # Service daemon job lifecycle (DESIGN.md §16). The daemon's own log is
    # a statfi.eventlog.v1 stream whose header has command == "serve".
    "job_submitted": {
        "job": NUM,
        "fingerprint": str,
        "model": str,
        "approach": str,
        "fault_model": str,
        "shards": NUM,
        "deduplicated": bool,
        "cached": bool,
    },
    "job_scheduled": {"job": NUM, "worker": NUM, "fingerprint": str},
    "job_done": {
        "job": NUM,
        "outcome": str,
        "fingerprint": str,
        "shards_done": NUM,
        "cached_shards": NUM,
        "resumed": NUM,
        "classified": NUM,
        "critical": NUM,
    },
    # An advisory artifact of a service job (a shard's Chrome trace, the
    # merged trace) that could not be written; the job carries on.
    "artifact_failed": {"job": NUM, "artifact": str, "reason": str},
}

FINGERPRINT_HEX = set("0123456789abcdef")


def hex16(value):
    """True when value is a 16-digit lowercase-hex string (trace/span id)."""
    return (
        isinstance(value, str)
        and len(value) == 16
        and set(value) <= FINGERPRINT_HEX
    )


def check_trace_envelope(event, lineno, errors, ctx):
    """Optional fleet-plane correlation ids: both-or-neither per event, each
    16 lowercase hex, and one trace_id for the whole log. `ctx["trace_id"]`
    remembers the first id seen."""
    trace, span = event.get("trace_id"), event.get("span_id")
    if trace is None and span is None:
        return
    if trace is None or span is None:
        present = "trace_id" if span is None else "span_id"
        errors.append(
            f"line {lineno}: envelope carries {present} without its pair "
            f"(trace_id and span_id travel together)"
        )
    for key, value in (("trace_id", trace), ("span_id", span)):
        if value is not None and not hex16(value):
            errors.append(
                f"line {lineno}: envelope {key} {value!r} is not "
                f"16 lowercase hex digits"
            )
    if hex16(trace):
        first = ctx.setdefault("trace_id", trace)
        if trace != first:
            errors.append(
                f"line {lineno}: trace_id {trace} differs from {first} "
                f"seen earlier (one trace per log)"
            )


def type_ok(value, expected):
    if expected is bool:
        return isinstance(value, bool)
    if expected is NUM:
        return isinstance(value, NUM) and not isinstance(value, bool)
    return isinstance(value, expected)


def check_payload(event, lineno, errors, ctx):
    """Per-type required keys plus the numeric sanity rules. `ctx` carries
    cross-event state captured from the campaign_header (declared format and
    fault model) so later events can be validated against it."""
    etype = event["type"]
    spec = REQUIRED.get(etype)
    if spec is None:
        return False  # unknown type
    for key, expected in spec.items():
        if key not in event:
            errors.append(f"line {lineno}: {etype} missing key {key!r}")
        elif not type_ok(event[key], expected):
            errors.append(
                f"line {lineno}: {etype}.{key} has type "
                f"{type(event[key]).__name__}, expected "
                f"{'number' if expected is NUM else expected.__name__}"
            )
    if etype == "campaign_header":
        if event.get("schema") != SCHEMA_NAME:
            errors.append(
                f"line {lineno}: campaign_header.schema is "
                f"{event.get('schema')!r}, expected {SCHEMA_NAME!r}"
            )
        for key in ("fault_model", "mitigation", "kernels"):
            if isinstance(event.get(key), str) and not event[key]:
                errors.append(
                    f"line {lineno}: campaign_header.{key} is empty "
                    f"(expected a descriptor like 'stuck-at' or 'none')"
                )
        # `format` is required on new logs; old logs (no field) default to
        # fp32. When present it must name a known format and agree with
        # `dtype` (the two spell the same fact).
        fmt = event.get("format", "fp32")
        if not isinstance(fmt, str) or (
            fmt not in FORMAT_WIDTHS and fmt != "-"
        ):
            errors.append(
                f"line {lineno}: campaign_header.format {fmt!r} is not "
                f"one of {sorted(FORMAT_WIDTHS)} or '-'"
            )
            fmt = "fp32"
        elif "format" in event and event.get("dtype") not in (None, fmt):
            errors.append(
                f"line {lineno}: campaign_header.format {fmt!r} disagrees "
                f"with dtype {event.get('dtype')!r}"
            )
        # The "-" sentinel carries no width; fall back to fp32 for the
        # (never-exercised) bit-bound check.
        ctx["format"] = "fp32" if fmt == "-" else fmt
        if isinstance(event.get("fault_model"), str):
            ctx["fault_model"] = event["fault_model"]
    if etype == "stratum_update":
        for prob in ("p_hat", "wilson_lo", "wilson_hi", "wald_lo", "wald_hi"):
            v = event.get(prob)
            if isinstance(v, NUM) and not 0.0 <= v <= 1.0:
                errors.append(
                    f"line {lineno}: stratum_update.{prob} = {v} "
                    f"outside [0, 1]"
                )
        for lo, hi in (("wilson_lo", "wilson_hi"), ("wald_lo", "wald_hi")):
            if (
                isinstance(event.get(lo), NUM)
                and isinstance(event.get(hi), NUM)
                and event[lo] > event[hi]
            ):
                errors.append(f"line {lineno}: stratum_update {lo} > {hi}")
        done, critical = event.get("done"), event.get("critical")
        if isinstance(done, NUM) and isinstance(critical, NUM):
            if critical > done:
                errors.append(
                    f"line {lineno}: stratum_update critical {critical} > "
                    f"done {done}"
                )
        # Bit indices must fit the declared format's stored word. Only the
        # single-bit weight models stratify over bit positions — MBU bits
        # are combinadic ranks and activation bits are node axes, neither
        # bounded by the word width. bit = -1 marks aggregate strata.
        bit = event.get("bit")
        if (
            ctx.get("fault_model") in ("stuck-at", "flip")
            and isinstance(bit, NUM)
            and not isinstance(bit, bool)
            and bit >= FORMAT_WIDTHS[ctx.get("format", "fp32")]
        ):
            errors.append(
                f"line {lineno}: stratum_update.bit {bit} out of range "
                f"for format {ctx.get('format', 'fp32')!r} "
                f"({FORMAT_WIDTHS[ctx.get('format', 'fp32')]} bits)"
            )
    if etype == "shard_begin":
        lo, hi = event.get("range_begin"), event.get("range_end")
        if isinstance(lo, NUM) and isinstance(hi, NUM) and lo >= hi:
            errors.append(f"line {lineno}: shard_begin empty range [{lo},{hi})")
    if etype == "campaign_end" and event.get("outcome") not in (
        "complete",
        "interrupted",
    ):
        errors.append(
            f"line {lineno}: campaign_end.outcome is "
            f"{event.get('outcome')!r}, expected complete|interrupted"
        )
    if etype.startswith("job_"):
        fp = event.get("fingerprint")
        if isinstance(fp, str) and (
            len(fp) != 16 or not set(fp) <= FINGERPRINT_HEX
        ):
            errors.append(
                f"line {lineno}: {etype}.fingerprint {fp!r} is not "
                f"16 lowercase hex digits"
            )
    if etype == "job_done":
        if event.get("outcome") not in ("complete", "cached", "failed"):
            errors.append(
                f"line {lineno}: job_done.outcome is "
                f"{event.get('outcome')!r}, expected complete|cached|failed"
            )
        classified, critical = event.get("classified"), event.get("critical")
        if (
            isinstance(classified, NUM)
            and isinstance(critical, NUM)
            and critical > classified
        ):
            errors.append(
                f"line {lineno}: job_done critical {critical} > "
                f"classified {classified}"
            )
    return True


def check(path, required_types, strict, expect_trace=None):
    errors = []
    counts = {}
    expected_seq = 0
    ctx = {}  # header state (format, fault_model) for later events

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                errors.append(f"line {lineno}: blank line in event log")
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON: {exc}")
                continue
            if not isinstance(event, dict):
                errors.append(f"line {lineno}: event is not a JSON object")
                continue

            # Envelope.
            if event.get("v") != 1:
                errors.append(
                    f"line {lineno}: schema version {event.get('v')!r}, "
                    f"expected 1"
                )
            seq = event.get("seq")
            if seq != expected_seq:
                errors.append(
                    f"line {lineno}: seq {seq!r}, expected {expected_seq} "
                    f"(strictly monotonic from 0)"
                )
            expected_seq = (seq if isinstance(seq, int) else expected_seq) + 1
            ts = event.get("ts")
            if not isinstance(ts, NUM) or isinstance(ts, bool) or ts < 0:
                errors.append(f"line {lineno}: bad ts {ts!r}")
            check_trace_envelope(event, lineno, errors, ctx)
            etype = event.get("type")
            if not isinstance(etype, str) or not etype:
                errors.append(f"line {lineno}: missing event type")
                continue

            # Header-first invariant.
            if lineno == 1 and etype != "campaign_header":
                errors.append(
                    f"line 1: first event is {etype!r}, expected "
                    f"campaign_header (header-first invariant)"
                )

            known = check_payload(event, lineno, errors, ctx)
            if not known and strict:
                errors.append(f"line {lineno}: unknown event type {etype!r}")
            counts[etype] = counts.get(etype, 0) + 1

    if expected_seq == 0:
        errors.append("event log is empty")
    for etype in required_types:
        if not counts.get(etype):
            errors.append(f"required event type {etype!r} has no events")
    if expect_trace is not None and ctx.get("trace_id") != expect_trace:
        errors.append(
            f"expected trace_id {expect_trace!r}, log carries "
            f"{ctx.get('trace_id')!r}"
        )
    return errors, expected_seq, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="JSONL event log (--log-out output)")
    parser.add_argument(
        "--require-type",
        action="append",
        default=[],
        metavar="TYPE",
        help="fail unless at least one event of TYPE is present (repeatable)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on event types unknown to schema v1",
    )
    parser.add_argument(
        "--expect-trace",
        metavar="HEX",
        help="fail unless every event carries this 16-hex-digit trace_id",
    )
    args = parser.parse_args()
    if args.expect_trace is not None and not hex16(args.expect_trace):
        parser.error("--expect-trace wants 16 lowercase hex digits")

    errors, events, counts = check(
        args.file, args.require_type, args.strict, args.expect_trace
    )
    if errors:
        for err in errors:
            print(f"check_eventlog: {err}", file=sys.stderr)
        return 1
    summary = ", ".join(f"{t}={n}" for t, n in sorted(counts.items()))
    print(f"check_eventlog: OK ({events} events: {summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

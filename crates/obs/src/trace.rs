//! Chrome trace-event JSON exporter.
//!
//! Serialises the span stream into the trace-event format understood by
//! `chrome://tracing` and Perfetto: one "complete" (`"ph": "X"`) event
//! per span, timestamps in virtual microseconds, one lane (thread) per
//! actor instance plus one per EC2 instance, and the billing breakdown in
//! each event's `args`. Billed amounts are emitted as *picodollar strings*
//! — `u128` totals overflow JSON's 2^53 exact-integer range.
//!
//! The output is hand-rolled (the workspace has no serde) and checked by
//! [`crate::json::validate_json`] in tests and in the `repro trace`
//! artifact pipeline.

use amada_cloud::{InstanceRecord, ServiceKind, Span, PRICES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for embedding inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders `spans` (plus EC2 lifetime lanes derived from `ec2`, billed at
/// [`PRICES`]) as a Chrome trace-event JSON document.
pub fn chrome_trace(spans: &[Span], ec2: &[InstanceRecord]) -> String {
    // Lane (tid) assignment: 0 is the untagged lane, actor lanes follow in
    // sorted (kind, instance) order, then one lane per EC2 instance.
    let mut lanes: BTreeMap<(&str, usize), u64> = BTreeMap::new();
    for s in spans {
        if let Some(tag) = s.ctx.actor {
            lanes.entry((tag.kind, tag.instance)).or_default();
        }
    }
    for (i, lane) in lanes.values_mut().enumerate() {
        *lane = i as u64 + 1;
    }
    let ec2_base = lanes.len() as u64 + 1;

    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"args\":{\"name\":\"amada warehouse\"}}"
            .to_string(),
    );
    events.push(
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"untagged\"}}"
            .to_string(),
    );
    for ((kind, instance), tid) in &lanes {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{} {}\"}}}}",
            escape(kind),
            instance
        ));
    }
    for (i, r) in ec2.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"ec2 {} #{i}\"}}}}",
            ec2_base + i as u64,
            r.itype.label()
        ));
    }

    for s in spans {
        let tid = match s.ctx.actor {
            Some(tag) => lanes[&(tag.kind, tag.instance)],
            None => 0,
        };
        let mut args = format!(
            "\"outcome\":\"{}\",\"phase\":\"{}\",\"bytes\":{},\"units\":{},\
             \"billed_pico\":\"{}\"",
            s.outcome.label(),
            s.ctx.phase.label(),
            s.bytes,
            fmt_f64(s.units),
            s.billed.pico()
        );
        if let Some(q) = &s.ctx.query {
            let _ = write!(args, ",\"query\":\"{}\"", escape(q));
        }
        if let Some(d) = &s.ctx.doc {
            let _ = write!(args, ",\"doc\":\"{}\"", escape(d));
        }
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}",
            escape(s.op),
            s.service.label(),
            s.start.micros(),
            s.duration().micros(),
        ));
    }

    for (i, r) in ec2.iter().enumerate() {
        let billed = PRICES.vm_hour(r.itype).per_hour(r.uptime().micros());
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"instance\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"outcome\":\"ok\",\"itype\":\"{}\",\
             \"billed_pico\":\"{}\"}}}}",
            ServiceKind::Ec2.label(),
            r.start.micros(),
            r.uptime().micros(),
            ec2_base + i as u64,
            r.itype.label(),
            billed.pico()
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Formats an `f64` as a JSON number (finite inputs only; the span model
/// never produces NaN/inf units).
fn fmt_f64(x: f64) -> String {
    debug_assert!(x.is_finite());
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use amada_cloud::{ActorTag, Ctx, InstanceType, Money, Outcome, SimTime};

    fn spans() -> Vec<Span> {
        let loader = Ctx {
            actor: Some(ActorTag {
                kind: "loader",
                instance: 0,
            }),
            query: Some("q\"uoted".into()),
            ..Default::default()
        };
        vec![
            Span::new(
                ServiceKind::Kv,
                "batch_put",
                SimTime(10),
                SimTime(30),
                &loader,
            )
            .bytes(1024)
            .units(1.05)
            .billed(Money::from_pico(123_456)),
            Span::new(
                ServiceKind::Sqs,
                "receive",
                SimTime(30),
                SimTime(34),
                &Ctx::default(),
            )
            .outcome(Outcome::Missing),
            // A query core's crash: instantaneous, on the core's lane.
            Span::new(
                ServiceKind::Actor,
                "crash",
                SimTime(40),
                SimTime(40),
                &Ctx {
                    actor: Some(ActorTag {
                        kind: "query",
                        instance: 0,
                    }),
                    ..Default::default()
                },
            ),
        ]
    }

    fn records() -> Vec<InstanceRecord> {
        vec![InstanceRecord {
            itype: InstanceType::Large,
            start: SimTime::ZERO,
            end: SimTime(3_600_000_000),
        }]
    }

    #[test]
    fn trace_is_valid_json() {
        let t = chrome_trace(&spans(), &records());
        validate_json(&t).expect("chrome trace must be valid JSON");
    }

    #[test]
    fn trace_contains_events_lanes_and_billing() {
        let t = chrome_trace(&spans(), &records());
        assert!(t.contains("\"name\":\"batch_put\""));
        assert!(t.contains("\"cat\":\"kv\""));
        assert!(t.contains("\"name\":\"loader 0\""));
        // Every actor gets its own lane.
        assert!(t.contains("\"name\":\"query 0\""));
        assert!(t.contains("\"name\":\"crash\""));
        assert!(t.contains("\"billed_pico\":\"123456\""));
        // Escaped query name survives.
        assert!(t.contains("q\\\"uoted"));
        // Missing outcome serialised.
        assert!(t.contains("\"outcome\":\"missing\""));
        // EC2 lane: one hour of a Large instance at the paper's price.
        let hour = PRICES.vm_hour(InstanceType::Large).per_hour(3_600_000_000);
        assert!(t.contains(&format!("\"billed_pico\":\"{}\"", hour.pico())));
        assert!(t.contains("\"dur\":3600000000"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = chrome_trace(&[], &[]);
        validate_json(&t).expect("empty trace must be valid JSON");
        assert!(t.contains("traceEvents"));
    }
}

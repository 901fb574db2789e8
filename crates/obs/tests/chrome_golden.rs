//! Golden-file test for the Chrome Trace Event Format exporter.
//!
//! A fixed event sequence (two workers, two supersteps, compiler preamble)
//! must export byte-for-byte to the checked-in golden file, and the
//! exported document must be structurally valid Trace Event JSON: it
//! parses, every record has well-formed `ph`/`ts` (+ `dur` for spans), and
//! spans on the same thread are properly nested (disjoint or contained,
//! never partially overlapping).

use gm_obs::json::{self, Json};
use gm_obs::{Category, Event, Field, Kind, TraceFormat, Tracer};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

fn span(name: &'static str, cat: Category, tid: u32, ts: u64, dur: u64) -> Event {
    Event {
        name: Cow::Borrowed(name),
        cat,
        kind: Kind::Span { dur_us: dur },
        ts_us: ts,
        tid,
        args: vec![],
    }
}

/// The fixed scenario: a compiler pass, then two supersteps in which two
/// workers compute/combine inside the superstep span, plus a counter.
fn scenario() -> Vec<Event> {
    let mut events = vec![
        span("pass/parse", Category::Compiler, 0, 0, 120),
        span("pass/translate", Category::Compiler, 0, 120, 80),
    ];
    for step in 0u64..2 {
        let t0 = 1_000 + step * 500;
        events.push(span("master", Category::Runtime, 0, t0, 40));
        for worker in 0u32..2 {
            let tid = worker + 1;
            events.push(Event {
                args: vec![
                    ("superstep", Field::U64(step)),
                    ("messages", Field::U64(100 * (worker as u64 + 1))),
                ],
                ..span("compute", Category::Runtime, tid, t0 + 40, 200)
            });
            events.push(span("combine", Category::Runtime, tid, t0 + 240, 50));
        }
        events.push(span("exchange", Category::Runtime, 0, t0 + 300, 100));
        events.push(Event {
            name: Cow::Borrowed("superstep"),
            cat: Category::Runtime,
            kind: Kind::Span { dur_us: 450 },
            ts_us: t0,
            tid: 0,
            args: vec![("superstep", Field::U64(step))],
        });
        events.push(Event {
            name: Cow::Borrowed("active"),
            cat: Category::Runtime,
            kind: Kind::Counter,
            ts_us: t0 + 450,
            tid: 0,
            args: vec![("active_vertices", Field::U64(64 - 16 * step))],
        });
    }
    events
}

fn export_chrome() -> String {
    // Two tests export, on threads of one process: a per-call sequence
    // number keeps each in a file of its own.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "gm_obs_golden_{}_{}.json",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tracer = Tracer::to_file(&path, TraceFormat::Chrome).expect("create trace file");
    for ev in scenario() {
        tracer.emit(ev);
    }
    tracer.finish().expect("finish trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn chrome_export_matches_golden_file() {
    let text = export_chrome();
    let golden = include_str!("golden/chrome_trace.json");
    assert_eq!(
        text, golden,
        "Chrome trace output drifted from tests/golden/chrome_trace.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn chrome_export_is_valid_trace_event_json() {
    let text = export_chrome();
    let doc = json::parse(&text).expect("exporter must emit parseable JSON");
    let events = doc
        .get("traceEvents")
        .expect("top-level traceEvents")
        .as_arr()
        .expect("traceEvents is an array");
    assert!(!events.is_empty());

    let mut spans_by_tid: Vec<(u64, u64, u64)> = Vec::new(); // (tid, start, end)
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every record has ph");
        assert!(
            matches!(ph, "X" | "i" | "C" | "M"),
            "unexpected phase {ph:?}"
        );
        if ph == "M" {
            // Metadata records carry no timestamp requirement.
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_u64)
            .expect("timed records have a numeric ts");
        ev.get("pid").and_then(Json::as_u64).expect("pid present");
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid present");
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(Json::as_u64)
                .expect("complete spans have dur");
            spans_by_tid.push((tid, ts, ts + dur));
        }
    }

    // Per-tid nesting: any two spans on one thread must be disjoint or
    // one must contain the other — partial overlap renders as garbage in
    // a flamegraph viewer.
    for (i, &(tid_a, s_a, e_a)) in spans_by_tid.iter().enumerate() {
        for &(tid_b, s_b, e_b) in &spans_by_tid[i + 1..] {
            if tid_a != tid_b {
                continue;
            }
            let disjoint = e_a <= s_b || e_b <= s_a;
            let nested = (s_a <= s_b && e_b <= e_a) || (s_b <= s_a && e_a <= e_b);
            assert!(
                disjoint || nested,
                "spans partially overlap on tid {tid_a}: [{s_a},{e_a}) vs [{s_b},{e_b})"
            );
        }
    }

    // The scenario's worker compute spans must sit inside a superstep
    // span on the coordinator timeline — check the superstep spans exist
    // and cover the worker spans' time range.
    let supersteps: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("superstep"))
        .map(|e| {
            let ts = e.get("ts").and_then(Json::as_u64).unwrap();
            let dur = e.get("dur").and_then(Json::as_u64).unwrap();
            (ts, ts + dur)
        })
        .collect();
    assert_eq!(supersteps.len(), 2);
    for ev in events {
        if ev.get("name").and_then(Json::as_str) == Some("compute") {
            let ts = ev.get("ts").and_then(Json::as_u64).unwrap();
            let end = ts + ev.get("dur").and_then(Json::as_u64).unwrap();
            assert!(
                supersteps.iter().any(|&(s, e)| s <= ts && end <= e),
                "compute span [{ts},{end}) outside every superstep span"
            );
        }
    }
}

#[test]
fn jsonl_export_of_same_scenario_parses_line_by_line() {
    let path = std::env::temp_dir().join(format!("gm_obs_jsonl_{}.jsonl", std::process::id()));
    let tracer = Tracer::to_file(&path, TraceFormat::Jsonl).expect("create trace file");
    for ev in scenario() {
        tracer.emit(ev);
    }
    tracer.finish().expect("finish");
    let text = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), scenario().len());
    for line in lines {
        let v = json::parse(line).expect("each line parses");
        assert!(v.get("name").is_some());
        assert!(v.get("ts_us").is_some());
    }
}

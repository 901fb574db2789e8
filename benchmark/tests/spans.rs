//! The span recorder and the self-time rule.

use gm_perf::spans::*;

fn span(name: &'static str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_us,
        end_us,
        parent,
        job: 1,
    }
}

#[test]
fn self_time_is_duration_minus_child_cover() {
    let spans = [
        span("job", 0, 100, None),
        span("graph.load", 10, 40, Some(0)),
        // Overlaps the first child: the overlap counts once.
        span("service.compile", 30, 60, Some(0)),
        span("native.run", 70, 90, Some(0)),
        // A grandchild takes nothing from the root.
        span("inner", 75, 80, Some(3)),
    ];
    assert_eq!(self_times_us(&spans), [30, 30, 30, 15, 5]);
}

#[test]
fn a_child_reaching_past_its_parent_is_clamped() {
    let spans = [span("job", 10, 20, None), span("late", 15, 40, Some(0))];
    assert_eq!(self_times_us(&spans)[0], 5);
}

#[test]
fn nested_calls_record_parents_and_jobs() {
    let rec = Recorder::new(true);
    let out = rec.span("job", 7, || {
        rec.span("graph.load", 7, || ());
        rec.span("native.run", 7, || 42)
    });
    assert_eq!(out, 42);
    let spans = rec.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["job", "graph.load", "native.run"]);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.job == 7 && s.end_us >= s.start_us));
    assert!(spans[0].start_us <= spans[1].start_us && spans[2].end_us <= spans[0].end_us);
}

#[test]
fn a_forked_recorder_keeps_its_links_when_absorbed() {
    let rec = Recorder::new(true);
    rec.span("setup", 0, || ());
    let thread = rec.fork();
    thread.span("job", 3, || thread.span("gmd.submit", 3, || ()));
    rec.absorb(thread);
    let spans = rec.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[2].name, "gmd.submit");
    assert_eq!(spans[2].parent, Some(1));
}

#[test]
fn a_disabled_recorder_records_nothing() {
    let rec = Recorder::new(false);
    assert_eq!(rec.span("job", 1, || 5), 5);
    assert!(rec.spans().is_empty());
}

//! Open-loop pacing against an injected clock.

use gm_perf::loadgen::*;
use std::cell::Cell;

/// A clock that only moves when told to: sleeping jumps to the deadline,
/// and a "send" can burn time to stand for a stalled system.
struct FakeClock(Cell<u64>);

impl FakeClock {
    fn burn(&self, us: u64) {
        self.0.set(self.0.get() + us);
    }
}

impl Clock for FakeClock {
    fn now_us(&self) -> u64 {
        self.0.get()
    }

    fn sleep_until_us(&self, t_us: u64) {
        self.0.set(self.0.get().max(t_us));
    }
}

#[test]
fn submissions_are_due_at_a_fixed_interval() {
    assert_eq!(due_us(0, 50.0), 0);
    assert_eq!(due_us(1, 50.0), 20_000);
    assert_eq!(due_us(250, 50.0), 5_000_000);
}

#[test]
fn an_unstalled_generator_is_never_late() {
    let clock = FakeClock(Cell::new(0));
    let sends = pace(&clock, 100.0, 5, |_, _| clock.burn(1_000));
    assert!(sends.iter().all(|s| s.lateness_us() == 0));
    assert_eq!(sends[4].due_us, 40_000);
}

#[test]
fn a_stall_is_charged_to_the_requests_it_delays() {
    let clock = FakeClock(Cell::new(0));
    // 100/s: due every 10 ms. Submission 1 stalls for 35 ms.
    let sends = pace(&clock, 100.0, 6, |i, _| {
        clock.burn(if i == 1 { 35_000 } else { 100 });
    });
    let lateness: Vec<u64> = sends.iter().map(Sent::lateness_us).collect();
    // 1 leaves on time at 10 ms and returns at 45 ms; 2, 3 and 4 were due
    // at 20, 30 and 40 ms and leave late, one after the other; 5 is on
    // time again. Nothing is skipped and nothing is rescheduled.
    assert_eq!(lateness, [0, 0, 25_000, 15_100, 5_200, 0]);
    assert_eq!(sends[2].due_us, 20_000);
    assert_eq!(sends[2].sent_us, 45_000);

    // A request that completes 3 ms after it was actually sent has a
    // latency of 28 ms: the wait the stall imposed counts.
    let done = sends[2].sent_us + 3_000;
    assert_eq!(latency_from_due_us(&sends[2], done), 28_000);
}

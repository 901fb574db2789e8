//! Open-loop pacing: submissions go out on a fixed schedule whatever the
//! system does, each latency is counted from the instant its submission
//! was *due*, and how late the generator itself ran is reported beside it.

use std::time::{Duration, Instant};

/// The time source the pacer runs against, so a test can inject a stall.
pub trait Clock {
    /// Microseconds since the schedule started.
    fn now_us(&self) -> u64;
    /// Blocks until `now_us() >= t_us` (returns at once if already past).
    fn sleep_until_us(&self, t_us: u64);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }

    fn sleep_until_us(&self, t_us: u64) {
        let now = self.now_us();
        if t_us > now {
            std::thread::sleep(Duration::from_micros(t_us - now));
        }
    }
}

/// When submission `i` of a fixed-rate schedule is due.
pub fn due_us(i: usize, rate_per_s: f64) -> u64 {
    (i as f64 * 1e6 / rate_per_s).round() as u64
}

/// One submission as the pacer saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sent {
    pub due_us: u64,
    /// When `send` was actually entered; `sent_us - due_us` is how late the
    /// generator ran.
    pub sent_us: u64,
}

impl Sent {
    pub fn lateness_us(&self) -> u64 {
        self.sent_us - self.due_us
    }
}

/// Latency of a request that completed at `done_us`, counted from when it
/// was due: a stall that delays later submissions is charged to them.
pub fn latency_from_due_us(sent: &Sent, done_us: u64) -> u64 {
    done_us.saturating_sub(sent.due_us)
}

/// Issues `count` submissions at `rate_per_s`. `send(i, sent)` runs on the
/// caller's thread; a slow `send` makes the following ones late, never
/// skipped and never rescheduled.
pub fn pace(
    clock: &impl Clock,
    rate_per_s: f64,
    count: usize,
    mut send: impl FnMut(usize, Sent),
) -> Vec<Sent> {
    (0..count)
        .map(|i| {
            let due = due_us(i, rate_per_s);
            clock.sleep_until_us(due);
            let sent = Sent {
                due_us: due,
                sent_us: clock.now_us().max(due),
            };
            send(i, sent);
            sent
        })
        .collect()
}

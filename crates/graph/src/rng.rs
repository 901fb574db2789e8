//! The workspace's one pseudo-random number generator.
//!
//! SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter stepped by the
//! golden-ratio increment and run through a fixed mixing function. Unlike
//! a crate whose stream may change between versions, it produces the same
//! numbers for the same seed on every platform and in every build of this
//! repository. Every seeded draw in the workspace (graph generators,
//! `PickRandom`, BC root sampling, the daemon's synthetic weights and
//! retry jitter) comes from here, and so do the cases of the property
//! tests, through [`check`].

/// A seeded SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

/// The golden-ratio increment each draw adds to the counter.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Skips `draws` draws in constant time: the counter is the only state.
    pub fn skip(&mut self, draws: u64) {
        self.0 = self.0.wrapping_add(draws.wrapping_mul(GAMMA));
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` by a modulo draw (the bias is below 2^-32 for
    /// the 32-bit bounds the callers use).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value to return");
        self.next_u64() % n
    }

    /// Uniform in the half-open `range`, by [`below`](Self::below).
    pub fn range(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.below(range.end - range.start)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The environment variable that, when set to a positive count, replaces
/// every property's own case count (the nightly deep-fuzz run raises it).
const CASES_ENV: &str = "GM_PROP_CASES";

/// The number of cases a property runs: `env` (the value of
/// [`CASES_ENV`]) when it parses as a positive count, else `default`.
fn case_count(env: Option<&str>, default: u32) -> u32 {
    env.and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// The seed of case `case` of property `name`: FNV-1a of the name, mixed
/// with the case index. Fixed for ever, so every run draws the same cases.
fn case_seed(name: &str, case: u32) -> u64 {
    let fnv = crate::hash::Fnv1a::hash(name.as_bytes());
    SplitMix64::new(fnv ^ u64::from(case)).next_u64()
}

/// Runs property `name` for `cases` cases (or as many as a positive
/// `GM_PROP_CASES` says), each on a fresh stream whose seed is fixed by
/// the name and the case index. There is no shrinking:
/// when a case panics, the name, case index, seed and case count go to
/// stderr and the panic resumes. Case `i` draws the same input in every
/// run that reaches it, so a failure replays with the same count.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut SplitMix64)) {
    let cases = case_count(std::env::var(CASES_ENV).ok().as_deref(), cases);
    for case in 0..cases {
        let seed = case_seed(name, case);
        let run = std::panic::AssertUnwindSafe(|| property(&mut SplitMix64::new(seed)));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("property `{name}` failed at case {case} of {cases} (seed {seed:#018x})");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_1234567_yields_the_published_outputs() {
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn skip_lands_where_stepping_does() {
        let mut stepped = SplitMix64::new(99);
        for _ in 0..1000 {
            stepped.next_u64();
        }
        let mut skipped = SplitMix64::new(99);
        skipped.skip(1000);
        assert_eq!(skipped.next_u64(), stepped.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
        for n in [2, 3, 10, 1000, 1 << 31, u64::from(u32::MAX), u64::MAX] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n, "below({n})");
            }
        }
    }

    #[test]
    fn case_count_reads_a_positive_count_or_keeps_the_default() {
        assert_eq!(case_count(None, 32), 32);
        assert_eq!(case_count(Some("640"), 32), 640);
        for garbage in ["", "0", "-5", "many", "6.5"] {
            assert_eq!(case_count(Some(garbage), 32), 32, "{garbage:?}");
        }
    }

    #[test]
    fn check_runs_every_case_on_its_own_fixed_seed() {
        let mut seen = Vec::new();
        check("fixed-seeds", 8, |rng| seen.push(rng.next_u64()));
        // Only the count may come from the environment; the seeds never do.
        let expected: Vec<u64> = (0..seen.len() as u32)
            .map(|i| SplitMix64::new(case_seed("fixed-seeds", i)).next_u64())
            .collect();
        assert_eq!(seen, expected);
        assert_ne!(case_seed("fixed-seeds", 0), case_seed("other", 0));
    }

    #[test]
    #[should_panic(expected = "drew")]
    fn check_resumes_the_failing_case_panic() {
        check("always-fails", 8, |rng| panic!("drew {}", rng.next_u64()));
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }
}

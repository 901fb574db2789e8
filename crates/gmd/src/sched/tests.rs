use super::*;
use crate::config::BrownoutConfig;
use gm_ckpt::CkptError;
use gm_graph::rng::SplitMix64;
use gm_obs::json::parse;
use gm_pregel::PregelError;
use std::collections::HashSet;
use std::path::PathBuf;

fn spec(tenant: &str, program: &str, priority: i64) -> JobSpec {
    let doc = format!(
        r#"{{"tenant":"{tenant}","graph":"g","program":"{program}","priority":{priority}}}"#
    );
    JobSpec::from_json(&parse(&doc).unwrap()).unwrap()
}

fn failure(kind: &str, retryable: bool) -> Failure {
    Failure {
        kind: kind.to_owned(),
        message: String::new(),
        bundle: None,
        retryable,
    }
}

fn job(id: u64, spec: JobSpec, msg_bytes: u64, res_bytes: u64, now: Instant) -> Job<()> {
    Job {
        id: format!("job-{id}"),
        spec,
        msg_bytes,
        res_bytes,
        submitted: now,
        attempt: 0,
        payload: (),
    }
}

#[test]
fn transient_kinds_are_the_recoverable_ones() {
    // Failure::from forwards the runtime's one predicate (pinned variant
    // by variant in gm-pregel), through a post-mortem wrap too.
    let io = PregelError::Checkpoint(CkptError::Io(std::io::Error::other("disk")));
    let wrapped = PregelError::PostMortem {
        bundle: PathBuf::from("bundle"),
        source: Box::new(io),
    };
    let decode = PregelError::Checkpoint(CkptError::Decode("bad".to_owned()));
    for (err, expected) in [(wrapped, true), (decode, false)] {
        assert_eq!(err.is_recoverable(), expected, "{err}");
        assert_eq!(Failure::from(RunError::Pregel(err)).retryable, expected);
    }
    let bad_argument = Failure::from(RunError::BadArgument("no such arg".to_owned()));
    assert!(!bad_argument.retryable);
}

#[test]
fn delay_is_deterministic_jittered_and_capped() {
    let p = RetryPolicy {
        base: Duration::from_millis(100),
        cap: Duration::from_millis(350),
        ..RetryPolicy::default()
    };
    // Deterministic for a fixed seed; ceiling doubles then caps.
    for retry in 1..=6 {
        let a = p.delay(retry, 42);
        let b = p.delay(retry, 42);
        assert_eq!(a, b);
        let ceil = Duration::from_millis(100u64.saturating_mul(1 << (retry - 1)).min(350));
        assert!(a <= ceil, "retry {retry}: {a:?} > {ceil:?}");
    }
    // Different seeds jitter differently (with overwhelming
    // probability over a 350ms range; these two are pinned).
    assert_ne!(p.delay(3, 1), p.delay(3, 2));
}

#[test]
fn spec_overrides_apply() {
    let doc = parse(
        r#"{"graph":"g","program":"x","max_retries":7,
            "retry_base_ms":10,"retry_cap_ms":40}"#,
    )
    .unwrap();
    let spec = JobSpec::from_json(&doc).unwrap();
    let p = RetryPolicy::default().for_spec(&spec);
    assert_eq!(p.max_retries, 7);
    assert_eq!(p.base, Duration::from_millis(10));
    assert_eq!(p.cap, Duration::from_millis(40));
    assert!(p.delay(10, 99) <= Duration::from_millis(40));
}

#[test]
fn tenant_budget_exhausts_and_refills() {
    let policy = RetryPolicy {
        tenant_tokens: 2,
        tenant_refill: Duration::from_millis(30),
        ..RetryPolicy::default()
    };
    let config = DaemonConfig {
        retry: policy,
        ..DaemonConfig::default()
    };
    let mut s: Scheduler<()> = Scheduler::new(&config);
    let t0 = Instant::now();
    assert!(s.take_token("acme", t0));
    assert!(s.take_token("acme", t0));
    assert!(!s.take_token("acme", t0), "burst capacity is 2");
    assert!(s.take_token("zeta", t0), "tenants are independent");
    let later = t0 + Duration::from_millis(40);
    assert!(s.take_token("acme", later), "refilled after the interval");
}

#[test]
fn a_transient_failure_after_drain_is_terminal_and_parks_nothing() {
    let config = DaemonConfig::default();
    let mut s = Scheduler::new(&config);
    let now = Instant::now();
    let j = job(1, spec("acme", "pagerank", 0), 10, 10, now);
    let (shed, verdict) = s.admit(&j, now);
    assert!(shed.is_empty() && verdict.is_ok());
    s.enqueue(j);
    let running = s.pick().expect("the only job fits");
    assert!(s.drain().is_empty(), "nothing was queued or parked");
    let transient = failure("worker_panicked", true);
    assert_eq!(s.finish(running, Some(&transient), now), Decision::Fail);
    assert_eq!((s.queued(), s.running()), (0, 0));
    assert!(s.queues.is_empty() && s.delayed.is_empty());
    assert_eq!((s.reserved_msg, s.reserved_res), (0, 0));
}

/// Random event sequences over three tenants; after every event the
/// scheduler's invariants must hold, and at the end every admitted job
/// has exactly one terminal decision.
#[test]
fn seeded_event_sequences_keep_the_scheduler_invariants() {
    const TENANTS: [&str; 3] = ["acme", "beta", "zeta"];
    let config = DaemonConfig {
        total_message_bytes: 100,
        total_resident_bytes: 100,
        queue_cap: 12,
        brownout: Some(BrownoutConfig {
            saturation: 0.8,
            hold: Duration::from_millis(20),
            shed_to: 3,
        }),
        retry: RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
            tenant_tokens: 3,
            tenant_refill: Duration::from_millis(50),
        },
        ..DaemonConfig::default()
    };
    let t0 = Instant::now();
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(seed);
        let mut s: Scheduler<()> = Scheduler::new(&config);
        let mut now = t0;
        let mut next_id = 0u64;
        let mut admitted = HashSet::new();
        let mut terminal: HashMap<String, &str> = HashMap::new();
        let mut running: Vec<Job<()>> = Vec::new();
        let mut skipped: HashMap<String, usize> = HashMap::new();
        let end = |id: &str, how: &'static str, terminal: &mut HashMap<String, &str>| {
            if let Some(first) = terminal.insert(id.to_owned(), how) {
                panic!("seed {seed}: {id} ended twice ({first}, then {how})");
            }
        };
        for step in 0..200 {
            let ctx = format!("seed {seed} step {step}");
            match rng.below(10) {
                // submit; a big one saturates the reservations
                0..=2 => {
                    next_id += 1;
                    let tenant = TENANTS[rng.below(3) as usize];
                    let program = format!("p{}", rng.below(4));
                    let big = rng.chance(0.2);
                    let msg = if big {
                        60 + rng.below(41)
                    } else {
                        1 + rng.below(30)
                    };
                    let res = 1 + rng.below(if big { 100 } else { 30 });
                    let priority = rng.below(3) as i64;
                    let j = job(next_id, spec(tenant, &program, priority), msg, res, now);
                    let (shed, verdict) = s.admit(&j, now);
                    for victim in shed {
                        assert!(admitted.contains(&victim.id), "{ctx}");
                        end(&victim.id, "shed", &mut terminal);
                    }
                    if verdict.is_ok() {
                        admitted.insert(j.id.clone());
                        s.enqueue(j);
                    }
                }
                // pick
                3..=4 => {
                    s.promote_due(now);
                    let fitting: Vec<String> = s
                        .queues
                        .iter()
                        .filter(|(_, q)| {
                            q.front().is_some_and(|f| {
                                s.reserved_msg + f.msg_bytes <= s.config.total_message_bytes
                                    && s.reserved_res + f.res_bytes <= s.config.total_resident_bytes
                            })
                        })
                        .map(|(t, _)| t.clone())
                        .collect();
                    match s.pick() {
                        None => assert!(fitting.is_empty(), "{ctx}: {fitting:?} fit"),
                        Some(j) => {
                            for t in TENANTS {
                                let streak = skipped.entry(t.to_owned()).or_default();
                                if t == j.spec.tenant || !fitting.iter().any(|f| f == t) {
                                    *streak = 0;
                                } else {
                                    *streak += 1;
                                    assert!(*streak < TENANTS.len(), "{ctx}: {t} starved");
                                }
                            }
                            running.push(j);
                        }
                    }
                }
                // complete / fail transiently / fail deterministically
                5..=7 if !running.is_empty() => {
                    let j = running.swap_remove(rng.below(running.len() as u64) as usize);
                    let id = j.id.clone();
                    let outcome = match rng.below(3) {
                        0 => None,
                        1 => Some(failure("worker_panicked", true)),
                        _ => Some(failure("bad_argument", false)),
                    };
                    let retryable = outcome.as_ref().is_some_and(|f| f.retryable);
                    match s.finish(j, outcome.as_ref(), now) {
                        Decision::Complete => end(&id, "complete", &mut terminal),
                        Decision::Fail => end(&id, "fail", &mut terminal),
                        Decision::Retry { .. } => {
                            assert!(retryable && !s.draining(), "{ctx}: bad retry")
                        }
                    }
                }
                // tick
                8 => now += Duration::from_millis(rng.below(30)),
                // drain, rarely
                _ if rng.chance(0.1) && !s.draining() => {
                    for j in s.drain() {
                        end(&j.id, "cancelled", &mut terminal);
                    }
                }
                _ => {}
            }
            assert!(s.reserved_msg <= s.config.total_message_bytes, "{ctx}");
            assert!(s.reserved_res <= s.config.total_resident_bytes, "{ctx}");
            let held: u64 = running.iter().map(|j| j.msg_bytes).sum();
            assert_eq!(s.reserved_msg, held, "{ctx}: reservations leak");
            assert_eq!(s.running(), running.len(), "{ctx}");
            assert!(s.queues.values().all(|q| !q.is_empty()), "{ctx}");
            for b in s.buckets.values() {
                assert!(b.tokens >= 0.0, "{ctx}: negative tokens");
            }
            if s.draining() {
                assert!(s.queues.is_empty() && s.delayed.is_empty(), "{ctx}");
            }
        }
        // Wind down: drain, then every running job fails transiently —
        // after drain that is terminal, never parked.
        if !s.draining() {
            for j in s.drain() {
                end(&j.id, "cancelled", &mut terminal);
            }
        }
        for j in running.drain(..) {
            let id = j.id.clone();
            let transient = failure("deadline_exceeded", true);
            assert_eq!(
                s.finish(j, Some(&transient), now),
                Decision::Fail,
                "seed {seed}"
            );
            end(&id, "fail", &mut terminal);
        }
        assert!(s.queues.is_empty() && s.delayed.is_empty(), "seed {seed}");
        assert_eq!((s.queued(), s.running()), (0, 0), "seed {seed}");
        assert_eq!((s.reserved_msg, s.reserved_res), (0, 0), "seed {seed}");
        let ended: HashSet<String> = terminal.keys().cloned().collect();
        assert_eq!(ended, admitted, "seed {seed}: every admitted job ends once");
    }
}

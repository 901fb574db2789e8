use super::*;
use gm_graph::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gmd-journal-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec(tenant: &str) -> JobSpec {
    let doc = parse(&format!(
        r#"{{"tenant":"{tenant}","graph":"g","program":"pagerank",
            "args":{{"d":0.85,"root":"n:3"}},"seed":7,"workers":2,
            "priority":1,"checkpoint_every":2}}"#
    ))
    .unwrap();
    JobSpec::from_json(&doc).unwrap()
}

/// The bytes the commit before the slicing-by-8 CRC framed for this
/// payload (dumped there): the GMJL record format did not move, and a
/// daemon upgraded in place replays the segments it wrote before.
#[test]
fn framed_bytes_match_the_pre_slicing_golden() {
    const PAYLOAD: &[u8] = br#"{"type":"started","id":"j-000001","attempt":1}"#;
    const GOLDEN: &[u8] = b"\x2e\0\0\0\
        {\"type\":\"started\",\"id\":\"j-000001\",\"attempt\":1}\
        \x33\x5d\xa3\xc7";
    assert_eq!(frame(PAYLOAD), GOLDEN);

    // An `accepted` record long enough (203 bytes) for the folding
    // CRC kernel, framed with the slicing-by-8 table kernel at commit
    // 6064121: folding did not move the format either.
    const ACCEPTED: &[u8] = br#"{"backend":"interp","id":"j-000002","spec":{"args":{"d":0.85,"root":"n:3"},"checkpoint_every":2,"graph":"g","priority":1,"program":"pagerank","seed":7,"tenant":"acme-labs","workers":2},"type":"accepted"}"#;
    let accepted_golden = [&b"\xcb\0\0\0"[..], ACCEPTED, b"\x05\x89\x81\x30"].concat();
    assert_eq!(frame(ACCEPTED), accepted_golden);

    let dir = fresh_dir("golden");
    fs::create_dir_all(&dir).unwrap();
    let path = segment_path(&dir, 1);
    let mut segment = MAGIC.to_vec();
    segment.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    segment.extend_from_slice(GOLDEN);
    segment.extend_from_slice(&accepted_golden);
    fs::write(&path, &segment).unwrap();
    let (records, dropped) = read_segment(&path);
    assert_eq!(dropped, 0);
    assert_eq!(records.len(), 2);
    assert_eq!(
        records[0].get("id").and_then(Json::as_str),
        Some("j-000001")
    );
    assert_eq!(
        records[1].get("id").and_then(Json::as_str),
        Some("j-000002")
    );
    fs::remove_dir_all(&dir).unwrap();
}

fn registry() -> Arc<MetricsRegistry> {
    Arc::new(MetricsRegistry::new())
}

fn completed(id: &str) -> JournalRecord {
    completed_in(id, 12.5, false)
}

fn completed_in(id: &str, wall_ms: f64, cached: bool) -> JournalRecord {
    JournalRecord::Completed {
        id: id.to_owned(),
        wall_ms,
        result: Arc::new(JobResult {
            ret: Some(gm_core::value::Value::Double(0.25)),
            globals: [("diff".to_owned(), gm_core::value::Value::Double(1e-9))]
                .into_iter()
                .collect(),
            fingerprints: [("rank".to_owned(), "00000000deadbeef".to_owned())]
                .into_iter()
                .collect(),
            props: None,
            supersteps: 13,
            total_messages: 42,
            total_message_bytes: 1234,
        }),
        cached,
    }
}

fn accept(id: &str, tenant: &str) -> JournalRecord {
    JournalRecord::Accepted {
        id: id.to_owned(),
        backend: "interp".to_owned(),
        spec: spec(tenant),
    }
}

#[test]
fn replay_folds_transitions_and_resumes_the_id_sequence() {
    let dir = fresh_dir("fold");
    let config = JournalConfig::new(&dir);
    {
        let (journal, replay) = Journal::open(&config, 0, registry()).unwrap();
        assert!(replay.jobs.is_empty());
        journal.append(&accept("job-1", "acme")).unwrap();
        journal
            .append(&JournalRecord::Started {
                id: "job-1".to_owned(),
                attempt: 1,
            })
            .unwrap();
        journal.append(&accept("job-2", "zeta")).unwrap();
        journal.append(&completed("job-2")).unwrap();
        journal.append(&accept("job-7", "acme")).unwrap();
    }
    let (_, replay) = Journal::open(&config, 0, registry()).unwrap();
    assert_eq!(replay.dropped, 0);
    assert_eq!(replay.max_job_seq, 7);
    let ids: Vec<&str> = replay.jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(ids, ["job-1", "job-2", "job-7"], "acceptance order");
    let j1 = &replay.jobs[0];
    assert!(replay.requeue.contains_key(&j1.id));
    assert_eq!(j1.attempts, 1);
    assert_eq!(replay.requeue[&j1.id], spec("acme"));
    let j2 = &replay.jobs[1];
    assert!(!replay.requeue.contains_key(&j2.id));
    let JobState::Completed(r) = &j2.state else {
        panic!("job-2 should be completed, got {:?}", j2.state);
    };
    assert_eq!(r.fingerprints["rank"], "00000000deadbeef");
    assert_eq!(r.supersteps, 13);
    assert_eq!(r.ret, Some(gm_core::value::Value::Double(0.25)));
    assert_eq!(j2.wall_ms, Some(12.5));
    assert!(replay.requeue.contains_key(&replay.jobs[2].id));

    // Compaction rewrote history into exactly one segment.
    let segs = list_segments(&dir).unwrap();
    assert_eq!(segs.len(), 1);
    fs::remove_dir_all(&dir).unwrap();
}

/// Replaces one random node of `doc` with a hostile value, or removes a
/// random object field.
fn mutate(doc: &mut Json, rng: &mut SplitMix64) {
    const HOSTILE: [&str; 7] = [
        "null",
        "-1",
        "1e300",
        "18446744073709551615",
        "\"\"",
        "\"n:-3\"",
        "{}",
    ];
    let hostile = parse(HOSTILE[rng.below(7) as usize]).unwrap();
    match doc {
        Json::Obj(map) if !map.is_empty() => {
            let at = rng.below(map.len() as u64) as usize;
            let key = map.keys().nth(at).cloned().unwrap_or_default();
            match rng.below(3) {
                0 => drop(map.remove(&key)),
                1 => mutate(map.entry(key).or_insert(Json::Null), rng),
                _ => drop(map.insert(key, hostile)),
            }
        }
        _ => *doc = hostile,
    }
}

/// Replay survives hostile segment bytes: torn tails, flipped bytes,
/// overwritten length fields, and payloads edited then re-framed with a
/// valid CRC (which reach `JournalRecord::from_json`). `open` never
/// panics, counts the damage in `dropped`, and every job whose records lie
/// wholly before the first damaged byte replays unchanged.
#[test]
fn replay_of_damaged_segments_never_panics_and_keeps_the_intact_prefix() {
    let json = |r: JournalRecord| r.to_json().to_string();
    let payloads = [
        json(accept("job-1", "acme")),
        json(accept("job-2", "zeta")),
        r#"{"type":"started","id":"job-1","attempt":1}"#.to_owned(),
        r#"{"type":"checkpointed","id":"job-2","superstep":2}"#.to_owned(),
        json(completed("job-1")),
        json(accept("job-3", "acme")),
        r#"{"type":"retrying","id":"job-2","attempt":1,"kind":"spill","delay_ms":4}"#.to_owned(),
        r#"{"type":"failed","id":"job-3","wall_ms":3.5,"kind":"k","message":"m","bundle":"b"}"#
            .to_owned(),
        json(accept("job-4", "zeta")),
        r#"{"type":"cancelled","id":"job-4","wall_ms":1.0,"message":"drained"}"#.to_owned(),
        json(accept("job-5", "acme")),
    ];
    // The intact segment, and each record's byte range and job id.
    let mut segment = MAGIC.to_vec();
    segment.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let mut spans = Vec::new();
    for payload in &payloads {
        let start = segment.len();
        frame_into(&mut segment, payload.as_bytes());
        let id = parse(payload)
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_owned);
        spans.push((start, segment.len(), id.unwrap()));
    }
    let open = |bytes: &[u8]| {
        let dir = fresh_dir("hostile");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 1), bytes).unwrap();
        let (_, replay) = Journal::open(&JournalConfig::new(&dir), 0, registry()).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        replay
    };
    let intact = open(&segment);
    assert_eq!((intact.dropped, intact.jobs.len()), (0, 5));

    gm_graph::rng::check("journal_replay_hostile_bytes", 48, |rng| {
        let mut bytes = segment.clone();
        let mut below = |n: usize| rng.below(n as u64) as usize;
        let (start, end, _) = spans[below(spans.len())];
        // The first damaged byte, and the drops replay must count: exactly
        // one for byte damage; at least one for an edited payload that no
        // longer decodes (an edit may leave a valid record).
        let (damaged_at, drops) = match below(6) {
            0..=2 => {
                let mut payload = bytes[start + 4..end - 4].to_vec();
                match below(3) {
                    0 => {
                        let mut doc = parse(std::str::from_utf8(&payload).unwrap()).unwrap();
                        mutate(&mut doc, rng);
                        payload = doc.to_string().into_bytes();
                    }
                    1 => payload.truncate(below(payload.len())),
                    _ => payload = (0..below(24)).map(|_| below(256) as u8).collect(),
                }
                let rejected = std::str::from_utf8(&payload)
                    .ok()
                    .and_then(|s| parse(s).ok())
                    .is_none_or(|doc| JournalRecord::from_json(&doc).is_err());
                let mut framed = bytes[..start].to_vec();
                frame_into(&mut framed, &payload);
                framed.extend_from_slice(&bytes[end..]);
                bytes = framed;
                (start, if rejected { 1..u64::MAX } else { 0..u64::MAX })
            }
            3 => {
                // A cut on a frame boundary would be a shorter, valid log.
                let at = below(bytes.len());
                let at = at + usize::from(spans.iter().any(|s| s.0 == at));
                bytes.truncate(at);
                (at, 1..2)
            }
            4 => {
                let at = below(bytes.len());
                bytes[at] ^= 1 + below(255) as u8;
                (at, 1..2)
            }
            _ => {
                let len = le_u32(&bytes, start) ^ (1 + rng.below(u64::from(u32::MAX)) as u32);
                bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
                (start, 1..2)
            }
        };
        let replay = open(&bytes);
        // Byte damage ends the segment: a job accepted past it is gone.
        let begun = |j: &&JobRecord| spans.iter().any(|s| s.2 == j.id && s.1 <= damaged_at);
        if drops == (1..2) {
            assert_eq!(replay.jobs.len(), intact.jobs.iter().filter(begun).count());
        }
        assert!(
            drops.contains(&replay.dropped),
            "damage at {damaged_at}: {replay:?}"
        );
        for job in &intact.jobs {
            if spans
                .iter()
                .all(|(_, end, id)| *id != job.id || *end <= damaged_at)
            {
                let replayed = replay.jobs.iter().find(|r| r.id == job.id);
                assert_eq!(
                    format!("{replayed:?}"),
                    format!("{:?}", Some(job)),
                    "{}",
                    job.id
                );
            }
        }
    });
}

#[test]
fn torn_tail_is_dropped_without_losing_earlier_records() {
    let dir = fresh_dir("torn");
    let config = JournalConfig::new(&dir);
    {
        let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
        journal.append(&accept("job-1", "acme")).unwrap();
        journal.append(&completed("job-1")).unwrap();
        journal.append(&accept("job-2", "acme")).unwrap();
    }
    // Tear the final record: chop a few bytes off the segment.
    let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let (_, replay) = Journal::open(&config, 0, registry()).unwrap();
    assert_eq!(replay.dropped, 1, "exactly the torn tail");
    assert_eq!(replay.jobs.len(), 1, "job-2's acceptance was torn away");
    assert!(!replay.requeue.contains_key(&replay.jobs[0].id));

    // Corrupt a record body: CRC must reject it.
    let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
    journal.append(&accept("job-3", "acme")).unwrap();
    drop(journal);
    let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() - 20;
    bytes[mid] ^= 0xFF;
    fs::write(&path, bytes).unwrap();
    let (_, replay) = Journal::open(&config, 0, registry()).unwrap();
    assert!(replay.dropped >= 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segments_rotate_and_compact_back_to_one() {
    let dir = fresh_dir("rotate");
    let mut config = JournalConfig::new(&dir);
    config.rotate_bytes = 256; // force rotation nearly every append
    {
        let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
        for i in 1..=6 {
            journal
                .append(&accept(&format!("job-{i}"), "acme"))
                .unwrap();
        }
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "rotation must have produced several segments"
        );
    }
    let (_, replay) = Journal::open(&config, 0, registry()).unwrap();
    assert_eq!(replay.jobs.len(), 6);
    assert!(replay.segments_read > 1);
    assert_eq!(list_segments(&dir).unwrap().len(), 1, "compacted");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn history_keep_prunes_oldest_terminal_jobs_only() {
    let dir = fresh_dir("gc");
    let config = JournalConfig::new(&dir);
    {
        let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
        for i in 1..=4 {
            let id = format!("job-{i}");
            journal.append(&accept(&id, "acme")).unwrap();
            if i <= 3 {
                journal.append(&completed(&id)).unwrap();
            }
        }
    }
    let (_, replay) = Journal::open(&config, 2, registry()).unwrap();
    let ids: Vec<&str> = replay.jobs.iter().map(|j| j.id.as_str()).collect();
    // job-1 (oldest terminal) pruned; the non-terminal job-4 kept.
    assert_eq!(ids, ["job-2", "job-3", "job-4"]);
    assert_eq!(replay.max_job_seq, 4);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_append_failure_surfaces_as_io_error() {
    let dir = fresh_dir("fault");
    let mut config = JournalConfig::new(&dir);
    config.faults = FaultPlan::builder().fail_journal_append(1).build();
    let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
    journal.append(&accept("job-1", "acme")).unwrap();
    let err = journal.append(&accept("job-2", "acme")).unwrap_err();
    assert!(err.to_string().contains("injected"));
    // The failed append wrote nothing; the next one proceeds.
    journal.append(&accept("job-3", "acme")).unwrap();
    drop(journal);
    let (_, replay) = Journal::open(&config, 0, registry()).unwrap();
    let ids: Vec<&str> = replay.jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(ids, ["job-1", "job-3"]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_batch_is_one_append_that_fails_whole_on_any_injected_index() {
    let dir = fresh_dir("batch");
    let mut config = JournalConfig::new(&dir);
    config.faults = FaultPlan::builder().fail_journal_append(3).build();
    let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
    journal
        .append_all(&[accept("job-1", "acme"), completed("job-1")])
        .unwrap();
    // Indices 2 and 3: the second record's index trips, so neither
    // record of the batch is written.
    let batch = [accept("job-2", "acme"), completed("job-2")];
    let err = journal.append_all(&batch).unwrap_err();
    assert!(err.to_string().contains("record 3"), "{err}");
    journal
        .append_all(&[accept("job-3", "acme"), completed("job-3")])
        .unwrap();
    drop(journal);
    let (_, replay) = Journal::open(&config, 0, registry()).unwrap();
    assert_eq!(replay.dropped, 0);
    let ids: Vec<&str> = replay.jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(ids, ["job-1", "job-3"]);
    assert!(replay.requeue.is_empty());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_dirs_of_finished_jobs_are_swept_at_open() {
    let dir = fresh_dir("sweep");
    let config = JournalConfig::new(&dir);
    {
        let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
        journal.append(&accept("job-1", "acme")).unwrap();
        journal.append(&accept("job-2", "acme")).unwrap();
        journal.append(&completed("job-2")).unwrap();
        fs::create_dir_all(journal.checkpoint_dir("job-1")).unwrap();
        fs::create_dir_all(journal.checkpoint_dir("job-2")).unwrap();
        fs::create_dir_all(journal.checkpoint_dir("job-stale")).unwrap();
    }
    let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
    assert!(journal.checkpoint_dir("job-1").is_dir(), "still queued");
    assert!(!journal.checkpoint_dir("job-2").exists(), "terminal");
    assert!(!journal.checkpoint_dir("job-stale").exists(), "orphan");
    fs::remove_dir_all(&dir).unwrap();
}

/// Compaction writes each job back with its attempts: a journal opened
/// twice with no run in between replays the same count both times, so a
/// parked job keeps its spent retry budget and a finished job's status
/// document keeps its `attempts`.
#[test]
fn attempts_survive_a_second_open() {
    let dir = fresh_dir("attempts");
    let config = JournalConfig::new(&dir);
    {
        let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
        let started = |id: &str, attempt| JournalRecord::Started {
            id: id.to_owned(),
            attempt,
        };
        let retrying = |attempt| JournalRecord::Retrying {
            id: "job-1".to_owned(),
            attempt,
            kind: "spill_failed".to_owned(),
            delay_ms: 4,
        };
        journal.append(&accept("job-1", "acme")).unwrap();
        journal.append(&started("job-1", 1)).unwrap();
        journal.append(&retrying(1)).unwrap();
        journal.append(&started("job-1", 2)).unwrap();
        journal.append(&retrying(2)).unwrap();
        journal.append(&accept("job-2", "acme")).unwrap();
        journal.append(&started("job-2", 1)).unwrap();
        journal.append(&completed("job-2")).unwrap();
    }
    for open in ["first", "second"] {
        let (_, replay) = Journal::open(&config, 0, registry()).unwrap();
        let attempts: Vec<u32> = replay.jobs.iter().map(|j| j.attempts).collect();
        assert_eq!(attempts, [2, 1], "{open} open");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Segments written before checkpoints stopped being journalled hold
/// `checkpointed` records; replay reads them as no-ops, not as damage.
#[test]
fn an_old_checkpointed_record_replays_as_a_no_op() {
    let dir = fresh_dir("checkpointed");
    fs::create_dir_all(&dir).unwrap();
    let mut segment = MAGIC.to_vec();
    segment.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for payload in [
        accept("job-1", "acme").to_json().to_string(),
        r#"{"type":"started","id":"job-1","attempt":1}"#.to_owned(),
        r#"{"type":"checkpointed","id":"job-1","superstep":4}"#.to_owned(),
        r#"{"type":"checkpointed","id":"job-9","superstep":2}"#.to_owned(),
    ] {
        frame_into(&mut segment, payload.as_bytes());
    }
    fs::write(segment_path(&dir, 1), segment).unwrap();
    let (_, replay) = Journal::open(&JournalConfig::new(&dir), 0, registry()).unwrap();
    assert_eq!(replay.dropped, 0);
    assert_eq!(replay.jobs.len(), 1);
    assert_eq!(replay.jobs[0].attempts, 1);
    assert!(replay.requeue.contains_key("job-1"));
    fs::remove_dir_all(&dir).unwrap();
}

/// One job's journalled history: a random walk of the daemon's state
/// machine (`accepted`, then attempts that start and may park for a
/// retry, then perhaps an end), or a result-cache hit's `accepted` +
/// `completed` pair. A history that stops short of an end is a job the
/// crash caught queued, running or parked.
fn history(id: &str, tenant: &str, rng: &mut SplitMix64) -> Vec<JournalRecord> {
    let mut recs = vec![accept(id, tenant)];
    let wall_ms = rng.next_f64() * 1e3;
    if rng.chance(0.2) {
        recs.push(completed_in(id, wall_ms, true));
        return recs;
    }
    let id = id.to_owned();
    for attempt in 1..=rng.below(4) as u32 {
        recs.push(JournalRecord::Started {
            id: id.clone(),
            attempt,
        });
        if rng.chance(0.5) {
            break;
        }
        recs.push(JournalRecord::Retrying {
            id: id.clone(),
            attempt,
            kind: "spill_failed".to_owned(),
            delay_ms: rng.below(100),
        });
    }
    // Only a run completes; a job fails or is cancelled anywhere.
    let running = matches!(recs.last(), Some(JournalRecord::Started { .. }));
    match rng.below(4) {
        0 => {}
        1 if running => recs.push(completed_in(&id, wall_ms, false)),
        1 | 2 => recs.push(JournalRecord::Failed {
            id,
            wall_ms,
            kind: "deadline_exceeded".to_owned(),
            message: "superstep 3 exceeded its deadline".to_owned(),
            bundle: rng.chance(0.5).then(|| PathBuf::from("bundle-1-0")),
        }),
        _ => recs.push(JournalRecord::Cancelled {
            id,
            wall_ms,
            message: "daemon draining".to_owned(),
        }),
    }
    recs
}

/// The job table is the fold of its journal. Random histories over
/// several jobs, interleaved, are applied live through `JobRecord::apply`
/// and appended through the journal in random batches; two opens then
/// replay every terminal job exactly as the live table holds it, every
/// other job `queued` with its live attempts, and the second replay
/// equals the first (compaction preserves the fold).
#[test]
fn replay_is_the_fold_of_the_live_table_and_compaction_keeps_it() {
    gm_graph::rng::check("journal_replay_is_the_live_fold", 24, |rng| {
        let dir = fresh_dir("fold-prop");
        let config = JournalConfig::new(&dir);
        let mut pending: Vec<std::collections::VecDeque<JournalRecord>> = (0..1 + rng.below(5))
            .map(|i| {
                let tenant = ["acme", "zeta"][i as usize % 2];
                history(&format!("job-{}", i + 1), tenant, rng).into()
            })
            .collect();
        let mut order = Vec::new();
        while pending.iter().any(|h| !h.is_empty()) {
            let live: Vec<usize> = (0..pending.len())
                .filter(|&i| !pending[i].is_empty())
                .collect();
            let at = live[rng.below(live.len() as u64) as usize];
            order.extend(pending[at].pop_front());
        }
        let mut live: Vec<JobRecord> = Vec::new();
        for rec in &order {
            let job = match rec {
                JournalRecord::Accepted { .. } => {
                    live.push(JobRecord::default());
                    live.last_mut()
                }
                _ => live.iter_mut().find(|j| j.id == rec.id()),
            };
            job.expect("a history starts with its acceptance")
                .apply(rec);
        }
        {
            let (journal, _) = Journal::open(&config, 0, registry()).unwrap();
            let mut rest = &order[..];
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(1 + rng.below(rest.len().min(4) as u64) as usize);
                journal.append_all(batch).unwrap();
                rest = tail;
            }
        }
        let (_, first) = Journal::open(&config, 0, registry()).unwrap();
        let (_, second) = Journal::open(&config, 0, registry()).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(first.dropped, 0);
        assert_eq!(first.jobs.len(), live.len());
        for (replayed, live) in first.jobs.iter().zip(&live) {
            if live.state.is_terminal() {
                assert_eq!(replayed.to_json(), live.to_json(), "{}", live.id);
                assert!(!first.requeue.contains_key(&live.id));
            } else {
                assert_eq!(replayed.state.status(), "queued", "{}", live.id);
                assert_eq!(replayed.attempts, live.attempts, "{}", live.id);
                assert!(first.requeue.contains_key(&live.id));
            }
        }
        assert_eq!(format!("{:?}", second.jobs), format!("{:?}", first.jobs));
        assert_eq!(second.requeue, first.requeue);
    });
}

//! The program shell both execution legs share: one signature table, one
//! argument binder, one `master` snapshot section.
//!
//! For each of the six algorithms the native module's `SIGNATURE` equals
//! the table `gm-interp` derives from the same PIR; a native and an
//! interpreted run checkpointed at the same supersteps write
//! byte-identical `master` sections; a section restores only into the
//! program that wrote it; and the section decoders — `master` and the
//! vertex-indexed `values`, `halted` and `inbox` of both legs — return an
//! error, never a panic, on random, truncated and bit-flipped bytes.

mod common;

use common::{algorithm_cases, compiled_for, fresh_dir, native_for, snapshots, Case};
use gm_algorithms::native;
use gm_ckpt::SnapshotBuilder;
use gm_core::pir::PregelProgram;
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_graph::rng::{check, SplitMix64};
use gm_interp::shell::{program_identity, with_signature, MasterSection, Signature};
use gm_interp::{run_compiled, RunError};
use gm_pregel::{ByteReader, CheckpointConfig, CkptError, Persist, PregelConfig, Snapshot};
use std::path::Path;

/// The native `SIGNATURE` of each algorithm, in [`algorithm_cases`] order.
const SIGNATURES: [&Signature<'static>; 6] = [
    &native::avg_teen::SIGNATURE,
    &native::pagerank::SIGNATURE,
    &native::conductance::SIGNATURE,
    &native::sssp::SIGNATURE,
    &native::bipartite_matching::SIGNATURE,
    &native::bc_approx::SIGNATURE,
];

/// Decodes `bytes` against the interpreter's table for `program`.
fn decode_interp(program: &PregelProgram, bytes: &[u8]) -> Result<MasterSection, CkptError> {
    let lowered = gm_core::kernel::lower(program).expect("verified PIR lowers");
    with_signature(program, &lowered, |sig| {
        MasterSection::decode(sig, &mut ByteReader::new(bytes))
    })
}

fn decode_native(sig: &Signature<'_>, bytes: &[u8]) -> Result<MasterSection, CkptError> {
    MasterSection::decode(sig, &mut ByteReader::new(bytes))
}

/// The `master` section of every snapshot a run of `case` writes with a
/// checkpoint each superstep, on the native leg and on the interpreter.
fn master_sections((name, src, graph, args, seed): &Case) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let config = |dir| PregelConfig {
        checkpoint: Some(CheckpointConfig::new(dir, 1)),
        ..PregelConfig::with_workers(2)
    };
    let (dn, di) = (fresh_dir("shell-nat"), fresh_dir("shell-interp"));
    (native_for(src).run)(graph, args, *seed, &config(&dn))
        .unwrap_or_else(|e| panic!("{name} native: {e}"));
    run_compiled(graph, &compiled_for(name, src), args, *seed, &config(&di))
        .unwrap_or_else(|e| panic!("{name} interp: {e}"));
    let read = |dir| -> Vec<Vec<u8>> {
        let sections = (snapshots(dir).into_iter())
            .map(|(_, path)| {
                let snap = Snapshot::read(&path).expect("read snapshot");
                snap.section("master").expect("a master section").to_vec()
            })
            .collect();
        let _ = std::fs::remove_dir_all(dir);
        sections
    };
    (read(&dn), read(&di))
}

#[test]
fn native_signatures_equal_the_interpreters() {
    for ((name, src, ..), native) in algorithm_cases().iter().zip(SIGNATURES) {
        let program = compiled_for(name, src).program;
        let lowered = gm_core::kernel::lower(&program).unwrap();
        with_signature(&program, &lowered, |sig| assert_eq!(sig, native, "{name}"));
    }
}

#[test]
fn program_identities_name_the_program_and_the_leg() {
    let identity = |sig: &Signature<'_>, encoding| {
        String::from_utf8(program_identity(sig, encoding)).expect("text")
    };
    let mut seen = std::collections::BTreeSet::new();
    for ((name, src, ..), native) in algorithm_cases().iter().zip(SIGNATURES) {
        let program = compiled_for(name, src).program;
        let lowered = gm_core::kernel::lower(&program).unwrap();
        let interp = with_signature(&program, &lowered, |sig| identity(sig, "interp"));
        let native = identity(native, "native");
        // One signature hash, two encodings.
        assert_eq!(native.strip_prefix("native"), interp.strip_prefix("interp"));
        assert!(native.starts_with("native/v1/"), "{name}: {native}");
        assert!(seen.insert(native) && seen.insert(interp), "{name}");
    }
}

#[test]
fn master_sections_are_byte_identical_across_legs_and_restore_only_at_home() {
    let cases = algorithm_cases();
    let programs: Vec<PregelProgram> = (cases.iter())
        .map(|(name, src, ..)| compiled_for(name, src).program)
        .collect();
    for (i, case) in cases.iter().enumerate() {
        let name = case.0;
        let (nat, interp) = master_sections(case);
        assert!(!nat.is_empty(), "{name}: no snapshots written");
        assert_eq!(nat, interp, "{name}: master sections differ between legs");

        let last = nat.last().unwrap();
        let home = decode_native(SIGNATURES[i], last).expect("native restores its own");
        assert_eq!(decode_interp(&programs[i], last).unwrap(), home, "{name}");
        let mut encoded = Vec::new();
        home.encode(SIGNATURES[i], &mut encoded);
        assert_eq!(
            &encoded, last,
            "{name}: decode and encode do not round-trip"
        );
        let other = (i + 1) % cases.len();
        for err in [
            decode_native(SIGNATURES[other], last).unwrap_err(),
            decode_interp(&programs[other], last).unwrap_err(),
        ] {
            assert!(
                matches!(err, CkptError::Decode(_)),
                "{name} into {}: {err}",
                cases[other].0
            );
        }
    }
}

#[test]
fn the_master_section_decoder_never_panics() {
    let cases = algorithm_cases();
    let programs: Vec<PregelProgram> = (cases.iter())
        .map(|(name, src, ..)| compiled_for(name, src).program)
        .collect();
    // Real sections, a few per algorithm: first, middle and last.
    let corpus: Vec<(usize, Vec<u8>)> = (cases.iter().enumerate())
        .flat_map(|(alg, case)| {
            let (nat, _) = master_sections(case);
            let picks = [0, nat.len() / 2, nat.len() - 1];
            picks.map(|i| (alg, nat[i].clone()))
        })
        .collect();
    let pick = |rng: &mut SplitMix64, n: usize| rng.below(n as u64) as usize;
    check("master_section_decoder", 512, |rng| {
        let (home, section) = &corpus[pick(rng, corpus.len())];
        let mut bytes = section.clone();
        match rng.below(5) {
            0 => bytes = (0..pick(rng, 96)).map(|_| rng.next_u64() as u8).collect(),
            1 => bytes.truncate(pick(rng, bytes.len() + 1)),
            // A small value lands on tags, flags and state ids.
            2 => bytes[pick(rng, section.len())] = rng.below(6) as u8,
            // Well-formed bytes, wrong content: a global of any kind, a
            // state id out of range.
            3 => {
                let sig = SIGNATURES[*home];
                let mut s = decode_native(sig, section).expect("a real section decodes");
                let slot = pick(rng, s.globals.len());
                s.globals[slot] = match rng.below(5) {
                    0 => Value::Int(rng.next_u64() as i64),
                    1 => Value::Double(f64::from_bits(rng.next_u64())),
                    2 => Value::Bool(rng.below(2) == 1),
                    3 => Value::Node(rng.next_u64() as u32),
                    _ => Value::Edge(rng.next_u64() as u32),
                };
                s.prev_state = s.prev_state.map(|p| p + pick(rng, 2) * sig.states.len());
                bytes.clear();
                s.encode(sig, &mut bytes);
            }
            _ => {
                for _ in 0..=rng.below(4) {
                    let bit = pick(rng, bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
        // `Ok` or `CkptError` on both legs' tables, the section's own
        // program's and another's; a panic fails the case, and an `Ok`
        // must be restorable: every global present at its type, every
        // state id in range.
        for alg in [*home, pick(rng, SIGNATURES.len())] {
            let sig = SIGNATURES[alg];
            let native = decode_native(sig, &bytes);
            let interp = decode_interp(&programs[alg], &bytes);
            assert_eq!(native.as_ref().ok(), interp.as_ref().ok());
            let Ok(s) = native else { continue };
            assert_eq!(s.globals.len(), sig.globals.len());
            for (v, (_, ty)) in s.globals.iter().zip(sig.globals) {
                assert_eq!(v.try_coerce(ty).as_ref(), Ok(v), "{v:?} is not a {ty}");
            }
            let states = s.prev_state.iter().chain(&s.state_log);
            assert!(states.into_iter().all(|&st| st < sig.states.len()));
        }
    });
}

/// A checkpointed run of `case`'s program on one leg, from the start or
/// resuming from `dir`, returning its restore count; runs stop at 400
/// supersteps, so that no mutated snapshot can loop forever.
fn run_checkpointed(
    case: &Case,
    native: bool,
    dir: &Path,
    every: u32,
    resume: bool,
) -> Result<u32, RunError> {
    let (name, src, graph, args, seed) = case;
    let config = PregelConfig {
        checkpoint: Some(CheckpointConfig::new(dir, every).with_resume(resume)),
        max_supersteps: 400,
        ..PregelConfig::with_workers(2)
    };
    let out = if native {
        (native_for(src).run)(graph, args, *seed, &config)
    } else {
        run_compiled(graph, &compiled_for(name, src), args, *seed, &config)
    };
    out.map(|o| o.metrics.recovery.restores)
}

#[test]
fn the_vertex_section_decoders_never_panic() {
    let cases = algorithm_cases();
    // Real snapshots, first, middle and last of a checkpoint-every-
    // superstep run, of every algorithm on each leg: (case, leg, snapshot).
    let mut corpus: Vec<(usize, bool, Snapshot)> = Vec::new();
    for (alg, case) in cases.iter().enumerate() {
        for native in [true, false] {
            let dir = fresh_dir("vertex-corpus");
            run_checkpointed(case, native, &dir, 1, false)
                .unwrap_or_else(|e| panic!("{}: {e}", case.0));
            let files = snapshots(&dir);
            for i in [0, files.len() / 2, files.len() - 1] {
                let snap = Snapshot::read(&files[i].1).expect("read snapshot");
                corpus.push((alg, native, snap));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let pick = |rng: &mut SplitMix64, n: usize| rng.below(n.max(1) as u64) as usize;
    let (mut restored, mut errors) = (0, 0);
    check("vertex_section_decoders", 96, |rng| {
        let (alg, native, snap) = &corpus[pick(rng, corpus.len())];
        let section = ["values", "halted", "inbox"][pick(rng, 3)];
        let mut bytes = snap.section(section).expect("a vertex section").to_vec();
        match rng.below(6) {
            0 => {
                bytes = (0..pick(rng, 2 * bytes.len()))
                    .map(|_| rng.next_u64() as u8)
                    .collect()
            }
            1 => bytes.truncate(pick(rng, bytes.len() + 1)),
            // A small value lands on tags, flags, counts and ids.
            2 if !bytes.is_empty() => {
                let at = pick(rng, bytes.len());
                bytes[at] = rng.below(6) as u8;
            }
            // Well-formed bytes, wrong content: the same section of
            // another snapshot on this leg, of any algorithm.
            3 => {
                let same_leg: Vec<_> = corpus.iter().filter(|(_, n, _)| n == native).collect();
                let (_, _, other) = same_leg[pick(rng, same_leg.len())];
                bytes = other.section(section).expect("a vertex section").to_vec();
            }
            4 => bytes.extend((0..=pick(rng, 16)).map(|_| rng.next_u64() as u8)),
            _ if !bytes.is_empty() => {
                for _ in 0..=rng.below(4) {
                    let bit = pick(rng, bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            _ => {}
        }
        // The mutated section in a container whose checksum passes, as the
        // only snapshot the home leg finds.
        let rebuilt = (snap.section_names()).fold(
            SnapshotBuilder::new(snap.superstep, snap.num_nodes),
            |b, name| {
                let payload = if name == section {
                    bytes.clone()
                } else {
                    snap.section(name).expect("listed").to_vec()
                };
                b.section(name, payload)
            },
        );
        let dir = fresh_dir("vertex-mutant");
        std::fs::create_dir_all(&dir).expect("mutant dir");
        rebuilt
            .write_atomic(&dir.join(format!("snapshot-{:08}.gmck", snap.superstep)))
            .expect("write mutant");
        // `Ok` or a runtime error; a panic unwinding out of `run` fails
        // the case.
        match run_checkpointed(&cases[*alg], *native, &dir, u32::MAX, true) {
            Ok(restores) => restored += restores,
            Err(e) => {
                assert!(matches!(e, RunError::Pregel(_)), "{e}");
                errors += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    // Both outcomes occur: the mutants reach the decoders.
    assert!(
        restored > 0 && errors > 0,
        "{restored} restored, {errors} errors"
    );
}

#[test]
fn a_snapshot_naming_a_vertex_past_the_graph_is_refused_at_decode() {
    use native::conductance::{Msg, VertexValue};
    let case = algorithm_cases().swap_remove(2);
    assert_eq!(case.0, "conductance");
    let dir = fresh_dir("past-the-graph");
    run_checkpointed(&case, true, &dir, 1, false).expect("checkpointed run");
    let files = snapshots(&dir);
    let n = case.2.num_nodes();
    // The first snapshot holds the in-neighbour preamble's ids in flight;
    // the last one holds them stored in the rows.
    let in_flight = |bytes: &[u8]| {
        let mut r = ByteReader::new(bytes);
        let mut inboxes: Vec<Vec<Msg>> =
            (0..n).map(|_| Persist::restore(&mut r).unwrap()).collect();
        let sender = inboxes.iter_mut().flatten().find_map(|m| match m {
            Msg::InNbr { sender } => Some(sender),
            _ => None,
        });
        *sender.expect("an in-neighbour message") = n + 5;
        let mut out = Vec::new();
        inboxes.iter().for_each(|inbox| inbox.persist(&mut out));
        out
    };
    let stored = |bytes: &[u8]| {
        let mut r = ByteReader::new(bytes);
        let mut values: Vec<VertexValue> =
            (0..n).map(|_| Persist::restore(&mut r).unwrap()).collect();
        values[0].in_nbrs.push(n + 5);
        let mut out = Vec::new();
        values.iter().for_each(|v| v.persist(&mut out));
        out
    };
    // Resumes from `snap` with `section` replaced by `bytes`.
    let resume_over = |snap: &Snapshot, section: &str, bytes: Vec<u8>| {
        let rebuilt = (snap.section_names()).fold(
            SnapshotBuilder::new(snap.superstep, snap.num_nodes),
            |b, name| {
                let kept = snap.section(name).expect("listed");
                b.section(
                    name,
                    if name == section {
                        bytes.clone()
                    } else {
                        kept.to_vec()
                    },
                )
            },
        );
        let mutant = fresh_dir("past-the-graph-mutant");
        std::fs::create_dir_all(&mutant).expect("mutant dir");
        rebuilt
            .write_atomic(&mutant.join(format!("snapshot-{:08}.gmck", snap.superstep)))
            .expect("write mutant");
        let err = run_checkpointed(&case, true, &mutant, u32::MAX, true).unwrap_err();
        let _ = std::fs::remove_dir_all(&mutant);
        err.to_string()
    };
    let want = format!(
        "snapshot holds n{} where a vertex of the {n}-vertex graph",
        n + 5
    );
    let first = Snapshot::read(&files[0].1).expect("read snapshot");
    let err = resume_over(&first, "inbox", in_flight(first.section("inbox").unwrap()));
    assert!(err.contains(&want), "inbox: {err}");
    let last = Snapshot::read(&files[files.len() - 1].1).expect("read snapshot");
    let err = resume_over(&last, "values", stored(last.section("values").unwrap()));
    assert!(err.contains(&want), "values: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_wrongly_typed_argument_is_a_bad_argument_on_both_legs() {
    let (name, src, graph, args, seed) = algorithm_cases().swap_remove(3);
    assert_eq!(name, "sssp");
    let compiled = compiled_for(name, src);
    let bad = |key: &str, arg| {
        let mut args = args.clone();
        args.insert(key.to_owned(), arg);
        let config = PregelConfig::sequential();
        let nat = (native_for(src).run)(&graph, &args, seed, &config).unwrap_err();
        let interp = run_compiled(&graph, &compiled, &args, seed, &config).unwrap_err();
        assert!(matches!(nat, RunError::BadArgument(_)), "{nat}");
        assert_eq!(nat.to_string(), interp.to_string());
        nat.to_string()
    };
    let bools = vec![Value::Bool(true); graph.num_edges() as usize];
    assert_eq!(
        bad("len", ArgValue::EdgeProp(bools)),
        "bad argument: `len`[0]: cannot coerce Bool(true) to Int"
    );
    assert_eq!(
        bad("root", ArgValue::Scalar(Value::Bool(true))),
        "bad argument: `root`: cannot coerce Bool(true) to Node"
    );
}

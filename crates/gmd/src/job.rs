//! Job specifications and records: the wire schema of the `gmd` API.
//!
//! A *spec* is what a tenant POSTs (one JSON object per line); a *record*
//! is the daemon's view of a job over its lifetime, rendered back as the
//! status document `GET /v1/jobs/<id>` serves. Parsing is strict about
//! shape (unknown graphs, bad arg types, negative budgets are structured
//! `400`s) because specs arrive from untrusted tenants.

use crate::journal::JournalRecord;
use crate::{fingerprint_values, render_value};
use gm_core::seqinterp::ArgValue;
use gm_core::value::Value;
use gm_obs::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The program half of a job: a named builtin, or inline Green-Marl
/// source, compiled at submit time unless it is a builtin's text.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProgramSpec {
    /// One of the six builtins compiled at startup (`"pagerank"`,
    /// `"sssp"`, ...).
    Builtin(String),
    /// Inline Green-Marl source.
    Source(String),
}

impl ProgramSpec {
    /// A short, label-safe name for metrics and the quarantine signature.
    /// Inline sources are identified by content fingerprint, so resubmits
    /// of the same bad program share a signature.
    pub fn label(&self) -> String {
        match self {
            ProgramSpec::Builtin(name) => name.clone(),
            ProgramSpec::Source(src) => {
                format!("source-{:016x}", crate::Fnv1a::hash(src.as_bytes()))
            }
        }
    }
}

/// A parsed job submission.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Tenant the job is accounted (and queued) under.
    pub tenant: String,
    /// Name of a loaded graph snapshot.
    pub graph: String,
    /// What to run.
    pub program: ProgramSpec,
    /// Scalar arguments by parameter name.
    pub args: BTreeMap<String, Value>,
    /// `G.PickRandom()` seed (default 0), as in `gmc run --seed`.
    pub seed: u64,
    /// Worker-count override; `None` uses the daemon default.
    pub workers: Option<usize>,
    /// Per-job deadline arming the superstep watchdog.
    pub deadline: Option<Duration>,
    /// Requested in-flight message-byte budget; `None` takes the
    /// daemon's fair share (total / max_concurrent).
    pub max_message_bytes: Option<u64>,
    /// Requested resident value-store budget; `None` takes the fair
    /// share.
    pub max_resident_bytes: Option<u64>,
    /// Return full property columns, not just fingerprints.
    pub include_props: bool,
    /// Scheduling priority (default 0; higher survives brownout
    /// shedding longer).
    pub priority: i64,
    /// Snapshot interval in supersteps; `None` takes the daemon's
    /// `--checkpoint-every` default (which may be off). Checkpointed
    /// jobs resume from their newest valid snapshot after a daemon
    /// crash instead of restarting at superstep 0.
    pub checkpoint_every: Option<u32>,
    /// Transient-failure retry budget override; `None` takes the
    /// daemon's policy default, `Some(0)` disables retries.
    pub max_retries: Option<u32>,
    /// Retry backoff base override (milliseconds).
    pub retry_base_ms: Option<u64>,
    /// Retry backoff cap override (milliseconds).
    pub retry_cap_ms: Option<u64>,
}

fn parse_scalar(name: &str, v: &Json) -> Result<Value, String> {
    match v {
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(n) => Ok(Value::Int(*n)),
        Json::UInt(n) => i64::try_from(*n)
            .map(Value::Int)
            .map_err(|_| format!("arg `{name}` does not fit an i64")),
        Json::Num(n) => Ok(Value::Double(*n)),
        // The `gmc --arg` node syntax: "n:17".
        Json::Str(s) => match s.strip_prefix("n:") {
            Some(id) => id
                .parse::<u32>()
                .map(Value::Node)
                .map_err(|_| format!("arg `{name}`: bad node id {s:?}")),
            None => Err(format!(
                "arg `{name}`: strings must be node refs like \"n:17\""
            )),
        },
        _ => Err(format!("arg `{name}` must be a scalar")),
    }
}

impl JobSpec {
    /// Parses a submission document.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        if !matches!(doc, Json::Obj(_)) {
            return Err("job must be a JSON object".to_owned());
        }
        let tenant = doc
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("default")
            .to_owned();
        if tenant.is_empty() {
            return Err("tenant must be non-empty".to_owned());
        }
        let graph = doc
            .get("graph")
            .and_then(Json::as_str)
            .ok_or("missing required field `graph`")?
            .to_owned();
        let program = match (
            doc.get("program").and_then(Json::as_str),
            doc.get("source").and_then(Json::as_str),
        ) {
            (Some(name), None) => ProgramSpec::Builtin(name.to_owned()),
            (None, Some(src)) => ProgramSpec::Source(src.to_owned()),
            (Some(_), Some(_)) => {
                return Err("give either `program` or `source`, not both".to_owned())
            }
            (None, None) => return Err("missing `program` (builtin name) or `source`".to_owned()),
        };
        let mut args = BTreeMap::new();
        if let Some(raw) = doc.get("args") {
            let Json::Obj(map) = raw else {
                return Err("`args` must be an object".to_owned());
            };
            for (name, v) in map {
                args.insert(name.clone(), parse_scalar(name, v)?);
            }
        }
        let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let workers = match doc.get("workers") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&w| w >= 1)
                    .ok_or("`workers` must be a positive integer")? as usize,
            ),
        };
        let deadline = match doc.get("deadline_ms") {
            None => None,
            Some(v) => Some(Duration::from_millis(
                v.as_u64()
                    .filter(|&ms| ms >= 1)
                    .ok_or("`deadline_ms` must be a positive integer")?,
            )),
        };
        let budget_field = |key: &str| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .filter(|&b| b >= 1)
                    .map(Some)
                    .ok_or(format!("`{key}` must be a positive integer")),
            }
        };
        let max_message_bytes = budget_field("max_message_bytes")?;
        let max_resident_bytes = budget_field("max_resident_bytes")?;
        let include_props = matches!(doc.get("include_props"), Some(Json::Bool(true)));
        let priority = match doc.get("priority") {
            None => 0,
            Some(Json::Int(n)) => *n,
            Some(Json::UInt(n)) => {
                i64::try_from(*n).map_err(|_| "`priority` does not fit an i64".to_owned())?
            }
            Some(_) => return Err("`priority` must be an integer".to_owned()),
        };
        let checkpoint_every = match doc.get("checkpoint_every") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&e| (1..=u64::from(u32::MAX)).contains(&e))
                    .ok_or("`checkpoint_every` must be a positive integer")? as u32,
            ),
        };
        let max_retries = match doc.get("max_retries") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&r| r <= 1000)
                    .ok_or("`max_retries` must be an integer in 0..=1000")? as u32,
            ),
        };
        let retry_base_ms = budget_field("retry_base_ms")?;
        let retry_cap_ms = budget_field("retry_cap_ms")?;
        Ok(JobSpec {
            tenant,
            graph,
            program,
            args,
            seed,
            workers,
            deadline,
            max_message_bytes,
            max_resident_bytes,
            include_props,
            priority,
            checkpoint_every,
            max_retries,
            retry_base_ms,
            retry_cap_ms,
        })
    }

    /// Renders the spec back into the submission-document shape, such
    /// that `from_json(to_json(spec)) == spec`. The journal persists
    /// accepted jobs in this form so a restarted daemon re-admits them
    /// through the exact parsing path submissions take.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("tenant".to_owned(), Json::Str(self.tenant.clone())),
            ("graph".to_owned(), Json::Str(self.graph.clone())),
        ];
        match &self.program {
            ProgramSpec::Builtin(name) => {
                pairs.push(("program".to_owned(), Json::Str(name.clone())));
            }
            ProgramSpec::Source(src) => {
                pairs.push(("source".to_owned(), Json::Str(src.clone())));
            }
        }
        if !self.args.is_empty() {
            pairs.push((
                "args".to_owned(),
                Json::obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), value_json(v)))
                        .collect::<Vec<_>>(),
                ),
            ));
        }
        if self.seed != 0 {
            pairs.push(("seed".to_owned(), Json::UInt(self.seed)));
        }
        if let Some(w) = self.workers {
            pairs.push(("workers".to_owned(), Json::UInt(w as u64)));
        }
        if let Some(d) = self.deadline {
            pairs.push(("deadline_ms".to_owned(), Json::UInt(d.as_millis() as u64)));
        }
        if let Some(b) = self.max_message_bytes {
            pairs.push(("max_message_bytes".to_owned(), Json::UInt(b)));
        }
        if let Some(b) = self.max_resident_bytes {
            pairs.push(("max_resident_bytes".to_owned(), Json::UInt(b)));
        }
        if self.include_props {
            pairs.push(("include_props".to_owned(), Json::Bool(true)));
        }
        if self.priority != 0 {
            pairs.push(("priority".to_owned(), Json::Int(self.priority)));
        }
        if let Some(e) = self.checkpoint_every {
            pairs.push(("checkpoint_every".to_owned(), Json::UInt(u64::from(e))));
        }
        if let Some(r) = self.max_retries {
            pairs.push(("max_retries".to_owned(), Json::UInt(u64::from(r))));
        }
        if let Some(ms) = self.retry_base_ms {
            pairs.push(("retry_base_ms".to_owned(), Json::UInt(ms)));
        }
        if let Some(ms) = self.retry_cap_ms {
            pairs.push(("retry_cap_ms".to_owned(), Json::UInt(ms)));
        }
        Json::obj(pairs)
    }

    /// Converts the parsed scalars into interpreter arguments.
    pub fn arg_values(&self) -> std::collections::HashMap<String, ArgValue> {
        self.args
            .iter()
            .map(|(k, v)| (k.clone(), ArgValue::Scalar(*v)))
            .collect()
    }
}

/// The terminal outcome of a successful job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Procedure return value, if any.
    pub ret: Option<Value>,
    /// Final master globals.
    pub globals: BTreeMap<String, Value>,
    /// FNV-1a fingerprint per node-property column.
    pub fingerprints: BTreeMap<String, String>,
    /// Full columns, when the spec asked for them.
    pub props: Option<BTreeMap<String, Vec<Value>>>,
    /// Supersteps executed.
    pub supersteps: u32,
    /// Total messages exchanged.
    pub total_messages: u64,
    /// Total metered message bytes.
    pub total_message_bytes: u64,
}

impl JobResult {
    /// Builds the result from an interpreter outcome.
    pub fn from_outcome(outcome: &gm_interp::CompiledOutcome, include_props: bool) -> JobResult {
        let fingerprints = outcome
            .node_props
            .iter()
            .map(|(name, col)| (name.clone(), fingerprint_values(col)))
            .collect();
        JobResult {
            ret: outcome.ret,
            globals: outcome
                .globals
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            fingerprints,
            props: include_props.then(|| {
                outcome
                    .node_props
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect()
            }),
            supersteps: outcome.metrics.supersteps,
            total_messages: outcome.metrics.total_messages,
            total_message_bytes: outcome.metrics.total_message_bytes,
        }
    }

    /// The result's journalled fields: everything but the `props`
    /// columns, which only the status document carries.
    pub(crate) fn journal_fields(&self) -> BTreeMap<String, Json> {
        BTreeMap::from([
            (
                "ret".to_owned(),
                self.ret.as_ref().map(value_json).unwrap_or(Json::Null),
            ),
            (
                "globals".to_owned(),
                Json::obj(self.globals.iter().map(|(k, v)| (k.clone(), value_json(v)))),
            ),
            (
                "fingerprints".to_owned(),
                Json::obj(
                    self.fingerprints
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            (
                "supersteps".to_owned(),
                Json::UInt(u64::from(self.supersteps)),
            ),
            ("total_messages".to_owned(), Json::UInt(self.total_messages)),
            (
                "total_message_bytes".to_owned(),
                Json::UInt(self.total_message_bytes),
            ),
        ])
    }
}

/// Where a job is in its lifetime.
#[derive(Clone, Debug, Default)]
pub enum JobState {
    /// Accepted, waiting for a runner slot.
    #[default]
    Queued,
    /// Executing on a runner.
    Running,
    /// Failed transiently; waiting out a backoff delay before requeue.
    Retrying {
        /// The attempt that just failed (1-based).
        attempt: u32,
        /// Failure-class slug of the transient failure.
        kind: String,
    },
    /// Finished successfully. Every record answered from the result
    /// cache shares the one result of the run it repeats.
    Completed(Arc<JobResult>),
    /// Finished with a structured failure.
    Failed {
        /// Stable failure-class slug ([`gm_pregel::PregelError::kind`]
        /// or `"bad_argument"`).
        kind: String,
        /// Human-readable rendering.
        message: String,
        /// Post-mortem bundle, when one was written.
        bundle: Option<PathBuf>,
    },
}

impl JobState {
    /// The wire name of the state.
    pub fn status(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Retrying { .. } => "retrying",
            JobState::Completed(_) => "completed",
            JobState::Failed { .. } => "failed",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Completed(_) | JobState::Failed { .. })
    }
}

/// The daemon's record of one job: the fold of its journal records
/// through [`JobRecord::apply`], starting from `JobRecord::default()`.
#[derive(Clone, Debug, Default)]
pub struct JobRecord {
    /// Wire id (`"job-<n>"`).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Graph the job runs on.
    pub graph: String,
    /// Program label (builtin name or source fingerprint).
    pub program: String,
    /// Execution backend: `"interp"`, or `"native"` for programs served
    /// by a compiled-in `gm-core::rustgen` module. For a live job this is
    /// what it runs on now: a job replayed after a restart runs on
    /// whichever backend binds then, not the one its `accepted` record
    /// names.
    pub backend: String,
    /// Current state.
    pub state: JobState,
    /// Execution attempts started so far (1 for a job that never
    /// retried).
    pub attempts: u32,
    /// End-to-end milliseconds (submit → terminal), once terminal.
    pub wall_ms: Option<f64>,
    /// Whether the result came from the result cache instead of a run.
    pub cached: bool,
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Int(x) => Json::Int(*x),
        Value::Double(x) => Json::Num(*x),
        Value::Bool(x) => Json::Bool(*x),
        // Tagged strings, mirroring the arg syntax, so node/edge refs
        // survive the round trip unambiguously.
        Value::Node(_) | Value::Edge(_) => Json::Str(render_value(v)),
    }
}

impl JobRecord {
    /// The job state machine, and the only place a record gains a state,
    /// `attempts` or `wall_ms`: the live daemon, journal replay and
    /// compaction all build records by applying journal records here.
    /// `accepted` names the job; `started` and `retrying` move it and
    /// count its attempts; `completed`, `failed` and `cancelled` end it.
    /// A terminal state is final, and a repeated record changes nothing,
    /// so a replay that reads a record twice folds to the same job.
    pub fn apply(&mut self, rec: &JournalRecord) {
        if self.state.is_terminal() {
            return;
        }
        match rec {
            JournalRecord::Accepted { id, backend, spec } => {
                self.id.clone_from(id);
                self.tenant.clone_from(&spec.tenant);
                self.graph.clone_from(&spec.graph);
                self.program = spec.program.label();
                self.backend.clone_from(backend);
            }
            JournalRecord::Started { attempt, .. } => {
                self.state = JobState::Running;
                self.attempts = self.attempts.max(*attempt);
            }
            JournalRecord::Retrying { attempt, kind, .. } => {
                self.state = JobState::Retrying {
                    attempt: *attempt,
                    kind: kind.clone(),
                };
                self.attempts = self.attempts.max(*attempt);
            }
            JournalRecord::Completed {
                wall_ms,
                result,
                cached,
                ..
            } => {
                self.state = JobState::Completed(result.clone());
                self.wall_ms = Some(*wall_ms);
                self.cached = *cached;
            }
            JournalRecord::Failed {
                wall_ms,
                kind,
                message,
                bundle,
                ..
            } => {
                self.state = JobState::Failed {
                    kind: kind.clone(),
                    message: message.clone(),
                    bundle: bundle.clone(),
                };
                self.wall_ms = Some(*wall_ms);
            }
            JournalRecord::Cancelled {
                wall_ms, message, ..
            } => {
                self.state = JobState::Failed {
                    kind: "cancelled".to_owned(),
                    message: message.clone(),
                    bundle: None,
                };
                self.wall_ms = Some(*wall_ms);
            }
        }
    }

    /// Renders the status document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_owned(), Json::Str(self.id.clone())),
            ("tenant".to_owned(), Json::Str(self.tenant.clone())),
            ("graph".to_owned(), Json::Str(self.graph.clone())),
            ("program".to_owned(), Json::Str(self.program.clone())),
            ("backend".to_owned(), Json::Str(self.backend.clone())),
            (
                "status".to_owned(),
                Json::Str(self.state.status().to_owned()),
            ),
            ("cached".to_owned(), Json::Bool(self.cached)),
        ];
        if self.attempts > 0 {
            pairs.push(("attempts".to_owned(), Json::UInt(u64::from(self.attempts))));
        }
        if let Some(ms) = self.wall_ms {
            pairs.push(("wall_ms".to_owned(), Json::Num(ms)));
        }
        match &self.state {
            JobState::Completed(r) => {
                let mut result = r.journal_fields();
                if let Some(props) = &r.props {
                    result.insert(
                        "props".to_owned(),
                        Json::obj(props.iter().map(|(k, col)| {
                            (k.clone(), Json::Arr(col.iter().map(value_json).collect()))
                        })),
                    );
                }
                pairs.push(("result".to_owned(), Json::Obj(result)));
            }
            JobState::Failed {
                kind,
                message,
                bundle,
            } => {
                pairs.push((
                    "error".to_owned(),
                    Json::obj([
                        ("kind".to_owned(), Json::Str(kind.clone())),
                        ("message".to_owned(), Json::Str(message.clone())),
                        (
                            "bundle".to_owned(),
                            bundle
                                .as_ref()
                                .map(|p| Json::Str(p.display().to_string()))
                                .unwrap_or(Json::Null),
                        ),
                    ]),
                ));
            }
            JobState::Retrying { attempt, kind } => {
                pairs.push((
                    "retry".to_owned(),
                    Json::obj([
                        ("attempt".to_owned(), Json::UInt(u64::from(*attempt))),
                        ("kind".to_owned(), Json::Str(kind.clone())),
                    ]),
                ));
            }
            JobState::Queued | JobState::Running => {}
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_obs::json::parse;

    #[test]
    fn parses_a_full_spec() {
        let doc = parse(
            r#"{"tenant":"acme","graph":"g1","program":"pagerank",
                "args":{"e":1e-9,"d":0.85,"max_iter":10,"root":"n:3","flag":true},
                "seed":7,"workers":2,"deadline_ms":500,
                "max_message_bytes":4096,"include_props":true}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        assert_eq!(spec.tenant, "acme");
        assert_eq!(spec.program, ProgramSpec::Builtin("pagerank".to_owned()));
        assert_eq!(spec.args["d"], Value::Double(0.85));
        assert_eq!(spec.args["max_iter"], Value::Int(10));
        assert_eq!(spec.args["root"], Value::Node(3));
        assert_eq!(spec.args["flag"], Value::Bool(true));
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.workers, Some(2));
        assert_eq!(spec.deadline, Some(Duration::from_millis(500)));
        assert_eq!(spec.max_message_bytes, Some(4096));
        assert!(spec.include_props);
    }

    #[test]
    fn rejects_malformed_specs() {
        let cases = [
            r#"{"program":"pagerank"}"#,                        // no graph
            r#"{"graph":"g"}"#,                                 // no program
            r#"{"graph":"g","program":"x","source":"y"}"#,      // both
            r#"{"graph":"g","program":"x","args":{"k":[1]}}"#,  // non-scalar arg
            r#"{"graph":"g","program":"x","args":{"s":"oh"}}"#, // bad string arg
            r#"{"graph":"g","program":"x","workers":0}"#,       // zero workers
            r#"{"graph":"g","program":"x","deadline_ms":0}"#,   // zero deadline
            r#"{"graph":"g","program":"x","tenant":""}"#,       // empty tenant
        ];
        for c in cases {
            let doc = parse(c).unwrap();
            assert!(JobSpec::from_json(&doc).is_err(), "accepted: {c}");
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let doc = parse(
            r#"{"tenant":"acme","graph":"g1","program":"pagerank",
                "args":{"e":1e-9,"d":0.85,"max_iter":10,"root":"n:3","flag":true},
                "seed":7,"workers":2,"deadline_ms":500,
                "max_message_bytes":4096,"include_props":true,
                "priority":-2,"checkpoint_every":3,
                "max_retries":0,"retry_base_ms":50,"retry_cap_ms":2000}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        assert_eq!(spec.priority, -2);
        assert_eq!(spec.checkpoint_every, Some(3));
        assert_eq!(spec.max_retries, Some(0));
        let round = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);

        // Defaults are omitted on the way out and restored on the way in.
        let minimal = parse(r#"{"graph":"g","source":"Procedure p() {}"}"#).unwrap();
        let spec = JobSpec::from_json(&minimal).unwrap();
        let round = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn rejects_bad_durability_fields() {
        let cases = [
            r#"{"graph":"g","program":"x","priority":1.5}"#,
            r#"{"graph":"g","program":"x","checkpoint_every":0}"#,
            r#"{"graph":"g","program":"x","max_retries":1001}"#,
            r#"{"graph":"g","program":"x","retry_base_ms":0}"#,
        ];
        for c in cases {
            let doc = parse(c).unwrap();
            assert!(JobSpec::from_json(&doc).is_err(), "accepted: {c}");
        }
    }

    #[test]
    fn source_labels_are_content_addressed() {
        let a = ProgramSpec::Source("Procedure p() {}".to_owned());
        let b = ProgramSpec::Source("Procedure p() {}".to_owned());
        let c = ProgramSpec::Source("Procedure q() {}".to_owned());
        assert_eq!(a.label(), b.label());
        assert_ne!(a.label(), c.label());
        assert!(a.label().starts_with("source-"));
    }

    #[test]
    fn record_renders_terminal_states() {
        let id = "job-1".to_owned();
        let spec = parse(r#"{"tenant":"t","graph":"g","program":"pagerank"}"#).unwrap();
        let mut rec = JobRecord::default();
        for transition in [
            JournalRecord::Accepted {
                id: id.clone(),
                backend: "interp".to_owned(),
                spec: JobSpec::from_json(&spec).unwrap(),
            },
            JournalRecord::Started {
                id: id.clone(),
                attempt: 1,
            },
            JournalRecord::Failed {
                id,
                wall_ms: 12.5,
                kind: "deadline_exceeded".to_owned(),
                message: "superstep 3 exceeded its deadline".to_owned(),
                bundle: Some(PathBuf::from("/tmp/b/bundle-1-0")),
            },
        ] {
            rec.apply(&transition);
        }
        let doc = rec.to_json();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(doc.get("cached"), Some(&Json::Bool(false)));
        let err = doc.get("error").unwrap();
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        assert!(err.get("bundle").and_then(Json::as_str).is_some());
    }
}

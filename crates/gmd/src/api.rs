//! The HTTP surface: a [`Router`] over the shared daemon [`State`].
//!
//! Responses are line-delimited JSON (one object, trailing newline).
//! Rejections are structured: every error body carries an `error` slug
//! plus enough fields for a client to act on it programmatically
//! (`over_capacity` says what was requested and what the capacity is,
//! `quarantined` names the repeated failure kind, and so on).

use crate::daemon::{Reject, State};
use crate::job::JobSpec;
use gm_obs::http::{Request, Response, Router};
use gm_obs::json::{parse, Json};
use std::sync::Arc;

fn body(doc: Json) -> String {
    let mut text = doc.to_string();
    text.push('\n');
    text
}

fn error_body(status: u16, pairs: Vec<(String, Json)>) -> Response {
    Response::json(status, body(Json::obj(pairs)))
}

fn reject_response(reject: Reject) -> Response {
    let slug = ("error".to_owned(), Json::Str(reject.slug().to_owned()));
    let msg = |s: String| ("message".to_owned(), Json::Str(s));
    match reject {
        Reject::Draining => error_body(503, vec![slug, msg("daemon is shutting down".to_owned())])
            .with_retry_after(1),
        Reject::UnknownGraph(name) => error_body(
            400,
            vec![slug, msg(format!("no graph named {name:?} is loaded"))],
        ),
        Reject::UnknownProgram(name) => {
            error_body(400, vec![slug, msg(format!("no builtin named {name:?}"))])
        }
        Reject::CompileError(diagnostics) => error_body(
            400,
            vec![slug, ("diagnostics".to_owned(), Json::Str(diagnostics))],
        ),
        Reject::Quarantined { kind, count } => error_body(
            429,
            vec![
                slug,
                ("kind".to_owned(), Json::Str(kind)),
                ("failures".to_owned(), Json::UInt(u64::from(count))),
            ],
        )
        .with_retry_after(30),
        Reject::OverCapacity {
            what,
            requested,
            capacity,
        } => error_body(
            429,
            vec![
                slug,
                ("budget".to_owned(), Json::Str(what.to_owned())),
                ("requested".to_owned(), Json::UInt(requested)),
                ("capacity".to_owned(), Json::UInt(capacity)),
            ],
        )
        .with_retry_after(5),
        Reject::QueueFull { cap } => error_body(
            429,
            vec![slug, ("capacity".to_owned(), Json::UInt(cap as u64))],
        )
        .with_retry_after(1),
        Reject::Shedding { retry_after } => {
            let seconds = retry_after.as_secs().max(1);
            error_body(
                503,
                vec![
                    slug,
                    msg("brownout: shedding low-priority work".to_owned()),
                    (
                        "retry_after_ms".to_owned(),
                        Json::UInt(retry_after.as_millis() as u64),
                    ),
                ],
            )
            .with_retry_after(seconds)
        }
        Reject::JournalUnavailable(message) => {
            error_body(503, vec![slug, msg(message)]).with_retry_after(1)
        }
        Reject::BadRequest(message) => error_body(400, vec![slug, msg(message)]),
    }
}

fn submit(state: &Arc<State>, req: &Request) -> Response {
    let doc = match parse(&req.body_str()) {
        Ok(doc) => doc,
        Err(e) => {
            return reject_response(Reject::BadRequest(format!("body is not JSON: {e:?}")));
        }
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(spec) => spec,
        Err(m) => return reject_response(Reject::BadRequest(m)),
    };
    match state.accept(spec) {
        // A result-cache hit is accepted already completed.
        Ok((id, cached)) => Response::new(
            202,
            "application/json",
            body(Json::obj([
                ("id".to_owned(), Json::Str(id)),
                (
                    "status".to_owned(),
                    Json::Str(if cached { "completed" } else { "queued" }.to_owned()),
                ),
                ("cached".to_owned(), Json::Bool(cached)),
            ])),
        ),
        Err(reject) => reject_response(reject),
    }
}

fn job_status(state: &Arc<State>, req: &Request) -> Response {
    let id = req.trailing("/v1/jobs/").unwrap_or("");
    match state.job(id) {
        Some(record) => Response::ok_json(body(record.to_json())),
        None => error_body(
            404,
            vec![
                ("error".to_owned(), Json::Str("unknown_job".to_owned())),
                ("id".to_owned(), Json::Str(id.to_owned())),
            ],
        ),
    }
}

fn graphs(state: &Arc<State>) -> Response {
    let list: Vec<Json> = state
        .graphs()
        .iter()
        .map(|(name, g)| {
            Json::obj([
                ("name".to_owned(), Json::Str(name.clone())),
                (
                    "nodes".to_owned(),
                    Json::UInt(u64::from(g.graph.num_nodes())),
                ),
                (
                    "edges".to_owned(),
                    Json::UInt(u64::from(g.graph.num_edges())),
                ),
            ])
        })
        .collect();
    let builtins: Vec<Json> = state
        .builtin_names()
        .into_iter()
        .map(|n| Json::Str(n.to_owned()))
        .collect();
    Response::ok_json(body(Json::obj([
        ("graphs".to_owned(), Json::Arr(list)),
        ("builtins".to_owned(), Json::Arr(builtins)),
    ])))
}

fn healthz(state: &Arc<State>) -> Response {
    Response::ok_json(body(Json::obj([
        ("ok".to_owned(), Json::Bool(true)),
        ("draining".to_owned(), Json::Bool(state.draining())),
        ("running".to_owned(), Json::UInt(state.running() as u64)),
    ])))
}

/// Builds the daemon's route table over shared state.
pub fn router(state: Arc<State>) -> Router {
    let s1 = state.clone();
    let s2 = state.clone();
    let s3 = state.clone();
    let s4 = state.clone();
    let s5 = state;
    Router::new()
        .route("POST", "/v1/jobs", move |req: &Request| submit(&s1, req))
        .route("GET", "/v1/jobs/*", move |req: &Request| {
            job_status(&s2, req)
        })
        .route("GET", "/v1/graphs", move |_req: &Request| graphs(&s3))
        .route("GET", "/healthz", move |_req: &Request| healthz(&s4))
        .route("GET", "/metrics", move |_req: &Request| {
            Response::new(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                s5.registry().render_prometheus().into_bytes(),
            )
        })
}

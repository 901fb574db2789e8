//! A minimal blocking HTTP client for the `gmd` API.
//!
//! Dependency-free like everything else here: one request per
//! connection (`Connection: close`), which matches the server side and
//! keeps the client trivially correct. Used by the `kill -9` chaos test,
//! the benchmark's serving workloads, and the serving tests.

use gm_obs::json::{parse, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A client bound to one daemon address.
#[derive(Clone, Copy, Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    /// When set, connection-level failures (refused/reset — a daemon
    /// restarting underneath us) are retried with capped exponential
    /// backoff for up to this long instead of surfacing immediately.
    reconnect: Option<Duration>,
}

/// A client-side failure: transport, HTTP framing, or a non-JSON body
/// where JSON was promised.
#[derive(Debug)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gmd client error: {}", self.0)
    }
}

impl std::error::Error for ClientError {}

fn err(m: impl Into<String>) -> ClientError {
    ClientError(m.into())
}

impl Client {
    /// A client for the daemon at `addr` with a 30s per-request timeout.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: Duration::from_secs(30),
            reconnect: None,
        }
    }

    /// Overrides the per-request socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Retries connection-level failures for up to `window` with capped
    /// backoff (25ms doubling to 500ms). Failures *after* bytes were
    /// sent are only retried for idempotent requests (GETs), so a
    /// submission is never accidentally duplicated.
    pub fn with_reconnect(mut self, window: Duration) -> Client {
        self.reconnect = Some(window);
        self
    }

    fn request_once(&self, head: &str, body: &str) -> Result<(u16, String), RequestError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| RequestError::Connect(e.to_string()))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
            .map_err(|e| RequestError::Connect(e.to_string()))?;
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .map_err(|e| RequestError::Sent(format!("send failed: {e}")))?;
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .map_err(|e| RequestError::Sent(format!("read failed: {e}")))?;
        let (head, payload) = raw
            .split_once("\r\n\r\n")
            .ok_or_else(|| RequestError::Sent(format!("malformed response: {raw:?}")))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| RequestError::Sent(format!("bad status line: {head:?}")))?;
        Ok((status, payload.to_owned()))
    }

    fn request(
        &self,
        head: &str,
        body: &str,
        idempotent: bool,
    ) -> Result<(u16, String), ClientError> {
        let Some(window) = self.reconnect else {
            return self.request_once(head, body).map_err(|e| err(e.message()));
        };
        let deadline = Instant::now() + window;
        let mut backoff = Duration::from_millis(25);
        loop {
            let retryable = match self.request_once(head, body) {
                Ok(reply) => return Ok(reply),
                Err(RequestError::Connect(m)) => m,
                // The request may have reached the daemon: replaying a
                // non-idempotent one could double-submit.
                Err(RequestError::Sent(m)) if idempotent => m,
                Err(e) => return Err(err(e.message())),
            };
            if Instant::now() + backoff > deadline {
                return Err(err(format!(
                    "gave up reconnecting after {window:?}: {retryable}"
                )));
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(500));
        }
    }

    /// Issues a GET; returns `(status, body)`.
    pub fn get(&self, path: &str) -> Result<(u16, String), ClientError> {
        self.request(
            &format!("GET {path} HTTP/1.1\r\nHost: gmd\r\nConnection: close\r\n\r\n"),
            "",
            true,
        )
    }

    /// Issues a POST with a JSON body; returns `(status, body)`.
    pub fn post(&self, path: &str, json_body: &str) -> Result<(u16, String), ClientError> {
        self.request(
            &format!(
                "POST {path} HTTP/1.1\r\nHost: gmd\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                json_body.len()
            ),
            json_body,
            false,
        )
    }

    /// Issues a GET and parses the JSON body.
    pub fn get_json(&self, path: &str) -> Result<(u16, Json), ClientError> {
        let (status, raw) = self.get(path)?;
        let doc = parse(&raw).map_err(|e| err(format!("non-JSON body from {path}: {e:?}")))?;
        Ok((status, doc))
    }

    /// Submits a job document. `Ok` carries the job id on acceptance;
    /// rejections come back as `Err` with `(status, error body)`.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job_json: &str) -> Result<String, SubmitError> {
        let (status, raw) = self
            .post("/v1/jobs", job_json)
            .map_err(|e| SubmitError::Transport(e.0))?;
        let doc =
            parse(&raw).map_err(|e| SubmitError::Transport(format!("non-JSON reply: {e:?}")))?;
        if status == 202 {
            let id = doc
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| SubmitError::Transport(format!("202 without id: {raw:?}")))?;
            Ok(id.to_owned())
        } else {
            Err(SubmitError::Rejected { status, body: doc })
        }
    }

    /// Polls a job until it reaches a terminal state or `timeout`
    /// elapses, returning the final status document.
    pub fn wait(&self, id: &str, timeout: Duration) -> Result<Json, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let (status, doc) = self.get_json(&format!("/v1/jobs/{id}"))?;
            if status != 200 {
                return Err(err(format!("job {id}: status {status}: {doc:?}")));
            }
            match doc.get("status").and_then(Json::as_str) {
                Some("completed") | Some("failed") => return Ok(doc),
                _ if Instant::now() >= deadline => {
                    return Err(err(format!(
                        "job {id} still not terminal after {timeout:?}"
                    )))
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

/// How far a failed request got — decides whether a retry is safe.
enum RequestError {
    /// Nothing was sent (refused/reset on connect): always retryable.
    Connect(String),
    /// Bytes reached the wire: retryable only for idempotent requests.
    Sent(String),
}

impl RequestError {
    fn message(self) -> String {
        match self {
            RequestError::Connect(m) | RequestError::Sent(m) => m,
        }
    }
}

/// Outcome of a submission attempt that did not yield a job id.
#[derive(Debug)]
pub enum SubmitError {
    /// The daemon answered with a structured rejection.
    Rejected {
        /// HTTP status (`400`, `429`, `503`).
        status: u16,
        /// The parsed error body.
        body: Json,
    },
    /// The request never produced a parseable reply.
    Transport(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { status, body } => {
                write!(f, "submission rejected ({status}): {body:?}")
            }
            SubmitError::Transport(m) => write!(f, "submission failed: {m}"),
        }
    }
}

impl std::error::Error for SubmitError {}

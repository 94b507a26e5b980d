//! Line-oriented wire protocol shared by the unix socket and the batch
//! directory.
//!
//! A request is one header line plus an optional length-prefixed payload:
//!
//! ```text
//! JOB power cycles=256 seed=42 deadline-ms=200 payload=123\n<123 bytes>\n
//! PING\n
//! METRICS\n
//! SHUTDOWN\n
//! ```
//!
//! and a response mirrors it:
//!
//! ```text
//! OK id=7 attempts=1 tier=exact-bdd payload=88\n<88 bytes>\n
//! ERR id=7 class=parse attempts=1 payload=30\n<30 bytes>\n
//! PONG\n
//! ```
//!
//! Payload bytes are raw (BLIF/KISS text, report text, error message), so
//! nothing ever needs escaping. Readers take a `stop` predicate: on a
//! read timeout with no bytes consumed they may return idle (`None`),
//! letting a serving thread poll its shutdown flag without ever tearing a
//! half-read frame.

use std::io::{self, Read, Write};

use crate::job::{JobKind, JobResponse, JobSpec};

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a job.
    Job(JobSpec),
    /// Liveness probe.
    Ping,
    /// Fetch the server's `name value` statistics text.
    Metrics,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded; `payload` is the report (or metrics) text.
    Ok {
        /// Job id (0 for control requests).
        id: u64,
        /// Execution attempts (0 for control requests).
        attempts: u32,
        /// Estimation tier that answered, when the job ran the chain.
        tier: Option<String>,
        /// Report, metrics, or acknowledgement text.
        payload: String,
    },
    /// The request failed with a typed class and a diagnostic message.
    Err {
        /// Job id (0 when admission itself refused).
        id: u64,
        /// Stable kebab-case failure class.
        class: String,
        /// Execution attempts before the failure.
        attempts: u32,
        /// Human diagnostic.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
}

impl Response {
    /// Convert a finished job into its wire response.
    pub fn from_job(resp: &JobResponse) -> Response {
        match &resp.result {
            Ok(out) => Response::Ok {
                id: resp.id,
                attempts: resp.attempts,
                tier: out.tier.clone(),
                payload: out.text.clone(),
            },
            Err(e) => Response::Err {
                id: resp.id,
                class: e.class().to_string(),
                attempts: resp.attempts,
                message: e.to_string(),
            },
        }
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Serialize one request.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    match req {
        Request::Ping => w.write_all(b"PING\n"),
        Request::Metrics => w.write_all(b"METRICS\n"),
        Request::Shutdown => w.write_all(b"SHUTDOWN\n"),
        Request::Job(spec) => {
            let mut header = format!(
                "JOB {} cycles={} seed={}",
                spec.kind.name(),
                spec.cycles,
                spec.seed
            );
            if let Some(ms) = spec.deadline_ms {
                header.push_str(&format!(" deadline-ms={ms}"));
            }
            if let Some(n) = spec.max_bdd_nodes {
                header.push_str(&format!(" max-bdd-nodes={n}"));
            }
            if let Some(n) = spec.max_sim_steps {
                header.push_str(&format!(" max-sim-steps={n}"));
            }
            header.push_str(&format!(" payload={}\n", spec.payload.len()));
            w.write_all(header.as_bytes())?;
            w.write_all(spec.payload.as_bytes())?;
            w.write_all(b"\n")
        }
    }
}

/// Serialize one response.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    match resp {
        Response::Pong => w.write_all(b"PONG\n"),
        Response::Ok {
            id,
            attempts,
            tier,
            payload,
        } => {
            let mut header = format!("OK id={id} attempts={attempts}");
            if let Some(tier) = tier {
                header.push_str(&format!(" tier={tier}"));
            }
            header.push_str(&format!(" payload={}\n", payload.len()));
            w.write_all(header.as_bytes())?;
            w.write_all(payload.as_bytes())?;
            w.write_all(b"\n")
        }
        Response::Err {
            id,
            class,
            attempts,
            message,
        } => {
            let header =
                format!("ERR id={id} class={class} attempts={attempts} payload={}\n", message.len());
            w.write_all(header.as_bytes())?;
            w.write_all(message.as_bytes())?;
            w.write_all(b"\n")
        }
    }
}

/// Read one header line byte-by-byte, tolerating read timeouts so callers
/// can poll `stop`. Returns `Ok(None)` on clean EOF or on an idle timeout
/// with `stop` raised *before any byte of the line arrived* — a started
/// line is always finished or errors, never silently dropped.
fn read_line_with_stop<R: Read>(r: &mut R, stop: &dyn Fn() -> bool) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(invalid("connection closed mid-line"))
                }
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return String::from_utf8(buf)
                        .map(Some)
                        .map_err(|_| invalid("non-UTF-8 header line"));
                }
                buf.push(byte[0]);
                if buf.len() > 4096 {
                    return Err(invalid("header line too long"));
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() && stop() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Read exactly `n` payload bytes plus the trailing newline, riding out
/// timeouts (a frame that has started is always completed).
fn read_payload<R: Read>(r: &mut R, n: usize) -> io::Result<String> {
    let mut buf = vec![0u8; n];
    let mut filled = 0;
    while filled < n {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(invalid("connection closed mid-payload")),
            Ok(k) => filled += k,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // Trailing newline (tolerate EOF right after the payload).
    let mut nl = [0u8; 1];
    loop {
        match r.read(&mut nl) {
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(buf).map_err(|_| invalid("non-UTF-8 payload"))
}

/// Split `key=value` fields after the leading keyword(s).
fn field<'a>(fields: &'a [&str], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find_map(|f| f.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

fn parsed_field<T: std::str::FromStr>(fields: &[&str], key: &str) -> io::Result<Option<T>> {
    match field(fields, key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| invalid(format!("bad {key} value {v:?}"))),
    }
}

/// Read one request. `Ok(None)` means clean EOF or idle shutdown (see
/// `read_line_with_stop`).
pub fn read_request<R: Read>(r: &mut R, stop: &dyn Fn() -> bool) -> io::Result<Option<Request>> {
    let Some(line) = read_line_with_stop(r, stop)? else {
        return Ok(None);
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.first().copied() {
        Some("PING") => Ok(Some(Request::Ping)),
        Some("METRICS") => Ok(Some(Request::Metrics)),
        Some("SHUTDOWN") => Ok(Some(Request::Shutdown)),
        Some("JOB") => {
            let kind_name = fields.get(1).copied().ok_or_else(|| invalid("JOB: missing kind"))?;
            let kind = JobKind::from_name(kind_name)
                .ok_or_else(|| invalid(format!("JOB: unknown kind {kind_name:?}")))?;
            let len: usize = parsed_field(&fields, "payload")?
                .ok_or_else(|| invalid("JOB: missing payload length"))?;
            let mut spec = JobSpec::new(kind, read_payload(r, len)?);
            if let Some(v) = parsed_field(&fields, "cycles")? {
                spec.cycles = v;
            }
            if let Some(v) = parsed_field(&fields, "seed")? {
                spec.seed = v;
            }
            spec.deadline_ms = parsed_field(&fields, "deadline-ms")?;
            spec.max_bdd_nodes = parsed_field(&fields, "max-bdd-nodes")?;
            spec.max_sim_steps = parsed_field(&fields, "max-sim-steps")?;
            Ok(Some(Request::Job(spec)))
        }
        Some(other) => Err(invalid(format!("unknown request {other:?}"))),
        None => Err(invalid("empty request line")),
    }
}

/// Read one response (blocking until complete).
pub fn read_response<R: Read>(r: &mut R) -> io::Result<Response> {
    let line = read_line_with_stop(r, &|| false)?
        .ok_or_else(|| invalid("connection closed before response"))?;
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.first().copied() {
        Some("PONG") => Ok(Response::Pong),
        Some("OK") => {
            let len: usize = parsed_field(&fields, "payload")?
                .ok_or_else(|| invalid("OK: missing payload length"))?;
            Ok(Response::Ok {
                id: parsed_field(&fields, "id")?.unwrap_or(0),
                attempts: parsed_field(&fields, "attempts")?.unwrap_or(0),
                tier: field(&fields, "tier").map(str::to_string),
                payload: read_payload(r, len)?,
            })
        }
        Some("ERR") => {
            let len: usize = parsed_field(&fields, "payload")?
                .ok_or_else(|| invalid("ERR: missing payload length"))?;
            Ok(Response::Err {
                id: parsed_field(&fields, "id")?.unwrap_or(0),
                class: field(&fields, "class").unwrap_or("unknown").to_string(),
                attempts: parsed_field(&fields, "attempts")?.unwrap_or(0),
                message: read_payload(r, len)?,
            })
        }
        Some(other) => Err(invalid(format!("unknown response {other:?}"))),
        None => Err(invalid("empty response line")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobError, JobOutput};
    use std::io::Cursor;

    fn round_trip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, req).unwrap();
        read_request(&mut Cursor::new(buf), &|| false)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn requests_round_trip() {
        for req in [Request::Ping, Request::Metrics, Request::Shutdown] {
            assert_eq!(round_trip_request(&req), req);
        }
        let mut spec = JobSpec::new(JobKind::Power, ".model m\n.inputs a\n.outputs y\n");
        spec.cycles = 128;
        spec.seed = 7;
        spec.deadline_ms = Some(250);
        spec.max_bdd_nodes = Some(10_000);
        let Request::Job(back) = round_trip_request(&Request::Job(spec.clone())) else {
            panic!("expected a job");
        };
        assert_eq!(back.kind, spec.kind);
        assert_eq!(back.payload, spec.payload);
        assert_eq!(back.cycles, 128);
        assert_eq!(back.seed, 7);
        assert_eq!(back.deadline_ms, Some(250));
        assert_eq!(back.max_bdd_nodes, Some(10_000));
        assert_eq!(back.max_sim_steps, None);
    }

    #[test]
    fn responses_round_trip() {
        let ok = Response::from_job(&JobResponse {
            id: 9,
            result: Ok(JobOutput {
                text: "P = 1.0 mW\nestimator: exact-bdd\n".into(),
                tier: Some("exact-bdd".into()),
            }),
            attempts: 1,
        });
        let err = Response::from_job(&JobResponse {
            id: 10,
            result: Err(JobError::Parse("line 3: bad token".into())),
            attempts: 1,
        });
        for resp in [ok, err, Response::Pong] {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).unwrap();
            assert_eq!(read_response(&mut Cursor::new(buf)).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for text in [
            "NONSENSE\n",
            "JOB power\n",               // missing payload length
            "JOB warp payload=0\n\n",    // unknown kind
            "JOB power payload=abc\n\n", // unreadable length
        ] {
            let got = read_request(&mut Cursor::new(text.as_bytes().to_vec()), &|| false);
            assert!(got.is_err(), "{text:?} must be rejected");
        }
        // Clean EOF is idle, not an error.
        let got = read_request(&mut Cursor::new(Vec::new()), &|| false).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let text = b"JOB power cycles=8 seed=1 payload=50\ntoo short".to_vec();
        let got = read_request(&mut Cursor::new(text), &|| false);
        assert!(got.is_err());
    }
}

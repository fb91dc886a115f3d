//! The daemon as a child process, and a lean closed-loop wire client.
//!
//! The daemon runs as a re-execution of this binary (`--daemon`), so its
//! CPU time and resident memory can be read from `/proc/<pid>` apart
//! from the load generator's. The client writes pre-generated request
//! lines and reads response lines without rebuilding unit payloads:
//! `unit` lines are recognised by their envelope prefix and counted,
//! and only the small terminal line is parsed.

use crate::gen::GenRequest;
use crate::trace::Recorder;
use oranges_campaign::service::{CampaignService, ServiceClient, ServiceConfig, ServiceStats};
use oranges_harness::envelope::Response;
use oranges_harness::json::JsonValue;
use oranges_harness::transport::{Endpoint, TcpTransport, Transport};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Engine workers in the daemon (the host has two cores).
pub const DAEMON_WORKERS: usize = 2;

/// Entry point of the `--daemon` child: bind an ephemeral loopback
/// port, announce it on stdout, serve until a `shutdown` request.
pub fn serve_daemon() -> Result<(), String> {
    let listen: Endpoint = "tcp:127.0.0.1:0".parse().map_err(|e| format!("{e}"))?;
    let service = CampaignService::<TcpTransport>::bind(
        ServiceConfig::new(listen).with_workers(DAEMON_WORKERS),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{}", service.local_endpoint()).map_err(|e| format!("announce: {e}"))?;
    stdout.flush().map_err(|e| format!("announce: {e}"))?;
    service
        .serve()
        .map(|_| ())
        .map_err(|e| format!("serve: {e}"))
}

/// A running daemon child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub endpoint: Endpoint,
}

impl Daemon {
    /// Start a daemon child and wait for its endpoint.
    pub fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            endpoint: Endpoint::Tcp(String::new()),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon endpoint: {e}"))?;
        daemon.endpoint = line
            .trim()
            .parse()
            .map_err(|e| format!("daemon announced {line:?}: {e}"))?;
        Ok(daemon)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = ServiceClient::<TcpTransport>::connect(&self.endpoint)
            .and_then(|mut client| client.shutdown())
            .map_err(|e| format!("shutdown request: {e}"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Fetch the daemon's `stats`.
pub fn daemon_stats(endpoint: &Endpoint) -> Result<ServiceStats, String> {
    ServiceClient::<TcpTransport>::connect(endpoint)
        .and_then(|mut client| client.stats())
        .map_err(|e| format!("stats: {e}"))
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Ending {
    /// A `done` line.
    Done {
        /// Daemon-side campaign fingerprint.
        fingerprint: String,
        /// Units the daemon computed for the request.
        computed_units: u64,
    },
    /// A typed refusal or failure: `error`, `busy`, `cancelled`,
    /// `deadline_exceeded`, a socket error or a malformed line.
    Failed {
        /// Response kind, or `"socket"`.
        kind: String,
        /// Detail for the report.
        detail: String,
    },
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Send to the last byte of the terminal line.
    pub latency: Duration,
    /// Send to the last byte of the first `unit` line.
    pub first_unit: Option<Duration>,
    /// `unit` lines received.
    pub units: usize,
    /// Bytes sent plus bytes received.
    pub bytes: u64,
    /// How it ended.
    pub ending: Ending,
    /// Whether the request ran inside client-side spans.
    pub traced: bool,
}

/// Longest wait for one response line.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A connected wire client.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl WireClient {
    /// Connect to a daemon.
    pub fn connect(endpoint: &Endpoint) -> Result<WireClient, String> {
        let stream = TcpTransport::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
        // A stuck daemon becomes a counted socket failure, not a hung run.
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(WireClient {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            line: Vec::with_capacity(1 << 15),
        })
    }

    /// Send one request and read its whole response stream. With a
    /// recorder, the request runs inside a `wire.request` span with
    /// `wire.send`, `wire.first_unit` and `wire.stream` children.
    pub fn request(&mut self, request: &GenRequest, mut trace: Option<&mut Recorder>) -> Sample {
        let root = trace
            .as_mut()
            .map(|t| t.open("wire.request", request.id, None));
        let parent = root.as_ref().map(|open| open.id());
        let started = Instant::now();
        let mut sample = Sample {
            latency: Duration::ZERO,
            first_unit: None,
            units: 0,
            bytes: request.line.len() as u64,
            ending: Ending::Failed {
                kind: "socket".to_string(),
                detail: String::new(),
            },
            traced: root.is_some(),
        };
        let send = trace
            .as_mut()
            .map(|t| t.open("wire.send", request.id, parent));
        let sent = self.writer.write_all(request.line.as_bytes());
        if let (Some(t), Some(open)) = (trace.as_mut(), send) {
            t.close(open);
        }
        if let Err(e) = sent {
            sample.ending = socket_failure(format!("write: {e}"));
            sample.latency = started.elapsed();
            return finish(sample, trace, root);
        }
        let unit_prefix = format!("{{\"id\":{},\"kind\":\"unit\"", request.id);
        let mut phase = trace
            .as_mut()
            .map(|t| t.open("wire.first_unit", request.id, parent));
        loop {
            self.line.clear();
            match self.reader.read_until(b'\n', &mut self.line) {
                Ok(0) => {
                    sample.ending = socket_failure("daemon closed the connection".to_string());
                    break;
                }
                Ok(read) => sample.bytes += read as u64,
                Err(e) => {
                    sample.ending = socket_failure(format!("read: {e}"));
                    break;
                }
            }
            if self.line.starts_with(unit_prefix.as_bytes()) {
                sample.units += 1;
                if sample.first_unit.is_none() {
                    sample.first_unit = Some(started.elapsed());
                    if let (Some(t), Some(open)) = (trace.as_mut(), phase.take()) {
                        t.close(open);
                        phase = Some(t.open("wire.stream", request.id, parent));
                    }
                }
                continue;
            }
            sample.ending = terminal(&self.line, request.id);
            break;
        }
        sample.latency = started.elapsed();
        if let (Some(t), Some(open)) = (trace.as_mut(), phase) {
            t.close(open);
        }
        finish(sample, trace, root)
    }
}

fn finish(
    sample: Sample,
    trace: Option<&mut Recorder>,
    root: Option<crate::trace::Open>,
) -> Sample {
    if let (Some(t), Some(open)) = (trace, root) {
        t.close(open);
    }
    sample
}

fn socket_failure(detail: String) -> Ending {
    Ending::Failed {
        kind: "socket".to_string(),
        detail,
    }
}

/// Classify a non-`unit` line of a `run` response stream.
fn terminal(line: &[u8], id: u64) -> Ending {
    let parsed = std::str::from_utf8(line)
        .map_err(|e| e.to_string())
        .and_then(|text| Response::from_line(text).map_err(|e| e.to_string()));
    let response = match parsed {
        Ok(response) => response,
        Err(detail) => {
            return Ending::Failed {
                kind: "malformed".to_string(),
                detail,
            }
        }
    };
    if response.id != id {
        return Ending::Failed {
            kind: "malformed".to_string(),
            detail: format!("response id {} for request {id}", response.id),
        };
    }
    let body = response.body.as_ref();
    match (response.kind.as_str(), body) {
        ("done", Some(body)) => {
            match (
                body.get("fingerprint").and_then(JsonValue::as_str),
                body.get("computed_units").and_then(JsonValue::as_u64),
            ) {
                (Some(fingerprint), Some(computed_units)) => Ending::Done {
                    fingerprint: fingerprint.to_string(),
                    computed_units,
                },
                _ => Ending::Failed {
                    kind: "malformed".to_string(),
                    detail: "done body lacks fingerprint or computed_units".to_string(),
                },
            }
        }
        (kind, _) => Ending::Failed {
            kind: kind.to_string(),
            detail: response.error.unwrap_or_default(),
        },
    }
}

/// `utime + stime` of a process in clock ticks (`/proc/<pid>/stat`).
pub fn cpu_ticks(pid: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second for `/proc` CPU times (Linux `USER_HZ`).
pub const TICKS_PER_S: f64 = 100.0;

/// Resident set size of a process in kB (`VmRSS`).
pub fn rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_lines_are_classified() {
        let done =
            "{\"id\":5,\"kind\":\"done\",\"body\":{\"fingerprint\":\"ab\",\"computed_units\":0}}\n";
        assert_eq!(
            terminal(done.as_bytes(), 5),
            Ending::Done {
                fingerprint: "ab".to_string(),
                computed_units: 0
            }
        );
        let busy = "{\"id\":5,\"kind\":\"busy\",\"body\":{\"queued\":1,\"cap\":1,\"needed\":2}}\n";
        assert!(
            matches!(terminal(busy.as_bytes(), 5), Ending::Failed { kind, .. } if kind == "busy")
        );
        let error = "{\"id\":5,\"kind\":\"error\",\"error\":\"bad spec\"}\n";
        assert!(
            matches!(terminal(error.as_bytes(), 5), Ending::Failed { kind, .. } if kind == "error")
        );
        assert!(
            matches!(terminal(done.as_bytes(), 6), Ending::Failed { kind, .. } if kind == "malformed")
        );
    }

    #[test]
    fn proc_readers_see_this_process() {
        let me = std::process::id().to_string();
        assert!(cpu_ticks(&me).is_some());
        assert!(rss_kb(&me).unwrap_or(0) > 0);
    }
}

//! Newline-delimited JSON wire envelopes.
//!
//! The campaign service speaks a line protocol over a Unix-domain
//! socket: every message is one JSON object on one line. This module
//! owns the two envelope shapes — [`Request`] (client → server) and
//! [`Response`] (server → client) — and their lossless round-trip
//! through [`crate::json`]. The envelopes are deliberately generic:
//! `body` is an opaque [`JsonValue`] tree, so the harness stays ignorant
//! of campaign types while the campaign crate layers its spec/metric
//! payloads on top.
//!
//! Framing rules:
//!
//! - one message per `\n`-terminated line (the JSON emitter never
//!   produces raw newlines — strings escape them as `\n`);
//! - requests carry a client-chosen `id`; every response to that request
//!   echoes it, so a client can stream multi-part answers (`kind:
//!   "unit"` … `kind: "done"`) and still correlate;
//! - errors are in-band: a response with `error` set (see
//!   [`Response::failure`] / [`Response::is_err`]).
//!
//! ```
//! use oranges_harness::envelope::{Request, Response};
//! use oranges_harness::json::JsonValue;
//!
//! let request = Request::new(7, "run").with_body(JsonValue::Bool(true));
//! let line = request.to_line();
//! assert_eq!(line, "{\"id\":7,\"method\":\"run\",\"body\":true}\n");
//! assert_eq!(Request::from_line(&line).unwrap(), request);
//!
//! let response = Response::ok(7, "done").with_body(JsonValue::integer(4));
//! assert!(!response.is_err());
//! assert_eq!(Response::from_line(&response.to_line()).unwrap(), response);
//! ```

use crate::json::{self, JsonValue};
use std::fmt;

/// A malformed envelope line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeError(String);

impl EnvelopeError {
    fn new(message: impl Into<String>) -> Self {
        EnvelopeError(message.into())
    }
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "envelope error: {}", self.0)
    }
}

impl std::error::Error for EnvelopeError {}

/// One client → server message: a correlation id, a method name, and an
/// optional method-specific body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id; responses echo it.
    pub id: u64,
    /// Method name (`"run"`, `"stats"`, …) — the server dispatches on it.
    pub method: String,
    /// Method-specific payload, if the method takes one.
    pub body: Option<JsonValue>,
}

impl Request {
    /// A body-less request.
    pub fn new(id: u64, method: &str) -> Self {
        Request {
            id,
            method: method.to_string(),
            body: None,
        }
    }

    /// Attach a payload.
    pub fn with_body(mut self, body: JsonValue) -> Self {
        self.body = Some(body);
        self
    }

    /// Emit as one newline-terminated JSON line.
    pub fn to_line(&self) -> String {
        envelope_line(self.id, ("method", &self.method), None, self.body.as_ref())
    }

    /// Parse one line back into a request.
    pub fn from_line(line: &str) -> Result<Request, EnvelopeError> {
        let value = parse_line(line)?;
        Ok(Request {
            id: require_id(&value)?,
            method: value
                .get("method")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| EnvelopeError::new("request has no string 'method'"))?
                .to_string(),
            body: value.get("body").cloned(),
        })
    }
}

/// One server → client message: the echoed request id, a response kind,
/// an optional in-band error, and an optional body.
///
/// Multi-part answers stream several responses with the same `id` and
/// distinct kinds; by convention the final part's kind is terminal
/// (`"done"` or `"error"`).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// Response kind (`"unit"`, `"done"`, `"stats"`, `"error"`, …).
    pub kind: String,
    /// In-band failure, if the request could not be served.
    pub error: Option<String>,
    /// Kind-specific payload.
    pub body: Option<JsonValue>,
}

impl Response {
    /// A successful response of `kind`.
    pub fn ok(id: u64, kind: &str) -> Self {
        Response {
            id,
            kind: kind.to_string(),
            error: None,
            body: None,
        }
    }

    /// A failure response (kind `"error"`).
    pub fn failure(id: u64, message: impl Into<String>) -> Self {
        Response {
            id,
            kind: "error".to_string(),
            error: Some(message.into()),
            body: None,
        }
    }

    /// Attach a payload.
    pub fn with_body(mut self, body: JsonValue) -> Self {
        self.body = Some(body);
        self
    }

    /// Whether this response reports a failure.
    pub fn is_err(&self) -> bool {
        self.error.is_some()
    }

    /// Emit as one newline-terminated JSON line.
    pub fn to_line(&self) -> String {
        envelope_line(
            self.id,
            ("kind", &self.kind),
            self.error.as_deref(),
            self.body.as_ref(),
        )
    }

    /// Parse one line back into a response.
    pub fn from_line(line: &str) -> Result<Response, EnvelopeError> {
        let value = parse_line(line)?;
        let error = match value.get("error") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::String(message)) => Some(message.clone()),
            Some(other) => {
                return Err(EnvelopeError::new(format!(
                    "response 'error' is not a string: {other:?}"
                )))
            }
        };
        Ok(Response {
            id: require_id(&value)?,
            kind: value
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| EnvelopeError::new("response has no string 'kind'"))?
                .to_string(),
            error,
            body: value.get("body").cloned(),
        })
    }
}

/// Write `{"id":…,"<name>":…[,"error":…][,"body":…]}` and its `\n`
/// straight into one buffer: the body is emitted in place, never copied
/// into a wrapper tree first.
fn envelope_line(
    id: u64,
    (name, value): (&str, &str),
    error: Option<&str>,
    body: Option<&JsonValue>,
) -> String {
    let mut line = format!("{{\"id\":{id},\"{name}\":");
    json::escape_into(&mut line, value);
    if let Some(error) = error {
        line.push_str(",\"error\":");
        json::escape_into(&mut line, error);
    }
    if let Some(body) = body {
        line.push_str(",\"body\":");
        body.emit_into(&mut line);
    }
    line.push_str("}\n");
    line
}

fn parse_line(line: &str) -> Result<JsonValue, EnvelopeError> {
    let value = json::parse(line.trim_end_matches(['\n', '\r']))
        .map_err(|e| EnvelopeError::new(e.to_string()))?;
    match value {
        JsonValue::Object(_) => Ok(value),
        other => Err(EnvelopeError::new(format!(
            "envelope line is not an object: {other:?}"
        ))),
    }
}

fn require_id(value: &JsonValue) -> Result<u64, EnvelopeError> {
    value
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| EnvelopeError::new("envelope has no integer 'id'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_and_without_body() {
        let bare = Request::new(1, "stats");
        assert_eq!(Request::from_line(&bare.to_line()).unwrap(), bare);
        let with_body = Request::new(2, "run").with_body(JsonValue::Object(vec![(
            "chips".to_string(),
            JsonValue::Array(vec![JsonValue::String("M1".to_string())]),
        )]));
        let line = with_body.to_line();
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1, "one line per envelope");
        assert_eq!(Request::from_line(&line).unwrap(), with_body);
    }

    #[test]
    fn response_round_trips_success_and_failure() {
        let ok = Response::ok(9, "unit").with_body(JsonValue::number(1.5));
        assert!(!ok.is_err());
        assert_eq!(Response::from_line(&ok.to_line()).unwrap(), ok);

        let failure = Response::failure(9, "unknown method 'frobnicate'");
        assert!(failure.is_err());
        let back = Response::from_line(&failure.to_line()).unwrap();
        assert_eq!(back.error.as_deref(), Some("unknown method 'frobnicate'"));
        assert_eq!(back.kind, "error");
    }

    #[test]
    fn newlines_in_payload_strings_stay_escaped() {
        let response =
            Response::ok(3, "done").with_body(JsonValue::String("line one\nline two".to_string()));
        let line = response.to_line();
        assert_eq!(line.matches('\n').count(), 1, "payload newline is escaped");
        assert_eq!(Response::from_line(&line).unwrap(), response);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            "{\"method\":\"run\"}",
            "{\"id\":1}",
            "{\"id\":1.5,\"method\":\"run\"}",
        ] {
            assert!(Request::from_line(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Response::from_line("{\"id\":1}").is_err());
        assert!(Response::from_line("{\"id\":1,\"kind\":\"x\",\"error\":7}").is_err());
    }

    #[test]
    fn non_finite_numbers_emit_null_and_round_trip() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let number = JsonValue::number(value);
            assert_eq!(number.to_json_string(), "null", "{value}");
            let response = Response::ok(4, "stats")
                .with_body(JsonValue::Object(vec![("wall_time_s".to_string(), number)]));
            let line = response.to_line();
            assert_eq!(
                line,
                "{\"id\":4,\"kind\":\"stats\",\"body\":{\"wall_time_s\":null}}\n"
            );
            assert_eq!(Response::from_line(&line).unwrap(), response);
        }
    }

    #[test]
    fn correlation_ids_survive_exactly() {
        let request = Request::new(u64::MAX, "ping");
        assert_eq!(Request::from_line(&request.to_line()).unwrap().id, u64::MAX);
    }
}

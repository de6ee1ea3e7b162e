//! Minimal HTTP/1.1 framing for the serving front end: just enough to
//! parse `method path` + headers and a `Content-Length` body, and to
//! write a fixed-header response. Keep-alive follows HTTP/1.1 defaults
//! (persistent unless `Connection: close`; HTTP/1.0 opts in with
//! `Connection: keep-alive`), bounded by the server's per-connection
//! request cap and idle timeout.
//!
//! Framing is strict (RFC 7230 §3.3.3), because bytes read past one
//! request are the start of the connection's next one: a request that
//! carries `Transfer-Encoding` (chunked bodies are not supported) or
//! conflicting `Content-Length` values is rejected, and the server then
//! closes the connection.
//!
//! Every read is bounded — headers are capped at [`MAX_HEAD_BYTES`]
//! and bodies at [`MAX_BODY_BYTES`], read with `read_exact` into a
//! pre-sized buffer — so a slow or malicious client can never grow
//! memory or hold a permit on an unbounded read (lint RA408 enforces
//! the same discipline workspace-wide).

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Cap on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the client allows the connection to persist after the
    /// response (HTTP/1.1 default yes, `Connection: close` overrides;
    /// HTTP/1.0 default no, `Connection: keep-alive` overrides).
    pub keep_alive: bool,
}

/// Why a request could not be framed.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line / headers; carries a short reason.
    BadRequest(String),
    /// Headers exceeded [`MAX_HEAD_BYTES`].
    HeadersTooLarge,
    /// Declared body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The request carries `Transfer-Encoding`, which is not supported.
    TransferEncoding,
    /// The peer closed before sending anything.
    Closed,
    /// Transport error mid-request.
    Io(std::io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::HeadersTooLarge => write!(f, "headers exceed {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge => write!(f, "body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::TransferEncoding => write!(f, "transfer-encoding is not supported"),
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

fn bad(why: &str) -> HttpError {
    HttpError::BadRequest(why.to_string())
}

/// Read the head (request line + headers) up to and including the
/// `\r\n\r\n` terminator, leaving any body bytes in the reader.
fn read_head<R: Read>(reader: &mut BufReader<R>) -> Result<Vec<u8>, HttpError> {
    let mut head: Vec<u8> = Vec::with_capacity(256);
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if available.is_empty() {
            return Err(if head.is_empty() {
                HttpError::Closed
            } else {
                bad("connection closed mid-headers")
            });
        }
        let start = head.len();
        head.extend_from_slice(available);
        // The terminator may straddle the previous chunk boundary, so
        // rescan from three bytes before the new data.
        let scan_from = start.saturating_sub(3);
        if let Some(pos) = head[scan_from..].windows(4).position(|w| w == b"\r\n\r\n") {
            let end = scan_from + pos + 4;
            reader.consume(end - start);
            head.truncate(end);
            return Ok(head);
        }
        let n = head.len() - start;
        reader.consume(n);
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
    }
}

/// Parse one request from the reader. Blocks until the head and the
/// declared body have arrived (bounded by the stream's read timeout).
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> Result<Request, HttpError> {
    let head = read_head(reader)?;
    let text = std::str::from_utf8(&head).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(bad("malformed request line"));
    }
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut keep_alive = !version.eq_ignore_ascii_case("HTTP/1.0");
    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .trim()
                .parse()
                .map_err(|_| bad("unparseable content-length"))?;
            if content_length.is_some_and(|m| m != n) {
                return Err(bad("conflicting content-length"));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::TransferEncoding);
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// One response about to be written.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// `Retry-After` seconds, set on 503 shed responses.
    pub retry_after: Option<u32>,
    /// Server-minted request id, echoed as `X-Request-Id` so traces
    /// and the `/admin/slow` exemplar table correlate with responses.
    pub request_id: Option<u64>,
    pub body: String,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            retry_after: None,
            request_id: None,
            body,
        }
    }

    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain",
            retry_after: None,
            request_id: None,
            body: body.to_string(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize a response. `keep_alive` selects the `Connection` header:
/// the server passes `true` only when it will actually park the
/// connection for reuse (client allowed it and the per-connection
/// request cap is not exhausted).
pub fn write_response<W: Write>(
    stream: &mut W,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = String::with_capacity(resp.body.len() + 160);
    out.push_str(&format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    ));
    if let Some(secs) = resp.retry_after {
        out.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    if let Some(id) = resp.request_id {
        out.push_str(&format!("X-Request-Id: {id}\r\n"));
    }
    out.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    out.push_str(&resp.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let req = parse(b"POST /extract HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/extract");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn get_without_body_parses() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let raw = format!(
            "POST /extract HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(raw.as_bytes()),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn rejects_oversized_headers() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(MAX_HEAD_BYTES)).as_bytes());
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&raw), Err(HttpError::HeadersTooLarge)));
    }

    #[test]
    fn empty_stream_reports_closed() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn terminator_straddling_chunks_is_found() {
        // A tiny BufReader capacity forces the \r\n\r\n terminator to
        // straddle fill_buf chunks.
        let raw: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: local\r\n\r\n";
        let mut reader = BufReader::with_capacity(5, raw);
        let req = read_request(&mut reader).expect("parse");
        assert_eq!(req.path, "/metrics");
    }

    #[test]
    fn rejects_any_transfer_encoding() {
        let raw =
            b"POST /extract HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::TransferEncoding)));
        // Also alongside a Content-Length, which it would override.
        let raw = b"POST /extract HTTP/1.1\r\nContent-Length: 4\r\ntransfer-encoding: identity\r\n\r\nabcd";
        assert!(matches!(parse(raw), Err(HttpError::TransferEncoding)));
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(501, "{}".to_string()), false).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 501 Not Implemented\r\n"));
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let raw = b"POST /extract HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd";
        assert!(matches!(parse(raw), Err(HttpError::BadRequest(_))));
        // Repeating the same value is not a conflict (RFC 7230 §3.3.2).
        let raw = b"POST /extract HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(parse(raw).expect("parse").body, b"abcd");
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_reader() {
        let raw: &[u8] =
            b"POST /extract HTTP/1.1\r\nContent-Length: 2\r\n\r\nabGET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw);
        let first = read_request(&mut reader).expect("first");
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/extract", &b"ab"[..])
        );
        let second = read_request(&mut reader).expect("second");
        assert_eq!(second.path, "/healthz");
        assert!(matches!(read_request(&mut reader), Err(HttpError::Closed)));
    }

    #[test]
    fn response_includes_retry_after_when_set() {
        let mut out = Vec::new();
        let mut resp = Response::json(503, "{}".to_string());
        resp.retry_after = Some(1);
        write_response(&mut out, &resp, false).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parse");
        assert!(!req.keep_alive);
        let req = parse(b"GET /healthz HTTP/1.0\r\n\r\n").expect("parse");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let req = parse(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").expect("parse");
        assert!(req.keep_alive);
    }

    #[test]
    fn response_carries_request_id_and_keep_alive() {
        let mut out = Vec::new();
        let mut resp = Response::json(200, "{}".to_string());
        resp.request_id = Some(42);
        write_response(&mut out, &resp, true).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("X-Request-Id: 42\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
    }
}

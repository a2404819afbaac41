//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, the way a caller that waits for each answer uses the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes written plus bytes read on this connection.
    pub bytes: u64,
}

/// Position just past the `\r\n\r\n` that ends a response head.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_head(head: &str) -> Result<(u16, usize), String> {
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    let length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok())
        .ok_or("response without Content-Length")?;
    Ok((status, length))
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            buf: Vec::with_capacity(4096),
            bytes: 0,
        })
    }

    /// Sends one request and reads its response: `(status, body)`.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: e2ebench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.bytes += request.len() as u64;
        let mut chunk = [0u8; 4096];
        let (status, start, length) = loop {
            if let Some(end) = head_end(&self.buf) {
                let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| "non-UTF-8 head")?;
                let (status, length) = parse_head(head)?;
                break (status, end, length);
            }
            self.fill(&mut chunk)?;
        };
        while self.buf.len() < start + length {
            self.fill(&mut chunk)?;
        }
        let body = String::from_utf8(self.buf[start..start + length].to_vec())
            .map_err(|_| "non-UTF-8 body")?;
        self.buf.drain(..start + length);
        Ok((status, body))
    }

    fn fill(&mut self, chunk: &mut [u8]) -> Result<(), String> {
        match self.stream.read(chunk) {
            Ok(0) => Err("connection closed mid-response".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.bytes += n as u64;
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// The `POST /query` body of one default-accuracy pair query.
pub fn pair_body(s: usize, t: usize) -> String {
    format!("{{\"query\":{{\"type\":\"pair\",\"s\":{s},\"t\":{t}}}}}")
}

/// The single value of a pair answer, as bits, after checking its shape.
pub fn answer_bits(status: u16, body: &str) -> Result<u64, String> {
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let doc = er_http::json::Json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let values = doc
        .get("values")
        .and_then(|v| v.as_array())
        .ok_or("answer without values")?;
    match values {
        [value] => match value.as_f64() {
            Some(v) if v.is_finite() && v >= 0.0 => Ok(v.to_bits()),
            _ => Err(format!("not a resistance: {body}")),
        },
        _ => Err(format!("expected one value: {body}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_and_answers_parse() {
        let head =
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 12\r\n\r\n";
        assert_eq!(parse_head(head).unwrap(), (200, 12));
        assert_eq!(head_end(head.as_bytes()), Some(head.len()));
        let body = r#"{"values":[0.25],"backend":"GEER"}"#;
        assert_eq!(answer_bits(200, body).unwrap(), 0.25f64.to_bits());
        assert!(answer_bits(503, body).is_err());
        assert!(answer_bits(200, r#"{"values":[0.1,0.2]}"#).is_err());
        assert!(answer_bits(200, r#"{"values":[-1]}"#).is_err());
    }
}

//! Deterministic fuzzing of the HTTP front end's parsers.
//!
//! Inputs are the requests and bodies of `tests/http.rs`, mutated by bit
//! flips, byte inserts and deletes, truncation and spliced tokens (a lone
//! surrogate escape, `1e999`, 20-digit integers, an overflowing
//! `Content-Length`, `X-ER-*` session headers). Every mutation is drawn
//! from one seeded `StdRng`, so a failure reproduces exactly.
//!
//! * In process, `http1::parse_request`, `Json::parse`, `parse_query_body`
//!   and `parse_accuracy_spec` must not panic on any input.
//! * Over sockets, one connection per mutated request, every reply must
//!   start with an HTTP/1.1 status line, or the server must close the
//!   connection without sending a byte; `/healthz` must still answer 200
//!   afterwards.
//!
//! The spliced numbers are all values the parsers reject. A well-formed
//! request may still ask for unbounded work (a walk budget up to 2^53);
//! bounding that is not what these tests check.

use effective_resistance::graph::generators;
use effective_resistance::http::api::{parse_accuracy_spec, parse_query_body};
use effective_resistance::http::http1::{parse_request, Limits};
use effective_resistance::http::json::Json;
use effective_resistance::{
    ApproxConfig, HttpConfig, HttpServer, ResistanceServer, ResistanceService, ServerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const SEED: u64 = 0xf022;

/// Mutated inputs fed to each in-process parser.
const PARSER_INPUTS: usize = 3_000;

/// Mutated requests sent over sockets.
const SOCKET_REQUESTS: usize = 300;

/// The `POST /query` bodies of `tests/http.rs`.
const BODIES: &[&str] = &[
    r#"{"query":{"type":"pair","s":0,"t":150}}"#,
    r#"{"query":{"type":"pair","s":0,"t":150},"backend":"geer"}"#,
    r#"{"query":{"type":"batch","pairs":[[1,2],[5,199],[9,9]]},"backend":"amc"}"#,
    r#"{"query":{"type":"pair","s":3,"t":180},"accuracy":{"type":"walk_budget","walks":20000},"backend":"geer"}"#,
    r#"{"query":{"type":"single_source","source":42}}"#,
    r#"{"query":{"type":"top_k","source":42,"k":5}}"#,
    r#"{"query":{"type":"pair","s":4,"t":77},"backend":"amc"}"#,
    r#"{"query":{"type":"warp"}}"#,
    r#"{"query":{"type":"pair","s":0,"t":99999}}"#,
    "{not json",
];

/// `X-ER-Accuracy` spellings, one per form the header accepts.
const ACCURACY_SPECS: &[&str] = &["exact", "walks:20000", "epsilon:0.2", "epsilon:0.1:0.01"];

/// Tokens spliced in at a random offset.
const TOKENS: &[&str] = &[
    r"\uD800",
    r"\u",
    "1e999",
    "-1",
    "99999999999999999999",
    "null",
    "[[[[[[[[",
    "\"",
    "{",
    "}",
    ":",
    "\r\n",
    "\r\n\r\n",
    "\0",
];

/// Header lines spliced in at a line break.
const HEADER_TOKENS: &[&str] = &[
    "\r\nContent-Length: 99999999999999999999",
    "\r\nContent-Length: -1",
    "\r\nTransfer-Encoding: chunked",
    "\r\nConnection: close",
    "\r\nX-ER-Priority: high",
    "\r\nX-ER-Deadline-Ms: 99999999999999999999",
    "\r\nX-ER-Accuracy: exact",
    "\r\nX-ER-Accuracy: walks:99999999999999999999",
    "\r\nX-ER-Accuracy: epsilon:1e999",
    "\r\nX-ER-Backend: \\uD800",
];

/// The raw requests of `tests/http.rs`, and each body framed as a
/// `POST /query`.
fn requests() -> Vec<Vec<u8>> {
    let mut raw: Vec<String> = [
        "GET /healthz HTTP/1.1\r\n\r\n",
        "GET /metrics HTTP/1.1\r\n\r\n",
        "GET /metrics?format=json HTTP/1.1\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
        "GET /nope HTTP/1.1\r\n\r\n",
        "DELETE /query HTTP/1.1\r\n\r\n",
        "GARBAGE\r\n\r\n",
        "GET /healthz HTTP/2.0\r\n\r\n",
        "get /healthz HTTP/1.1\r\n\r\n",
        "GET /healthz  HTTP/1.1\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nBad Header: x\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nFolded: a\r\n b\r\n\r\n",
        "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        "POST /query HTTP/1.1\r\nContent-Length: 2048\r\n\r\n",
        "POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"query\":",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    raw.push(format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10_000)));
    raw.push(format!(
        "GET / HTTP/1.1\r\nBig: {}\r\n\r\n",
        "y".repeat(64_000)
    ));
    let framed = |headers: &str, body: &str| {
        format!(
            "POST /query HTTP/1.1\r\n{headers}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    raw.extend(BODIES.iter().map(|body| framed("", body)));
    for headers in [
        "X-ER-Backend: geer\r\n",
        "X-ER-Backend: auto\r\n",
        "X-ER-Priority: urgent\r\n",
        "X-ER-Deadline-Ms: 1\r\n",
    ] {
        raw.push(framed(headers, BODIES[0]));
    }
    raw.push(framed("", BODIES[0]) + &framed("", BODIES[4]));
    raw.into_iter().map(String::into_bytes).collect()
}

/// One to three seeded mutations of an input drawn from `corpus`.
fn mutated(rng: &mut StdRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut out = corpus[rng.gen_range(0..corpus.len())].clone();
    for _ in 0..rng.gen_range(1..=3usize) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0..6u32) {
            0 if at < out.len() => out[at] ^= 1 << rng.gen_range(0..8u32),
            1 => out.insert(at, rng.gen_range(0..=u8::MAX)),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            4 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                out.splice(at..at, token.bytes());
            }
            5 => {
                let breaks: Vec<usize> = (0..out.len().saturating_sub(1))
                    .filter(|&i| &out[i..i + 2] == b"\r\n")
                    .collect();
                let at = if breaks.is_empty() {
                    at
                } else {
                    breaks[rng.gen_range(0..breaks.len())]
                };
                let token = HEADER_TOKENS[rng.gen_range(0..HEADER_TOKENS.len())];
                out.splice(at..at, token.bytes());
            }
            _ => {}
        }
    }
    out
}

/// Runs `parse` on `PARSER_INPUTS` mutations of `corpus`, naming the input
/// that made it panic.
fn fuzz_parser(name: &str, seed: u64, corpus: &[Vec<u8>], parse: impl Fn(&[u8])) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..PARSER_INPUTS {
        let input = mutated(&mut rng, corpus);
        if catch_unwind(AssertUnwindSafe(|| parse(&input))).is_err() {
            panic!("{name} panicked on {:?}", String::from_utf8_lossy(&input));
        }
    }
}

#[test]
fn parsers_never_panic_on_mutated_input() {
    let bytes =
        |items: &[&str]| -> Vec<Vec<u8>> { items.iter().map(|s| s.as_bytes().to_vec()).collect() };
    let (bodies, specs) = (bytes(BODIES), bytes(ACCURACY_SPECS));
    let text = |input: &[u8]| String::from_utf8_lossy(input).into_owned();
    fuzz_parser("parse_request", SEED, &requests(), |input| {
        let _ = parse_request(input, &Limits::default());
    });
    fuzz_parser("Json::parse", SEED + 1, &bodies, |input| {
        let _ = Json::parse(&text(input));
    });
    fuzz_parser("parse_query_body", SEED + 2, &bodies, |input| {
        let _ = parse_query_body(&text(input));
    });
    fuzz_parser("parse_accuracy_spec", SEED + 3, &specs, |input| {
        let _ = parse_accuracy_spec(&text(input));
    });
}

/// Writes `request` on a fresh connection, half-closes it, and returns
/// every byte the server sent before closing. A reset counts as a close.
fn exchange(addr: std::net::SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may answer and close before it reads the whole request.
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return reply,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return reply,
            Err(e) => panic!(
                "no close within 10 s ({e}) for {:?}",
                String::from_utf8_lossy(request)
            ),
        }
    }
}

/// The status code of a reply that starts with an HTTP/1.1 status line.
fn status(reply: &[u8]) -> Option<u16> {
    let code = reply.strip_prefix(b"HTTP/1.1 ")?.get(..4)?;
    if code[3] != b' ' || !code[..3].iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(&code[..3]).ok()?.parse().ok()
}

#[test]
fn mutated_requests_get_a_status_line_or_a_clean_close() {
    let g = generators::social_network_like(200, 8.0, 5).unwrap();
    let service =
        ResistanceService::with_config(&g, ApproxConfig::with_epsilon(0.2).reseeded(7)).unwrap();
    let handle = ResistanceServer::spawn(
        service,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let server = HttpServer::bind(handle, HttpConfig::default()).unwrap();
    let addr = server.local_addr();
    let corpus = requests();
    let mut rng = StdRng::seed_from_u64(SEED + 4);
    let mut statuses: BTreeMap<Option<u16>, usize> = BTreeMap::new();
    for _ in 0..SOCKET_REQUESTS {
        let request = mutated(&mut rng, &corpus);
        let reply = exchange(addr, &request);
        let code = status(&reply);
        assert!(
            reply.is_empty() || code.is_some(),
            "reply {:?} to {:?}",
            String::from_utf8_lossy(&reply[..reply.len().min(80)]),
            String::from_utf8_lossy(&request)
        );
        *statuses.entry(code).or_default() += 1;
    }
    // The mutations reach both the handlers and the parsers' rejections.
    assert!(
        statuses.contains_key(&Some(200)) && statuses.contains_key(&Some(400)),
        "{statuses:?}"
    );
    let reply = exchange(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status(&reply), Some(200), "{statuses:?}");
    server.shutdown();
}

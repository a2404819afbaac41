//! Robustness tests for the HTTP/1.1 front end over real sockets: malformed
//! and oversized requests, truncated bodies and slow-loris writers, session
//! headers, backpressure/deadline status mapping, keep-alive and pipelining,
//! and — the load-bearing claim — bit-identity of wire responses to
//! in-process `ResistanceService::submit` at any worker count.

use effective_resistance::graph::{generators, Graph};
use effective_resistance::http::json::Json;
use effective_resistance::{
    ApproxConfig, HttpConfig, HttpServer, Query, Request, ResistanceServer, ResistanceService,
    ServerConfig, ServerHandle,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn graph() -> Graph {
    generators::social_network_like(200, 8.0, 5).unwrap()
}

fn service(g: &Graph) -> ResistanceService {
    ResistanceService::with_config(g, ApproxConfig::with_epsilon(0.2).reseeded(7)).unwrap()
}

fn spawn(g: &Graph, workers: usize, config: HttpConfig) -> (HttpServer, ServerHandle) {
    spawn_with(
        g,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
        config,
    )
}

fn spawn_with(g: &Graph, server: ServerConfig, config: HttpConfig) -> (HttpServer, ServerHandle) {
    let handle = ResistanceServer::spawn(service(g), server);
    let probe = handle.clone();
    (HttpServer::bind(handle, config).expect("bind"), probe)
}

/// One blocking request/response exchange on a kept-alive stream.
fn roundtrip(stream: &mut TcpStream, raw: &str) -> (u16, String) {
    stream.write_all(raw.as_bytes()).expect("write request");
    read_response(stream)
}

fn post(stream: &mut TcpStream, target: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    roundtrip(stream, &raw)
}

/// Reads one Content-Length-framed response; panics on a closed socket.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).expect("UTF-8 head");
            let status: u16 = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap();
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(str::to_string)
                })
                .and_then(|v| v.trim().parse().ok())
                .expect("Content-Length");
            let body_start = head_end + 4;
            while buf.len() < body_start + content_length {
                let n = stream.read(&mut chunk).expect("read body");
                assert!(n > 0, "connection closed mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec());
            return (status, body.expect("UTF-8 body"));
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed mid-head");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn error_kind(body: &str) -> String {
    Json::parse(body)
        .ok()
        .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| panic!("not an error body: {body}"))
}

fn value_bits(body: &str) -> Vec<u64> {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("bad response JSON: {e}\n{body}"));
    doc.get("values")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("response without values: {body}"))
        .iter()
        .map(|v| v.as_f64().expect("numeric value").to_bits())
        .collect()
}

#[test]
fn healthz_and_metrics_answer_both_formats() {
    let g = graph();
    let (server, _) = spawn(&g, 2, HttpConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    let (status, body) = roundtrip(&mut stream, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("workers").and_then(Json::as_u64), Some(2));

    // Prometheus text by default, JSON on request — same connection.
    let (status, text) = roundtrip(&mut stream, "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        text.contains("# TYPE er_server_submitted counter"),
        "{text}"
    );
    let (status, json) = roundtrip(&mut stream, "GET /metrics?format=json HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    let doc = Json::parse(&json).unwrap();
    assert!(
        doc.get("submitted").and_then(Json::as_u64).is_some(),
        "{json}"
    );
    server.shutdown();
}

#[test]
fn malformed_requests_map_to_4xx() {
    let g = graph();
    let (server, _) = spawn(&g, 1, HttpConfig::default());
    let addr = server.local_addr();
    // (raw request, expected status). Each case gets a fresh connection —
    // parse errors close the socket after answering.
    let cases: Vec<(String, u16)> = vec![
        ("GARBAGE\r\n\r\n".into(), 400),                // no spaces
        ("GET /healthz HTTP/2.0\r\n\r\n".into(), 400),  // bad version
        ("get /healthz HTTP/1.1\r\n\r\n".into(), 400),  // lowercase method
        ("GET /healthz  HTTP/1.1\r\n\r\n".into(), 400), // double space
        ("GET /healthz HTTP/1.1\r\nBad Header: x\r\n\r\n".into(), 400), // space in name
        (
            "GET /healthz HTTP/1.1\r\nFolded: a\r\n b\r\n\r\n".into(),
            400,
        ), // obsolete folding
        (
            "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".into(),
            501,
        ),
        (
            "POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n".into(),
            400,
        ),
        (format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10_000)), 431), // request line limit
        (
            format!("GET / HTTP/1.1\r\nBig: {}\r\n\r\n", "y".repeat(64_000)),
            431,
        ),
    ];
    for (raw, expected) in cases {
        let mut stream = TcpStream::connect(addr).unwrap();
        let (status, body) = roundtrip(&mut stream, &raw);
        assert_eq!(
            status,
            expected,
            "request {:?}… answered {status}: {body}",
            &raw[..raw.len().min(40)]
        );
    }

    // Routing errors keep the connection alive: 404 then 405 on one stream.
    let mut stream = TcpStream::connect(addr).unwrap();
    let (status, _) = roundtrip(&mut stream, "GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _) = roundtrip(&mut stream, "DELETE /query HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);
    // Bad JSON and bad query shapes are 400s that also keep the connection.
    let (status, body) = post(&mut stream, "/query", "{not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(&mut stream, "/query", r#"{"query":{"type":"warp"}}"#);
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind(&body), "bad_request");
    // The landmark bounds and MC are not served backends.
    for backend in ["landmark", "mc"] {
        let body = format!(r#"{{"query":{{"type":"pair","s":0,"t":1}},"backend":"{backend}"}}"#);
        let (status, body) = post(&mut stream, "/query", &body);
        assert_eq!(status, 400, "{backend}: {body}");
        assert_eq!(error_kind(&body), "bad_request", "{backend}");
    }
    let (status, body) = post(
        &mut stream,
        "/query",
        r#"{"query":{"type":"pair","s":0,"t":99999}}"#,
    );
    assert_eq!(status, 400, "node out of range: {body}");
    server.shutdown();
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let g = graph();
    let (server, _) = spawn(
        &g,
        1,
        HttpConfig {
            max_body_bytes: 1024,
            ..HttpConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Declared ahead of the body: rejected on the header alone, no need to
    // stream 2 KiB.
    let raw = "POST /query HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
    let (status, _) = roundtrip(&mut stream, raw);
    assert_eq!(status, 413);
    server.shutdown();
}

#[test]
fn truncated_body_and_slow_loris_hit_the_read_timeout() {
    let g = graph();
    let (server, _) = spawn(
        &g,
        1,
        HttpConfig {
            read_timeout: Duration::from_millis(150),
            ..HttpConfig::default()
        },
    );
    let addr = server.local_addr();

    // Truncated body: full head, half the declared payload, then silence.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"query\":")
        .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 408, "truncated body answers 408 after the timeout");

    // Slow loris: drip the request line one byte at a time, slower than the
    // read timeout refreshes. A mid-request stall is answered 408.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /hea").unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 408, "stalled head answers 408 after the timeout");

    // An *idle* keep-alive connection (no bytes of a next request) is closed
    // quietly — no 408 spam for normal connection churn.
    let mut stream = TcpStream::connect(addr).unwrap();
    let (status, _) = roundtrip(&mut stream, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(300));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle close sends no bytes: {rest:?}");
    server.shutdown();
}

#[test]
fn keep_alive_reuse_and_pipelining_preserve_order() {
    let g = graph();
    let (server, handle) = spawn(&g, 1, HttpConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Sequential reuse on one connection.
    let (status, first) = post(
        &mut stream,
        "/query",
        r#"{"query":{"type":"pair","s":0,"t":150}}"#,
    );
    assert_eq!(status, 200, "{first}");
    let (status, second) = post(
        &mut stream,
        "/query",
        r#"{"query":{"type":"pair","s":0,"t":150}}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(
        value_bits(&first),
        value_bits(&second),
        "cache repeat, same bits"
    );

    // Pipelining: two requests written back to back before reading anything;
    // responses must come back complete and in order.
    let a = r#"{"query":{"type":"pair","s":1,"t":100}}"#;
    let b = r#"{"query":{"type":"single_source","source":3}}"#;
    let pipelined = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{a}POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{b}",
        a.len(),
        b.len()
    );
    stream.write_all(pipelined.as_bytes()).unwrap();
    let (status_a, reply_a) = read_response(&mut stream);
    let (status_b, reply_b) = read_response(&mut stream);
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(value_bits(&reply_a).len(), 1, "pair answered first");
    assert!(
        value_bits(&reply_b).len() > 1,
        "single-source answered second"
    );

    // HTTP/1.0 without keep-alive closes after one response.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "HTTP/1.0 connection closed after the response"
    );

    server.shutdown();
    assert!(handle.stats().submitted >= 4);
}

#[test]
fn session_headers_set_connection_defaults() {
    let g = graph();
    let (server, _) = spawn(&g, 1, HttpConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Set a backend default for the connection; later bodies omit it.
    let body = r#"{"query":{"type":"pair","s":2,"t":120}}"#;
    let raw = format!(
        "POST /query HTTP/1.1\r\nX-ER-Backend: geer\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, reply) = roundtrip(&mut stream, &raw);
    assert_eq!(status, 200, "{reply}");
    let doc = Json::parse(&reply).unwrap();
    assert_eq!(doc.get("backend").and_then(Json::as_str), Some("GEER"));

    // The default persists across keep-alive requests on this connection…
    let (status, reply) = post(
        &mut stream,
        "/query",
        r#"{"query":{"type":"pair","s":4,"t":77}}"#,
    );
    assert_eq!(status, 200);
    let doc = Json::parse(&reply).unwrap();
    assert_eq!(doc.get("backend").and_then(Json::as_str), Some("GEER"));

    // …an explicit body field overrides it…
    let (status, reply) = post(
        &mut stream,
        "/query",
        r#"{"query":{"type":"pair","s":4,"t":77},"backend":"amc"}"#,
    );
    assert_eq!(status, 200);
    let doc = Json::parse(&reply).unwrap();
    assert_eq!(doc.get("backend").and_then(Json::as_str), Some("AMC"));

    // …and `auto` clears it back to planner routing.
    let raw = format!(
        "POST /query HTTP/1.1\r\nX-ER-Backend: auto\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, _) = roundtrip(&mut stream, &raw);
    assert_eq!(status, 200);

    // Bad header values are a 400 without killing the connection.
    let raw = format!(
        "POST /query HTTP/1.1\r\nX-ER-Priority: urgent\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, reply) = roundtrip(&mut stream, &raw);
    assert_eq!(status, 400);
    assert_eq!(error_kind(&reply), "bad_session_header");
    let (status, _) = roundtrip(&mut stream, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200, "connection survives a bad session header");
    server.shutdown();
}

#[test]
fn overload_maps_to_503_and_lapsed_deadline_to_504() {
    let g = graph();
    let (server, handle) = spawn_with(
        &g,
        ServerConfig {
            workers: 1,
            queue_depth: 2,
            start_paused: true,
        },
        HttpConfig::default(),
    );
    let addr = server.local_addr();

    // Fill the depth-2 queue in-process while paused; a third distinct HTTP
    // submit must bounce with 503.
    let a = handle.submit(Request::new(Query::pair(0, 100))).unwrap();
    let b = handle.submit(Request::new(Query::pair(0, 101))).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    let (status, reply) = post(
        &mut stream,
        "/query",
        r#"{"query":{"type":"pair","s":0,"t":102}}"#,
    );
    assert_eq!(status, 503, "{reply}");
    assert_eq!(error_kind(&reply), "overloaded");
    handle.resume();
    assert!(a.wait().unwrap().value() > 0.0);
    assert!(b.wait().unwrap().value() > 0.0);
    assert_eq!(handle.stats().rejected_overloaded, 1);
    server.shutdown();

    // A queued job whose deadline lapses before pickup answers 504: submit
    // against a *paused* server with a 1 ms deadline, let it lapse, resume.
    let (server, handle) = spawn_with(
        &g,
        ServerConfig {
            workers: 1,
            start_paused: true,
            ..ServerConfig::default()
        },
        HttpConfig::default(),
    );
    let addr = server.local_addr();
    let body = r#"{"query":{"type":"pair","s":0,"t":103}}"#;
    let raw = format!(
        "POST /query HTTP/1.1\r\nX-ER-Deadline-Ms: 1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let deadline_client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        roundtrip(&mut stream, &raw)
    });
    while handle.pending() < 1 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
    handle.resume();
    let (status, reply) = deadline_client.join().unwrap();
    assert_eq!(status, 504, "{reply}");
    assert_eq!(error_kind(&reply), "deadline_exceeded");
    assert_eq!(handle.stats().expired, 1);
    server.shutdown();
}

/// The request mix for wire-vs-in-process bit-identity: explicit backends
/// (arrival-order invariant — same exclusions as `tests/server.rs`), mixed
/// shapes, a cache repeat.
fn identity_bodies() -> Vec<String> {
    vec![
        r#"{"query":{"type":"pair","s":0,"t":150},"backend":"geer"}"#.into(),
        r#"{"query":{"type":"batch","pairs":[[1,2],[5,199],[9,9]]},"backend":"amc"}"#.into(),
        r#"{"query":{"type":"pair","s":3,"t":180},"accuracy":{"type":"walk_budget","walks":20000},"backend":"geer"}"#.into(),
        r#"{"query":{"type":"single_source","source":42}}"#.into(),
        r#"{"query":{"type":"top_k","source":42,"k":5}}"#.into(),
        r#"{"query":{"type":"pair","s":17,"t":120}}"#.into(),
        r#"{"query":{"type":"pair","s":150,"t":0},"backend":"geer"}"#.into(),
    ]
}

#[test]
fn concurrent_clients_see_in_process_bits_at_any_worker_count() {
    use effective_resistance::http::api::parse_query_body;
    use std::sync::{Arc, Mutex};

    let g = graph();
    let bodies = identity_bodies();
    // In-process ground truth through the same body parser the server uses.
    let baseline: Vec<Vec<u64>> = {
        let s = service(&g);
        bodies
            .iter()
            .map(|body| {
                let request = parse_query_body(body).unwrap();
                s.submit(&request)
                    .unwrap()
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    };

    for workers in [1usize, 2, 8] {
        let (server, _) = spawn(&g, workers, HttpConfig::default());
        let addr = server.local_addr();
        let results: Arc<Mutex<Vec<Option<Vec<u64>>>>> =
            Arc::new(Mutex::new(vec![None; bodies.len()]));
        let clients: Vec<_> = (0..4usize)
            .map(|c| {
                let mine: Vec<(usize, String)> = bodies
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 4 == c)
                    .map(|(i, b)| (i, b.clone()))
                    .collect();
                let results = Arc::clone(&results);
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    for (i, body) in mine {
                        let (status, reply) = post(&mut stream, "/query", &body);
                        assert_eq!(status, 200, "{reply}");
                        results.lock().unwrap()[i] = Some(value_bits(&reply));
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        server.shutdown();
        let results = results.lock().unwrap();
        for (i, expected) in baseline.iter().enumerate() {
            assert_eq!(
                results[i].as_ref().expect("answered"),
                expected,
                "body {i} differs from in-process submit at {workers} workers"
            );
        }
    }
}

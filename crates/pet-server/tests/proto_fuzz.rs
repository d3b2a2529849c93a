//! Proptest fuzz of the wire protocol.
//!
//! The contract under attack: **any** request line — arbitrary bytes,
//! malformed JSON, truncated valid requests, out-of-range parameters —
//! yields a structured JSON error reply, never a panic and never a hung
//! connection. Exercised twice: in-process against [`parse_request`] (fast,
//! thousands of cases) and against a live server's sockets (real framing,
//! read timeouts as the hang detector). The generated-line fuzz
//! additionally asserts the live server answers each line with the bytes
//! an in-process deterministic [`ServiceCore`] gives the same line, so a
//! transport that changes any reply byte fails.

use pet_server::json::Json;
use pet_server::service::Dispatch;
use pet_server::{parse_request, serve, Client, ServerConfig, ServiceCore};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The configuration of the live server and of the in-process reference.
fn fuzz_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 16,
        deterministic: true,
        ..ServerConfig::default()
    }
}

/// One shared live server for the socket cases; leaked on purpose — the
/// process exit is its shutdown.
fn fuzz_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let handle = serve(&fuzz_config()).expect("bind fuzz server");
        let addr = handle.addr();
        std::mem::forget(handle);
        addr
    })
}

/// The reply an in-process deterministic core gives `line`, or `None` for
/// a blank line: the bytes every transport must reproduce.
fn reference_reply(line: &str) -> Option<String> {
    static CORE: OnceLock<ServiceCore> = OnceLock::new();
    let core = CORE.get_or_init(|| ServiceCore::new(&fuzz_config()));
    match core.handle_line(line.as_bytes())? {
        Dispatch::Reply(reply) => Some(reply),
        Dispatch::Work(request) => Some(core.execute_work(&request, Instant::now())),
        Dispatch::Shutdown { .. } => panic!("fuzz lines never ask for shutdown: {line:?}"),
    }
}

/// A valid request every mutation strategy starts from.
const VALID: &str = r#"{"id":"fuzz","verb":"estimate","tags":300,"rounds":4,"seed":7}"#;

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    client
}

/// Asserts the reply is one well-formed JSON object: an id echo (or null),
/// and either `ok:true` or a structured error code.
fn assert_structured(reply: &str) {
    let v = Json::parse(reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"));
    assert!(v.get("id").is_some(), "reply lacks id: {reply}");
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => {
            let code = v.get("error").and_then(Json::as_str).unwrap_or("");
            assert!(
                matches!(
                    code,
                    "bad_request"
                        | "overloaded"
                        | "deadline_exceeded"
                        | "shutting_down"
                        | "internal"
                ),
                "unknown error code in {reply}"
            );
        }
        None => panic!("reply lacks ok flag: {reply}"),
    }
}

/// Tiny splitmix64 so one `u64` seed drives a whole generated line (the
/// vendored proptest intentionally has no string/oneof strategies).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// JSON-ish line mutations: raw garbage, truncations of a valid request,
/// random field soup, and single-byte corruptions of a valid request.
/// Newlines never appear (they would be two protocol lines).
fn build_line(kind: usize, seed: u64) -> String {
    let mut s = seed;
    match kind {
        // Raw garbage over a nasty palette (quotes, braces, unicode,
        // control-adjacent bytes).
        0 => {
            const PALETTE: &[char] = &[
                '{', '}', '[', ']', '"', '\\', ':', ',', '-', '.', 'e', '0', '7', 'a', 'z', ' ',
                '\t', '\u{0}', '\u{1b}', 'é', '💥', '\u{7f}',
            ];
            let len = (mix(&mut s) % 48) as usize;
            (0..len)
                .map(|_| PALETTE[(mix(&mut s) as usize) % PALETTE.len()])
                .collect()
        }
        // Truncation of a valid request at an arbitrary char boundary.
        1 => {
            let cut = (mix(&mut s) as usize) % (VALID.len() + 1);
            let mut line = VALID.to_string();
            line.truncate(cut); // VALID is ASCII, every cut is a boundary
            line
        }
        // Field soup: a JSON object with known + random keys and scalar
        // values in random positions.
        2 => {
            const KEYS: &[&str] = &[
                "id",
                "verb",
                "tags",
                "rounds",
                "seed",
                "deadline_ms",
                "miss",
                "false_busy",
                "probes",
                "trim",
                "epsilon",
                "delta",
                "backend",
                "runs",
                "zzz",
            ];
            const VALUES: &[&str] = &[
                "null",
                "true",
                "false",
                "0",
                "-1",
                "2.5",
                "1e308",
                "10000001",
                "\"estimate\"",
                "\"robustness\"",
                "\"oracle\"",
                "\"\"",
                "\"x\"",
                "[]",
                "{}",
                "[0,0.5]",
            ];
            let fields = (mix(&mut s) % 8) as usize;
            let body: Vec<String> = (0..fields)
                .map(|_| {
                    let k = KEYS[(mix(&mut s) as usize) % KEYS.len()];
                    let v = VALUES[(mix(&mut s) as usize) % VALUES.len()];
                    format!("\"{k}\":{v}")
                })
                .collect();
            format!("{{{}}}", body.join(","))
        }
        // Single-byte corruption of a valid request.
        _ => {
            let mut bytes = VALID.as_bytes().to_vec();
            let at = (mix(&mut s) as usize) % bytes.len();
            bytes[at] = (mix(&mut s) % 0x7f) as u8;
            bytes
                .into_iter()
                .map(|b| if b == b'\n' || b == b'\r' { b' ' } else { b })
                .map(char::from)
                .collect()
        }
    }
}

fn line_strategy() -> impl Strategy<Value = String> {
    (0..4usize, any::<u64>()).prop_map(|(kind, seed)| build_line(kind, seed))
}

proptest! {
    /// The parser itself never panics and classifies every line: either a
    /// well-formed request or an error with a non-empty detail.
    #[test]
    fn parse_request_never_panics(line in line_strategy()) {
        match parse_request(&line) {
            Ok(req) => prop_assert!(!req.id.is_empty()),
            Err(e) => prop_assert!(!e.detail.is_empty(), "empty error detail for {line:?}"),
        }
    }

    /// A live server: any single line gets exactly one structured reply,
    /// the connection stays usable for a valid request afterwards, and —
    /// the server being deterministic — every reply is byte-identical to
    /// the in-process core's reply to the same line.
    #[test]
    fn live_servers_reply_structurally_and_identically_to_garbage(line in line_strategy()) {
        let payload: String = line.chars().filter(|c| *c != '\n' && *c != '\r').collect();
        let mut client = connect(fuzz_server());
        // Blank (all-whitespace) lines are tolerated silently; everything
        // else replies.
        if let Some(expected) = reference_reply(&payload) {
            let reply = client.roundtrip(&payload).expect("one reply per line");
            assert_structured(&reply);
            prop_assert_eq!(&reply, &expected, "transport changed the reply to {:?}", payload);
        }
        // The connection is not wedged: a valid request still works.
        let reply = client.roundtrip(VALID).expect("connection still usable");
        assert_structured(&reply);
        prop_assert!(reply.contains("\"ok\":true"), "valid request failed: {reply}");
        prop_assert_eq!(Some(reply), reference_reply(VALID));
    }
}

#[test]
fn truncated_requests_all_reply_with_bad_request() {
    // Every strict prefix of a valid request is malformed; the server must
    // answer each one on the same connection without dropping it.
    let mut client = connect(fuzz_server());
    for cut in 1..VALID.len() {
        if !VALID.is_char_boundary(cut) {
            continue;
        }
        let reply = client
            .roundtrip(&VALID[..cut])
            .expect("reply to truncated request");
        assert_structured(&reply);
        assert!(
            reply.contains("\"error\":\"bad_request\""),
            "prefix {cut}: {reply}"
        );
    }
    let reply = client.roundtrip(VALID).expect("full request");
    assert!(reply.contains("\"ok\":true"), "{reply}");
}

#[test]
fn oversized_line_is_refused_then_connection_closed() {
    let mut client = connect(fuzz_server());
    let huge = format!(
        r#"{{"id":"big","verb":"estimate","tags":10,"pad":"{}"}}"#,
        "x".repeat(pet_server::MAX_LINE_BYTES)
    );
    let reply = client.roundtrip(&huge).expect("structured refusal first");
    assert_structured(&reply);
    assert!(reply.contains("\"error\":\"bad_request\""), "{reply}");
    // After an oversized line the server drops the connection (framing
    // is unrecoverable): the next roundtrip fails instead of hanging.
    assert!(client.roundtrip(VALID).is_err());
}

#[test]
fn non_utf8_bytes_get_a_structured_reply() {
    let mut client = connect(fuzz_server());
    client
        .send_raw(&[0xff, 0xfe, 0x80, b'{', b'}', b'\n'])
        .expect("send raw bytes");
    let reply = client.read_reply().expect("reply to non-UTF-8 line");
    assert_structured(&reply);
    assert!(reply.contains("\"error\":\"bad_request\""), "{reply}");
    // Framing intact: valid traffic continues on the same connection.
    let reply = client.roundtrip(VALID).expect("still usable");
    assert!(reply.contains("\"ok\":true"), "{reply}");
}

#[test]
fn adversarial_parameter_corners_are_rejected_not_executed() {
    let cases = [
        // Over-limit work requests must be refused up front.
        r#"{"id":"big","verb":"estimate","tags":10000001}"#,
        r#"{"id":"big","verb":"estimate","tags":100,"rounds":1000001}"#,
        r#"{"id":"big","verb":"robustness","runs":257}"#,
        // Contradictory / out-of-domain knobs.
        r#"{"id":"x","verb":"estimate","tags":100,"probes":2,"trim":1}"#,
        r#"{"id":"x","verb":"estimate","tags":100,"miss":1.5}"#,
        r#"{"id":"x","verb":"estimate","tags":100,"epsilon":0}"#,
        r#"{"id":"x","verb":"estimate","tags":0}"#,
        r#"{"id":"x","verb":"estimate","tags":-5}"#,
        r#"{"id":"x","verb":"estimate","tags":2.5}"#,
        // Structural abuse.
        r#"{"id":"x","verb":"estimate","tags":100,"tags":200}"#,
        r#"{"id":"","verb":"estimate","tags":100}"#,
        r#"{"id":42,"verb":"estimate","tags":100}"#,
        r#"{"verb":"estimate","tags":100}"#,
        r#"{"id":"x","verb":"launch-missiles"}"#,
        r#"{"id":"x"}"#,
        r#"[1,2,3]"#,
        r#""just a string""#,
        "null",
        r#"{"id":"x","verb":"estimate","tags":1e309}"#,
        r#"{"id":"x","verb":"estimate","deadline_ms":0,"tags":10}"#,
    ];
    let mut client = connect(fuzz_server());
    for line in cases {
        let reply = client.roundtrip(line).expect("reply");
        assert_structured(&reply);
        assert!(
            reply.contains("\"error\":\"bad_request\""),
            "{line} => {reply}"
        );
    }
    let reply = client.roundtrip(VALID).expect("still usable");
    assert!(reply.contains("\"ok\":true"), "{reply}");
}

//! Estimation as a service: a warehouse back-end asking one PET server
//! for concurrent cardinality estimates.
//!
//! Three dock controllers each query the shared estimation service over
//! TCP — different population sizes, one over a lossy channel with
//! re-probe mitigation — while a fourth connection watches the RED
//! metrics. The server runs deterministically, so this example prints the
//! same estimates on every machine.
//!
//! Run with: `cargo run --example estimation_service`

use pet::server::json::Json;
use pet::server::{serve, Client, ServerConfig};
use std::time::Duration;

fn main() {
    let handle = serve(&ServerConfig {
        workers: 2,
        queue_capacity: 16,
        deterministic: true,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.addr();
    println!("estimation service on {addr}\n");

    // Three dock controllers, each on its own connection and thread.
    let docks = [
        (
            "dock-a",
            r#"{"id":"dock-a","verb":"estimate","tags":30000,"rounds":128}"#,
        ),
        (
            "dock-b",
            r#"{"id":"dock-b","verb":"estimate","tags":12000,"rounds":128}"#,
        ),
        (
            "dock-c",
            r#"{"id":"dock-c","verb":"estimate","tags":8000,"rounds":128,"miss":0.05,"probes":2}"#,
        ),
    ];
    let replies: Vec<(&str, String)> = std::thread::scope(|scope| {
        docks
            .map(|(name, line)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("timeout");
                    (name, client.roundtrip(line).expect("reply"))
                })
            })
            .map(|h| h.join().expect("dock thread"))
            .into_iter()
            .collect()
    });
    for (name, reply) in &replies {
        let v = Json::parse(reply).expect("reply is JSON");
        println!(
            "{name}: estimate {:>8.0} in {} slots",
            v.get("estimate").and_then(Json::as_f64).unwrap_or(f64::NAN),
            v.get("slots").and_then(Json::as_u64).unwrap_or(0),
        );
    }

    // The service self-reports its RED metrics over the same protocol.
    let mut admin = Client::connect(addr).expect("connect admin");
    admin
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let snapshot = admin
        .roundtrip(r#"{"id":"snap","verb":"telemetry-snapshot"}"#)
        .expect("snapshot");
    let v = Json::parse(&snapshot).expect("snapshot is JSON");
    let counters = v.get("snapshot").and_then(|s| s.get("counters"));
    println!(
        "\nserved {} estimates, {} errors",
        counters
            .and_then(|c| c.get("server.req.estimate"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        counters
            .and_then(|c| c.get("server.overload"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
    );

    // Graceful shutdown: queued work drains before the socket closes.
    let ack = admin
        .roundtrip(r#"{"id":"bye","verb":"shutdown"}"#)
        .expect("shutdown ack");
    assert!(ack.contains("\"drained\":true"));
    handle.join();
    println!("service drained and stopped");
}

//! A server's threads are fixed by its shard count, and an idle server
//! costs no CPU.
//!
//! One test, alone in its binary, so no other test's threads run while it
//! reads the process's CPU time and thread count from `/proc/self`.

#![cfg(target_os = "linux")]

use pet_server::{serve, Client, ServerConfig};
use std::sync::mpsc;
use std::time::Duration;

/// User plus system CPU time of this process, in clock ticks
/// (`/proc/self/stat` fields 14 and 15).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the fields after it start with the
    // state (field 3), so utime and stime sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("tick count");
    tick(11) + tick(12)
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn shards_park_and_connections_add_no_threads() {
    let config = ServerConfig::default();
    assert_eq!(config.workers, 4, "the default server runs 4 shards");
    let handle = serve(&config).expect("bind ephemeral port");

    // No client: every shard owns nothing, so all of them park.
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let idle = cpu_ticks() - before;
    assert!(
        idle <= 2,
        "an idle 4-shard server used {idle} CPU ticks in 1 s"
    );

    let threads = thread_count();
    let mut clients: Vec<Client> = (0..64)
        .map(|_| Client::connect(handle.addr()).expect("connect"))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reply = client
            .roundtrip(&format!(
                r#"{{"id":"c{i}","verb":"estimate","tags":200,"rounds":4}}"#
            ))
            .expect("reply");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    assert_eq!(
        thread_count(),
        threads,
        "64 open connections must not add threads"
    );

    let (done, finished) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        handle.shutdown();
        handle.join();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown and join return within 5 s");
    stopper.join().expect("shutdown thread");
    drop(clients);
}

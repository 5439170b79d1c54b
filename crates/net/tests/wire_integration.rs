//! Live-socket integration tests for the wire front-end: graceful drain
//! under sustained load, rerun determinism of chaos runs, and conservation
//! under overload. Every test boots a real `WireServer` on a loopback
//! port, talks real HTTP over real TCP, and shuts the server down,
//! asserting no accept or engine thread leaks (`threads_joined` accounts
//! for every spawned thread).

use harvest_imaging::{ajpg_encode, AjpgOptions, RgbImage};
use harvest_net::{parse_response, run_loadgen, HttpLimits, LoadgenConfig, WireConfig, WireServer};
use harvest_simkit::SocketFaultPlan;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A small decodable test image, deterministic per `salt`.
fn image_body(salt: u64) -> Vec<u8> {
    let side = 16;
    let mut img = RgbImage::new(side, side);
    for y in 0..side {
        for x in 0..side {
            let v = ((x * 17 + y * 29) as u64 + salt * 31) % 256;
            img.put(
                x,
                y,
                [
                    v as u8,
                    (v as u8).wrapping_add(85),
                    (v as u8).wrapping_add(170),
                ],
            );
        }
    }
    ajpg_encode(&img, &AjpgOptions::default())
}

/// One connection, one classify POST, first response status.
fn classify_once(addr: std::net::SocketAddr, body: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut req = format!(
        "POST /classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req).expect("send");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((status, _)) = parse_response(&buf, &HttpLimits::default()).expect("response") {
            return status;
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed before a complete response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One connection, one raw request; returns (status, full response text).
fn request_once(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req).expect("send");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((status, _)) = parse_response(&buf, &HttpLimits::default()).expect("response") {
            return (status, String::from_utf8_lossy(&buf).into_owned());
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed before a complete response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Serialize fresh weights for the wire's served model.
fn artifact_for(model: &harvest_models::VitConfig, seed: u64) -> Vec<u8> {
    let g = harvest_models::vit("artifact", model);
    harvest_engine::encode_artifact(&harvest_engine::MaterializedWeights::new(
        &g,
        &harvest_engine::WeightStore::new(seed),
        false,
    ))
}

/// Pull one `name value` line out of a `/metrics` snapshot.
fn metric_line<'t>(text: &'t str, name: &str) -> &'t str {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
}

#[test]
fn drain_flips_requests_to_503_and_shutdown_joins_every_thread() {
    let server = WireServer::start(WireConfig {
        accept_threads: 2,
        ..WireConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let body = image_body(1);

    // Phase 1: before the drain every valid request classifies.
    for _ in 0..4 {
        assert_eq!(classify_once(addr, &body), 200);
    }
    server.begin_drain();
    // Phase 2: after the drain every request draws an explicit 503 —
    // never a dropped connection, never silence.
    for _ in 0..4 {
        assert_eq!(classify_once(addr, &body), 503);
    }

    let report = server.shutdown();
    assert_eq!(
        report.threads_joined, 3,
        "2 accept loops + 1 engine thread, no leaks"
    );
    assert!(report.stats.conserved(), "ledger: {:?}", report.stats);
    assert_eq!(report.stats.accepted, 8);
    assert_eq!(report.stats.responded_ok, 4);
    assert_eq!(report.stats.rejected, 4);
    assert_eq!(report.stats.shed, 0);
    assert_eq!(report.stats.responded_error, 0);
}

#[test]
fn drain_mid_burst_answers_every_request_exactly_once() {
    let server = WireServer::start(WireConfig {
        accept_threads: 3,
        ..WireConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let draining = Arc::new(AtomicBool::new(false));

    // Sustained load: 4 client threads, each sending back to back until its
    // first 503. No sleep decides where the drain lands: every 200 is
    // reported on a channel and the drain is flipped once DRAIN_AFTER of
    // them have been seen, so it is mid-burst however fast the server is.
    const DRAIN_AFTER: usize = 12;
    const MAX_PER_CLIENT: usize = 5_000;
    let (ok_tx, ok_rx) = std::sync::mpsc::channel::<()>();
    let workers: Vec<_> = (0..4u64)
        .map(|w| {
            let draining = Arc::clone(&draining);
            let ok_tx = ok_tx.clone();
            std::thread::spawn(move || {
                let body = image_body(w);
                let mut statuses = Vec::new();
                for _ in 0..MAX_PER_CLIENT {
                    let drain_was_on = draining.load(Ordering::SeqCst);
                    let status = classify_once(addr, &body);
                    statuses.push((status, drain_was_on));
                    if status != 200 {
                        break;
                    }
                    let _ = ok_tx.send(());
                }
                statuses
            })
        })
        .collect();
    for _ in 0..DRAIN_AFTER {
        ok_rx.recv().expect("a client reports each 200");
    }
    server.begin_drain();
    draining.store(true, Ordering::SeqCst);

    let mut all: Vec<(u16, bool)> = Vec::new();
    for w in workers {
        let statuses = w.join().expect("client thread");
        assert_eq!(
            statuses.last().map(|&(s, _)| s),
            Some(503),
            "every client runs into the drain"
        );
        all.extend(statuses);
    }
    for &(status, drain_was_on) in &all {
        assert!(
            status == 200 || status == 503,
            "only success or explicit rejection, got {status}"
        );
        if drain_was_on {
            // A request issued after the drain flag was visibly set can
            // never classify: the server rejects before admission.
            assert_eq!(status, 503, "post-drain request must be rejected");
        }
    }
    let ok = all.iter().filter(|&&(s, _)| s == 200).count() as u64;
    let rejected = all.iter().filter(|&&(s, _)| s == 503).count() as u64;
    assert!(
        ok >= DRAIN_AFTER as u64,
        "the drain waited for {DRAIN_AFTER}"
    );
    assert_eq!(rejected, 4, "each client stops at its first 503");

    let report = server.shutdown();
    assert_eq!(report.threads_joined, 4, "3 accept loops + 1 engine");
    assert!(report.stats.conserved(), "ledger: {:?}", report.stats);
    assert_eq!(
        report.stats.accepted,
        all.len() as u64,
        "every request produced exactly one response"
    );
    assert_eq!(report.stats.responded_ok, ok);
    assert_eq!(report.stats.rejected + report.stats.shed, rejected);
}

#[test]
fn chaos_runs_replay_to_the_same_fingerprint_on_fresh_servers() {
    let plan = SocketFaultPlan::new(4242)
        .with_resets(0.1)
        .with_truncations(0.1)
        .with_garbling(0.1)
        .with_stalls(0.05, 350)
        .with_short_chunks();
    let config = LoadgenConfig {
        requests: 32,
        client_threads: 8,
        plan,
        ..LoadgenConfig::default()
    };

    let mut fingerprints = Vec::new();
    let mut snapshots = Vec::new();
    for _ in 0..2 {
        let server = WireServer::start(WireConfig::default()).expect("start");
        let report = run_loadgen(server.addr(), &config);
        let drain = server.shutdown();
        assert!(report.conserved(), "client ledger must conserve");
        assert_eq!(report.lost, 0);
        assert_eq!(report.dup, 0);
        assert_eq!(report.client_errors, 0);
        assert!(drain.stats.conserved(), "server ledger: {:?}", drain.stats);
        assert_eq!(drain.threads_joined, 5);
        fingerprints.push(report.fingerprint);
        snapshots.push(drain.stats);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "same seed, fresh server → identical outcome fingerprint"
    );
    assert_eq!(
        snapshots[0], snapshots[1],
        "server-side ledger replays exactly too"
    );
}

#[test]
fn pipelined_loadgen_saturates_a_wide_pool_and_conserves() {
    // Saturation mode: parallel client workers, each connection carrying a
    // pipeline of classify requests, against a width-8 engine pool.
    let server = WireServer::start(WireConfig {
        accept_threads: 4,
        engine_workers: 8,
        ..WireConfig::default()
    })
    .expect("start");
    let report = run_loadgen(
        server.addr(),
        &LoadgenConfig {
            requests: 8,
            client_threads: 4,
            requests_per_connection: 4,
            ..LoadgenConfig::default()
        },
    );
    let drain = server.shutdown();
    assert!(report.conserved(), "client ledger: {report:?}");
    assert_eq!(report.requests, 32, "8 connections × 4 pipelined");
    assert_eq!(report.responded, 32, "{report:?}");
    assert_eq!(report.statuses, vec![(200, 32)], "{report:?}");
    assert!(drain.stats.conserved(), "server ledger: {:?}", drain.stats);
    assert_eq!(drain.stats.accepted, 32);
    assert_eq!(drain.stats.responded_ok, 32);
    assert_eq!(drain.stats.connections, 8, "keep-alive reused each socket");

    // Deterministic mode survives pipelining: a single client thread
    // replays to the same fingerprint on a fresh server.
    let det = LoadgenConfig {
        requests: 6,
        client_threads: 1,
        requests_per_connection: 3,
        ..LoadgenConfig::default()
    };
    let mut fingerprints = Vec::new();
    for _ in 0..2 {
        let server = WireServer::start(WireConfig {
            engine_workers: 2,
            ..WireConfig::default()
        })
        .expect("start");
        let report = run_loadgen(server.addr(), &det);
        assert!(report.conserved(), "{report:?}");
        server.shutdown();
        fingerprints.push(report.fingerprint);
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
}

#[test]
fn swap_then_drain_completes_the_swap_and_replays_identically() {
    // Swap before drain: the swap lands, the drain follows, and a swap
    // attempted *after* the drain is an explicit 503. The whole
    // interleaving is deterministic — two fresh servers replay the same
    // statuses, the same metrics lines, and the same server ledger.
    let mut runs = Vec::new();
    for _ in 0..2 {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let body = image_body(1);
        let artifact = artifact_for(&server.config().model, 99);

        assert_eq!(classify_once(addr, &body), 200);
        let (status, text) = request_once(addr, "POST", "/admin/swap", &artifact);
        assert_eq!(status, 200, "swap before drain lands: {text}");
        server.begin_drain();
        // The swap is already published; draining only refuses new work.
        let (status, _) = request_once(
            addr,
            "POST",
            "/admin/swap",
            &artifact_for(&server.config().model, 5),
        );
        assert_eq!(status, 503, "swap after drain is refused");
        assert_eq!(classify_once(addr, &body), 503);

        let (status, metrics) = request_once(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        assert_eq!(
            metric_line(&metrics, "generation_current"),
            "generation_current 1"
        );
        assert_eq!(metric_line(&metrics, "swaps_total"), "swaps_total 1");
        assert_eq!(
            metric_line(&metrics, "rollbacks_total"),
            "rollbacks_total 0"
        );
        assert_eq!(metric_line(&metrics, "wire_draining"), "wire_draining 1");
        let fingerprint = metric_line(&metrics, "generation_current_fingerprint").to_string();

        let report = server.shutdown();
        assert_eq!(report.threads_joined, 2, "1 accept loop + 1 engine");
        assert!(report.stats.conserved(), "ledger: {:?}", report.stats);
        runs.push((fingerprint, report.stats));
    }
    assert_eq!(
        runs[0], runs[1],
        "swap→drain interleaving replays bit-for-bit"
    );
}

#[test]
fn drain_then_swap_aborts_the_swap_and_replays_identically() {
    // Drain before swap: the swap must abort — deterministically, with an
    // explicit 503 — and the boot generation keeps serving the flush.
    let mut runs = Vec::new();
    for _ in 0..2 {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let body = image_body(1);
        let artifact = artifact_for(&server.config().model, 99);

        assert_eq!(classify_once(addr, &body), 200);
        server.begin_drain();
        let (status, text) = request_once(addr, "POST", "/admin/swap", &artifact);
        assert_eq!(status, 503, "swap during drain aborts: {text}");

        let (status, metrics) = request_once(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        assert_eq!(
            metric_line(&metrics, "generation_current"),
            "generation_current 0"
        );
        assert_eq!(metric_line(&metrics, "swaps_total"), "swaps_total 0");
        assert_eq!(
            metric_line(&metrics, "rejected_loads_total"),
            "rejected_loads_total 0",
            "an aborted swap is a refusal, not a bad artifact"
        );
        let fingerprint = metric_line(&metrics, "generation_current_fingerprint").to_string();

        let report = server.shutdown();
        assert_eq!(report.threads_joined, 2, "1 accept loop + 1 engine");
        assert!(report.stats.conserved(), "ledger: {:?}", report.stats);
        runs.push((fingerprint, report.stats));
    }
    assert_eq!(
        runs[0], runs[1],
        "drain→swap interleaving replays bit-for-bit"
    );
}

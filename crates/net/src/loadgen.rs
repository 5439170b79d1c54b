//! Deterministic chaos load generator for the wire front-end.
//!
//! Drives N connections at a [`crate::WireServer`] through
//! `FaultySocket` (the crate's chaos transport), so every connection acts out the fate its
//! [`SocketFaultPlan`] assigns: clean exchange, mid-request reset,
//! truncation + half-close, one garbled byte, or a stall past the server's
//! read deadline. The client keeps a ledger per connection and the report
//! aggregates it **in connection order**, so two runs with the same seed
//! produce the same counters and the same outcome fingerprint —
//! wall-clock-dependent quantities (latencies, batch sizes) are kept out
//! of the fingerprint by construction.
//!
//! Two operating modes share this machinery:
//!
//! * **Deterministic fingerprint** (`client_threads: 1`, one request per
//!   connection): connections run one at a time, so batch compositions and
//!   the server-side ledger replay exactly — this is the width-invariance
//!   gate's probe.
//! * **Saturation** (`client_threads > 1` and/or
//!   `requests_per_connection > 1`): parallel client workers drive
//!   keep-alive connections that pipeline several classify requests each,
//!   enough concurrent work to keep a width-8 engine pool busy. The
//!   fingerprint stays order-deterministic (per-connection entries are
//!   merged in connection order), though batch sizes and latencies vary
//!   with scheduling.
//!
//! Pipelining applies to *clean* connections only: the chaos fates model a
//! single damaged exchange, so connections drawing a fault keep the
//! one-request shape.
//!
//! Client-side conservation:
//!
//! * every fully sent request must draw at least one response (`lost`
//!   counts the misses),
//! * every *clean* connection must draw exactly one (`dup` counts
//!   extras — a garbled request may legitimately split into two requests
//!   server-side, so only clean connections assert uniqueness),
//! * cut connections (reset/truncate/stall) must never see their request
//!   answered with a 200 — the chaos transport never leaks a complete
//!   request past the cut.

use crate::chaos::FaultySocket;
use crate::http::{parse_response, HttpLimits};
use harvest_imaging::{ajpg_encode, rtif_encode, AjpgOptions, RgbImage};
use harvest_simkit::fault::{SocketFate, SocketFaultPlan};
use harvest_tensor::integrity::{fnv1a_fold, FNV_OFFSET};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Load-generation knobs.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Connections to drive.
    pub requests: u64,
    /// Parallel client workers.
    pub client_threads: usize,
    /// Classify POSTs pipelined on each *clean* keep-alive connection
    /// (connections drawing a chaos fate always carry one). `0` is treated
    /// as `1`. Raising this multiplies offered load without more sockets —
    /// the saturation knob for wide engine pools.
    pub requests_per_connection: u64,
    /// The chaos plan every connection consults.
    pub plan: SocketFaultPlan,
    /// Client-side deadline waiting for a response, milliseconds. Must
    /// comfortably exceed the server's read deadline so "server answered
    /// late" never masquerades as "lost".
    pub response_timeout_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 64,
            client_threads: 8,
            requests_per_connection: 1,
            plan: SocketFaultPlan::none(),
            response_timeout_ms: 10_000,
        }
    }
}

/// How many connections drew each fate (pure plan arithmetic — computable
/// without touching the network, which is what makes them artifact-safe).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FateCounts {
    /// Undamaged exchanges.
    pub clean: u64,
    /// Mid-request connection resets.
    pub reset: u64,
    /// Truncations (half-close after a prefix).
    pub truncate: u64,
    /// Single-byte in-flight corruptions.
    pub garble: u64,
    /// Stalls past the server's read deadline.
    pub stall: u64,
}

/// What one run of the loadgen observed.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests attempted — equals the connection count unless clean
    /// connections pipelined more than one.
    pub requests: u64,
    /// Plan-assigned fates.
    pub fates: FateCounts,
    /// Requests fully written to the wire (clean + garble fates).
    pub sent: u64,
    /// Requests cut mid-send by the chaos transport.
    pub cut: u64,
    /// Fully sent requests that drew at least one response.
    pub responded: u64,
    /// First-response status histogram, ascending status order.
    pub statuses: Vec<(u16, u64)>,
    /// Class histogram over 200 responses, ascending class order.
    pub classes: Vec<(i64, u64)>,
    /// Fully sent requests that drew no response.
    pub lost: u64,
    /// Clean connections that drew more than one response.
    pub dup: u64,
    /// Connections that failed in ways the plan does not model (connect
    /// refusal, unexpected socket errors, malformed responses).
    pub client_errors: u64,
    /// FNV-1a fingerprint over `(conn, fate, sent, status, class)` in
    /// connection order — byte-identical across reruns of the same seed.
    pub fingerprint: u64,
    /// Wall-clock latency of each responded request, milliseconds, in
    /// connection order. Real time — never part of the fingerprint.
    pub latencies_ms: Vec<f64>,
}

impl LoadgenReport {
    /// Did the client-side ledger balance?
    pub fn conserved(&self) -> bool {
        self.sent + self.cut == self.requests
            && self.responded + self.lost == self.sent
            && self.lost == 0
            && self.dup == 0
            && self.client_errors == 0
    }

    /// Latency percentile over the responded requests (0 when none).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }

    /// Histogram of latencies over [`LATENCY_BUCKETS_MS`]; the last bucket
    /// is the overflow.
    pub fn latency_histogram(&self) -> Vec<u64> {
        let mut counts = vec![0u64; LATENCY_BUCKETS_MS.len() + 1];
        for &ms in &self.latencies_ms {
            let slot = LATENCY_BUCKETS_MS
                .iter()
                .position(|&bound| ms <= bound)
                .unwrap_or(LATENCY_BUCKETS_MS.len());
            counts[slot] += 1;
        }
        counts
    }
}

/// Log-spaced latency bucket upper bounds, milliseconds.
pub const LATENCY_BUCKETS_MS: [f64; 13] = [
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
];

fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).floor() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The deterministic request body for connection `conn`: a small image in
/// one of the two container formats the frontend sniffs, with enough
/// variety to spread argmax classes around.
pub(crate) fn sample_body(conn: u64) -> Vec<u8> {
    let side = 16 + (conn % 3) as usize * 8;
    let img = if conn % 3 == 1 {
        RgbImage::solid(
            side,
            side,
            [
                (conn.wrapping_mul(37) % 251) as u8,
                (conn.wrapping_mul(101) % 241) as u8,
                (conn.wrapping_mul(11) % 239) as u8,
            ],
        )
    } else {
        RgbImage::checkerboard(side, side, 2 + (conn % 5) as usize)
    };
    if conn.is_multiple_of(2) {
        ajpg_encode(&img, &AjpgOptions::default())
    } else {
        rtif_encode(&img)
    }
}

/// A successor request on a pipelined clean connection.
#[derive(Clone, Debug)]
struct PipeEntry {
    sent: bool,
    status: Option<u16>,
    class: Option<i64>,
    latency_ms: Option<f64>,
}

/// One connection's observation, fed into the ordered aggregation.
#[derive(Clone, Debug)]
struct ConnResult {
    fate: SocketFate,
    sent: bool,
    /// First response status, if any arrived.
    status: Option<u16>,
    /// Parsed `"class"` field of a 200 body.
    class: Option<i64>,
    /// Responses observed beyond the expected count (clean connections
    /// only).
    extra_responses: u64,
    latency_ms: Option<f64>,
    client_error: bool,
    /// Requests 2..N of a pipelined clean connection, in send order.
    pipelined: Vec<PipeEntry>,
}

/// Drive `config.requests` connections at `addr` and aggregate the ledger.
pub fn run_loadgen(addr: SocketAddr, config: &LoadgenConfig) -> LoadgenReport {
    let n = config.requests as usize;
    let results: Vec<ConnResult> =
        harvest_threads::with_threads(config.client_threads.max(1), || {
            harvest_threads::par_map(n, |i| drive_connection(addr, i as u64, config))
        });

    let mut report = LoadgenReport {
        requests: config.requests,
        fates: FateCounts::default(),
        sent: 0,
        cut: 0,
        responded: 0,
        statuses: Vec::new(),
        classes: Vec::new(),
        lost: 0,
        dup: 0,
        client_errors: 0,
        fingerprint: FNV_OFFSET,
        latencies_ms: Vec::new(),
    };
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut classes: BTreeMap<i64, u64> = BTreeMap::new();
    for (conn, r) in results.iter().enumerate() {
        let fate_tag: u8 = match r.fate {
            SocketFate::Clean => {
                report.fates.clean += 1;
                0
            }
            SocketFate::Reset { .. } => {
                report.fates.reset += 1;
                1
            }
            SocketFate::Truncate { .. } => {
                report.fates.truncate += 1;
                2
            }
            SocketFate::Garble { .. } => {
                report.fates.garble += 1;
                3
            }
            SocketFate::Stall { .. } => {
                report.fates.stall += 1;
                4
            }
        };
        if r.client_error {
            report.client_errors += 1;
        }
        if r.sent {
            report.sent += 1;
            match r.status {
                Some(status) => {
                    report.responded += 1;
                    *statuses.entry(status).or_insert(0) += 1;
                    if status == 200 {
                        if let Some(class) = r.class {
                            *classes.entry(class).or_insert(0) += 1;
                        }
                    }
                }
                None => report.lost += 1,
            }
            if matches!(r.fate, SocketFate::Clean) && r.extra_responses > 0 {
                report.dup += 1;
            }
        } else {
            report.cut += 1;
        }
        if let Some(ms) = r.latency_ms {
            report.latencies_ms.push(ms);
        }
        fnv1a_fold(&mut report.fingerprint, &(conn as u64).to_le_bytes());
        fnv1a_fold(&mut report.fingerprint, &[fate_tag, r.sent as u8]);
        fnv1a_fold(
            &mut report.fingerprint,
            &r.status.unwrap_or(0).to_le_bytes(),
        );
        fnv1a_fold(
            &mut report.fingerprint,
            &r.class.unwrap_or(-1).to_le_bytes(),
        );
        // Pipelined successors follow their connection in the ledger and
        // the fingerprint, so the merged order stays deterministic no
        // matter which client thread drove the connection.
        for e in &r.pipelined {
            report.requests += 1;
            if e.sent {
                report.sent += 1;
                match e.status {
                    Some(status) => {
                        report.responded += 1;
                        *statuses.entry(status).or_insert(0) += 1;
                        if status == 200 {
                            if let Some(class) = e.class {
                                *classes.entry(class).or_insert(0) += 1;
                            }
                        }
                    }
                    None => report.lost += 1,
                }
            } else {
                report.cut += 1;
            }
            if let Some(ms) = e.latency_ms {
                report.latencies_ms.push(ms);
            }
            fnv1a_fold(&mut report.fingerprint, &(conn as u64).to_le_bytes());
            fnv1a_fold(&mut report.fingerprint, &[fate_tag, e.sent as u8]);
            fnv1a_fold(
                &mut report.fingerprint,
                &e.status.unwrap_or(0).to_le_bytes(),
            );
            fnv1a_fold(
                &mut report.fingerprint,
                &e.class.unwrap_or(-1).to_le_bytes(),
            );
        }
    }
    report.statuses = statuses.into_iter().collect();
    report.classes = classes.into_iter().collect();
    report
}

/// Act out one connection's fate against the server.
fn drive_connection(addr: SocketAddr, conn: u64, config: &LoadgenConfig) -> ConnResult {
    let body = sample_body(conn);
    let mut request = format!(
        "POST /classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    let fate = config.plan.fate(conn, request.len());
    let rpc = config.requests_per_connection.max(1);
    if rpc > 1 && matches!(fate, SocketFate::Clean) {
        return drive_pipelined(addr, conn, rpc, config);
    }
    let mut out = ConnResult {
        fate,
        sent: false,
        status: None,
        class: None,
        extra_responses: 0,
        latency_ms: None,
        client_error: false,
        pipelined: Vec::new(),
    };

    let t0 = Instant::now();
    let Ok(stream) = TcpStream::connect(addr) else {
        out.client_error = true;
        return out;
    };
    let timeout = Duration::from_millis(config.response_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let mut sock = FaultySocket::new(stream, config.plan, conn, request.len());

    // Write phase: push the request until done or the fate fires.
    let mut off = 0usize;
    while off < request.len() {
        match sock.write(&request[off..]) {
            Ok(n) => off += n,
            Err(e) => {
                match e.kind() {
                    std::io::ErrorKind::ConnectionReset => {
                        // Reset: vanish immediately.
                    }
                    std::io::ErrorKind::WriteZero => {
                        // Truncate: half-close so the server sees EOF with
                        // a partial request, then leave.
                        let _ = sock.get_ref().shutdown(Shutdown::Write);
                    }
                    std::io::ErrorKind::TimedOut => {
                        // Stall: go silent long enough for the server's
                        // read deadline to fire, never write again.
                        if let SocketFate::Stall { millis, .. } = fate {
                            std::thread::sleep(Duration::from_millis(millis));
                        }
                    }
                    _ => out.client_error = true,
                }
                return out;
            }
        }
    }
    out.sent = true;

    // Read phase: frame the first response with the client-side parser.
    let limits = HttpLimits::default();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let first = loop {
        match parse_response(&buf, &limits) {
            Ok(Some((status, consumed))) => break Some((status, consumed)),
            Ok(None) => {}
            Err(_) => {
                out.client_error = true;
                return out;
            }
        }
        match sock.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break None,
        }
    };
    let Some((status, consumed)) = first else {
        return out; // lost: fully sent, no response
    };
    out.status = Some(status);
    out.latency_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
    if status == 200 {
        out.class = parse_class(&buf[..consumed]);
    }

    // Dup sweep: a clean single-request close-delimited connection must
    // not contain a second response.
    if matches!(fate, SocketFate::Clean) {
        buf.drain(..consumed);
        loop {
            match parse_response(&buf, &limits) {
                Ok(Some((_, used))) => {
                    out.extra_responses += 1;
                    buf.drain(..used);
                    continue;
                }
                Ok(None) => {}
                Err(_) => {
                    out.client_error = true;
                    return out;
                }
            }
            match sock.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    }
    out
}

/// Drive one *clean* keep-alive connection carrying `rpc` pipelined
/// classify requests. The whole pipeline is written up front, then
/// responses are framed in order — request `k` of connection `conn` uses
/// the deterministic body `sample_body(conn * rpc + k)`, so replays stay
/// byte-identical.
fn drive_pipelined(addr: SocketAddr, conn: u64, rpc: u64, config: &LoadgenConfig) -> ConnResult {
    let mut out = ConnResult {
        fate: SocketFate::Clean,
        sent: false,
        status: None,
        class: None,
        extra_responses: 0,
        latency_ms: None,
        client_error: false,
        pipelined: Vec::new(),
    };
    let mut wire: Vec<u8> = Vec::new();
    let mut bounds: Vec<usize> = Vec::with_capacity(rpc as usize);
    for k in 0..rpc {
        let body = sample_body(conn.wrapping_mul(rpc).wrapping_add(k));
        let head = if k + 1 == rpc {
            format!(
                "POST /classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
        } else {
            format!(
                "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
        };
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(&body);
        bounds.push(wire.len());
    }

    let t0 = Instant::now();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        out.client_error = true;
        return out;
    };
    let timeout = Duration::from_millis(config.response_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);

    let mut written = 0usize;
    while written < wire.len() {
        match stream.write(&wire[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(_) => break,
        }
    }
    // Requests whose bytes all reached the wire count as sent; a clean
    // connection refusing part of the pipeline is a client-side error.
    let sent_count = bounds.iter().filter(|&&b| b <= written).count();
    if written < wire.len() {
        out.client_error = true;
    }

    let limits = HttpLimits::default();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut entries: Vec<(Option<u16>, Option<i64>, Option<f64>)> = Vec::new();
    'collect: while entries.len() < rpc as usize {
        loop {
            match parse_response(&buf, &limits) {
                Ok(Some((status, consumed))) => {
                    let class = if status == 200 {
                        parse_class(&buf[..consumed])
                    } else {
                        None
                    };
                    buf.drain(..consumed);
                    entries.push((Some(status), class, Some(t0.elapsed().as_secs_f64() * 1e3)));
                    if entries.len() == rpc as usize {
                        break 'collect;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    out.client_error = true;
                    break 'collect;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break 'collect,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    // Dup sweep: the close-delimited tail must hold nothing beyond the
    // expected responses.
    if entries.len() == rpc as usize {
        loop {
            match parse_response(&buf, &limits) {
                Ok(Some((_, used))) => {
                    out.extra_responses += 1;
                    buf.drain(..used);
                    continue;
                }
                Ok(None) => {}
                Err(_) => {
                    out.client_error = true;
                    break;
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    for k in 0..rpc as usize {
        let sent = k < sent_count;
        let (status, class, latency_ms) = entries.get(k).cloned().unwrap_or((None, None, None));
        if k == 0 {
            out.sent = sent;
            out.status = status;
            out.class = class;
            out.latency_ms = latency_ms;
        } else {
            out.pipelined.push(PipeEntry {
                sent,
                status,
                class,
                latency_ms,
            });
        }
    }
    out
}

/// Pull the integer out of `"class":N` in a response body.
fn parse_class(response: &[u8]) -> Option<i64> {
    let text = std::str::from_utf8(response).ok()?;
    let start = text.find("\"class\":")? + "\"class\":".len();
    let digits: String = text[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_imaging::decode_auto;

    #[test]
    fn sample_bodies_are_deterministic_and_decodable() {
        for conn in 0..12u64 {
            let a = sample_body(conn);
            let b = sample_body(conn);
            assert_eq!(a, b, "conn {conn}: body must replay");
            let img = decode_auto(&a).expect("every sample body decodes");
            assert!(img.width() >= 16 && img.height() >= 16);
        }
        assert_ne!(sample_body(0), sample_body(2), "bodies vary across conns");
    }

    #[test]
    fn percentiles_and_histogram_cover_the_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        let report = LoadgenReport {
            requests: 3,
            fates: FateCounts::default(),
            sent: 3,
            cut: 0,
            responded: 3,
            statuses: vec![(200, 3)],
            classes: vec![(0, 3)],
            lost: 0,
            dup: 0,
            client_errors: 0,
            fingerprint: FNV_OFFSET,
            latencies_ms: vec![0.3, 3.0, 5000.0],
        };
        let hist = report.latency_histogram();
        assert_eq!(hist.len(), LATENCY_BUCKETS_MS.len() + 1);
        assert_eq!(hist[0], 1, "0.3ms lands in the first bucket");
        assert_eq!(*hist.last().unwrap(), 1, "5s overflows");
        assert_eq!(hist.iter().sum::<u64>(), 3);
        assert!(report.conserved());
    }

    #[test]
    fn class_extraction_reads_the_wire_body() {
        let mut resp = Vec::new();
        crate::http::write_response(
            &mut resp,
            200,
            "OK",
            &[],
            b"{\"class\":3,\"batch\":2}",
            false,
        );
        assert_eq!(parse_class(&resp), Some(3));
        assert_eq!(parse_class(b"{\"error\":\"x\"}"), None);
    }

    #[test]
    fn fnv_fingerprint_is_order_sensitive_and_stable() {
        let mut a = FNV_OFFSET;
        fnv1a_fold(&mut a, b"ab");
        let mut b = FNV_OFFSET;
        fnv1a_fold(&mut b, b"ba");
        assert_ne!(a, b);
        let mut c = FNV_OFFSET;
        fnv1a_fold(&mut c, b"ab");
        assert_eq!(a, c);
    }
}

//! The wire workloads: a live `WireServer` on loopback, driven by this
//! file's own closed- and open-loop clients over keep-alive connections.

use crate::model::{bring_up, ModelTimings};
use crate::spec::{wire_config, wire_width, WireSpec, CORPUS_IMAGES, WARMUP_REQUESTS};
use crate::stats::median;
use harvest_engine::Executor;
use harvest_imaging::{ajpg_encode, decode_auto, AjpgOptions, FieldScene, SynthImageSpec};
use harvest_models::Graph;
use harvest_net::{parse_response, HttpLimits, WireServer, WireSnapshot};
use harvest_preproc::preprocess_decoded;
use harvest_simkit::SimRng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const SCENES: [FieldScene; 4] = [
    FieldScene::RowCrop,
    FieldScene::LeafCloseup,
    FieldScene::FruitStudio,
    FieldScene::GroundFeed,
];

/// The request bodies of a wire workload and what building them cost.
pub struct Corpus {
    pub bodies: Vec<Vec<u8>>,
    /// `bodies[i]` framed as a keep-alive `POST /classify`.
    pub requests: Vec<Vec<u8>>,
    pub pixels: usize,
    pub render_encode_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
}

impl Corpus {
    /// 4 scenes × 8 content seeds drawn from `seed`, `px`×`px`, AJPG.
    pub fn build(px: usize, seed: u64) -> Corpus {
        let mut rng = SimRng::new(seed);
        let mut corpus = Corpus {
            bodies: Vec::with_capacity(CORPUS_IMAGES),
            requests: Vec::with_capacity(CORPUS_IMAGES),
            pixels: px * px,
            render_encode_ms: Vec::with_capacity(CORPUS_IMAGES),
            encode_ms: Vec::with_capacity(CORPUS_IMAGES),
        };
        for i in 0..CORPUS_IMAGES {
            let t = Instant::now();
            let img = SCENES[i % SCENES.len()].render(&SynthImageSpec {
                width: px,
                height: px,
                seed: rng.next_u64(),
            });
            let t_enc = Instant::now();
            let body = ajpg_encode(&img, &AjpgOptions::default());
            corpus.encode_ms.push(t_enc.elapsed().as_secs_f64() * 1e3);
            corpus
                .render_encode_ms
                .push(t.elapsed().as_secs_f64() * 1e3);
            let mut request = format!(
                "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            request.extend_from_slice(&body);
            corpus.requests.push(request);
            corpus.bodies.push(body);
        }
        corpus
    }

    pub fn mean_body_kb(&self) -> f64 {
        self.bodies.iter().map(Vec::len).sum::<usize>() as f64 / self.bodies.len() as f64 / 1024.0
    }
}

/// One keep-alive client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering fails the request instead of
        // hanging the run.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send one request and read its response; returns the status and
    /// leaves the response (head + body) in `self.buf`.
    fn exchange(&mut self, request: &[u8], limits: &HttpLimits) -> io::Result<u16> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
            match parse_response(&self.buf, limits) {
                Ok(Some((status, consumed))) => {
                    self.buf.truncate(consumed);
                    return Ok(status);
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}"))),
            }
        }
    }

    /// `POST /classify`: the status (0 on a transport failure) and the
    /// class the server answered.
    fn classify(&mut self, request: &[u8], limits: &HttpLimits) -> (u16, Option<u32>) {
        match self.exchange(request, limits) {
            Ok(status) => (status, json_u64(&self.buf, "\"class\":").map(|c| c as u32)),
            Err(_) => (0, None),
        }
    }
}

/// The unsigned integer right after `key` in `text`.
fn json_u64(text: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(text).ok()?;
    let rest = &text[text.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// One request as the client saw it. Times are nanoseconds since the
/// phase's epoch; `due_ns` is when it was due to be sent, which in a
/// closed loop is when it was sent.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub image: u32,
    pub round: u32,
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub status: u16,
    pub class: Option<u32>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.due_ns) as f64 / 1e6
    }

    /// The same request on a clock that started `ns` earlier, `rounds`
    /// rounds before this sample's phase.
    pub fn later(&self, ns: u64, rounds: u32) -> Sample {
        Sample {
            round: self.round + rounds,
            due_ns: self.due_ns + ns,
            start_ns: self.start_ns + ns,
            end_ns: self.end_ns + ns,
            ..*self
        }
    }
}

/// What the server's ledger must show after shutdown.
pub struct Ledger {
    pub stats: WireSnapshot,
    pub threads_joined: usize,
    pub threads_expected: usize,
    pub sent: u64,
}

impl Ledger {
    /// Violated invariants; each counts as one failed operation.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.stats.conserved() {
            v.push(format!("ledger not conserved: {:?}", self.stats));
        }
        if self.stats.responded_ok != self.sent {
            v.push(format!(
                "responded_ok {} != sent {}",
                self.stats.responded_ok, self.sent
            ));
        }
        if self.threads_joined != self.threads_expected {
            v.push(format!(
                "threads_joined {} != accept_threads + 1 = {}",
                self.threads_joined, self.threads_expected
            ));
        }
        v
    }
}

pub struct WireRig<'g> {
    spec: WireSpec,
    corpus: Corpus,
    /// In-process executor over the same graph and weights as the server.
    reference: Executor<'g>,
    timings: ModelTimings,
    pub limits: HttpLimits,
    server: WireServer,
    conns: Vec<Conn>,
    /// Requests sent so far, warm-up and `/metrics` included.
    sent: u64,
}

impl<'g> WireRig<'g> {
    /// Everything before the first timed request: corpus, model bring-up,
    /// server start, `C` connections, and the fixed warm-up.
    pub fn setup(graph: &'g Graph, spec: WireSpec, seed: u64) -> io::Result<WireRig<'g>> {
        let corpus = Corpus::build(spec.body_px, seed);
        let (reference, timings) = bring_up(graph);
        let config = wire_config(&spec);
        let limits = HttpLimits::from_serving(&config.limits);
        let server = WireServer::start(config)?;
        let conns = (0..wire_width())
            .map(|_| Conn::open(server.addr()))
            .collect::<io::Result<Vec<_>>>()?;
        let mut rig = WireRig {
            spec,
            corpus,
            reference,
            timings,
            limits,
            server,
            conns,
            sent: 0,
        };
        let per_conn = WARMUP_REQUESTS / rig.conns.len();
        let warm = rig.drive(Instant::now(), |t, conn, ctx| {
            (0..per_conn)
                .map(|k| ctx.request(conn, (k * ctx.width + t) % CORPUS_IMAGES, None, 0))
                .collect()
        });
        if warm.iter().any(|s| s.status != 200) {
            return Err(io::Error::other("a warm-up request was not answered 200"));
        }
        Ok(rig)
    }

    /// Run `per_thread` on one client thread per connection, timing from
    /// `epoch`, and merge the samples in send order.
    fn drive<F>(&mut self, epoch: Instant, per_thread: F) -> Vec<Sample>
    where
        F: Fn(usize, &mut Conn, &ClientCtx<'_>) -> Vec<Sample> + Sync,
    {
        let ctx = ClientCtx {
            corpus: &self.corpus,
            limits: &self.limits,
            epoch,
            width: self.conns.len(),
        };
        let mut samples: Vec<Sample> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(t, conn)| {
                    let (ctx, per_thread) = (&ctx, &per_thread);
                    scope.spawn(move || per_thread(t, conn, ctx))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        samples.sort_by_key(|s| s.start_ns);
        self.sent += samples.len() as u64;
        samples
    }

    /// Closed loop: every connection keeps one request in flight for
    /// `rounds` windows of `round_len`; a request belongs to the window it
    /// was sent in.
    fn closed_loop(
        &mut self,
        epoch: Instant,
        rounds: usize,
        round_len: Duration,
        seed: u64,
    ) -> Vec<Sample> {
        let total_ns = round_len.as_nanos() as u64 * rounds as u64;
        self.drive(epoch, |t, conn, ctx| {
            let mut rng = SimRng::new(seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut out = Vec::new();
            loop {
                let now = ctx.now_ns();
                if now >= total_ns {
                    return out;
                }
                let round = (now / round_len.as_nanos() as u64) as u32;
                let image = rng.below(CORPUS_IMAGES as u64) as usize;
                out.push(ctx.request(conn, image, None, round));
            }
        })
    }

    /// Open loop: slot `i` is due `i / rate_hz` seconds after the epoch,
    /// thread `t` owns slots `i ≡ t (mod C)`, and a request is timed from
    /// its due time, so a stall shows up in the requests queued behind it.
    fn open_loop(
        &mut self,
        epoch: Instant,
        rounds: usize,
        per_round: usize,
        rate_hz: f64,
        seed: u64,
    ) -> Vec<Sample> {
        let total = rounds * per_round;
        let mut rng = SimRng::new(seed);
        let images: Vec<usize> = (0..total)
            .map(|_| rng.below(CORPUS_IMAGES as u64) as usize)
            .collect();
        self.drive(epoch, |t, conn, ctx| {
            (t..total)
                .step_by(ctx.width)
                .map(|slot| {
                    let due = Duration::from_secs_f64(slot as f64 / rate_hz);
                    if let Some(wait) = (ctx.epoch + due).checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let round = (slot / per_round) as u32;
                    ctx.request(conn, images[slot], Some(due.as_nanos() as u64), round)
                })
                .collect()
        })
    }

    /// One timed phase of `rounds` rounds of `round_len`, closed or open
    /// loop as the workload says. Sample times count from the returned
    /// epoch.
    pub fn phase(
        &mut self,
        rounds: usize,
        round_len: Duration,
        seed: u64,
    ) -> (Instant, Vec<Sample>) {
        match self.spec.open_rate_hz {
            None => {
                let epoch = Instant::now();
                (epoch, self.closed_loop(epoch, rounds, round_len, seed))
            }
            Some(rate_hz) => {
                // Leave the threads time to start before slot 0 is due.
                let epoch = Instant::now() + Duration::from_millis(20);
                let per_round = ((rate_hz * round_len.as_secs_f64()).round() as usize).max(1);
                (
                    epoch,
                    self.open_loop(epoch, rounds, per_round, rate_hz, seed),
                )
            }
        }
    }

    /// `executed_batches_full` and `executed_requests_full` from the live
    /// `GET /metrics`, asked over an existing connection because every
    /// accept thread is busy with one.
    pub fn engine_counters(&mut self) -> Option<(u64, u64)> {
        let conn = &mut self.conns[0];
        let status = conn
            .exchange(b"GET /metrics HTTP/1.1\r\n\r\n", &self.limits)
            .ok()?;
        self.sent += 1;
        let body = &conn.buf;
        (status == 200).then_some(())?;
        Some((
            json_u64(body, "executed_batches_full ")?,
            json_u64(body, "executed_requests_full ")?,
        ))
    }

    /// The class the in-process reference path gives each corpus image.
    pub fn reference_classes(&self) -> Vec<u32> {
        self.corpus
            .bodies
            .iter()
            .map(|body| {
                let img = decode_auto(body).expect("the corpus is made of valid AJPG");
                let logits = self
                    .reference
                    .forward(&preprocess_decoded(&img, self.spec.out_res));
                logits.argmax() as u32
            })
            .collect()
    }

    /// Close the connections, drain the server, and hand back its ledger;
    /// the rest of the rig stays usable for in-process measurements.
    pub fn shutdown(self) -> (Ledger, Corpus, Executor<'g>, ModelTimings) {
        drop(self.conns);
        let threads_expected = self.server.config().accept_threads + 1;
        let report = self.server.shutdown();
        (
            Ledger {
                stats: report.stats,
                threads_joined: report.threads_joined,
                threads_expected,
                sent: self.sent,
            },
            self.corpus,
            self.reference,
            self.timings,
        )
    }
}

/// What a client thread needs to send a request and time it.
struct ClientCtx<'a> {
    corpus: &'a Corpus,
    limits: &'a HttpLimits,
    epoch: Instant,
    width: usize,
}

impl ClientCtx<'_> {
    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    fn request(&self, conn: &mut Conn, image: usize, due_ns: Option<u64>, round: u32) -> Sample {
        let start_ns = self.now_ns();
        let (status, class) = conn.classify(&self.corpus.requests[image], self.limits);
        Sample {
            image: image as u32,
            round,
            due_ns: due_ns.unwrap_or(start_ns),
            start_ns,
            end_ns: self.now_ns(),
            status,
            class,
        }
    }
}

/// Per-round values of a timed wire phase.
pub struct WireRounds {
    pub images_per_s: Vec<f64>,
    pub p50_ms: Vec<f64>,
    /// Requests answered correctly (and within the deadline, when the
    /// workload has one) over requests due.
    pub ok_share: Vec<f64>,
    pub attempted: u64,
    /// Requests not answered 200 with the reference class.
    pub failed: u64,
    /// Every request's latency, for whole-run percentiles.
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent its latest request.
    pub late_max_ms: f64,
}

impl WireRounds {
    pub fn new(
        samples: &[Sample],
        rounds: usize,
        reference: &[u32],
        deadline_ms: Option<f64>,
    ) -> WireRounds {
        let correct = |s: &Sample| s.status == 200 && s.class == Some(reference[s.image as usize]);
        let mut out = WireRounds {
            images_per_s: Vec::new(),
            p50_ms: Vec::new(),
            ok_share: Vec::new(),
            attempted: samples.len() as u64,
            failed: samples.iter().filter(|s| !correct(s)).count() as u64,
            latencies_ms: samples.iter().map(Sample::latency_ms).collect(),
            late_max_ms: samples
                .iter()
                .map(|s| s.start_ns.saturating_sub(s.due_ns) as f64 / 1e6)
                .fold(0.0, f64::max),
        };
        for r in 0..rounds as u32 {
            let round: Vec<&Sample> = samples.iter().filter(|s| s.round == r).collect();
            if round.is_empty() {
                continue;
            }
            let lat: Vec<f64> = round.iter().map(|s| s.latency_ms()).collect();
            let good = round
                .iter()
                .filter(|s| correct(s) && deadline_ms.is_none_or(|d| s.latency_ms() <= d))
                .count() as f64;
            let first = round.iter().map(|s| s.due_ns).min().expect("non-empty");
            let last = round.iter().map(|s| s.end_ns).max().expect("non-empty");
            out.images_per_s.push(good / ((last - first) as f64 / 1e9));
            out.p50_ms.push(median(&lat));
            out.ok_share.push(good / round.len() as f64);
        }
        out
    }
}

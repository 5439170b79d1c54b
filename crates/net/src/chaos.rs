//! `FaultySocket`: a deterministic chaos transport.
//!
//! Wraps any `Read + Write` stream and applies the connection's
//! [`SocketFate`] — drawn from a [`SocketFaultPlan`] as a pure function of
//! `(seed, connection id)` — to the bytes flowing through it:
//!
//! * **short reads/writes** — every transfer is delivered in
//!   deterministically-sized partial chunks, so both ends' partial-IO
//!   handling is exercised on every single request;
//! * **garbling** — one request byte is XORed in flight at a seeded offset;
//! * **resets / truncations / stalls** — the write side refuses to move
//!   past the fate's cut offset, surfacing a typed `io::Error` whose kind
//!   tells the driver which client behavior to act out (drop the socket,
//!   half-close, or go silent).
//!
//! The damage is injected on the *client* side of the wire, which is what
//! makes chaos runs replayable: the server-visible byte stream for
//! connection `c` is a pure function of `(plan seed, c, request bytes)`,
//! never of scheduling. The wrapper never writes a byte past the cut, so
//! the "client died mid-request" shapes can never leak a complete request.

use harvest_simkit::fault::{SocketFate, SocketFaultPlan};
use std::io::{self, Read, Write};

/// A `Read + Write` stream with a deterministic fault plan applied.
pub(crate) struct FaultySocket<S> {
    inner: S,
    plan: SocketFaultPlan,
    fate: SocketFate,
    /// Request-stream offset written so far (the fate offsets index this).
    written: usize,
    reads: u64,
    writes: u64,
}

impl<S: Read + Write> FaultySocket<S> {
    /// Wrap `inner` as connection `conn` sending a `request_len`-byte
    /// request stream under `plan`.
    pub(crate) fn new(inner: S, plan: SocketFaultPlan, conn: u64, request_len: usize) -> Self {
        let fate = plan.fate(conn, request_len);
        FaultySocket {
            inner,
            plan,
            fate,
            written: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// The wrapped stream (to shut down or drop after the fate fires).
    pub(crate) fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Offset of the write-side cut for this fate, if any.
    fn cut_at(&self) -> Option<usize> {
        match self.fate {
            SocketFate::Reset { after } | SocketFate::Truncate { after } => Some(after),
            SocketFate::Stall { at, .. } => Some(at),
            SocketFate::Clean | SocketFate::Garble { .. } => None,
        }
    }

    /// The error a write past the cut surfaces, keyed so the driver can
    /// act out the right client behavior.
    fn cut_error(&self) -> io::Error {
        let (kind, what) = match self.fate {
            SocketFate::Reset { .. } => (io::ErrorKind::ConnectionReset, "reset"),
            SocketFate::Truncate { .. } => (io::ErrorKind::WriteZero, "truncate"),
            SocketFate::Stall { .. } => (io::ErrorKind::TimedOut, "stall"),
            _ => (io::ErrorKind::Other, "none"),
        };
        io::Error::new(kind, format!("socket fate: {what}"))
    }
}

impl<S: Read + Write> Read for FaultySocket<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let conn_call = self.reads;
        self.reads += 1;
        let cap = self.plan.chunk_len(0, conn_call, buf.len()).min(buf.len());
        self.inner.read(&mut buf[..cap])
    }
}

impl<S: Read + Write> Write for FaultySocket<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // Never move past the fate's cut offset.
        if let Some(cut) = self.cut_at() {
            if self.written >= cut {
                return Err(self.cut_error());
            }
        }
        let mut limit = buf.len();
        if let Some(cut) = self.cut_at() {
            limit = limit.min(cut - self.written);
        }
        // Deterministic short chunks.
        let call = self.writes;
        self.writes += 1;
        limit = self.plan.chunk_len(1, call, limit);
        let mut chunk = buf[..limit].to_vec();
        // In-flight garbling at the seeded offset.
        if let SocketFate::Garble { pos, mask } = self.fate {
            if (self.written..self.written + limit).contains(&pos) {
                chunk[pos - self.written] ^= mask;
            }
        }
        let n = self.inner.write(&chunk)?;
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory sink that records what "went over the wire".
    #[derive(Default)]
    struct Sink {
        sent: Vec<u8>,
    }

    impl Read for Sink {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Drive a full request through the faulty socket the way the loadgen
    /// does: write until done or the fate fires.
    fn send(plan: SocketFaultPlan, conn: u64, request: &[u8]) -> (Vec<u8>, Option<io::ErrorKind>) {
        let mut sock = FaultySocket::new(Sink::default(), plan, conn, request.len());
        let mut off = 0;
        let mut fired = None;
        while off < request.len() {
            match sock.write(&request[off..]) {
                Ok(n) => off += n,
                Err(e) => {
                    fired = Some(e.kind());
                    break;
                }
            }
        }
        (sock.inner.sent, fired)
    }

    fn request() -> Vec<u8> {
        let mut r = b"POST /classify HTTP/1.1\r\nContent-Length: 64\r\n\r\n".to_vec();
        r.extend(std::iter::repeat_n(0xAB, 64));
        r
    }

    #[test]
    fn clean_plan_passes_bytes_through_unchanged() {
        let (sent, fired) = send(SocketFaultPlan::none(), 0, &request());
        assert_eq!(sent, request());
        assert_eq!(fired, None);
    }

    #[test]
    fn short_chunks_change_framing_not_bytes() {
        let plan = SocketFaultPlan::new(3).with_short_chunks();
        let (sent, fired) = send(plan, 5, &request());
        assert_eq!(sent, request(), "fragmentation must not alter content");
        assert_eq!(fired, None);
    }

    #[test]
    fn fates_replay_bit_for_bit() {
        let plan = SocketFaultPlan::new(11)
            .with_resets(0.25)
            .with_truncations(0.25)
            .with_garbling(0.25)
            .with_stalls(0.24, 100)
            .with_short_chunks();
        let req = request();
        let mut damaged = 0;
        for conn in 0..200u64 {
            let (a, fa) = send(plan, conn, &req);
            let (b, fb) = send(plan, conn, &req);
            assert_eq!(a, b, "conn {conn}: wire bytes must replay");
            assert_eq!(fa, fb);
            if a != req {
                damaged += 1;
            }
        }
        assert!(damaged > 100, "fates must actually fire: {damaged}/200");
    }

    #[test]
    fn cut_fates_never_leak_a_complete_request() {
        let plan = SocketFaultPlan::new(7)
            .with_resets(0.33)
            .with_truncations(0.33)
            .with_stalls(0.33, 50);
        let req = request();
        let mut cuts = 0;
        for conn in 0..300u64 {
            let fate = plan.fate(conn, req.len());
            let (sent, fired) = send(plan, conn, &req);
            match fate {
                SocketFate::Clean => {
                    assert_eq!(sent, req);
                    assert_eq!(fired, None);
                }
                SocketFate::Reset { after }
                | SocketFate::Truncate { after }
                | SocketFate::Stall { at: after, .. } => {
                    cuts += 1;
                    assert_eq!(sent.len(), after, "conn {conn}: cut at the fate offset");
                    assert!(sent.len() < req.len(), "request must stay incomplete");
                    assert_eq!(&sent[..], &req[..after], "prefix is undamaged");
                    let kind = fired.expect("cut fate surfaces an error");
                    let expected = match fate {
                        SocketFate::Reset { .. } => io::ErrorKind::ConnectionReset,
                        SocketFate::Truncate { .. } => io::ErrorKind::WriteZero,
                        _ => io::ErrorKind::TimedOut,
                    };
                    assert_eq!(kind, expected);
                }
                SocketFate::Garble { .. } => unreachable!("no garble rate configured"),
            }
        }
        assert!(cuts > 200, "cut fates must dominate: {cuts}/300");
    }

    #[test]
    fn garble_flips_exactly_one_byte_at_the_seeded_offset() {
        let plan = SocketFaultPlan::new(19)
            .with_garbling(0.9)
            .with_short_chunks();
        let req = request();
        let mut garbled = 0;
        for conn in 0..100u64 {
            let fate = plan.fate(conn, req.len());
            let (sent, fired) = send(plan, conn, &req);
            assert_eq!(fired, None, "garbling never cuts the stream");
            assert_eq!(sent.len(), req.len());
            if let SocketFate::Garble { pos, mask } = fate {
                garbled += 1;
                let diffs: Vec<usize> = (0..req.len()).filter(|&i| sent[i] != req[i]).collect();
                assert_eq!(diffs, vec![pos], "conn {conn}: exactly one byte differs");
                assert_eq!(sent[pos], req[pos] ^ mask);
            } else {
                assert_eq!(sent, req);
            }
        }
        assert!(garbled > 70, "garble rate must land: {garbled}/100");
    }
}

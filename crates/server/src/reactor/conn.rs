//! The per-connection session state machine.
//!
//! Under the reactor, a connection is not a thread — it is an explicit
//! state machine advanced by readiness events:
//!
//! ```text
//!            readable event                 dispatch (bounded queue)
//!   Reading ────────────────► frames decoded ─────────────► Queued
//!      ▲                      (FramePump, shared                │
//!      │                       with the blocking path)          │ completion
//!      │ out buffer drained                                     ▼
//!      └──────────────────────── Writing ◄──────────── response encoded
//!                                   │
//!                                   │ fatal frame error / poisoned worker
//!                                   ▼
//!                                Closing (flush best-effort, then drop)
//! ```
//!
//! The machine is generic over its stream so the property suite can
//! drive it byte-at-a-time over in-memory and [`Faulty`] streams with
//! no sockets involved — the exact code the reactor runs in production.
//!
//! [`Faulty`]: crate::fault::Faulty

use std::collections::VecDeque;
use std::io::{Read, Write};

use bytes::{Buf, BytesMut};

use crate::frame::{encode_frame, FramePump, PumpStep};
use crate::protocol::{ErrorCode, Response};
use crate::session::Session;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Pumping request bytes; the session is resident.
    Reading,
    /// A decoded request is on the worker queue — the session travelled
    /// with it, so nothing else dispatches until the completion returns.
    Queued,
    /// Encoded responses are buffered and draining to the socket.
    Writing,
    /// Flush what remains (best effort), then close: a fatal framing
    /// error, a poisoned worker, or the peer is done.
    Closing,
}

/// Cap on decoded-but-undispatched pipelined requests per connection:
/// past this the reactor stops pumping the socket, so one client
/// pipelining faster than the pool drains cannot buffer unbounded
/// requests server-side.
pub const PIPELINE_MAX: usize = 32;

/// Cap on pump steps per readable event so a firehose connection cannot
/// starve the rest of the reactor's tick (level-triggered pollers
/// re-report whatever is left).
const READS_PER_EVENT: usize = 16;

/// What a readable event produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct PumpOutcome {
    /// Fresh request frames decoded into the pending queue.
    pub decoded: usize,
    /// A framing error was converted into a typed error response; the
    /// connection closes once the response flushes.
    pub framing_error: bool,
    /// The transport is gone (hard I/O error): close now, skip flushing.
    pub dead: bool,
}

/// What a writable event produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlushOutcome {
    /// Complete response frames that finished flushing to the socket.
    pub responses: usize,
    /// The transport is gone: close now.
    pub dead: bool,
}

/// One connection multiplexed on a reactor thread: socket, incremental
/// frame pump, pipelined-request queue, and the write-side buffer.
pub struct SessionConn<S> {
    stream: S,
    pump: FramePump,
    /// Decoded request payloads not yet dispatched, in arrival order.
    pending: VecDeque<Vec<u8>>,
    /// Encoded response bytes awaiting the socket.
    out: BytesMut,
    /// Length of each response frame inside `out`, in order — the
    /// committed-response accounting the flush path pops from.
    out_frames: VecDeque<usize>,
    state: ConnState,
    /// Resident except while a request is [`ConnState::Queued`] (it
    /// travels to the worker inside the job and back in the completion).
    session: Option<Session>,
    /// The peer half-closed; serve what was pipelined, then close.
    peer_eof: bool,
    /// Consecutive ticks without progress while mid-frame or mid-flush
    /// (the reactor's slow-loris / dead-peer defence).
    stalled_ticks: u32,
}

impl<S: Read + Write> SessionConn<S> {
    /// A fresh connection in [`ConnState::Reading`].
    pub fn new(stream: S, session: Session) -> SessionConn<S> {
        SessionConn {
            stream,
            pump: FramePump::new(),
            pending: VecDeque::new(),
            out: BytesMut::new(),
            out_frames: VecDeque::new(),
            state: ConnState::Reading,
            session: Some(session),
            peer_eof: false,
            stalled_ticks: 0,
        }
    }

    /// Current phase.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// The underlying stream (for fd extraction / fault accounting).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// True while the reactor should subscribe to readable events:
    /// the peer is still sending, the machine is not closing, and the
    /// pipelined backlog is under its cap.
    pub fn wants_read(&self) -> bool {
        !self.peer_eof && self.state != ConnState::Closing && self.pending.len() < PIPELINE_MAX
    }

    /// True while bytes are buffered for the socket.
    pub fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Bytes currently buffered on the write side (high-water telemetry).
    pub fn out_len(&self) -> usize {
        self.out.len()
    }

    /// Decoded requests waiting for dispatch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Decodes complete frames out of the pump into the pending queue,
    /// stopping at the pipeline cap. Returns `false` when the stream
    /// can no longer be framed (oversized header, or EOF stranded a
    /// partial frame) — a typed error response has been queued and the
    /// machine is [`ConnState::Closing`].
    fn drain_decoded(&mut self, outcome: &mut PumpOutcome) -> bool {
        while self.pending.len() < PIPELINE_MAX {
            match self.pump.next_frame() {
                Ok(Some(frame)) => {
                    self.pending.push_back(frame.to_vec());
                    outcome.decoded += 1;
                }
                Ok(None) => {
                    // No complete frame left. If the peer already hung
                    // up, whatever remains buffered can never complete:
                    // typed truncation, then close — same contract as
                    // the threaded model.
                    if self.peer_eof {
                        if let Some(trunc) = self.pump.truncation() {
                            self.enqueue_response(&Response::from_frame_error(&trunc));
                            outcome.framing_error = true;
                            self.state = ConnState::Closing;
                            return false;
                        }
                    }
                    return true;
                }
                Err(e) => {
                    // Oversized/garbled header: the stream can no longer
                    // be framed. Answer typed, then close.
                    self.enqueue_response(&Response::from_frame_error(&e));
                    outcome.framing_error = true;
                    self.state = ConnState::Closing;
                    return false;
                }
            }
        }
        true
    }

    /// A readable event: pump the socket through the shared
    /// [`FramePump`], decoding complete frames into the pending queue.
    /// Bounded to `READS_PER_EVENT` reads and stops early when the
    /// pipeline cap is hit — level-triggered pollers re-report the rest.
    pub fn on_readable(&mut self) -> PumpOutcome {
        let mut outcome = PumpOutcome::default();
        if self.state == ConnState::Closing {
            return outcome;
        }
        // Frames may already be buffered from a cap-limited earlier
        // event; surface them before touching the socket.
        if !self.drain_decoded(&mut outcome) {
            return outcome;
        }
        if self.peer_eof {
            return outcome;
        }
        for _ in 0..READS_PER_EVENT {
            if self.pending.len() >= PIPELINE_MAX {
                break;
            }
            match self.pump.pump(&mut self.stream) {
                PumpStep::Fed(_) => {
                    self.stalled_ticks = 0;
                    if !self.drain_decoded(&mut outcome) {
                        return outcome;
                    }
                }
                PumpStep::Blocked => break,
                PumpStep::Eof => {
                    self.peer_eof = true;
                    // Re-run the drain so a stranded partial frame is
                    // reported now (or later, once the cap frees).
                    self.drain_decoded(&mut outcome);
                    break;
                }
                PumpStep::Failed(_) => {
                    outcome.dead = true;
                    self.transport_dead();
                    break;
                }
            }
        }
        outcome
    }

    /// Decodes frames already buffered in the pump once dispatch frees
    /// pipeline capacity. Needed because a level-triggered poller never
    /// re-fires for bytes the reactor has already read off the socket.
    pub fn decode_buffered(&mut self) -> PumpOutcome {
        let mut outcome = PumpOutcome::default();
        if self.state != ConnState::Closing {
            self.drain_decoded(&mut outcome);
        }
        outcome
    }

    /// Takes the next request for the worker pool, moving the machine to
    /// [`ConnState::Queued`]. `None` while a request is already in
    /// flight, nothing is pending, or the connection is closing.
    pub fn next_dispatch(&mut self) -> Option<(Session, Vec<u8>)> {
        if self.state == ConnState::Closing || self.state == ConnState::Queued {
            return None;
        }
        if self.session.is_none() || self.pending.is_empty() {
            return None;
        }
        let payload = self.pending.pop_front()?;
        let session = self.session.take()?;
        self.state = ConnState::Queued;
        self.stalled_ticks = 0;
        Some((session, payload))
    }

    /// Puts a dispatched request back (the dispatch queue was full):
    /// the machine returns to [`ConnState::Reading`] and the request to
    /// the front of the pending queue, preserving order.
    pub fn requeue(&mut self, session: Session, payload: Vec<u8>) {
        self.pending.push_front(payload);
        self.session = Some(session);
        if self.state == ConnState::Queued {
            self.state = ConnState::Reading;
        }
    }

    /// A completion from the worker pool: the session comes home and the
    /// encoded response joins the write buffer. Returns whether the
    /// response was an error (for the `errors` counter).
    pub fn complete(&mut self, session: Session, response: &Response) -> bool {
        self.session = Some(session);
        if self.state == ConnState::Queued {
            self.state = ConnState::Writing;
        }
        self.stalled_ticks = 0;
        self.enqueue_response(response)
    }

    /// The worker processing this connection's request died: the session
    /// is gone with it. Drop the connection like the threaded model does
    /// (the client sees a reset, the chaos suite counts the corpse).
    pub fn poison(&mut self) {
        self.session = None;
        self.out.clear();
        self.out_frames.clear();
        self.pending.clear();
        self.state = ConnState::Closing;
    }

    /// The transport is gone (hard I/O error or reset): nothing buffered
    /// can ever be delivered and nothing pending can ever be answered.
    /// Drop it all so [`SessionConn::should_close`] turns true at once —
    /// a dead socket reports error-readiness to a level-triggered poller
    /// unconditionally, so leaving it half-open would spin the reactor.
    fn transport_dead(&mut self) {
        self.out.clear();
        self.out_frames.clear();
        self.pending.clear();
        self.state = ConnState::Closing;
    }

    /// Encodes `response` onto the write buffer (with the same fallback
    /// chain as the threaded model). Returns whether it was an error
    /// response. Used by completions and by the reactor's fail-fast
    /// overload path.
    pub fn enqueue_response(&mut self, response: &Response) -> bool {
        let is_error = response.is_error();
        let fallback = Response::Error {
            code: ErrorCode::Execution,
            message: "response serialisation failed".into(),
        };
        let payload = match response.encode().or_else(|_| fallback.encode()) {
            Ok(p) => p,
            // Even the static fallback failed to encode: the connection
            // is unanswerable; close it rather than crash the reactor.
            Err(_) => {
                self.state = ConnState::Closing;
                return is_error;
            }
        };
        match encode_frame(&payload) {
            Ok(frame) => {
                self.out_frames.push_back(frame.len());
                self.out.extend_from_slice(&frame);
                if self.state == ConnState::Reading {
                    self.state = ConnState::Writing;
                }
            }
            Err(_) => self.state = ConnState::Closing,
        }
        is_error
    }

    /// A writable event (or an optimistic flush after a completion):
    /// drains the write buffer until the socket blocks or it empties.
    pub fn on_writable(&mut self) -> FlushOutcome {
        let mut outcome = FlushOutcome::default();
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => {
                    outcome.dead = true;
                    self.transport_dead();
                    return outcome;
                }
                Ok(n) => {
                    self.stalled_ticks = 0;
                    self.out.advance(n);
                    let mut written = n;
                    while written > 0 {
                        match self.out_frames.front_mut() {
                            Some(rem) if *rem > written => {
                                *rem -= written;
                                written = 0;
                            }
                            Some(rem) => {
                                written -= *rem;
                                self.out_frames.pop_front();
                                outcome.responses += 1;
                            }
                            None => break,
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return outcome;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    outcome.dead = true;
                    self.transport_dead();
                    return outcome;
                }
            }
        }
        // Flush also pushes the kernel to send what it buffered; errors
        // here surface on the next write.
        let _ = self.stream.flush();
        if self.state == ConnState::Writing {
            self.state = ConnState::Reading;
        }
        outcome
    }

    /// Whether the connection is finished and should be dropped: closing
    /// with nothing left to flush, or the peer is done and every
    /// pipelined request has been served.
    pub fn should_close(&self) -> bool {
        match self.state {
            ConnState::Closing => self.out.is_empty(),
            ConnState::Queued => false,
            _ => self.peer_eof && self.pending.is_empty() && self.out.is_empty(),
        }
    }

    /// One reactor tick for the stall clock: counts ticks while the
    /// connection is mid-frame or mid-flush without progress (idle
    /// between frames does not count — idle sessions may sit for hours).
    /// Returns the consecutive stalled tick count.
    pub fn tick_stall(&mut self) -> u32 {
        let stalled =
            (self.pump.mid_frame() || !self.out.is_empty()) && self.state != ConnState::Queued;
        if stalled {
            self.stalled_ticks = self.stalled_ticks.saturating_add(1);
        } else {
            self.stalled_ticks = 0;
        }
        self.stalled_ticks
    }

    /// Tears the machine apart for fault accounting at close.
    pub fn into_stream(self) -> S {
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use fungus_core::{Database, SharedDatabase};
    use std::io;

    /// An in-memory duplex: reads from a scripted input (with optional
    /// WouldBlock interleavings), writes into a capture buffer with a
    /// bounded per-call budget to exercise partial writes.
    struct MemStream {
        input: Vec<u8>,
        pos: usize,
        chunk: usize,
        block_every: usize,
        reads: usize,
        wrote: Vec<u8>,
        write_budget: usize,
        die_on_write: bool,
    }

    impl MemStream {
        fn new(input: Vec<u8>, chunk: usize) -> MemStream {
            MemStream {
                input,
                pos: 0,
                chunk: chunk.max(1),
                block_every: 0,
                reads: 0,
                wrote: Vec::new(),
                write_budget: usize::MAX,
                die_on_write: false,
            }
        }
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.block_every > 0 && self.reads.is_multiple_of(self.block_every) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted"));
            }
            if self.pos >= self.input.len() {
                return Ok(0);
            }
            let n = self.chunk.min(buf.len()).min(self.input.len() - self.pos);
            buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.die_on_write {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "reset"));
            }
            if self.write_budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.write_budget);
            self.wrote.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn session() -> Session {
        let db = SharedDatabase::new(Database::new(1));
        Session::new(1, db)
    }

    fn ping_frame() -> Vec<u8> {
        encode_frame(&Request::Ping.encode().unwrap()).unwrap()
    }

    #[test]
    fn byte_at_a_time_reads_decode_without_corruption() {
        let input = [ping_frame(), ping_frame()].concat();
        let mut conn = SessionConn::new(MemStream::new(input, 1), session());
        let mut decoded = 0;
        // Each readable event pumps up to READS_PER_EVENT single bytes.
        for _ in 0..64 {
            decoded += conn.on_readable().decoded;
        }
        assert_eq!(decoded, 2);
        assert_eq!(conn.pending_len(), 2);
        assert_eq!(conn.state(), ConnState::Reading);
    }

    #[test]
    fn dispatch_travels_and_completion_comes_home() {
        let input = ping_frame();
        let mut conn = SessionConn::new(MemStream::new(input, 64), session());
        conn.on_readable();
        let (mut s, payload) = conn.next_dispatch().expect("one request pending");
        assert_eq!(conn.state(), ConnState::Queued);
        assert!(conn.next_dispatch().is_none(), "one in flight at a time");

        let resp = s.handle(Request::decode(&payload).unwrap());
        let was_error = conn.complete(s, &resp);
        assert!(!was_error);
        assert_eq!(conn.state(), ConnState::Writing);

        let flushed = conn.on_writable();
        assert_eq!(flushed.responses, 1);
        assert_eq!(conn.state(), ConnState::Reading);
        // The bytes on the wire decode back to the response.
        let wrote = conn.stream().wrote.clone();
        let mut cursor: &[u8] = &wrote;
        let payload = crate::frame::read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn partial_writes_count_responses_only_when_complete() {
        let input = ping_frame();
        let mut conn = SessionConn::new(MemStream::new(input, 64), session());
        conn.on_readable();
        let (mut s, payload) = conn.next_dispatch().unwrap();
        let resp = s.handle(Request::decode(&payload).unwrap());
        conn.complete(s, &resp);

        // Socket accepts three bytes per event: many partial flushes,
        // exactly one committed response at the end.
        conn.stream.write_budget = 3;
        let mut responses = 0;
        for _ in 0..100 {
            let out = conn.on_writable();
            responses += out.responses;
            if !conn.wants_write() {
                break;
            }
        }
        assert_eq!(responses, 1);
        assert_eq!(conn.state(), ConnState::Reading);
    }

    #[test]
    fn write_buffer_does_not_grow_with_responses_served() {
        // A long-lived session: every response is flushed before the next
        // one is enqueued, so what `out` holds on to must not depend on how
        // many responses have passed through it.
        let capacity_after = |n: usize| {
            let mut conn = SessionConn::new(MemStream::new(Vec::new(), 64), session());
            for _ in 0..n {
                conn.enqueue_response(&Response::Pong);
                assert_eq!(conn.on_writable().responses, 1);
            }
            conn.out.capacity()
        };
        assert_eq!(capacity_after(5_000), capacity_after(5));
    }

    #[test]
    fn requeue_preserves_request_order() {
        let input = [ping_frame(), ping_frame()].concat();
        let mut conn = SessionConn::new(MemStream::new(input, 64), session());
        conn.on_readable();
        assert_eq!(conn.pending_len(), 2);
        let (s, p) = conn.next_dispatch().unwrap();
        conn.requeue(s, p.clone());
        assert_eq!(conn.state(), ConnState::Reading);
        let (_, p2) = conn.next_dispatch().unwrap();
        assert_eq!(p, p2, "requeued request dispatches first again");
    }

    #[test]
    fn eof_mid_frame_is_a_typed_truncation_then_close() {
        let mut input = ping_frame();
        input.truncate(input.len() - 1);
        let mut conn = SessionConn::new(MemStream::new(input, 64), session());
        let out = conn.on_readable();
        assert!(out.framing_error);
        assert_eq!(conn.state(), ConnState::Closing);
        assert!(conn.wants_write(), "typed error response buffered");
        conn.on_writable();
        assert!(conn.should_close());
        let wrote = conn.stream().wrote.clone();
        let mut cursor: &[u8] = &wrote;
        let payload = crate::frame::read_frame(&mut cursor).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
    }

    #[test]
    fn clean_eof_serves_pipelined_requests_before_closing() {
        let input = [ping_frame(), ping_frame()].concat();
        let mut conn = SessionConn::new(MemStream::new(input, 4096), session());
        conn.on_readable();
        conn.on_readable(); // observe EOF
        assert!(!conn.should_close(), "two requests still pending");
        for _ in 0..2 {
            let (mut s, p) = conn.next_dispatch().unwrap();
            let r = s.handle(Request::decode(&p).unwrap());
            conn.complete(s, &r);
            conn.on_writable();
        }
        assert!(conn.should_close(), "served everything, peer is gone");
    }

    #[test]
    fn dead_transport_closes_immediately_with_buffers_dropped() {
        let input = [ping_frame(), ping_frame()].concat();
        let mut conn = SessionConn::new(MemStream::new(input, 4096), session());
        conn.on_readable();
        let (mut s, p) = conn.next_dispatch().unwrap();
        let r = s.handle(Request::decode(&p).unwrap());
        conn.complete(s, &r);

        // The peer resets before the response flushes: the connection
        // must become closeable *now* — a dead socket reports
        // error-readiness forever, so lingering would spin the reactor.
        conn.stream.die_on_write = true;
        let out = conn.on_writable();
        assert!(out.dead);
        assert!(conn.should_close(), "dead transport lingers half-open");
        assert!(!conn.wants_write());
        assert_eq!(conn.pending_len(), 0, "undeliverable requests dropped");
    }

    #[test]
    fn poison_drops_everything() {
        let input = ping_frame();
        let mut conn = SessionConn::new(MemStream::new(input, 64), session());
        conn.on_readable();
        let (_s, _p) = conn.next_dispatch().unwrap();
        conn.poison();
        assert!(conn.should_close());
        assert!(!conn.wants_read());
        assert!(!conn.wants_write());
    }

    #[test]
    fn pipeline_cap_pauses_reading() {
        let input: Vec<u8> = std::iter::repeat_with(ping_frame)
            .take(PIPELINE_MAX + 8)
            .flatten()
            .collect();
        let mut conn = SessionConn::new(MemStream::new(input, 4096), session());
        for _ in 0..8 {
            conn.on_readable();
        }
        assert_eq!(conn.pending_len(), PIPELINE_MAX);
        assert!(!conn.wants_read(), "cap reached: stop polling readable");
        let (s, p) = conn.next_dispatch().unwrap();
        assert!(conn.wants_read(), "draining one re-arms the socket");
        conn.requeue(s, p);
    }
}

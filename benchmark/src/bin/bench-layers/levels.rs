//! One backend per layer boundary. Each answers like the end-to-end
//! backends (so every answer is still checked) and keeps, in call order,
//! how long its own layer's public entry point took.
//!
//! This file is the wider compile surface: `Session`, `Request` /
//! `Response` codecs, the frame functions and `parse_statement`.

use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use fungus_benchmark::run::{answer_of, answer_of_outcome, Answer, Backend};
use fungus_benchmark::script::{Class, Kind, Op};
use fungus_benchmark::span::{Span, SpanLog};
use fungus_core::SharedDatabase;
use fungus_query::parse_statement;
use fungus_server::frame::{decode_frame, encode_frame, read_frame, write_frame};
use fungus_server::{Request, Response, Session};

fn request_of(op: &Op) -> Request {
    if op.kind == Kind::Tick {
        Request::Dot {
            line: op.text.clone(),
        }
    } else {
        Request::Sql {
            text: op.text.clone(),
        }
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// `SharedDatabase::execute` / `tick`, with the statement parsed once
/// more on the side so the parser's share can be split out.
pub struct ExecLevel {
    db: SharedDatabase,
    /// Shape of each operation, in call order.
    pub kinds: Vec<Kind>,
    /// `execute` (or `tick`) time per operation.
    pub exec_ns: Vec<u64>,
    /// `parse_statement` time per operation (0 for a tick).
    pub parse_ns: Vec<u64>,
    /// `SELECT`s run.
    pub selects: u64,
    /// Live tuples their scans examined.
    pub scanned: u64,
    /// Rows they returned.
    pub returned: u64,
    /// Whole shards their scans skipped.
    pub pruned_shards: u64,
    /// Segments their scans skipped.
    pub pruned_segments: u64,
    /// How many were answered by the secondary index.
    pub index_used: u64,
    /// Values folded into summaries by consuming statements.
    pub distilled: u64,
}

impl ExecLevel {
    pub fn new(db: SharedDatabase) -> ExecLevel {
        ExecLevel {
            db,
            kinds: Vec::new(),
            exec_ns: Vec::new(),
            parse_ns: Vec::new(),
            selects: 0,
            scanned: 0,
            returned: 0,
            pruned_shards: 0,
            pruned_segments: 0,
            index_used: 0,
            distilled: 0,
        }
    }
}

impl Backend for ExecLevel {
    fn run(&mut self, op: &Op) -> Answer {
        self.kinds.push(op.kind);
        if op.kind == Kind::Tick {
            let t0 = Instant::now();
            self.db.tick();
            self.exec_ns.push(ns(t0));
            self.parse_ns.push(0);
            return Answer::Done;
        }
        // Parsed on the side *before* the statement runs: after it, the
        // allocator may be busy giving back a retired snapshot.
        let t0 = Instant::now();
        let _ = black_box(parse_statement(black_box(&op.text)));
        self.parse_ns.push(ns(t0));
        let t0 = Instant::now();
        let outcome = self.db.execute(&op.text);
        self.exec_ns.push(ns(t0));
        if let Ok(out) = &outcome {
            if op.kind.class() == Class::Query {
                self.selects += 1;
                self.scanned += out.result.scanned as u64;
                self.returned += out.result.rows.len() as u64;
                self.pruned_shards += out.result.pruned_shards as u64;
                self.pruned_segments += out.result.pruned_segments as u64;
                self.index_used += u64::from(out.result.used_index);
            }
            self.distilled += out.distilled;
        }
        answer_of_outcome(outcome)
    }
}

/// `SharedDatabase::execute` / `tick` under spans: the traced end-to-end
/// backend of the in-process workloads.
pub struct TracedExec {
    db: SharedDatabase,
    /// `op ⊃ core.execute | core.tick`.
    pub log: SpanLog,
    next_op: u32,
}

impl TracedExec {
    pub fn new(db: SharedDatabase) -> TracedExec {
        TracedExec {
            db,
            log: SpanLog::new(),
            next_op: 0,
        }
    }
}

impl Backend for TracedExec {
    fn run(&mut self, op: &Op) -> Answer {
        let start = self.log.now_ns();
        let (name, answer, inner_end) = if op.kind == Kind::Tick {
            self.db.tick();
            ("core.tick", Answer::Done, self.log.now_ns())
        } else {
            let outcome = self.db.execute(&op.text);
            let inner_end = self.log.now_ns();
            ("core.execute", answer_of_outcome(outcome), inner_end)
        };
        let end = self.log.now_ns();
        let root = self.log.push("op", start, end, None, self.next_op);
        self.log
            .push(name, start, inner_end, Some(root), self.next_op);
        self.next_op += 1;
        answer
    }
}

/// `Session::handle`, with the request, response and frame codecs timed
/// on the side.
pub struct SessionLevel {
    session: Session,
    /// `Session::handle` time per operation.
    pub handle_ns: Vec<u64>,
    /// `Request::encode` + `Request::decode`, summed.
    pub request_codec_ns: u64,
    /// `Response::encode` + `Response::decode`, summed.
    pub response_codec_ns: u64,
    /// `encode_frame` + `decode_frame` of the request and of the response
    /// payload, summed.
    pub frame_codec_ns: u64,
}

impl SessionLevel {
    pub fn new(db: SharedDatabase) -> SessionLevel {
        SessionLevel {
            session: Session::new(1, db),
            handle_ns: Vec::new(),
            request_codec_ns: 0,
            response_codec_ns: 0,
            frame_codec_ns: 0,
        }
    }

    fn frame_round_trip(&mut self, payload: &[u8]) -> Result<(), String> {
        let t0 = Instant::now();
        let frame = encode_frame(payload).map_err(|e| e.to_string())?;
        let mut buf = BytesMut::with_capacity(frame.len());
        buf.extend_from_slice(&frame);
        let decoded = decode_frame(&mut buf).map_err(|e| e.to_string())?;
        self.frame_codec_ns += ns(t0);
        match decoded {
            Some(bytes) if bytes.len() == payload.len() => Ok(()),
            _ => Err("frame codec did not round-trip".to_string()),
        }
    }

    fn codecs(&mut self, request: &Request, response: &Response) -> Result<(), String> {
        let t0 = Instant::now();
        let payload = request.encode().map_err(|e| e.to_string())?;
        let back = Request::decode(&payload).map_err(|e| e.to_string())?;
        self.request_codec_ns += ns(t0);
        if &back != request {
            return Err("request codec did not round-trip".to_string());
        }
        self.frame_round_trip(&payload)?;
        let t0 = Instant::now();
        let payload = response.encode().map_err(|e| e.to_string())?;
        let back = Response::decode(&payload).map_err(|e| e.to_string())?;
        self.response_codec_ns += ns(t0);
        black_box(back);
        self.frame_round_trip(&payload)
    }
}

impl Backend for SessionLevel {
    fn run(&mut self, op: &Op) -> Answer {
        let request = request_of(op);
        let for_codecs = request.clone();
        let t0 = Instant::now();
        let response = self.session.handle(request);
        self.handle_ns.push(ns(t0));
        if let Err(e) = self.codecs(&for_codecs, &response) {
            return Answer::Failed(e);
        }
        answer_of(Ok(response))
    }
}

/// A client built from the public codec and frame functions, so each step
/// of a round trip gets its own span:
/// `op ⊃ protocol.encode | frame.write | server.wait | frame.read |
/// protocol.decode`.
pub struct ThinClient {
    stream: TcpStream,
    /// The spans of every exchange.
    pub log: SpanLog,
    /// Index in `log` of each operation's `server.wait` span.
    pub wait_spans: Vec<u32>,
    /// Whole round trip per operation.
    pub op_ns: Vec<u64>,
    next_op: u32,
}

impl ThinClient {
    /// Connects like `Client::connect` does: `TCP_NODELAY`, 30 s timeouts.
    pub fn connect(addr: SocketAddr) -> Result<ThinClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let timeout = Some(Duration::from_secs(30));
        stream
            .set_read_timeout(timeout)
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(timeout)
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(ThinClient {
            stream,
            log: SpanLog::new(),
            wait_spans: Vec::new(),
            op_ns: Vec::new(),
            next_op: 0,
        })
    }

    /// One request, one response, five spans under one `op`.
    pub fn exchange(&mut self, request: &Request) -> Result<Response, String> {
        let t0 = self.log.now_ns();
        let payload = request.encode().map_err(|e| e.to_string())?;
        let t1 = self.log.now_ns();
        write_frame(&mut self.stream, &payload).map_err(|e| e.to_string())?;
        let t2 = self.log.now_ns();
        // Block until the first byte of the answer is here, so waiting for
        // the server and reading the frame are told apart.
        self.stream.peek(&mut [0u8; 1]).map_err(|e| e.to_string())?;
        let t3 = self.log.now_ns();
        let payload = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection mid-request")?;
        let t4 = self.log.now_ns();
        let response = Response::decode(&payload).map_err(|e| e.to_string())?;
        let t5 = self.log.now_ns();

        let id = self.next_op;
        self.next_op += 1;
        let root = self.log.push("op", t0, t5, None, id);
        self.log.push("protocol.encode", t0, t1, Some(root), id);
        self.log.push("frame.write", t1, t2, Some(root), id);
        let wait = self.log.push("server.wait", t2, t3, Some(root), id);
        self.log.push("frame.read", t3, t4, Some(root), id);
        self.log.push("protocol.decode", t4, t5, Some(root), id);
        self.wait_spans.push(wait);
        self.op_ns.push(t5 - t0);
        Ok(response)
    }
}

/// What a [`ThinClient`] measured, once its connection is closed.
pub struct WireMeasurements {
    /// The spans of every exchange.
    pub spans: Vec<Span>,
    /// Index in `spans` of each operation's `server.wait` span.
    pub wait_spans: Vec<u32>,
    /// Whole round trip per operation.
    pub op_ns: Vec<u64>,
}

impl ThinClient {
    /// Closes the connection and keeps the measurements.
    pub fn into_measurements(self) -> WireMeasurements {
        WireMeasurements {
            spans: self.log.into_spans(),
            wait_spans: self.wait_spans,
            op_ns: self.op_ns,
        }
    }
}

impl Backend for ThinClient {
    fn run(&mut self, op: &Op) -> Answer {
        answer_of(self.exchange(&request_of(op)))
    }
}

//! Property tests for the server wire codec: framing and protocol
//! round-trips, and typed (never panicking) rejection of malformed,
//! truncated, and oversized input.

use bytes::BytesMut;
use proptest::prelude::*;

use spacefungus::fungus_server::frame::{
    decode_frame, encode_frame, read_frame, FrameError, HEADER_LEN, MAX_FRAME,
};
use spacefungus::fungus_server::{ErrorCode, Request, Response, StatsSummary};
use spacefungus::fungus_types::json::{self, Json};
use spacefungus::fungus_types::Value;

proptest! {
    /// encode → decode is the identity for any payload within the cap.
    #[test]
    fn frame_round_trip_identity(payload in proptest::collection::vec(any::<u8>(), 0..2048usize)) {
        let encoded = encode_frame(&payload).unwrap();
        prop_assert_eq!(encoded.len(), HEADER_LEN + payload.len());
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encoded);
        let decoded = decode_frame(&mut buf).unwrap().expect("complete frame");
        prop_assert_eq!(decoded.as_slice(), &payload[..]);
        prop_assert!(buf.is_empty());
    }

    /// A stream of frames survives arbitrary re-chunking: feeding the
    /// concatenated bytes in random slices yields the same frames in
    /// order, with partial input never producing a frame or a panic.
    #[test]
    fn frames_survive_rechunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256usize),
            1..6usize,
        ),
        cuts in proptest::collection::vec(1usize..64, 0..24usize),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p).unwrap());
        }
        let mut buf = BytesMut::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut cut_iter = cuts.iter().copied().chain(std::iter::repeat(17));
        while offset < stream.len() {
            let step = cut_iter.next().unwrap().min(stream.len() - offset);
            buf.extend_from_slice(&stream[offset..offset + step]);
            offset += step;
            while let Some(frame) = decode_frame(&mut buf).unwrap() {
                decoded.push(frame.to_vec());
            }
        }
        prop_assert_eq!(decoded, payloads);
    }

    /// Truncating a frame anywhere keeps the decoder waiting (incremental
    /// path) and yields a typed Truncated error (stream path) — no panic,
    /// no partial frame.
    #[test]
    fn truncated_frames_are_incomplete_not_wrong(
        payload in proptest::collection::vec(any::<u8>(), 1..512usize),
        keep_fraction in 0.0f64..1.0,
    ) {
        let encoded = encode_frame(&payload).unwrap();
        let keep = ((encoded.len() as f64) * keep_fraction) as usize;
        let keep = keep.min(encoded.len() - 1);
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encoded[..keep]);
        prop_assert_eq!(decode_frame(&mut buf).unwrap(), None);
        prop_assert_eq!(buf.len(), keep); // untouched while incomplete

        let mut cut: &[u8] = &encoded[..keep];
        match read_frame(&mut cut) {
            Ok(None) => prop_assert_eq!(keep, 0),
            Err(FrameError::Truncated { have, need }) => {
                prop_assert!(have < need);
                prop_assert!(have <= keep);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// Any header announcing more than MAX_FRAME is rejected with the
    /// typed Oversized error by both decode paths.
    #[test]
    fn oversized_claims_are_typed_errors(
        excess in 1u32..1_000_000,
        tail in proptest::collection::vec(any::<u8>(), 0..32usize),
    ) {
        let claimed = (MAX_FRAME as u32).saturating_add(excess);
        let mut raw = claimed.to_be_bytes().to_vec();
        raw.extend_from_slice(&tail);

        let mut buf = BytesMut::new();
        buf.extend_from_slice(&raw);
        prop_assert!(matches!(
            decode_frame(&mut buf),
            Err(FrameError::Oversized { .. })
        ));

        let mut cursor: &[u8] = &raw;
        prop_assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized { .. })
        ));
    }

    /// Requests round-trip through JSON + framing for arbitrary statement
    /// text (printable unicode).
    #[test]
    fn requests_round_trip_any_text(text in "\\PC{0,120}") {
        let req = Request::Sql { text };
        let bytes = req.encode().unwrap();
        let framed = encode_frame(&bytes).unwrap();
        let mut cursor: &[u8] = &framed;
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    /// Responses round-trip for arbitrary row shapes.
    #[test]
    fn responses_round_trip_any_rows(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1_000_000i64..1_000_000, 0..4usize),
            0..8usize,
        ),
        distilled in 0u64..1_000_000,
    ) {
        let resp = Response::Rows {
            columns: vec!["a".into(), "b".into()],
            rows: rows
                .iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
            distilled,
            consumed: rows.len() as u64,
        };
        let bytes = resp.encode().unwrap();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    /// The full server-counter summary — shard gauges, cooking-sketch
    /// counters, and the MVCC gauges included — survives the wire
    /// bit-for-bit for arbitrary counter values up to the codec's 2^53
    /// integer ceiling.
    #[test]
    fn stats_summary_round_trips_any_counters(
        counters in proptest::collection::vec(0u64..(1 << 53), 30),
    ) {
        let summary = StatsSummary {
            accepted: counters[0],
            rejected: counters[1],
            requests: counters[2],
            responses: counters[3],
            errors: counters[4],
            faults_injected: counters[5],
            worker_panics: counters[6],
            workers_respawned: counters[7],
            driver_ticks: counters[8],
            shards: counters[9],
            shards_dropped: counters[10],
            shards_pruned: counters[11],
            shards_split: counters[12],
            shards_merged: counters[13],
            shards_restored: counters[14],
            sketches: counters[15],
            sketch_hits: counters[16],
            sketch_absorbed: counters[17],
            mvcc_epoch: counters[18],
            mvcc_published: counters[19],
            mvcc_retired: counters[20],
            mvcc_reclaimed: counters[21],
            mvcc_snapshot_reads: counters[22],
            mvcc_consume_retries: counters[23],
            mvcc_consume_fallbacks: counters[24],
            reactor_sessions: counters[25],
            reactor_ready_events: counters[26],
            reactor_stalls: counters[27],
            reactor_wakeups: counters[28],
            reactor_write_hwm: counters[29],
        };
        // `.stats` renders `rows()`: one row per wire field, under the
        // field's wire name, in declaration order.
        let rows = summary.rows();
        let wire = match json::parse(&json::to_string(&summary).unwrap()).unwrap() {
            Json::Obj(fields) => fields,
            other => panic!("summary serialized as {other:?}"),
        };
        let mut names: Vec<&str> = rows.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        prop_assert_eq!(names, wire.keys().map(String::as_str).collect::<Vec<_>>());
        for (name, value) in rows {
            prop_assert_eq!(&wire[name], &Json::Num(value as f64), "row {}", name);
        }
        prop_assert_eq!(rows.map(|(_, value)| value).to_vec(), counters);

        let resp = Response::Health {
            reports: vec![],
            server: Some(Box::new(summary)),
        };
        let bytes = resp.encode().unwrap();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    /// Arbitrary garbage payloads never panic the protocol decoder: they
    /// either parse (vanishingly unlikely) or produce a typed error.
    #[test]
    fn garbage_payloads_decode_to_typed_errors(garbage in proptest::collection::vec(any::<u8>(), 0..256usize)) {
        match Request::decode(&garbage) {
            Ok(_) | Err(_) => {} // reaching here at all is the property
        }
        match Response::decode(&garbage) {
            Ok(_) | Err(_) => {}
        }
    }
}

#[test]
fn error_code_variants_round_trip() {
    for code in [
        ErrorCode::Parse,
        ErrorCode::Unknown,
        ErrorCode::Execution,
        ErrorCode::Protocol,
        ErrorCode::Unavailable,
    ] {
        let resp = Response::Error {
            code,
            message: "m".into(),
        };
        let bytes = resp.encode().unwrap();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }
}

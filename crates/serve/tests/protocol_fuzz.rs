//! Protocol robustness: a seeded fuzz loop throws truncated,
//! bit-flipped, oversized-length, and garbage frames at the decoder
//! and the server. Every case must come back as a typed
//! [`ProtocolError`] (or a wire `error` message) — never a panic — and
//! must bump the malformed-frame counter, mirroring the run log's
//! lenient line parsing.

use std::io::Cursor;

use fedl_core::policy::PolicyKind;
use fedl_linalg::rng::{rng_for, Rng};
use fedl_serve::{
    decode_frame, read_frame, write_frame, Message, ProtocolError, ServeConfig, ServerState,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use fedl_telemetry::Telemetry;

/// A rotating set of well-formed messages to mutate.
fn valid_message(i: usize) -> Message {
    match i % 6 {
        0 => Message::Hello { protocol_version: PROTOCOL_VERSION, node: "fuzz".into() },
        1 => Message::ClientJoin { client: i % 40 },
        2 => Message::SelectCohort { epoch: i, trace: fedl_serve::Trace::Absent },
        3 => Message::Cohort { epoch: i, cohort: vec![1, 2, 3], iterations: 4, done: false },
        4 => Message::TrainResult {
            epoch: i,
            cohort: vec![0, 5],
            iterations: 3,
            latency_secs: 1.5,
            per_client_iter_latency: vec![0.5, 0.25],
            cost: 7.5,
            eta_hats: vec![0.5, 0.625],
            global_loss: 2.25,
            grad_dot_delta: vec![-0.125, -0.5],
            local_losses: vec![2.0, 2.5],
        },
        _ => Message::Shutdown,
    }
}

#[test]
fn mutated_frames_yield_typed_errors_and_count() {
    let config = ServeConfig::new(40, 3, 1000.0, 3, PolicyKind::FedL);
    let mut server = ServerState::new(config, Telemetry::in_memory().0);
    let mut rng = rng_for(0xF022_2ED5, 1);
    let rounds = 300usize;
    for i in 0..rounds {
        let mut frame = fedl_serve::encode_frame(&valid_message(i));
        match i % 3 {
            0 => {
                // Truncate somewhere inside the frame.
                let cut = (rng.next_u64() as usize) % frame.len();
                frame.truncate(cut);
            }
            1 => {
                // Flip one random bit.
                let byte = (rng.next_u64() as usize) % frame.len();
                let bit = (rng.next_u64() % 8) as u8;
                frame[byte] ^= 1 << bit;
            }
            _ => {
                // Replace with garbage bytes of random length.
                let len = 1 + (rng.next_u64() as usize) % 64;
                frame = (0..len).map(|_| rng.next_u64() as u8).collect();
            }
        }
        let before = server.malformed_frames();
        let (reply, _control) = server.handle_frame(&frame);
        let decoded = decode_frame(&reply).expect("server replies are always well-formed");
        assert!(
            matches!(decoded, Message::Error { .. }),
            "round {i}: mutated frame must be refused, got {decoded:?}"
        );
        assert_eq!(server.malformed_frames(), before + 1, "round {i}: counter must move");
    }
    assert_eq!(server.malformed_frames(), rounds as u64);
    // The server survived 300 rounds of abuse and still works.
    let (reply, _) = server.handle_message(Message::ClientJoin { client: 0 });
    assert!(matches!(reply, Message::Snapshot { .. }));
}

/// Re-encodes `msg` with its field `key` replaced by `column` (or
/// removed when `None`) under a valid checksum: only the column is bad.
fn frame_with_column(msg: &Message, key: &str, column: Option<fedl_json::Value>) -> Vec<u8> {
    let fedl_json::Value::Obj(mut pairs) = msg.to_json_value() else {
        panic!("messages are JSON objects");
    };
    let at = pairs.iter().position(|(k, _)| k == key).expect("the message has the column");
    match column {
        Some(column) => pairs[at].1 = column,
        None => {
            pairs.remove(at);
        }
    }
    fedl_store::encode_envelope("serve-msg", &fedl_json::Value::Obj(pairs)).into_bytes()
}

#[test]
fn malformed_packed_columns_are_schema_errors_and_counted() {
    use fedl_json::Value;
    let config = ServeConfig::new(40, 3, 1000.0, 3, PolicyKind::FedL);
    let mut server = ServerState::new(config, Telemetry::in_memory().0);
    let train = valid_message(4);
    let cohort = valid_message(3);
    let cases: Vec<(&str, &Message, &str, Option<Value>)> = vec![
        ("non-base64", &train, "per_client_iter_latency", Some(Value::from("AAAA!AAAAAA="))),
        ("non-base64", &cohort, "cohort", Some(Value::from("AQAAAAAAAAA*"))),
        ("non-base64", &train, "per_client_iter_latency", Some(Value::from("AAAA AAAAAA="))),
        ("bad padding", &train, "eta_hats", Some(Value::from("AAAAAA=A"))),
        ("bad padding", &train, "local_losses", Some(Value::from("AAAAAAA"))),
        ("bad padding", &train, "per_client_iter_latency", Some(Value::from("AAAAAAAAA==="))),
        ("bad padding", &train, "eta_hats", Some(Value::from("AAAAA=A="))),
        ("bad padding", &cohort, "cohort", Some(Value::from("AA==AAAAAAAA"))),
        ("padding bits", &train, "grad_dot_delta", Some(Value::from("AAAAAAB="))),
        ("width", &train, "per_client_iter_latency", Some(Value::from("AAAAAAAAAAAA"))),
        ("width", &train, "eta_hats", Some(Value::from("AAAAAAA="))),
        ("width", &cohort, "cohort", Some(Value::from("AQAAAA=="))),
        ("v3 array", &train, "eta_hats", Some(Value::Arr(vec![Value::Float(0.5); 2]))),
        ("v3 array", &cohort, "cohort", Some(Value::Arr(vec![Value::Int(1)]))),
        ("not a string", &train, "grad_dot_delta", Some(Value::Float(0.5))),
        ("not a string", &train, "local_losses", Some(Value::Null)),
        ("missing", &train, "per_client_iter_latency", None),
        ("missing", &cohort, "cohort", None),
    ];
    for (i, (what, msg, key, column)) in cases.into_iter().enumerate() {
        let frame = frame_with_column(msg, key, column);
        assert!(
            matches!(decode_frame(&frame), Err(ProtocolError::Schema { .. })),
            "case {i} ({what}, {key}) must be a schema error"
        );
        let before = server.malformed_frames();
        let (reply, _control) = server.handle_frame(&frame);
        match decode_frame(&reply) {
            Ok(Message::Error { code, .. }) => assert_eq!(code, "schema", "case {i}"),
            other => panic!("case {i} ({what}, {key}): expected a schema error, got {other:?}"),
        }
        assert_eq!(server.malformed_frames(), before + 1, "case {i}: counter must move");
    }
    // The server still serves: a join and a selection go through.
    let (reply, _) = server.handle_message(Message::ClientJoin { client: 0 });
    assert!(matches!(reply, Message::Snapshot { .. }));
    let select = fedl_serve::encode_frame(&Message::SelectCohort {
        epoch: 0,
        trace: fedl_serve::Trace::Absent,
    });
    let (reply, _) = server.handle_frame(&select);
    assert!(matches!(decode_frame(&reply), Ok(Message::Cohort { epoch: 0, .. })));
}

#[test]
fn stream_level_damage_is_typed() {
    // Oversized length prefix: desync, not an allocation attempt.
    let huge = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
    assert!(matches!(read_frame(&mut Cursor::new(huge)), Err(ProtocolError::FrameTooLarge { .. })));
    // Stream cut inside the length prefix.
    assert!(matches!(
        read_frame(&mut Cursor::new(vec![0u8; 3])),
        Err(ProtocolError::TruncatedFrame { expected: 4, got: 3 })
    ));
    // Stream cut inside the payload.
    let mut wire = Vec::new();
    write_frame(&mut wire, &fedl_serve::encode_frame(&Message::Shutdown)).unwrap();
    wire.truncate(wire.len() - 5);
    assert!(matches!(
        read_frame(&mut Cursor::new(wire)),
        Err(ProtocolError::TruncatedFrame { .. })
    ));
    // An over-limit frame is refused on the send side too.
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &vec![0u8; MAX_FRAME_BYTES + 1]),
        Err(ProtocolError::FrameTooLarge { .. })
    ));
}

#[test]
fn fuzzed_trace_ids_never_panic_and_are_counted() {
    use fedl_json::{obj, Value};
    let config = ServeConfig::new(40, 3, 1000.0, 3, PolicyKind::FedL);
    let tel = Telemetry::in_memory().0;
    let mut server = ServerState::new(config, tel.clone());
    let mut rng = rng_for(0x7_2ACE, 3);
    let mut invalid = 0u64;
    for i in 0..200 {
        // Random bytes rendered as a JSON string: sometimes valid hex,
        // mostly garbage (overlong, non-hex, empty, signed).
        let mut gen_id = || {
            let len = (rng.next_u64() % 24) as usize;
            (0..len).map(|_| (rng.next_u64() % 96 + 32) as u8 as char).collect::<String>()
        };
        let trace_id = gen_id();
        let span_id = gen_id();
        let valid =
            |s: &str| !s.is_empty() && s.len() <= 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
        if !(valid(&trace_id) && valid(&span_id)) {
            invalid += 1;
        }
        let payload = obj(vec![
            ("type", Value::from("select_cohort")),
            ("epoch", Value::Int(i as i64)),
            ("trace_id", Value::from(trace_id)),
            ("span_id", Value::from(span_id)),
        ]);
        let frame = fedl_store::encode_envelope("serve-msg", &payload).into_bytes();
        // Must never panic; the reply is always a well-formed frame.
        let (reply, _) = server.handle_frame(&frame);
        decode_frame(&reply).expect("server replies are always well-formed");
    }
    assert!(invalid > 0, "the generator should produce garbage ids");
    assert_eq!(tel.counter("proto.bad_trace_ids").value(), invalid);
}

#[test]
fn decoder_never_panics_on_seeded_garbage() {
    let mut rng = rng_for(0xDECAF, 2);
    for _ in 0..500 {
        let len = (rng.next_u64() as usize) % 256;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Must be an Err, and must not panic.
        assert!(decode_frame(&bytes).is_err());
    }
}

#[test]
fn megabyte_string_field_is_answered_promptly() {
    // One checksummed frame may carry up to MAX_FRAME_BYTES of JSON; a
    // long string field must cost the single-threaded server loop time
    // linear in its length, not a stall.
    let config = ServeConfig::new(40, 3, 1000.0, 3, PolicyKind::FedL);
    let mut server = ServerState::new(config, Telemetry::in_memory().0);
    let node = "fuzz-\u{e9}".repeat((1 << 20) / 7);
    let frame = fedl_serve::encode_frame(&Message::Hello {
        protocol_version: PROTOCOL_VERSION,
        node: node.clone(),
    });
    assert!(frame.len() > 1 << 20 && frame.len() < MAX_FRAME_BYTES);
    assert!(matches!(decode_frame(&frame), Ok(Message::Hello { node: back, .. }) if back == node));
    let start = std::time::Instant::now();
    let (reply, _) = server.handle_frame(&frame);
    let elapsed = start.elapsed();
    decode_frame(&reply).expect("server replies are always well-formed");
    assert!(elapsed < std::time::Duration::from_secs(5), "a 1 MiB string field took {elapsed:?}");
}

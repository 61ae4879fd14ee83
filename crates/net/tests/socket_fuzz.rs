//! Wire-format hardening over a **real socket**: valid control frames must
//! round-trip through localhost TCP, and fuzzed / bit-flipped / truncated /
//! length-forged frames arriving from the network must surface as typed
//! `InvalidData` errors — never a panic, never an allocation driven by a
//! forged length prefix. A worker process that dies before it registers
//! fails the cluster spawn instead of hanging it.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::Stdio;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_net::link::FramedConn;
use trance_net::msg::{ClusterParams, Ctrl, DropSpec, LoadKind, MAX_NET_FRAME};
use trance_net::testkit::spawn_cluster_with;
use trance_nrc::Value;
use trance_store::wire;

/// A connected localhost socket pair.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = thread::spawn(move || TcpStream::connect(addr).unwrap());
    let (server, _) = listener.accept().unwrap();
    (client.join().unwrap(), server)
}

fn sample_messages() -> Vec<Ctrl> {
    vec![
        Ctrl::Hello {
            data_addr: "127.0.0.1:9999".into(),
        },
        Ctrl::Peers {
            rank: 1,
            data_addrs: vec!["a:1".into(), "b:2".into()],
            params: ClusterParams {
                partitions: 8,
                threads: 2,
                broadcast_limit: 64,
            },
        },
        Ctrl::Load {
            kind: LoadKind::Flat,
            name: "R".into(),
            parts: vec![vec![Value::Int(3), Value::str("x")], Vec::new()],
        },
        Ctrl::Run {
            epoch: 4,
            job: 2,
            attempt: 0,
            strategy: "STANDARD".into(),
            query: "for x in R union {( u := x.a )}".into(),
            decls: Vec::new(),
            deadline_ms: None,
            drop: Some(DropSpec {
                victim: 0,
                after_frames: 3,
            }),
        },
        Ctrl::Shutdown,
    ]
}

#[test]
fn control_frames_round_trip_over_tcp() {
    let (client, server) = socket_pair();
    let client = FramedConn::new(client).unwrap();
    let server = FramedConn::new(server).unwrap();
    let msgs = sample_messages();
    let sender = {
        let msgs = msgs.clone();
        thread::spawn(move || {
            for msg in &msgs {
                client.send(msg).unwrap();
            }
            client
        })
    };
    for expected in &msgs {
        let got = server.recv().unwrap().expect("stream closed early");
        assert_eq!(&got, expected);
    }
    drop(sender.join().unwrap());
    // Orderly close after the last message is a clean end-of-stream.
    assert!(server.recv().unwrap().is_none());
}

/// Writes `bytes` to a fresh socket and returns what the framed receiver
/// made of them. The writer closes immediately, so a decoder that survives
/// the corruption sees EOF next.
fn deliver(bytes: &[u8]) -> std::io::Result<Option<Ctrl>> {
    let (mut client, server) = socket_pair();
    let server = FramedConn::new(server).unwrap();
    client.write_all(bytes).unwrap();
    drop(client);
    server.recv()
}

#[test]
fn bit_flipped_frames_surface_typed_errors() {
    // One clean frame as the corpus; every single-bit corruption of it must
    // decode to an error or (if the flip lands in the payload of a frame
    // whose CRC then mismatches — always) never panic.
    let msg = Ctrl::Run {
        epoch: 1,
        job: 1,
        attempt: 0,
        strategy: "STANDARD".into(),
        query: "for x in R union {( u := x.a )}".into(),
        decls: Vec::new(),
        deadline_ms: Some(100),
        drop: None,
    };
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, 0x10, &msg.encode().unwrap()).unwrap();

    let mut rng = StdRng::seed_from_u64(0xF1A5);
    let mut cases = 0;
    let mut rejected = 0;
    for _ in 0..200 {
        let byte = rng.gen_range(0..frame.len());
        let bit = rng.gen_range(0..8u32);
        let mut corrupt = frame.clone();
        corrupt[byte] ^= 1 << bit;
        cases += 1;
        match deliver(&corrupt) {
            Err(_) => rejected += 1,
            Ok(None) => panic!("corrupt frame read as clean EOF"),
            Ok(Some(got)) => {
                // The only survivable flips would have to leave the CRC
                // consistent — a single bit flip never does.
                panic!("single-bit corruption decoded as {got:?}");
            }
        }
    }
    assert_eq!(cases, rejected, "every bit flip must be rejected");
}

#[test]
fn truncated_frames_error_cleanly() {
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, 0x10, &Ctrl::Shutdown.encode().unwrap()).unwrap();
    for cut in 1..frame.len() {
        let res = deliver(&frame[..cut]);
        assert!(
            res.is_err(),
            "truncation at byte {cut} must error, got {res:?}"
        );
    }
    // Zero bytes then close is the one legal degenerate stream.
    assert!(deliver(&[]).unwrap().is_none());
}

#[test]
fn forged_length_is_rejected_before_allocating() {
    // A header claiming a 4 GiB payload: the reader must refuse from the
    // header alone (the length exceeds the cap), not try to allocate it.
    let mut header = Vec::new();
    header.extend_from_slice(&wire::WIRE_MAGIC);
    header.extend_from_slice(&wire::WIRE_VERSION.to_le_bytes());
    header.push(0x10); // kind
    header.push(0); // flags
    header.extend_from_slice(&u32::MAX.to_le_bytes()); // forged length
    header.extend_from_slice(&0u32.to_le_bytes()); // bogus CRC
    assert_eq!(header.len(), wire::HEADER_LEN);
    let err = deliver(&header).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("exceeds"),
        "expected a length-cap rejection, got: {err}"
    );

    // A length under the cap but far beyond what the stream delivers must
    // also fail on the short read, with allocation bounded by arrival.
    let mut sneaky = Vec::new();
    sneaky.extend_from_slice(&wire::WIRE_MAGIC);
    sneaky.extend_from_slice(&wire::WIRE_VERSION.to_le_bytes());
    sneaky.push(0x10);
    sneaky.push(0);
    sneaky.extend_from_slice(&(MAX_NET_FRAME as u32 - 1).to_le_bytes());
    sneaky.extend_from_slice(&0u32.to_le_bytes());
    sneaky.extend_from_slice(b"just a few actual bytes");
    assert!(deliver(&sneaky).is_err());
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xBADF00D);
    for _ in 0..200 {
        let len = rng.gen_range(0..256usize);
        let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        // Random bytes essentially never form a valid magic + CRC; either
        // way the decoder must return, not panic or hang.
        let _ = deliver(&junk);
    }
}

#[test]
fn data_frame_corruption_marks_link_not_process() {
    // The data-plane encoder is exposed for exactly this: corrupting a
    // shuffle frame's payload must fail the CRC at the wire layer.
    let frame = trance_net::exchange::encode_data_frame(7, 1, b"piece-bytes").unwrap();
    let mut corrupt = frame.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    assert!(deliver(&corrupt).is_err());
    // And the pristine frame is a valid wire frame (wrong kind for the
    // control plane, so the framed receiver rejects it with a typed error
    // rather than misreading it as a control message).
    let err = deliver(&frame).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("expected control frame"));
}

#[test]
fn a_worker_that_exits_before_registering_fails_the_spawn() {
    let params = ClusterParams {
        partitions: 4,
        threads: 1,
        broadcast_limit: 64,
    };
    let started = Instant::now();
    let worker = Path::new(env!("CARGO_BIN_EXE_trance-worker"));
    let spawned = spawn_cluster_with(worker, 2, params, |rank, _| {
        rank.arg("--bogus").stderr(Stdio::null());
    });
    let err = spawned.expect_err("a rejected argument must fail the spawn");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the spawn took {:?} to fail",
        started.elapsed()
    );
    let detail = err.to_string();
    assert!(
        detail.contains("exited before the cluster formed") && detail.contains("exit status"),
        "unexpected spawn error: {detail}"
    );
}

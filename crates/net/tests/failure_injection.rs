//! Protocol fault injection: hostile and broken peers must cost the
//! server at most the one offending connection — an `Error` frame or a
//! drop, never a panic, and never a wedged sibling connection. Every
//! case ends by proving a healthy client is still served. The last case
//! turns the roles around: a server that answers late must cost the
//! client an error, never a wrong answer.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use atc_core::format::{
    read_net_frame, NetRequest, NetResponse, NET_MAGIC, NET_MAX_FRAME, NET_PROTOCOL_VERSION,
};
use atc_net::{AtcClient, ClientOptions, ServeOptions};
use atc_store::ShardPolicy;
use common::{build_store, local_range, scratch, TestServer};

/// A small store for the cheap cases.
fn small_store(root: &std::path::Path) -> Vec<u64> {
    build_store(root, 2, ShardPolicy::RoundRobin, 4_000, 500, "lz")
}

/// Server options tuned for fault tests: quick I/O deadline so stalls
/// resolve in test time, two workers so a poisoned connection always
/// leaves a worker for the healthy probe.
fn fault_options() -> ServeOptions {
    ServeOptions {
        workers: 2,
        io_timeout: Duration::from_millis(400),
        ..ServeOptions::default()
    }
}

/// Connects raw and consumes the server banner.
fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut banner = [0u8; NET_MAGIC.len()];
    (&stream).read_exact(&mut banner).unwrap();
    assert_eq!(banner, NET_MAGIC, "server leads with its banner");
    stream
}

/// Full magic + Hello handshake over a raw stream.
fn raw_handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = raw_connect(addr);
    stream.write_all(&NET_MAGIC).unwrap();
    NetRequest::Hello {
        version: NET_PROTOCOL_VERSION,
    }
    .write(&mut stream)
    .unwrap();
    let body = read_net_frame(&mut &stream).unwrap().expect("hello reply");
    assert!(matches!(
        NetResponse::decode(&body).unwrap(),
        NetResponse::Hello { .. }
    ));
    stream
}

/// The after-the-fault probe: a fresh well-behaved client must still be
/// served correctly.
fn assert_healthy(addr: std::net::SocketAddr, root: &std::path::Path) {
    let mut client = AtcClient::connect(addr).unwrap();
    assert_eq!(
        client.read_range(100..300).unwrap(),
        local_range(root, 100, 300),
        "healthy client after the fault"
    );
}

#[test]
fn garbage_magic_answers_error_and_closes() {
    let root = scratch("fault-magic");
    small_store(&root);
    let server = TestServer::start(&root, fault_options());

    let mut stream = raw_connect(server.addr);
    stream.write_all(b"HTTP/1.\r\n\r\n").unwrap();
    let body = read_net_frame(&mut &stream).unwrap().expect("error frame");
    match NetResponse::decode(&body).unwrap() {
        NetResponse::Error { message } => assert!(message.contains("magic"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(server.wait_for(Duration::from_secs(5), |s| s.proto_errors == 1));

    assert_healthy(server.addr, &root);
    let stats = server.stop();
    assert_eq!(stats.proto_errors, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_request_frame_drops_only_that_connection() {
    let root = scratch("fault-truncated");
    small_store(&root);
    let server = TestServer::start(&root, fault_options());

    // Declare a 20-byte request, deliver 3 bytes, hang up.
    let mut stream = raw_handshake(server.addr);
    stream.write_all(&[20u8, 0x03, 0x01, 0x02]).unwrap();
    drop(stream);
    assert!(
        server.wait_for(Duration::from_secs(5), |s| s.dropped + s.proto_errors >= 1),
        "truncated frame not accounted: {:?}",
        server.handle.stats()
    );

    // Same shape, but the peer stalls instead of closing: the I/O
    // deadline reaps it.
    let mut stream = raw_handshake(server.addr);
    stream.write_all(&[20u8, 0x03]).unwrap();
    assert!(
        server.wait_for(Duration::from_secs(5), |s| s.dropped + s.proto_errors >= 2),
        "stalled frame not reaped: {:?}",
        server.handle.stats()
    );
    drop(stream);

    assert_healthy(server.addr, &root);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_declared_length_is_rejected_before_allocation() {
    let root = scratch("fault-oversized");
    small_store(&root);
    let server = TestServer::start(&root, fault_options());

    let mut stream = raw_handshake(server.addr);
    let mut frame = Vec::new();
    atc_codec::varint::write_u64(&mut frame, NET_MAX_FRAME + 1).unwrap();
    stream.write_all(&frame).unwrap();
    let body = read_net_frame(&mut &stream).unwrap().expect("error frame");
    match NetResponse::decode(&body).unwrap() {
        NetResponse::Error { message } => assert!(message.contains("cap"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The connection is gone afterwards (EOF, not a hang).
    let mut probe = [0u8; 1];
    assert_eq!((&stream).read(&mut probe).unwrap_or(0), 0);

    assert!(server.wait_for(Duration::from_secs(5), |s| s.proto_errors >= 1));
    assert_healthy(server.addr, &root);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_tags_and_non_hello_openers_answer_error() {
    let root = scratch("fault-tags");
    small_store(&root);
    let server = TestServer::start(&root, fault_options());

    // Opening with a valid frame that is not Hello.
    let mut stream = raw_connect(server.addr);
    stream.write_all(&NET_MAGIC).unwrap();
    NetRequest::StatStore.write(&mut stream).unwrap();
    let body = read_net_frame(&mut &stream).unwrap().expect("error frame");
    assert!(matches!(
        NetResponse::decode(&body).unwrap(),
        NetResponse::Error { .. }
    ));

    // An unknown tag after a good handshake.
    let mut stream = raw_handshake(server.addr);
    stream.write_all(&[1u8, 0x6F]).unwrap();
    let body = read_net_frame(&mut &stream).unwrap().expect("error frame");
    match NetResponse::decode(&body).unwrap() {
        NetResponse::Error { message } => assert!(message.contains("tag"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }

    assert!(server.wait_for(Duration::from_secs(5), |s| s.proto_errors >= 2));
    assert_healthy(server.addr, &root);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn connect_and_ignore_is_reaped_by_the_handshake_deadline() {
    let root = scratch("fault-mute");
    small_store(&root);
    let server = TestServer::start(&root, fault_options());

    // Never sends a byte: must not pin its worker past the deadline.
    let stream = TcpStream::connect(server.addr).unwrap();
    assert!(
        server.wait_for(Duration::from_secs(5), |s| s.dropped >= 1),
        "mute connection not reaped: {:?}",
        server.handle.stats()
    );
    drop(stream);

    assert_healthy(server.addr, &root);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// The big-store cases: enough bytes that a response cannot hide in
/// socket buffers, so write-side stalls really block the server.
fn big_store(root: &std::path::Path) -> u64 {
    build_store(root, 3, ShardPolicy::RoundRobin, 1_500_000, 50_000, "store").len() as u64
}

#[test]
fn midstream_disconnect_drops_one_connection_not_the_server() {
    let root = scratch("fault-disconnect");
    let count = big_store(&root);
    let server = TestServer::start(&root, fault_options());

    // Ask for everything, read one Data frame, vanish.
    let mut stream = raw_handshake(server.addr);
    NetRequest::ReadRange {
        start: 0,
        end: count,
    }
    .write(&mut stream)
    .unwrap();
    let body = read_net_frame(&mut &stream).unwrap().expect("first data");
    assert!(matches!(
        NetResponse::decode(&body).unwrap(),
        NetResponse::Data(_)
    ));
    drop(stream);
    assert!(
        server.wait_for(Duration::from_secs(10), |s| s.dropped >= 1),
        "disconnect not detected: {:?}",
        server.handle.stats()
    );

    assert_healthy(server.addr, &root);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stalled_reader_is_dropped_while_siblings_are_served() {
    let root = scratch("fault-stall");
    let count = big_store(&root);
    let server = TestServer::start(
        &root,
        ServeOptions {
            workers: 2,
            window_bytes: 64 << 10,
            io_timeout: Duration::from_millis(400),
            ..ServeOptions::default()
        },
    );

    // Request the whole store and then read nothing: the send window
    // fills, the flush blocks on the dead socket, and the write
    // deadline reaps the connection.
    let mut stream = raw_handshake(server.addr);
    NetRequest::ReadRange {
        start: 0,
        end: count,
    }
    .write(&mut stream)
    .unwrap();

    // While the stalled connection is being reaped, a sibling on the
    // other worker still gets its data.
    assert_healthy(server.addr, &root);
    assert!(
        server.wait_for(Duration::from_secs(10), |s| s.dropped >= 1),
        "stalled reader never dropped: {:?}",
        server.handle.stats()
    );
    drop(stream);

    assert_healthy(server.addr, &root);
    let stats = server.stop();
    assert!(stats.dropped >= 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn late_reply_poisons_the_client_instead_of_answering_the_next_request() {
    // A fake server: completes the handshake, holds its first
    // `ReadRange` reply until the client has given up on it, then sends
    // it.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (timed_out_tx, timed_out_rx) = std::sync::mpsc::channel::<()>();
    let (late_sent_tx, late_sent_rx) = std::sync::mpsc::channel();
    let (finish_tx, finish_rx) = std::sync::mpsc::channel::<()>();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&NET_MAGIC).unwrap();
        let mut banner = [0u8; NET_MAGIC.len()];
        stream.read_exact(&mut banner).unwrap();
        read_net_frame(&mut stream).unwrap().expect("hello");
        NetResponse::Hello {
            version: NET_PROTOCOL_VERSION,
        }
        .write(&mut stream)
        .unwrap();
        read_net_frame(&mut stream)
            .unwrap()
            .expect("first read_range");
        timed_out_rx.recv().unwrap();
        NetResponse::Data((100..110).collect())
            .write(&mut stream)
            .unwrap();
        NetResponse::Done { values: 10 }.write(&mut stream).unwrap();
        stream.flush().unwrap();
        late_sent_tx.send(()).unwrap();
        // Keep the socket open until the client is done, so nothing but
        // the late reply is there to be misread.
        let _ = finish_rx.recv();
    });

    let mut client = AtcClient::connect_with(
        addr,
        ClientOptions {
            io_timeout: Duration::from_millis(200),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let err = client.read_range(100..110).unwrap_err();
    match &err {
        atc_core::AtcError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::TimedOut, "{err}");
            assert!(io.to_string().contains("io_timeout"), "{err}");
        }
        other => panic!("expected a timeout, got {other}"),
    }
    timed_out_tx.send(()).unwrap();

    // The stale reply is now sitting in the socket. A second request of
    // the same length must fail, not return the first range's values.
    late_sent_rx.recv().unwrap();
    let second = client.read_range(500..510);
    assert!(second.is_err(), "poisoned client answered: {second:?}");
    assert!(client.stat().is_err(), "poison must stick");

    finish_tx.send(()).unwrap();
    fake.join().unwrap();
}

//! The `MGWP01` binary protocol end to end: protocol sniffing on a
//! shared port, writes read back across protocols, out-of-order completion,
//! pipeline metrics, and client recovery when the server goes away
//! mid-pipeline.

use magic_datalog::parse_program;
use magic_serve::{
    ClientError, Frame, PipeClient, ServeConfig, Server, ServerHandle, BINARY_MAGIC,
};
use magic_storage::Database;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn ancestor_program() -> magic_datalog::Program {
    parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap()
}

fn seed_db() -> Database {
    let mut db = Database::new();
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
        db.insert_pair("par", a, b);
    }
    db
}

fn start(config: ServeConfig) -> ServerHandle {
    Server::start(ancestor_program(), seed_db(), "127.0.0.1:0", config).unwrap()
}

/// One request over a raw text-protocol connection: its response
/// lines, through `END` for a multi-line answer.
fn text_request(conn: &mut BufReader<TcpStream>, line: &str) -> Vec<String> {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut lines: Vec<String> = Vec::new();
    loop {
        let mut next = String::new();
        assert!(conn.read_line(&mut next).unwrap() > 0, "server hung up");
        lines.push(next.trim_end().to_string());
        let multi_line = lines[0].starts_with("OK stats")
            || lines[0]
                .split(' ')
                .nth(1)
                .is_some_and(|n| n.parse::<u64>().is_ok());
        if !multi_line || lines.last().is_some_and(|l| l == "END") {
            return lines;
        }
    }
}

/// Writes made over one protocol must be read back over the other, on
/// the same server.  (That both protocols answer the same bytes is
/// `tests/wire_golden.rs`.)
#[test]
fn binary_and_text_clients_agree() {
    let mut server = start(ServeConfig::default());
    let mut pipe = PipeClient::connect(server.addr()).unwrap();
    let mut text = BufReader::new(TcpStream::connect(server.addr()).unwrap());

    // Write over binary, read over text…
    let ack = pipe.insert("par(d, e)").unwrap();
    assert!(ack.applied);
    let reply = text_request(&mut text, "QUERY anc(a, Y)");
    let header: Vec<&str> = reply[0].split(' ').collect();
    assert_eq!(header[1], "4", "{reply:?}");
    let version: u64 = header[2].parse().unwrap();
    assert!(
        version >= ack.version,
        "binary ack v{} must be visible to the text read v{version}",
        ack.version
    );

    // …and write over text, read over binary.
    let ack = text_request(&mut text, "RETRACT par(d, e)");
    let version: u64 = ack[0].strip_prefix("OK applied ").unwrap().parse().unwrap();
    let reply = pipe.query("anc(a, Y)").unwrap();
    assert_eq!(reply.rows.len(), 3);
    assert!(reply.version >= version);

    // Refusals classify into the typed errors.
    match pipe.insert("anc(a, z)").unwrap_err() {
        ClientError::Server(m) => assert!(m.contains("derived"), "got: {m}"),
        other => panic!("expected Server error, got {other:?}"),
    }
    assert!(matches!(
        pipe.query("anc(a Y").unwrap_err(),
        ClientError::Server(_)
    ));
    pipe.ping().unwrap();
    server.shutdown();
}

/// Many requests in flight at once, claimed in reverse submission
/// order: every response correlates by id, whatever order the server
/// completed them in.
#[test]
fn pipelined_requests_resolve_out_of_claim_order() {
    let mut server = start(ServeConfig::default());
    let mut pipe = PipeClient::connect(server.addr()).unwrap();

    let warm = pipe.submit_query("anc(a, Y)").unwrap();
    assert_eq!(pipe.wait_query(warm).unwrap().rows.len(), 3);

    let mut expect = Vec::new();
    for i in 0..32 {
        let id = pipe.submit_insert(&format!("par(q{i}, r{i})")).unwrap();
        expect.push((id, true));
    }
    let queries: Vec<u64> = (0..8)
        .map(|_| pipe.submit_query("anc(a, Y)").unwrap())
        .collect();
    assert!(pipe.in_flight() >= 40);

    // Claim queries first, then the inserts in reverse order.
    for id in queries.into_iter().rev() {
        assert_eq!(pipe.wait_query(id).unwrap().rows.len(), 3);
    }
    for (id, applied) in expect.into_iter().rev() {
        assert_eq!(pipe.wait_ack(id).unwrap().applied, applied);
    }
    assert_eq!(pipe.in_flight(), 0);

    // A claimed id cannot be claimed twice.
    assert!(matches!(
        pipe.wait_query(warm).unwrap_err(),
        ClientError::Protocol(_)
    ));
    server.shutdown();
}

/// The sniff regression: a binary frame's first byte (`M`) is
/// printable, so the protocol decision must wait for the *full* magic
/// — and a text line that happens to start with `M` must stay text.
#[test]
fn sniff_waits_for_the_full_magic_and_keeps_printable_text_text() {
    let mut server = start(ServeConfig::default());

    // Binary preamble trickled in two writes, split mid-magic: the
    // server must hold its decision, then answer with a framed
    // response.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&BINARY_MAGIC[..3]).unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(30));
    raw.write_all(&BINARY_MAGIC[3..]).unwrap();
    let frame = Frame {
        req_id: 7,
        tag: 5, // PING
        body: Vec::new(),
    };
    raw.write_all(&frame.encode()).unwrap();
    let mut buf = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut chunk = [0u8; 256];
    loop {
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed without answering the frame");
        buf.extend_from_slice(&chunk[..n]);
        if let Ok(Some((reply, _))) = Frame::decode(&buf) {
            assert_eq!(reply.req_id, 7);
            assert_eq!(reply.tag, 0, "PING must succeed");
            assert_eq!(reply.body, b"OK pong\n");
            break;
        }
    }

    // A text request starting with the magic's first byte must be
    // answered as text (an ERR line for the unknown verb), not eaten
    // by the framer.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"MAGIC?\n").unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    loop {
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed without answering the text line");
        buf.extend_from_slice(&chunk[..n]);
        if buf.ends_with(b"\n") {
            break;
        }
    }
    let line = String::from_utf8(buf).unwrap();
    assert!(
        line.starts_with("ERR ") && line.contains("unknown verb"),
        "got: {line}"
    );

    // And plain text still works untouched.
    let mut text = BufReader::new(TcpStream::connect(server.addr()).unwrap());
    assert_eq!(text_request(&mut text, "PING"), ["OK pong"]);
    server.shutdown();
}

/// Losing the server mid-pipeline must resolve every outstanding and
/// future wait with a typed error — never a hang — and a reconnect
/// against the restarted server must serve again.
#[test]
fn mid_pipeline_server_loss_errors_cleanly_and_reconnects() {
    let mut server = start(ServeConfig::default());
    let addr = server.addr();
    let mut pipe = PipeClient::connect(addr).unwrap();
    let id = pipe.submit_query("anc(a, Y)").unwrap();
    assert_eq!(pipe.wait_query(id).unwrap().rows.len(), 3);

    // Requests in flight when the server dies: each wait must return
    // — an answer if the response raced out, an error otherwise.
    let in_flight: Vec<u64> = (0..4)
        .map(|_| pipe.submit_query("anc(a, Y)").unwrap())
        .collect();
    server.shutdown();
    for id in in_flight {
        match pipe.wait_query(id) {
            Ok(reply) => assert_eq!(reply.rows.len(), 3),
            Err(e) => assert!(
                matches!(e, ClientError::Io(_) | ClientError::Protocol(_)),
                "expected a transport-shaped error, got {e:?}"
            ),
        }
    }
    // The connection is now poisoned: submits and waits keep erroring
    // immediately instead of hanging.
    let poisoned = pipe
        .submit_query("anc(a, Y)")
        .and_then(|id| pipe.wait_query(id));
    assert!(poisoned.is_err(), "poisoned pipe must not serve");

    // Restart on the same port; reconnect-and-retry must recover.
    let mut server =
        Server::start(ancestor_program(), seed_db(), addr, ServeConfig::default()).unwrap();
    let reply = pipe.query_with_retry("anc(a, Y)", 10).unwrap();
    assert_eq!(reply.rows.len(), 3);
    let id = pipe.submit_insert("par(d, e)").unwrap();
    assert!(pipe.wait_ack(id).unwrap().applied);
    server.shutdown();
}

/// `STATS` over the binary protocol reports the new shard and pipeline
/// telemetry, with the per-shard breakdown summing to the aggregates.
#[test]
fn stats_report_shards_and_pipeline_metrics() {
    let config = ServeConfig {
        writer_shards: 4,
        ..ServeConfig::default()
    };
    let mut server = start(config);
    let mut pipe = PipeClient::connect(server.addr()).unwrap();

    let ids: Vec<u64> = (0..16)
        .map(|i| pipe.submit_insert(&format!("par(s{i}, t{i})")).unwrap())
        .collect();
    for id in ids {
        assert!(pipe.wait_ack(id).unwrap().applied);
    }
    let id = pipe.submit_query("anc(a, Y)").unwrap();
    assert_eq!(pipe.wait_query(id).unwrap().rows.len(), 3);

    let id = pipe.submit_stats().unwrap();
    let stats = pipe.wait_stats(id).unwrap();
    assert_eq!(stats.writer_shards, 4);
    assert_eq!(stats.per_shard.len(), 4);
    assert_eq!(
        stats.per_shard.iter().map(|s| s.index).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    assert_eq!(
        stats.queue_depth,
        stats.per_shard.iter().map(|s| s.queue_depth).sum::<u64>()
    );
    assert_eq!(
        stats.shed_updates,
        stats.per_shard.iter().map(|s| s.shed_updates).sum::<u64>()
    );
    assert_eq!(stats.degraded, 0);
    assert!(
        stats.batch_size_p50 >= 1,
        "requests were decoded, the batch histogram must be non-empty"
    );
    assert_eq!(stats.updates_applied, 16);
    server.shutdown();
}

/// The sharded layout serves the same contents as the single-writer
/// one: read-your-writes on content after every ack, across shards.
#[test]
fn four_shard_server_serves_reads_and_writes() {
    let config = ServeConfig {
        writer_shards: 4,
        ..ServeConfig::default()
    };
    let mut server = start(config);
    let mut client = PipeClient::connect(server.addr()).unwrap();

    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 3);
    // `par` facts with distinct key constants still all route to
    // `par`'s home shard; the chain grows observably after each ack.
    for (i, link) in [("d", "e"), ("e", "f"), ("f", "g")].iter().enumerate() {
        let ack = client
            .insert(&format!("par({}, {})", link.0, link.1))
            .unwrap();
        assert!(ack.applied);
        assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 4 + i);
    }
    let ack = client.retract("par(f, g)").unwrap();
    assert!(ack.applied);
    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 5);

    // Distinct bindings may live on distinct shards; both answer.
    assert_eq!(client.query("anc(b, Y)").unwrap().rows.len(), 4);
    let stats = client.stats().unwrap();
    assert_eq!(stats.views, 2);
    server.shutdown();
}

//! Golden wire bytes of both protocols.
//!
//! One fresh default server per protocol, over the same seed chain, is sent
//! the same fixed corpus on one connection: `PING`, first-sight, cached,
//! boolean, malformed, empty and unknown-predicate queries, every kind of
//! `INSERT`/`RETRACT` outcome, each protocol's own refusals, `STATS` and
//! `QUIT`.  The exact response bytes are recorded: whole text responses, and
//! binary `(status, body)` frames.  Every request both protocols carry must
//! get the same answer from both: a binary `OK` body is the text response
//! verbatim, an `ERR` body is the text line without `ERR ` and `\n`.
//! `STATS` is parsed on both sides and recorded only by its `version` and
//! `views`; its other counters are volatile.
//!
//! After an intended change, regenerate with
//! `MAGIC_BLESS=1 cargo test --test wire_golden` and review the diff.

use power_of_magic::serve::protocol::{op, status};
use power_of_magic::serve::{Frame, ServeConfig, Server, ServerHandle, ServerStats, BINARY_MAGIC};
use power_of_magic::workloads::{chain, programs};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire.txt");

/// One request of the corpus, in the forms the protocols that carry it
/// use: a text line, a binary `(opcode, body)` frame, or both.
struct Step {
    text: Option<&'static str>,
    frame: Option<(u8, &'static [u8])>,
}

const fn both(text: &'static str, tag: u8, body: &'static [u8]) -> Step {
    Step {
        text: Some(text),
        frame: Some((tag, body)),
    }
}

const fn text_only(text: &'static str) -> Step {
    Step {
        text: Some(text),
        frame: None,
    }
}

const fn binary_only(tag: u8, body: &'static [u8]) -> Step {
    Step {
        text: None,
        frame: Some((tag, body)),
    }
}

/// The corpus, in the order it is sent.  Requests only one protocol
/// carries change no server state, so the versions in every shared
/// answer agree.
const CORPUS: &[Step] = &[
    both("PING", op::PING, b""),
    // First sight materializes the binding; the second read is cached.
    both("QUERY anc(n0, Y)", op::QUERY, b"anc(n0, Y)"),
    both("QUERY anc(n0, Y)", op::QUERY, b"anc(n0, Y)"),
    // Fully bound: one bare `ROW`.
    both("QUERY anc(n0, n3)", op::QUERY, b"anc(n0, n3)"),
    both("QUERY anc(n0 Y", op::QUERY, b"anc(n0 Y"),
    binary_only(op::QUERY, b""),
    text_only("QUERY "),
    both("QUERY nosuch(n0, Y)", op::QUERY, b"nosuch(n0, Y)"),
    both("INSERT par(n4, n5)", op::INSERT, b"par(n4, n5)"),
    both("INSERT par(n0, n1)", op::INSERT, b"par(n0, n1)"),
    both("INSERT anc(n0, n9)", op::INSERT, b"anc(n0, n9)"),
    both("INSERT par(X, n1)", op::INSERT, b"par(X, n1)"),
    both("INSERT par(n0, n1, n2)", op::INSERT, b"par(n0, n1, n2)"),
    both("QUERY anc(n0, Y)", op::QUERY, b"anc(n0, Y)"),
    both("RETRACT par(n4, n5)", op::RETRACT, b"par(n4, n5)"),
    both("RETRACT par(n7, n8)", op::RETRACT, b"par(n7, n8)"),
    text_only("EXPLAIN anc(n0, Y)"),
    binary_only(9, b"anc(n0, Y)"),
    binary_only(op::QUERY, b"anc(n0, \xff)"),
    both("STATS", op::STATS, b""),
    text_only("QUIT"),
];

fn start() -> ServerHandle {
    Server::start(
        programs::ancestor_intro(),
        chain(4),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server starts")
}

/// `STATS` as the golden records it: the two fields that do not drift.
fn stats_line(response: &[u8]) -> String {
    let text = std::str::from_utf8(response).expect("STATS is UTF-8");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("OK stats"), "{text}");
    let body: Vec<String> = lines
        .take_while(|line| *line != "END")
        .map(String::from)
        .collect();
    assert!(text.ends_with("END\n"), "STATS ends with END: {text}");
    let stats = ServerStats::parse_body(&body).expect("STATS parses");
    format!("stats version={} views={}", stats.version, stats.views)
}

/// Read one whole text response: a single line, or through `END` for the
/// multi-line `QUERY` and `STATS` answers.
fn read_text_response(reader: &mut impl BufRead) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let start = out.len();
        let n = reader.read_until(b'\n', &mut out).expect("read response");
        assert!(
            n > 0,
            "server closed mid-response: {:?}",
            out.escape_ascii()
        );
        let multi_line = out.starts_with(b"OK stats")
            || (out.starts_with(b"OK ") && out.get(3).is_some_and(u8::is_ascii_digit));
        if !multi_line || &out[start..] == b"END\n" {
            return out;
        }
    }
}

/// Run the text half of the corpus; one response per text step.
fn run_text() -> Vec<Vec<u8>> {
    let mut server = start();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut responses = Vec::new();
    for line in CORPUS.iter().filter_map(|step| step.text) {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send line");
        responses.push(read_text_response(&mut reader));
    }
    // `QUIT` closes the connection after its goodbye.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to end");
    assert!(
        rest.is_empty(),
        "bytes after QUIT: {:?}",
        rest.escape_ascii()
    );
    server.shutdown();
    responses
}

/// Run the binary half of the corpus; one `(status, body)` per frame.
fn run_binary() -> Vec<(u8, Vec<u8>)> {
    let mut server = start();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(BINARY_MAGIC).expect("send magic");
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut responses = Vec::new();
    for (req_id, (tag, body)) in CORPUS.iter().filter_map(|step| step.frame).enumerate() {
        let req_id = req_id as u64 + 1;
        let frame = Frame {
            req_id,
            tag,
            body: body.to_vec(),
        };
        stream.write_all(&frame.encode()).expect("send frame");
        let response = loop {
            if let Some((response, used)) = Frame::decode(&inbuf).expect("response frames") {
                inbuf.drain(..used);
                break response;
            }
            let n = stream.read(&mut chunk).expect("read frame");
            assert!(n > 0, "server closed before answering request {req_id}");
            inbuf.extend_from_slice(&chunk[..n]);
        };
        assert_eq!(response.req_id, req_id, "responses come back in order");
        responses.push((response.tag, response.body));
    }
    server.shutdown();
    responses
}

#[test]
fn both_protocols_answer_the_corpus_with_the_golden_bytes() {
    let mut text = run_text().into_iter();
    let mut binary = run_binary().into_iter();
    let mut text_golden = String::from("== text\n");
    let mut binary_golden = String::from("== binary\n");
    for step in CORPUS {
        let text_response = step.text.map(|line| {
            let response = text.next().expect("one response per text step");
            let shown = if line == "STATS" {
                stats_line(&response)
            } else {
                response.escape_ascii().to_string()
            };
            text_golden += &format!("> {line:?}\n< {shown}\n");
            (response, shown)
        });
        let binary_response = step.frame.map(|(tag, body)| {
            let (status, response) = binary.next().expect("one response per frame");
            let shown = if tag == op::STATS {
                assert_eq!(status, status::OK);
                stats_line(&response)
            } else {
                response.escape_ascii().to_string()
            };
            binary_golden += &format!("> {tag} \"{}\"\n< {status} {shown}\n", body.escape_ascii());
            (status, response, shown)
        });
        if let (Some((text_bytes, text_shown)), Some((status, body, shown))) =
            (text_response, binary_response)
        {
            match status {
                status::OK if step.text == Some("STATS") => assert_eq!(shown, text_shown),
                status::OK => assert_eq!(
                    body, text_bytes,
                    "{:?}: the OK body is the text response",
                    step.text
                ),
                status::ERR => assert_eq!(
                    [b"ERR ".as_slice(), &body, b"\n"].concat(),
                    text_bytes,
                    "{:?}: the ERR body is the text line without `ERR ` and `\\n`",
                    step.text
                ),
                other => panic!("unknown response status {other}"),
            }
        }
    }
    let actual = text_golden + &binary_golden;
    if std::env::var_os("MAGIC_BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("read tests/golden/wire.txt");
    if actual != expected {
        let (line, want, have) = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (want, have))| want != have)
            .map(|(i, (want, have))| (i + 1, want, have))
            .unwrap_or((0, "<layout>", "<layout>"));
        panic!(
            "wire bytes differ from {GOLDEN} at line {line}:\n  golden: {want}\n  actual: \
             {have}\n\nfull rendering:\n{actual}"
        );
    }
}

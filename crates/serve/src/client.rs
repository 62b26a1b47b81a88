//! Clients for the wire protocols.
//!
//! Two clients share one error model:
//!
//! * [`Client`] — the line-oriented text protocol.  One connection,
//!   every method a synchronous request/response round trip.  It
//!   doubles as the text protocol's reference implementation.
//! * [`PipeClient`] — the `MGWP01` binary framing.  Requests are
//!   *submitted* (nonblocking, returning a request id) and their
//!   responses *waited on* separately, so many requests ride the wire
//!   concurrently; the server answers in completion order and the
//!   client correlates by id.  This is what the throughput benchmarks
//!   drive the server with — on a loopback connection the synchronous
//!   client pays one full round trip per request, the pipelined client
//!   amortizes it across the whole in-flight window.

use crate::protocol::{op, status, Frame, ServerStats, BINARY_MAGIC, MAX_FRAME};
use magic_datalog::{parse_term, Fact, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Errors a client call can produce.  The overload/degradation refusals
/// (`Busy`, `Timeout`, `Degraded`) are parsed out of the server's
/// structured `ERR` forms so callers can branch on retry semantics
/// instead of string-matching:
///
/// * [`ClientError::Busy`] — **not applied**; retry after
///   `retry_after_ms`.
/// * [`ClientError::Timeout`] — **outcome unknown**; the command is
///   still queued server-side and may yet apply.  Retry only
///   idempotent operations.
/// * [`ClientError::Degraded`] — **not applied**; the server is
///   read-only until its durable path recovers.  Reads still work.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The server sent something the client cannot parse.
    Protocol(String),
    /// The server shed the request under overload (`ERR BUSY …`): it
    /// was never applied; retry after the hinted backoff.
    Busy {
        /// Server-suggested minimum wait before retrying, milliseconds.
        retry_after_ms: u64,
        /// The human-readable remainder of the error line.
        message: String,
    },
    /// The writer deadline expired (`ERR TIMEOUT …`): the request may
    /// still apply later — outcome unknown.
    Timeout(String),
    /// The server is in read-only degraded mode (`ERR DEGRADED …`):
    /// the update was refused (never applied); reads still serve.
    Degraded(String),
    /// The server answered `ERR <message>` (any other refusal).
    Server(String),
}

impl ClientError {
    /// True for errors after which a *query* (idempotent read) is safe
    /// and sensible to retry on a fresh connection: transport errors
    /// and both overload refusals.  `Degraded` is excluded — reads are
    /// served even while degraded, so a degraded refusal on a read
    /// path is unexpected and worth surfacing.
    pub fn is_retryable_for_reads(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Busy { .. }
                | ClientError::Timeout(_)
                | ClientError::Protocol(_)
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Busy {
                retry_after_ms,
                message,
            } => write!(f, "server busy (retry after {retry_after_ms}ms): {message}"),
            ClientError::Timeout(m) => write!(f, "server timeout (outcome unknown): {m}"),
            ClientError::Degraded(m) => write!(f, "server degraded (read-only): {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A query response: the answers plus the snapshot they were read from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryReply {
    /// The adorned binding key the serving view is cached under.
    pub key: String,
    /// Version of the snapshot the answers came from.
    pub version: u64,
    /// The answer rows (one value per free variable of the query), in the
    /// server's deterministic (sorted) order.
    pub rows: Vec<Vec<Value>>,
}

/// An update acknowledgment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateAck {
    /// True iff the update changed state (it was not a duplicate insert /
    /// absent retract).
    pub applied: bool,
    /// Version of the first published snapshot containing the update (for
    /// a no-op: the version current when it was processed).
    pub version: u64,
}

/// One protocol connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The server address, kept for [`Client::reconnect`].
    addr: SocketAddr,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            addr,
        })
    }

    /// Connect, retrying with doubling backoff (starting at 10ms,
    /// capped at 500ms per attempt) until a connection succeeds or
    /// `attempts` are exhausted.  Useful against a server that is
    /// restarting, or one whose accept path is being fault-injected
    /// (connections dropped before the handshake).
    pub fn connect_with_backoff(addr: impl ToSocketAddrs, attempts: u32) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let mut delay = Duration::from_millis(10);
        let mut last_err = io::Error::other("no connection attempts made");
        for attempt in 0..attempts.max(1) {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = e,
            }
            if attempt + 1 < attempts.max(1) {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
        }
        Err(last_err)
    }

    /// The server address this client is (or was) connected to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drop the current connection and dial the same address again,
    /// with backoff.  In-flight request state is abandoned — only call
    /// between round trips.
    pub fn reconnect(&mut self, attempts: u32) -> io::Result<()> {
        let fresh = Client::connect_with_backoff(self.addr, attempts)?;
        *self = fresh;
        Ok(())
    }

    /// [`Client::query`], retrying across reconnects.  Queries are
    /// idempotent, so a retry is always safe; the loop retries on
    /// transport errors, `BUSY` sheds and `TIMEOUT`s (reconnecting
    /// first when the transport broke), and gives up after `attempts`
    /// or on any non-retryable error.
    pub fn query_with_retry(
        &mut self,
        query: &str,
        attempts: u32,
    ) -> Result<QueryReply, ClientError> {
        let mut delay = Duration::from_millis(10);
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
            match self.query(query) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_retryable_for_reads() => {
                    // A BUSY shed honors the server's retry hint when
                    // it is longer than our own backoff.
                    if let ClientError::Busy { retry_after_ms, .. } = &e {
                        delay = delay.max(Duration::from_millis(*retry_after_ms));
                    }
                    // Transport gone (or response stream torn): the
                    // connection is unusable; re-dial before retrying.
                    if matches!(e, ClientError::Io(_) | ClientError::Protocol(_)) {
                        let _ = self.reconnect(3);
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Protocol("no query attempts made".into())))
    }

    /// Issue `QUERY <query>`; `query` uses the source syntax, e.g.
    /// `"anc(john, Y)"`.
    pub fn query(&mut self, query: &str) -> Result<QueryReply, ClientError> {
        self.send(&format!("QUERY {query}"))?;
        let header = self.read_line()?;
        let rest = expect_ok(&header)?;
        // `OK <count> <version> <key>`; the key may contain spaces.
        let mut parts = rest.splitn(3, ' ');
        let count: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad query header: {header}")))?;
        let version: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad query header: {header}")))?;
        let key = parts
            .next()
            .ok_or_else(|| ClientError::Protocol(format!("bad query header: {header}")))?
            .to_string();
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let line = self.read_line()?;
            let rest = line
                .strip_prefix("ROW")
                .ok_or_else(|| ClientError::Protocol(format!("expected ROW line, got: {line}")))?;
            let mut row = Vec::new();
            if let Some(values) = rest.strip_prefix('\t') {
                for text in values.split('\t') {
                    let value = parse_term(text)
                        .ok()
                        .and_then(|t| t.to_value())
                        .ok_or_else(|| {
                            ClientError::Protocol(format!("unparseable value {text:?}"))
                        })?;
                    row.push(value);
                }
            }
            rows.push(row);
        }
        self.expect_end()?;
        Ok(QueryReply { key, version, rows })
    }

    /// Issue `INSERT <fact>`; `fact` uses the source syntax, e.g.
    /// `"par(john, mary)"`.  Blocks until the update is live.
    pub fn insert(&mut self, fact: &str) -> Result<UpdateAck, ClientError> {
        self.update("INSERT", fact)
    }

    /// Issue `RETRACT <fact>`.  Blocks until the update is live.
    pub fn retract(&mut self, fact: &str) -> Result<UpdateAck, ClientError> {
        self.update("RETRACT", fact)
    }

    /// [`Client::insert`] for an already-built [`Fact`].
    pub fn insert_fact(&mut self, fact: &Fact) -> Result<UpdateAck, ClientError> {
        self.update("INSERT", &fact.to_atom().to_string())
    }

    /// [`Client::retract`] for an already-built [`Fact`].
    pub fn retract_fact(&mut self, fact: &Fact) -> Result<UpdateAck, ClientError> {
        self.update("RETRACT", &fact.to_atom().to_string())
    }

    /// Issue `STATS`.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.send("STATS")?;
        let header = self.read_line()?;
        let rest = expect_ok(&header)?;
        if rest != "stats" {
            return Err(ClientError::Protocol(format!(
                "expected `OK stats`, got: {header}"
            )));
        }
        let mut body = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                break;
            }
            body.push(line);
        }
        ServerStats::parse_body(&body).map_err(ClientError::Protocol)
    }

    /// Issue `PING`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send("PING")?;
        let line = self.read_line()?;
        match expect_ok(&line)? {
            "pong" => Ok(()),
            _ => Err(ClientError::Protocol(format!("expected pong, got: {line}"))),
        }
    }

    /// Issue `QUIT` and consume the goodbye.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.send("QUIT")?;
        let _ = self.read_line()?;
        Ok(())
    }

    /// Issue `SHUTDOWN`: stop the whole server (the owning
    /// [`ServerHandle`](crate::ServerHandle) still joins its threads).
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        self.send("SHUTDOWN")?;
        let _ = self.read_line()?;
        Ok(())
    }

    fn update(&mut self, verb: &str, fact: &str) -> Result<UpdateAck, ClientError> {
        self.send(&format!("{verb} {fact}"))?;
        let line = self.read_line()?;
        parse_ack_line(&line)
    }

    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn expect_end(&mut self) -> Result<(), ClientError> {
        let line = self.read_line()?;
        if line == "END" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!("expected END, got: {line}")))
        }
    }
}

/// Strip the `OK ` prefix or surface the server's `ERR`, classifying
/// the structured refusals (`BUSY`/`TIMEOUT`/`DEGRADED`) into their
/// own variants.
fn expect_ok(line: &str) -> Result<&str, ClientError> {
    if let Some(rest) = line.strip_prefix("OK") {
        return Ok(rest.strip_prefix(' ').unwrap_or(rest));
    }
    if let Some(message) = line.strip_prefix("ERR ") {
        return Err(classify_server_error(message));
    }
    Err(ClientError::Protocol(format!(
        "expected OK or ERR, got: {line}"
    )))
}

/// Map the message after `ERR ` to a [`ClientError`] variant by its
/// leading structured token (falling back to [`ClientError::Server`]).
fn classify_server_error(message: &str) -> ClientError {
    if let Some(rest) = message.strip_prefix("BUSY ") {
        // `BUSY <retry-after-ms> <detail>`; a malformed hint falls
        // back to a conservative default rather than a parse error.
        let (hint, detail) = rest.split_once(' ').unwrap_or((rest, ""));
        return ClientError::Busy {
            retry_after_ms: hint.parse().unwrap_or(100),
            message: detail.to_string(),
        };
    }
    if let Some(rest) = message.strip_prefix("TIMEOUT ") {
        return ClientError::Timeout(rest.to_string());
    }
    if let Some(rest) = message.strip_prefix("DEGRADED ") {
        return ClientError::Degraded(rest.to_string());
    }
    ClientError::Server(message.to_string())
}

/// Parse an update acknowledgment line (`OK applied <v>` / `OK noop <v>`).
fn parse_ack_line(line: &str) -> Result<UpdateAck, ClientError> {
    let rest = expect_ok(line)?;
    let (word, version) = rest
        .split_once(' ')
        .ok_or_else(|| ClientError::Protocol(format!("bad ack: {line}")))?;
    let version: u64 = version
        .parse()
        .map_err(|_| ClientError::Protocol(format!("bad ack version: {line}")))?;
    match word {
        "applied" => Ok(UpdateAck {
            applied: true,
            version,
        }),
        "noop" => Ok(UpdateAck {
            applied: false,
            version,
        }),
        _ => Err(ClientError::Protocol(format!("bad ack: {line}"))),
    }
}

/// Parse a full query response body (`OK <count> <version> <key>`,
/// `ROW` lines, `END`) out of already-received lines.
fn parse_query_lines(lines: &[&str]) -> Result<QueryReply, ClientError> {
    let header = *lines
        .first()
        .ok_or_else(|| ClientError::Protocol("empty query response".into()))?;
    let rest = expect_ok(header)?;
    let mut parts = rest.splitn(3, ' ');
    let count: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad query header: {header}")))?;
    let version: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad query header: {header}")))?;
    let key = parts
        .next()
        .ok_or_else(|| ClientError::Protocol(format!("bad query header: {header}")))?
        .to_string();
    if lines.len() != count + 2 || lines[count + 1] != "END" {
        return Err(ClientError::Protocol(format!(
            "query response advertised {count} rows but carried {} lines",
            lines.len()
        )));
    }
    let mut rows = Vec::with_capacity(count);
    for line in &lines[1..=count] {
        let rest = line
            .strip_prefix("ROW")
            .ok_or_else(|| ClientError::Protocol(format!("expected ROW line, got: {line}")))?;
        let mut row = Vec::new();
        if let Some(values) = rest.strip_prefix('\t') {
            for text in values.split('\t') {
                let value = parse_term(text)
                    .ok()
                    .and_then(|t| t.to_value())
                    .ok_or_else(|| ClientError::Protocol(format!("unparseable value {text:?}")))?;
                row.push(value);
            }
        }
        rows.push(row);
    }
    Ok(QueryReply { key, version, rows })
}

/// One completed binary response, parked until its id is waited on.
struct Completed {
    tag: u8,
    body: Vec<u8>,
    at: Instant,
}

/// A pipelined client for the `MGWP01` binary framing.
///
/// Requests are **submitted** without waiting (`submit_query`,
/// `submit_insert`, …), each returning the request id the server will
/// tag its response with; responses are claimed later with the
/// matching `wait_*` call.  Any number of requests may be in flight,
/// the server answers in completion order, and responses that arrive
/// while waiting on a different id are parked until claimed.
///
/// A transport failure poisons the connection: the *first* error
/// surfaces as [`ClientError::Io`], and every subsequent submit or
/// wait — including waits for ids that were in flight when the
/// connection died — returns an error immediately instead of hanging.
/// [`PipeClient::reconnect`] dials the same address again (abandoning
/// all in-flight state) and [`PipeClient::query_with_retry`] wraps the
/// submit/wait/reconnect loop for idempotent reads.
pub struct PipeClient {
    stream: TcpStream,
    addr: SocketAddr,
    next_id: u64,
    inbuf: Vec<u8>,
    /// Socket read buffer, allocated once per connection.
    chunk: Box<[u8]>,
    /// Ids submitted and not yet claimed by a `wait_*` call.
    pending: HashSet<u64>,
    /// Responses received for ids not yet waited on.
    completed: HashMap<u64, Completed>,
    /// Set on the first transport failure; poisons every later call.
    broken: Option<String>,
}

impl PipeClient {
    /// Connect and send the `MGWP01` preamble that selects the binary
    /// protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipeClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = PipeClient {
            stream,
            addr,
            next_id: 0,
            inbuf: Vec::new(),
            chunk: vec![0u8; 16 * 1024].into_boxed_slice(),
            pending: HashSet::new(),
            completed: HashMap::new(),
            broken: None,
        };
        client.stream.write_all(BINARY_MAGIC)?;
        Ok(client)
    }

    /// [`PipeClient::connect`], retrying with doubling backoff
    /// (10ms..500ms per attempt) until a connection succeeds or
    /// `attempts` are exhausted.
    pub fn connect_with_backoff(addr: impl ToSocketAddrs, attempts: u32) -> io::Result<PipeClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let mut delay = Duration::from_millis(10);
        let mut last_err = io::Error::other("no connection attempts made");
        for attempt in 0..attempts.max(1) {
            match PipeClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = e,
            }
            if attempt + 1 < attempts.max(1) {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
        }
        Err(last_err)
    }

    /// The server address this client is (or was) connected to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of submitted requests whose responses have not been
    /// claimed yet (parked responses count until waited on).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Drop the connection and dial the same address again with
    /// backoff.  **All in-flight state is abandoned**: parked
    /// responses are discarded and waits for pre-reconnect ids will
    /// error — only reconnect once every outstanding id is resolved or
    /// written off.
    pub fn reconnect(&mut self, attempts: u32) -> io::Result<()> {
        let fresh = PipeClient::connect_with_backoff(self.addr, attempts)?;
        let next_id = self.next_id;
        *self = fresh;
        // Keep ids unique across the reconnect so a stale id can never
        // be confused with a fresh submission's.
        self.next_id = next_id;
        Ok(())
    }

    /// Submit `QUERY <query>` (source syntax, e.g. `"anc(john, Y)"`);
    /// claim the response later with [`PipeClient::wait_query`].
    pub fn submit_query(&mut self, query: &str) -> Result<u64, ClientError> {
        self.submit(op::QUERY, query.as_bytes())
    }

    /// Submit `INSERT <fact>`; claim with [`PipeClient::wait_ack`].
    pub fn submit_insert(&mut self, fact: &str) -> Result<u64, ClientError> {
        self.submit(op::INSERT, fact.as_bytes())
    }

    /// Submit `RETRACT <fact>`; claim with [`PipeClient::wait_ack`].
    pub fn submit_retract(&mut self, fact: &str) -> Result<u64, ClientError> {
        self.submit(op::RETRACT, fact.as_bytes())
    }

    /// Submit `STATS`; claim with [`PipeClient::wait_stats`].
    pub fn submit_stats(&mut self) -> Result<u64, ClientError> {
        self.submit(op::STATS, b"")
    }

    /// Submit `PING`; claim with [`PipeClient::wait_pong`].
    pub fn submit_ping(&mut self) -> Result<u64, ClientError> {
        self.submit(op::PING, b"")
    }

    /// Wait for the response to a [`PipeClient::submit_query`] id.
    pub fn wait_query(&mut self, id: u64) -> Result<QueryReply, ClientError> {
        self.wait_query_timed(id).map(|(reply, _)| reply)
    }

    /// [`PipeClient::wait_query`], also returning the instant the
    /// response frame was decoded off the socket — the timestamp
    /// latency benchmarks difference against their submit time.
    pub fn wait_query_timed(&mut self, id: u64) -> Result<(QueryReply, Instant), ClientError> {
        let done = self.wait_raw(id)?;
        let body = completed_text(&done)?;
        let lines: Vec<&str> = body.lines().collect();
        Ok((parse_query_lines(&lines)?, done.at))
    }

    /// Claim the raw response body for `id` without interpreting it
    /// beyond the status tag, returning the payload bytes and the
    /// instant the frame was decoded off the socket: an `OK` yields
    /// the full text-protocol response verbatim, an `ERR` classifies
    /// into the structured [`ClientError`] variants.  The zero-parse
    /// consumption path for proxies and load harnesses that relay,
    /// count or discard bodies rather than materialize every row.
    pub fn wait_response_timed(&mut self, id: u64) -> Result<(Vec<u8>, Instant), ClientError> {
        let done = self.wait_raw(id)?;
        match done.tag {
            status::OK => Ok((done.body, done.at)),
            status::ERR => Err(classify_server_error(&String::from_utf8_lossy(&done.body))),
            other => Err(ClientError::Protocol(format!(
                "unknown response status {other}"
            ))),
        }
    }

    /// Wait for the acknowledgment of a submitted update.
    pub fn wait_ack(&mut self, id: u64) -> Result<UpdateAck, ClientError> {
        self.wait_ack_timed(id).map(|(ack, _)| ack)
    }

    /// [`PipeClient::wait_ack`] with the response decode instant.
    pub fn wait_ack_timed(&mut self, id: u64) -> Result<(UpdateAck, Instant), ClientError> {
        let done = self.wait_raw(id)?;
        let body = completed_text(&done)?;
        let line = body.lines().next().unwrap_or("");
        Ok((parse_ack_line(line)?, done.at))
    }

    /// Wait for the response to a [`PipeClient::submit_stats`] id.
    pub fn wait_stats(&mut self, id: u64) -> Result<ServerStats, ClientError> {
        let done = self.wait_raw(id)?;
        let body = completed_text(&done)?;
        let mut lines = body.lines();
        match lines.next() {
            Some("OK stats") => {}
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected `OK stats`, got: {other:?}"
                )))
            }
        }
        let body_lines: Vec<String> = lines
            .take_while(|line| *line != "END")
            .map(str::to_string)
            .collect();
        ServerStats::parse_body(&body_lines).map_err(ClientError::Protocol)
    }

    /// Wait for the pong of a [`PipeClient::submit_ping`] id.
    pub fn wait_pong(&mut self, id: u64) -> Result<(), ClientError> {
        let done = self.wait_raw(id)?;
        let body = completed_text(&done)?;
        match body.lines().next() {
            Some("OK pong") => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got: {other:?}"
            ))),
        }
    }

    /// One-shot pipelined read with retries: submit, wait, and on a
    /// retryable failure reconnect and try again — the same loop (and
    /// the same `BUSY`-hint handling) as [`Client::query_with_retry`],
    /// over the binary protocol.
    pub fn query_with_retry(
        &mut self,
        query: &str,
        attempts: u32,
    ) -> Result<QueryReply, ClientError> {
        let mut delay = Duration::from_millis(10);
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
            let result = self.submit_query(query).and_then(|id| self.wait_query(id));
            match result {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_retryable_for_reads() => {
                    if let ClientError::Busy { retry_after_ms, .. } = &e {
                        delay = delay.max(Duration::from_millis(*retry_after_ms));
                    }
                    if matches!(e, ClientError::Io(_) | ClientError::Protocol(_)) {
                        let _ = self.reconnect(3);
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Protocol("no query attempts made".into())))
    }

    /// Encode and write one request frame; nonblocking in the protocol
    /// sense (no response is read), blocking in the socket sense (the
    /// kernel send buffer accepts the bytes before this returns).
    fn submit(&mut self, tag: u8, body: &[u8]) -> Result<u64, ClientError> {
        if let Some(reason) = &self.broken {
            return Err(broken_error(reason));
        }
        if body.len() + 9 > MAX_FRAME {
            return Err(ClientError::Protocol(format!(
                "request body of {} bytes exceeds the frame limit",
                body.len()
            )));
        }
        self.next_id += 1;
        let id = self.next_id;
        let mut frame = Vec::with_capacity(13 + body.len());
        Frame::encode_into(id, tag, body, &mut frame);
        if let Err(e) = self.stream.write_all(&frame) {
            self.broken = Some(e.to_string());
            return Err(ClientError::Io(e));
        }
        self.pending.insert(id);
        Ok(id)
    }

    /// Read frames off the socket until `id`'s response is in hand
    /// (parking responses for other ids as they arrive).
    fn wait_raw(&mut self, id: u64) -> Result<Completed, ClientError> {
        loop {
            if let Some(done) = self.completed.remove(&id) {
                self.pending.remove(&id);
                return Ok(done);
            }
            if !self.pending.contains(&id) {
                return Err(ClientError::Protocol(format!(
                    "request id {id} was never submitted (or was already claimed)"
                )));
            }
            if let Some(reason) = self.broken.clone() {
                self.pending.remove(&id);
                return Err(broken_error(&reason));
            }
            // Decode every complete frame already buffered before
            // touching the socket again; the consumed prefix leaves
            // the buffer once, after the loop.
            let mut consumed = 0usize;
            loop {
                match Frame::decode(&self.inbuf[consumed..]) {
                    Ok(Some((frame, used))) => {
                        consumed += used;
                        self.completed.insert(
                            frame.req_id,
                            Completed {
                                tag: frame.tag,
                                body: frame.body,
                                at: Instant::now(),
                            },
                        );
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.broken = Some(format!("response framing broke: {e}"));
                        break;
                    }
                }
            }
            self.inbuf.drain(..consumed);
            if consumed > 0 || self.broken.is_some() {
                continue;
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    self.broken = Some("server closed the connection".into());
                }
                Ok(n) => self.inbuf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.broken = Some(e.to_string());
                }
            }
        }
    }
}

/// The error every call on a poisoned [`PipeClient`] returns.
fn broken_error(reason: &str) -> ClientError {
    ClientError::Io(io::Error::other(format!(
        "pipelined connection is broken: {reason}"
    )))
}

/// Decode a completed response: an `ERR` status classifies into the
/// structured [`ClientError`] variants, an `OK` status yields the
/// text-protocol response body.
fn completed_text(done: &Completed) -> Result<String, ClientError> {
    let body = String::from_utf8_lossy(&done.body).into_owned();
    match done.tag {
        status::OK => Ok(body),
        status::ERR => Err(classify_server_error(&body)),
        other => Err(ClientError::Protocol(format!(
            "unknown response status {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_errors_classify() {
        match classify_server_error("BUSY 100 writer queue is at capacity (32)") {
            ClientError::Busy {
                retry_after_ms,
                message,
            } => {
                assert_eq!(retry_after_ms, 100);
                assert!(message.contains("capacity"));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        assert!(matches!(
            classify_server_error("TIMEOUT writer did not respond within 50ms; ..."),
            ClientError::Timeout(_)
        ));
        assert!(matches!(
            classify_server_error("DEGRADED read-only: the durable path is failing"),
            ClientError::Degraded(_)
        ));
        assert!(matches!(
            classify_server_error("arity mismatch: par is stored with arity 2"),
            ClientError::Server(_)
        ));
        assert!(!ClientError::Degraded("x".into()).is_retryable_for_reads());
        assert!(ClientError::Timeout("x".into()).is_retryable_for_reads());
    }
}

//! The wire protocol: one request grammar, two framings on one port.
//!
//! The build environment is intentionally dependency-free (no crates.io),
//! so the protocol is hand-rolled in-tree like the workspace's other
//! offline stubs.  Every request decodes to one [`Request`] and goes
//! down one dispatch path in the server; only the framing differs:
//!
//! * the `MGWP01` binary framing ([`Frame`]) carries request ids, so a
//!   client can pipeline and the server answers in completion order —
//!   what [`crate::PipeClient`] speaks;
//! * the line-oriented text protocol is the `nc`-typable adapter: one
//!   request per UTF-8 line, answered strictly in request order.  It
//!   alone has `QUIT` and `SHUTDOWN`.
//!
//! Response payloads are the same text in both framings (a binary
//! response body is the text response, see [`status`]).
//!
//! # Requests
//!
//! ```text
//! QUERY anc(john, Y)        plan/materialize on first sight, then answer
//! INSERT par(john, mary)    enqueue a base-fact insertion (acked when live)
//! RETRACT par(john, mary)   enqueue a base-fact retraction
//! STATS                     snapshot version, counters, per-view totals
//! PING                      liveness probe
//! QUIT                      close this connection (text only)
//! SHUTDOWN                  stop the whole server (text only)
//! ```
//!
//! # Responses
//!
//! Every response starts with `OK …` or `ERR <message>`.  Multi-line
//! responses (`QUERY`, `STATS`) are terminated by a line reading `END`.
//!
//! Three error messages are *structured* — their first token is a
//! machine-readable word that tells a client what a refused update
//! means (see [`crate::ClientError`] for the client-side mapping):
//!
//! ```text
//! ERR BUSY <retry-after-ms> <detail>   shed: NOT applied; retry after the hint
//! ERR TIMEOUT <detail>                 outcome UNKNOWN: still queued, may apply
//! ERR DEGRADED <detail>                NOT applied; server is read-only until
//!                                      its durable path recovers (STATS degraded)
//! ```
//!
//! * `QUERY` → `OK <count> <version> <key>` followed by `<count>` lines
//!   `ROW<TAB>v1<TAB>v2…` (one tab-separated value per free variable of
//!   the query; a boolean query's single row is a bare `ROW`), then `END`.
//!   `<version>` is the snapshot the answers were read from, `<key>` the
//!   adorned binding key the view is cached under (it may contain spaces,
//!   so it is always the final header field).
//! * `INSERT` / `RETRACT` → `OK applied <version>` once the update is in
//!   the published snapshot `<version>`, or `OK noop <version>` when it
//!   was a no-op (duplicate insert / absent retract).
//! * `STATS` → `OK stats`, `name=value` lines, one
//!   `view<TAB><key><TAB>facts=<n><TAB>firings=<n><TAB>probes=<n>` line
//!   per cached view, then `END`.
//! * `PING` → `OK pong`; `QUIT`/`SHUTDOWN` → `OK bye`.
//!
//! Values use the Datalog term syntax on the wire in both directions
//! (symbols, integers, compound terms like `cons(a, nil)`; a symbol that
//! is not a bare lower-case identifier is quoted, `'New York'`), so
//! [`parse_term`](magic_datalog::parse_term) round-trips them; rows never
//! contain tabs or newlines (quoted constants refuse control
//! characters), which is what makes the framing trivial.

use magic_datalog::{parse_query, Fact, Query, Value};

/// The binary protocol's connection preamble: a client that wants
/// pipelined framing opens its stream with exactly these six bytes.
///
/// The server sniffs the first bytes of every connection against this
/// magic **in full** — never just the first byte.  (`b'M'` is
/// printable, so a first-byte-only printability heuristic would
/// misclassify every binary connection as text; the full-magic check
/// is the regression guard.)  A text connection's first verb can never
/// collide: no request verb starts with `MGWP01`.
pub const BINARY_MAGIC: &[u8; 6] = b"MGWP01";

/// Hard cap on one binary frame's payload (16 MiB): a length prefix
/// past it is a protocol error, not an allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// Binary request opcodes (the `tag` of a client→server [`Frame`]).
pub mod op {
    /// `QUERY` — body is the query atom text.
    pub const QUERY: u8 = 1;
    /// `INSERT` — body is the ground fact text.
    pub const INSERT: u8 = 2;
    /// `RETRACT` — body is the ground fact text.
    pub const RETRACT: u8 = 3;
    /// `STATS` — empty body.
    pub const STATS: u8 = 4;
    /// `PING` — empty body.
    pub const PING: u8 = 5;
}

/// Binary response status (the `tag` of a server→client [`Frame`]).
pub mod status {
    /// Success: the body is the text protocol's full `OK …` response
    /// for the request (including its `END` terminator when
    /// multi-line).
    pub const OK: u8 = 0;
    /// Refusal: the body is the error message, exactly the text after
    /// the text protocol's `ERR ` prefix (structured first tokens —
    /// `BUSY`/`TIMEOUT`/`DEGRADED` — included).
    pub const ERR: u8 = 1;
}

/// One binary frame, either direction:
///
/// ```text
/// [u32 LE payload-len][u64 LE request-id][u8 tag][body bytes]
/// ```
///
/// `payload-len` counts everything after the length word (so it is
/// `9 + body.len()`).  The request id is chosen by the client and
/// echoed verbatim in the response frame, which is what makes
/// pipelining work: a client may have any number of requests in
/// flight, and the server may answer them **out of order** — reads
/// complete from the published snapshot immediately while an update
/// ahead of them is still waiting on the writer.  The body is
/// UTF-8 text reusing the text protocol's grammar in both directions;
/// the frame layer adds what the text protocol lacks (request ids,
/// batching, out-of-order completion), not a second payload encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen correlation id, echoed in the response.
    pub req_id: u64,
    /// Request opcode ([`op`]) or response status ([`status`]).
    pub tag: u8,
    /// UTF-8 payload (request argument or response text).
    pub body: Vec<u8>,
}

impl Frame {
    /// Encode the frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 + self.body.len());
        Frame::encode_into(self.req_id, self.tag, &self.body, &mut out);
        out
    }

    /// Append the encoding of a frame to `out` without building a
    /// [`Frame`] first: how both ends stage a frame straight into
    /// their send buffer, one copy of the body.
    pub fn encode_into(req_id: u64, tag: u8, body: &[u8], out: &mut Vec<u8>) {
        let len = 9 + body.len();
        out.reserve(4 + len);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.extend_from_slice(&req_id.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(body);
    }

    /// Decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a partial frame (read
    /// more and retry), `Ok(Some((frame, consumed)))` on success, and
    /// `Err` on an unframeable prefix (undersized or oversized length
    /// word) — the connection is beyond resync and should close.
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, String> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len < 9 {
            return Err(format!("binary frame payload too short ({len} bytes)"));
        }
        if len > MAX_FRAME {
            return Err(format!(
                "binary frame payload of {len} bytes exceeds the {MAX_FRAME}-byte cap"
            ));
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let mut req_id = [0u8; 8];
        req_id.copy_from_slice(&buf[4..12]);
        Ok(Some((
            Frame {
                req_id: u64::from_le_bytes(req_id),
                tag: buf[12],
                body: buf[13..4 + len].to_vec(),
            },
            4 + len,
        )))
    }
}

/// What a connection's opening bytes say about its protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sniff {
    /// Too few bytes to decide yet (everything so far is a proper
    /// prefix of [`BINARY_MAGIC`]): read more.
    Undecided,
    /// The stream opened with the full binary magic; the caller should
    /// consume [`BINARY_MAGIC`]`.len()` bytes and frame from there.
    Binary,
    /// Anything else: the line-oriented text protocol.
    Text,
}

/// Classify a connection's opening bytes.  The check matches the
/// *entire* magic, not a printability heuristic on the first byte —
/// `MGWP01` deliberately starts with a printable `M` so any sniff
/// shortcut fails loudly in tests rather than silently in production.
pub fn sniff(first_bytes: &[u8]) -> Sniff {
    let shared = first_bytes.len().min(BINARY_MAGIC.len());
    if first_bytes[..shared] != BINARY_MAGIC[..shared] {
        return Sniff::Text;
    }
    if first_bytes.len() >= BINARY_MAGIC.len() {
        Sniff::Binary
    } else {
        Sniff::Undecided
    }
}

/// One decoded request, from a text line ([`parse_request`]) or a
/// binary frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `QUERY <atom>` — answer a (possibly non-ground) query.
    Query(Query),
    /// `INSERT <ground atom>` — insert a base fact.
    Insert(Fact),
    /// `RETRACT <ground atom>` — retract a base fact.
    Retract(Fact),
    /// `STATS` — report serving counters.
    Stats,
    /// `PING` — liveness probe.
    Ping,
    /// `QUIT` — close the connection (text protocol only).
    Quit,
    /// `SHUTDOWN` — stop the server (text protocol only).
    Shutdown,
}

/// Decode one binary request frame's opcode and body into the
/// [`Request`] a text line would carry.  The errors are the binary
/// protocol's own: a body that is not UTF-8, a query or fact that does
/// not parse, an unknown opcode.
pub(crate) fn parse_frame(tag: u8, body: &[u8]) -> Result<Request, String> {
    let text = || {
        std::str::from_utf8(body)
            .map(str::trim)
            .map_err(|_| "request body is not UTF-8".to_string())
    };
    match tag {
        op::QUERY => parse_query(text()?)
            .map(Request::Query)
            .map_err(|e| format!("bad query: {e}")),
        op::INSERT => Ok(Request::Insert(parse_fact(text()?)?)),
        op::RETRACT => Ok(Request::Retract(parse_fact(text()?)?)),
        op::STATS => Ok(Request::Stats),
        op::PING => Ok(Request::Ping),
        other => Err(format!(
            "unknown binary op {other} (expected QUERY=1, INSERT=2, RETRACT=3, STATS=4 or \
             PING=5)"
        )),
    }
}

/// Parse one request line (already stripped of its newline).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb {
        "QUERY" => {
            if rest.is_empty() {
                return Err("QUERY needs an atom, e.g. QUERY anc(john, Y)".into());
            }
            let query = parse_query(rest).map_err(|e| format!("bad query: {e}"))?;
            Ok(Request::Query(query))
        }
        "INSERT" => Ok(Request::Insert(parse_fact(rest)?)),
        "RETRACT" => Ok(Request::Retract(parse_fact(rest)?)),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "" => Err("empty request".into()),
        other => Err(format!(
            "unknown verb {other:?} (expected QUERY, INSERT, RETRACT, STATS, PING, QUIT or \
             SHUTDOWN)"
        )),
    }
}

/// Parse a ground atom like `par(john, mary)` into a [`Fact`].
pub fn parse_fact(text: &str) -> Result<Fact, String> {
    if text.is_empty() {
        return Err("expected a ground atom, e.g. par(john, mary)".into());
    }
    let query = parse_query(text).map_err(|e| format!("bad fact: {e}"))?;
    let values: Option<Vec<Value>> = query.atom.terms.iter().map(|t| t.to_value()).collect();
    match values {
        Some(values) => Ok(Fact::new(query.atom.pred, values)),
        None => Err(format!("fact must be ground: {text}")),
    }
}

/// Per-view totals reported by `STATS`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// The adorned binding key the view is cached under.
    pub key: String,
    /// Total facts (base + derived) in the view's maintained database.
    pub facts: u64,
    /// Lifetime rule firings of the view (construction + maintenance).
    pub rule_firings: u64,
    /// Lifetime join probes of the view.
    pub join_probes: u64,
    /// Full recomputes forced by updates (non-zero only for views whose
    /// program uses negation or aggregates — the v1 recompute-on-update
    /// maintenance fallback).
    pub recomputes: u64,
    /// Why the view is maintained by recompute, if it is (empty for
    /// incrementally maintained views).
    pub recompute_reason: String,
}

/// The counters reported by `STATS`: the published snapshot, the serving
/// counters, and the maintenance totals aggregated over every cached view
/// (see [`ViewCatalog::aggregate_stats`](magic_incr::ViewCatalog::aggregate_stats)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Version of the currently published snapshot.
    pub version: u64,
    /// Number of live query bindings (each answers one cached query).
    pub views: u64,
    /// Number of maintained fixpoints those bindings read: every binding
    /// of one rewritten program is a seed of the same view.
    pub materialized: u64,
    /// Queries answered since the server started.
    pub queries_served: u64,
    /// State-changing updates applied and published.
    pub updates_applied: u64,
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Bindings the catalog dropped — failed maintenance, TTL expiry or
    /// the `max_views` cap (they re-materialize on next sight).
    pub views_evicted: u64,
    /// Aggregated fixpoint iterations over all views.
    pub iterations: u64,
    /// Aggregated rule firings over all views.
    pub rule_firings: u64,
    /// Aggregated new facts derived over all views.
    pub facts_derived: u64,
    /// Aggregated duplicate derivations over all views.
    pub duplicate_derivations: u64,
    /// Aggregated join probes over all views.
    pub join_probes: u64,
    /// Bytes currently in the write-ahead log (0 when durability is
    /// off): the replay debt a crash right now would incur.
    pub wal_bytes: u64,
    /// WAL sequence number the newest checkpoint covers through (0
    /// when durability is off or nothing is checkpointed yet).
    pub last_checkpoint: u64,
    /// Failed response writes to clients (the connection is closed
    /// after the failure; the server carries on).
    pub write_errors: u64,
    /// Writer commands currently in flight (enqueued, not yet popped);
    /// the gauge the `BUSY` shed decision reads.
    pub queue_depth: u64,
    /// Updates refused with `ERR BUSY …` because the writer queue was
    /// at capacity.  Shed updates were never applied or logged.
    pub shed_updates: u64,
    /// Writer round-trips that exceeded the configured deadline and
    /// returned `ERR TIMEOUT …` (outcome unknown to that client).
    pub deadline_misses: u64,
    /// 1 while the server is in read-only degraded mode (updates
    /// refused with `ERR DEGRADED …`), 0 when healthy.
    pub degraded: u64,
    /// Lifetime count of transitions *into* degraded mode.
    pub degraded_entered: u64,
    /// Pipelined requests currently in flight across all connections
    /// (decoded but not yet answered).
    pub inflight_requests: u64,
    /// Median number of requests decoded per connection pump — the
    /// observed pipelining batch size (1 on a strictly synchronous
    /// client; larger means fewer syscalls per request).
    pub batch_size_p50: u64,
    /// Views maintained by full recompute instead of incrementally —
    /// programs with negation or aggregates (the v1 fallback, see the
    /// per-view `recompute_reason`).
    pub recompute_views: u64,
    /// Times a reader thread returned from its readiness wait, summed
    /// over the pool.  Readers block until a socket, a writer's reply
    /// or a timer needs them, so this stands still while the server is
    /// idle, however many connections are open.
    pub reader_wakeups: u64,
    /// Per-view totals, in catalog key order.
    pub per_view: Vec<ViewStats>,
}

impl ServerStats {
    /// Render the `STATS` response body (header, fields, views, `END`).
    pub fn render(&self) -> String {
        let mut out = String::from("OK stats\n");
        for (name, value) in self.clone().fields() {
            out.push_str(&format!("{name}={value}\n"));
        }
        for view in &self.per_view {
            out.push_str(&format!(
                "view\t{}\tfacts={}\tfirings={}\tprobes={}\trecomputes={}\treason={}\n",
                view.key,
                view.facts,
                view.rule_firings,
                view.join_probes,
                view.recomputes,
                if view.recompute_reason.is_empty() {
                    "-"
                } else {
                    &view.recompute_reason
                }
            ));
        }
        out.push_str("END\n");
        out
    }

    /// Parse the body lines of a `STATS` response (everything between the
    /// `OK stats` header and `END`, exclusive).
    pub fn parse_body(lines: &[String]) -> Result<ServerStats, String> {
        let mut stats = ServerStats::default();
        for line in lines {
            if let Some(rest) = line.strip_prefix("view\t") {
                let mut parts = rest.split('\t');
                let key = parts
                    .next()
                    .ok_or_else(|| format!("bad view line: {line}"))?;
                let mut view = ViewStats {
                    key: key.to_string(),
                    ..ViewStats::default()
                };
                for part in parts {
                    let (name, value) = part
                        .split_once('=')
                        .ok_or_else(|| format!("bad view field {part:?} in: {line}"))?;
                    if name == "reason" {
                        if value != "-" {
                            view.recompute_reason = value.to_string();
                        }
                        continue;
                    }
                    let value: u64 = value
                        .parse()
                        .map_err(|_| format!("bad view number {value:?} in: {line}"))?;
                    match name {
                        "facts" => view.facts = value,
                        "firings" => view.rule_firings = value,
                        "probes" => view.join_probes = value,
                        "recomputes" => view.recomputes = value,
                        // Forward compatibility, same as the scalar
                        // fields: a newer server may report more.
                        _ => {}
                    }
                }
                stats.per_view.push(view);
                continue;
            }
            let (name, value) = line
                .split_once('=')
                .ok_or_else(|| format!("bad stats line: {line}"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("bad stats number {value:?} in: {line}"))?;
            // Forward compatibility: a newer server may report more.
            if let Some((_, field)) = stats.fields().into_iter().find(|(n, _)| *n == name) {
                *field = value;
            }
        }
        Ok(stats)
    }

    /// The scalar fields by wire name, in wire order: what `render`
    /// prints and `parse_body` fills.
    fn fields(&mut self) -> [(&'static str, &mut u64); 24] {
        [
            ("version", &mut self.version),
            ("views", &mut self.views),
            ("materialized", &mut self.materialized),
            ("queries", &mut self.queries_served),
            ("updates", &mut self.updates_applied),
            ("connections", &mut self.connections),
            ("views_evicted", &mut self.views_evicted),
            ("iterations", &mut self.iterations),
            ("rule_firings", &mut self.rule_firings),
            ("facts_derived", &mut self.facts_derived),
            ("duplicate_derivations", &mut self.duplicate_derivations),
            ("join_probes", &mut self.join_probes),
            ("wal_bytes", &mut self.wal_bytes),
            ("last_checkpoint", &mut self.last_checkpoint),
            ("write_errors", &mut self.write_errors),
            ("queue_depth", &mut self.queue_depth),
            ("shed_updates", &mut self.shed_updates),
            ("deadline_misses", &mut self.deadline_misses),
            ("degraded", &mut self.degraded),
            ("degraded_entered", &mut self.degraded_entered),
            ("inflight_requests", &mut self.inflight_requests),
            ("batch_size_p50", &mut self.batch_size_p50),
            ("recompute_views", &mut self.recompute_views),
            ("reader_wakeups", &mut self.reader_wakeups),
        ]
    }
}

/// Render a `QUERY` response: header, one `ROW` line per answer, `END`.
pub fn render_answers(key: &str, version: u64, rows: &[Vec<Value>]) -> String {
    let mut out = format!("OK {} {} {}\n", rows.len(), version, key);
    for row in rows {
        out.push_str("ROW");
        for value in row {
            out.push('\t');
            out.push_str(&value.to_string());
        }
        out.push('\n');
    }
    out.push_str("END\n");
    out
}

/// Render an `INSERT`/`RETRACT` acknowledgment.
pub fn render_ack(applied: bool, version: u64) -> String {
    if applied {
        format!("OK applied {version}\n")
    } else {
        format!("OK noop {version}\n")
    }
}

/// Render an error response.  The message is flattened to one line so the
/// framing survives arbitrary error text.
pub fn render_error(message: &str) -> String {
    let flat: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {flat}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert!(matches!(
            parse_request("QUERY anc(john, Y)").unwrap(),
            Request::Query(_)
        ));
        let fact = Fact::plain("par", vec![Value::sym("a"), Value::sym("b")]);
        assert_eq!(
            parse_request("INSERT par(a, b)").unwrap(),
            Request::Insert(fact.clone())
        );
        assert_eq!(
            parse_request("  RETRACT par(a, b)  ").unwrap(),
            Request::Retract(fact)
        );
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert!(parse_request("").is_err());
        assert!(parse_request("EXPLAIN anc(X, Y)").is_err());
        assert!(parse_request("INSERT par(X, b)").is_err()); // not ground
        assert!(parse_request("QUERY ").is_err());
    }

    #[test]
    fn stats_round_trip() {
        let stats = ServerStats {
            version: 7,
            views: 2,
            materialized: 1,
            queries_served: 100,
            updates_applied: 31,
            connections: 4,
            views_evicted: 1,
            iterations: 12,
            rule_firings: 345,
            facts_derived: 200,
            duplicate_derivations: 9,
            join_probes: 9999,
            wal_bytes: 4096,
            last_checkpoint: 18,
            write_errors: 3,
            queue_depth: 5,
            shed_updates: 77,
            deadline_misses: 2,
            degraded: 1,
            degraded_entered: 6,
            inflight_requests: 12,
            batch_size_p50: 8,
            recompute_views: 1,
            reader_wakeups: 321,
            per_view: vec![ViewStats {
                key: "anc[bf](a, b)@gms".into(),
                facts: 42,
                rule_firings: 17,
                join_probes: 2048,
                recomputes: 3,
                recompute_reason: "guarded program: negation".into(),
            }],
        };
        let rendered = stats.render();
        let lines: Vec<String> = rendered
            .lines()
            .skip(1) // OK stats
            .take_while(|l| *l != "END")
            .map(String::from)
            .collect();
        assert_eq!(ServerStats::parse_body(&lines).unwrap(), stats);
    }

    #[test]
    fn answers_render_tab_separated_rows() {
        let rows = vec![
            vec![Value::sym("mary"), Value::Int(3)],
            vec![Value::sym("ann"), Value::Int(4)],
        ];
        let text = render_answers("anc[bf](john)@gms", 9, &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "OK 2 9 anc[bf](john)@gms");
        assert_eq!(lines[1], "ROW\tmary\t3");
        assert_eq!(lines[2], "ROW\tann\t4");
        assert_eq!(lines[3], "END");
        // A boolean (fully bound) query's row carries no values.
        assert_eq!(render_answers("k", 1, &[vec![]]), "OK 1 1 k\nROW\nEND\n");
    }

    #[test]
    fn frames_round_trip_and_reject_bad_lengths() {
        let frame = Frame {
            req_id: 0xDEAD_BEEF_CAFE_F00D,
            tag: op::QUERY,
            body: b"anc(john, Y)".to_vec(),
        };
        let bytes = frame.encode();
        // Partial prefixes decode to "need more", byte by byte.
        for cut in 0..bytes.len() {
            assert_eq!(Frame::decode(&bytes[..cut]).unwrap(), None, "cut={cut}");
        }
        let (decoded, consumed) = Frame::decode(&bytes).unwrap().unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(consumed, bytes.len());
        // Staging into a buffer appends the same bytes `encode` returns.
        let mut staged = b"earlier".to_vec();
        Frame::encode_into(frame.req_id, frame.tag, &frame.body, &mut staged);
        assert_eq!(staged[7..], bytes[..]);
        // Two frames back to back: the first decode consumes exactly one.
        let mut two = bytes.clone();
        let second = Frame {
            req_id: 2,
            tag: status::OK,
            body: b"OK pong\n".to_vec(),
        };
        two.extend_from_slice(&second.encode());
        let (first, consumed) = Frame::decode(&two).unwrap().unwrap();
        assert_eq!(first, frame);
        let (next, _) = Frame::decode(&two[consumed..]).unwrap().unwrap();
        assert_eq!(next, second);
        // An empty body is legal (STATS/PING).
        let empty = Frame {
            req_id: 9,
            tag: op::STATS,
            body: vec![],
        };
        let (decoded, _) = Frame::decode(&empty.encode()).unwrap().unwrap();
        assert_eq!(decoded, empty);
        // Undersized and oversized length words are hard errors.
        assert!(Frame::decode(&3u32.to_le_bytes()).is_err());
        assert!(Frame::decode(&(MAX_FRAME as u32 + 1).to_le_bytes()).is_err());
    }

    #[test]
    fn sniff_requires_the_full_magic_not_a_printable_first_byte() {
        // Regression: a binary frame starts with printable bytes
        // ('M'), so a first-byte printability heuristic would call
        // every binary connection text.  The sniff must match the
        // whole magic.
        assert_eq!(sniff(b""), Sniff::Undecided);
        assert_eq!(sniff(b"M"), Sniff::Undecided);
        assert_eq!(sniff(b"MGWP0"), Sniff::Undecided);
        assert_eq!(sniff(b"MGWP01"), Sniff::Binary);
        assert_eq!(sniff(b"MGWP01\x15\0\0\0"), Sniff::Binary);
        // Text requests diverge from the magic early — even ones that
        // share a first byte with it.
        assert_eq!(sniff(b"QUERY anc(a, Y)\n"), Sniff::Text);
        assert_eq!(sniff(b"MGWP02"), Sniff::Text); // wrong version byte
        assert_eq!(sniff(b"MG"), Sniff::Undecided);
        assert_eq!(sniff(b"MX"), Sniff::Text);
        assert_eq!(sniff(b"PING\n"), Sniff::Text);
    }
}

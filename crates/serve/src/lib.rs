//! # magic-serve
//!
//! A concurrent query-serving front end over
//! [`magic_incr::ViewCatalog`]: the workspace's "heavy live traffic"
//! layer, turning the paper's per-query-binding magic-set views into a
//! network service.
//!
//! The paper's whole point is answering *bound* queries cheaply — an
//! adorned magic-set view is a per-query-binding artifact, which is
//! exactly the shape of a request/response serving layer.  Because the
//! magic transformation preserves answers exactly (Drabent's correctness
//! proof, arXiv:1012.2299), a maintained view can stand in for
//! from-scratch evaluation for every query that shares its binding; this
//! crate keeps a catalog of such views live under a stream of updates and
//! serves them over TCP.
//!
//! * [`Server`] / [`ServerHandle`] — a pooled, pipelined TCP server: an
//!   accept loop deals connections to a fixed pool of reader threads,
//!   each blocked in one `poll(2)` until a socket, a writer's reply or
//!   a timer needs it and then pumping its connections (read, decode
//!   every buffered request, collect writer replies, write
//!   responses), in front of one maintenance writer with a bounded
//!   queue, an optional write-ahead log and a published snapshot slot.
//!   Readers never block on maintenance; writes serialize through the
//!   writer and are acknowledged only once the containing snapshot is
//!   live.
//! * [`protocol`] — one request grammar on one port, hand-rolled
//!   in-tree because the build environment has no crates.io access:
//!   the pipelined `MGWP01` binary framing ([`protocol::Frame`]) with
//!   client request ids and out-of-order responses, and the
//!   line-oriented text protocol (`QUERY anc(john, Y)`,
//!   `INSERT par(a, b)`, `RETRACT …`, `STATS`) as its `nc`-typable
//!   adapter, selected by a full-magic preamble sniff.  Both decode to
//!   one [`Request`] and one server dispatch.
//! * [`PipeClient`] — the client: submit/wait pipelining over the
//!   binary framing, with blocking `query`/`insert`/`retract`/`stats`/
//!   `ping` helpers that are the same client at window 1.
//!
//! See the repository's top-level `README.md` for the quickstart and
//! `ARCHITECTURE.md` for how the serving path fits the engine underneath.
//!
//! ```
//! use magic_core::planner::Strategy;
//! use magic_datalog::parse_program;
//! use magic_serve::{PipeClient, ServeConfig, Server};
//! use magic_storage::Database;
//!
//! let program = parse_program(
//!     "anc(X, Y) :- par(X, Y).
//!      anc(X, Y) :- par(X, Z), anc(Z, Y).",
//! )
//! .unwrap();
//! let mut db = Database::new();
//! db.insert_pair("par", "john", "mary");
//!
//! let mut server =
//!     Server::start(program, db, "127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = PipeClient::connect(server.addr()).unwrap();
//!
//! assert_eq!(client.query("anc(john, Y)").unwrap().rows.len(), 1);
//! client.insert("par(mary, ann)").unwrap();
//! assert_eq!(client.query("anc(john, Y)").unwrap().rows.len(), 2);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(not(unix))]
compile_error!("magic-serve blocks its threads in poll(2) (src/ready.rs) and needs a unix target");

pub mod client;
pub mod protocol;
mod ready;
pub mod server;
mod writer;

pub use client::{ClientError, PipeClient, QueryReply, UpdateAck};
pub use protocol::{Frame, Request, ServerStats, Sniff, ViewStats, BINARY_MAGIC};
pub use server::{ServeConfig, Server, ServerHandle};
